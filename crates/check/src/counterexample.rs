//! Serializable, replayable, minimizable counterexample schedules.
//!
//! When the checker finds a violated property it does not just say so — it
//! emits the complete recipe for reproducing it: the topology, the initial
//! spanning tree, the exact event schedule, and the violation it triggers.
//! [`Counterexample::replay`] re-drives a fresh [`ControlledNet`] through
//! the schedule deterministically; [`Counterexample::minimize`] greedily
//! deletes events while the violation still reproduces, which collapses the
//! incidental interleaving noise a DFS path accumulates into the handful of
//! deliveries that actually matter.

use crate::invariant::{InvariantSuite, Violation};
use mdst_core::MdstNode;
use mdst_graph::graph::graph_from_edges;
use mdst_graph::{NodeId, RootedTree};
use mdst_netsim::{ControlledEvent, ControlledNet, StartDiscipline};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A complete, self-contained reproduction recipe for one property
/// violation. Serializes to JSON and back losslessly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counterexample {
    /// Number of nodes in the topology.
    pub n: usize,
    /// Undirected edges of the topology.
    pub edges: Vec<(usize, usize)>,
    /// Root of the initial spanning tree.
    pub root: usize,
    /// Initial spanning tree as a parent vector (`None` at the root).
    pub initial_parents: Vec<Option<usize>>,
    /// Whether starts were explicit schedule events (lazy discipline).
    pub lazy_starts: bool,
    /// The event schedule that reaches the violating state.
    pub schedule: Vec<ControlledEvent>,
    /// The property that failed at the end of the schedule.
    pub violation: Violation,
    /// Whether the violation fired at a quiescent state (outcome property)
    /// rather than mid-flight (safety property).
    pub at_quiescence: bool,
}

/// Replay failed: an event in the schedule was not enabled, or the recorded
/// violation did not reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The recipe itself is malformed (bad edges or parent vector).
    BadRecipe(String),
    /// A scheduled event was rejected by the net.
    NotEnabled(String),
    /// The schedule ran to completion without reproducing the violation.
    NoViolation,
    /// A different violation fired than the recorded one.
    DifferentViolation(Violation),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadRecipe(s) => write!(f, "malformed counterexample: {s}"),
            ReplayError::NotEnabled(s) => write!(f, "schedule not replayable: {s}"),
            ReplayError::NoViolation => write!(f, "schedule replayed without any violation"),
            ReplayError::DifferentViolation(v) => {
                write!(f, "schedule reproduced a different violation: {v}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl Counterexample {
    /// Builds the initial [`ControlledNet`] this recipe starts from.
    pub fn initial_net(&self) -> Result<ControlledNet<MdstNode>, ReplayError> {
        let bad = |e: &dyn fmt::Display| ReplayError::BadRecipe(e.to_string());
        // Repeated edges, in either orientation, merge into one link.
        let mut edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // The builder checks `n` and every endpoint as `usize`; the root and
        // parents are checked here, before `NodeId::new` could truncate them.
        let graph = Arc::new(graph_from_edges(self.n, &edges).map_err(|e| bad(&e))?);
        let node = |u: usize, what: &str| {
            if u < self.n {
                Ok(NodeId::new(u))
            } else {
                Err(ReplayError::BadRecipe(format!(
                    "{what} {u} out of range for n = {}",
                    self.n
                )))
            }
        };
        let parents = self
            .initial_parents
            .iter()
            .map(|p| p.map(|p| node(p, "parent")).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        let tree =
            RootedTree::from_parents(node(self.root, "root")?, parents).map_err(|e| bad(&e))?;
        tree.validate_against(&graph).map_err(|e| bad(&e))?;
        let nodes = MdstNode::from_tree(&tree);
        let discipline = if self.lazy_starts {
            StartDiscipline::Lazy
        } else {
            StartDiscipline::Eager
        };
        Ok(ControlledNet::new(&graph, discipline, |id, _| {
            nodes[id.index()].clone()
        }))
    }

    /// Replays the schedule against `suite` and checks that the recorded
    /// violation reproduces. Safety properties are evaluated after every
    /// event; if `at_quiescence` the quiescent property is evaluated once
    /// the schedule is exhausted. Returns the reproduced violation.
    pub fn replay(&self, suite: &dyn InvariantSuite) -> Result<Violation, ReplayError> {
        let mut net = self.initial_net()?;
        let graph = Arc::clone(net.graph());
        let faulty = self.schedule.iter().any(|e| {
            matches!(
                e,
                ControlledEvent::Crash { .. } | ControlledEvent::Drop { .. }
            )
        });
        if let Some(v) = suite.check_state(&graph, &net) {
            return self.confirm(v);
        }
        for &event in &self.schedule {
            net.apply(event)
                .map_err(|e| ReplayError::NotEnabled(e.to_string()))?;
            if let Some(v) = suite.check_state(&graph, &net) {
                return self.confirm(v);
            }
        }
        if self.at_quiescence {
            if !net.is_quiescent() {
                return Err(ReplayError::NotEnabled(
                    "schedule ends before quiescence but the violation is a quiescent property"
                        .to_string(),
                ));
            }
            if let Some(v) = suite.check_quiescent(&graph, &net, faulty) {
                return self.confirm(v);
            }
        }
        Err(ReplayError::NoViolation)
    }

    fn confirm(&self, v: Violation) -> Result<Violation, ReplayError> {
        if v.rule == self.violation.rule {
            Ok(v)
        } else {
            Err(ReplayError::DifferentViolation(v))
        }
    }

    /// Greedily minimizes the schedule: repeatedly try deleting each event
    /// and keep the deletion whenever the same violation rule still
    /// reproduces, until no single deletion survives. The result replays
    /// deterministically to the same violation and is usually a fraction of
    /// the DFS path's length.
    pub fn minimize(&self, suite: &dyn InvariantSuite) -> Counterexample {
        let mut best = self.clone();
        loop {
            let mut shrunk = false;
            let mut i = 0;
            while i < best.schedule.len() {
                let mut candidate = best.clone();
                candidate.schedule.remove(i);
                match candidate.replay(suite) {
                    Ok(v) => {
                        candidate.violation = v;
                        best = candidate;
                        shrunk = true;
                        // Do not advance: index i now names the next event.
                    }
                    Err(_) => i += 1,
                }
            }
            if !shrunk {
                return best;
            }
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Parses a counterexample back from [`Counterexample::to_json`] output.
    pub fn from_json(json: &str) -> Result<Counterexample, String> {
        let value = serde::from_json_str(json).map_err(|e| e.to_string())?;
        Deserialize::from_value(&value).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::MdstInvariants;
    use mdst_graph::Graph;

    /// A deliberately wrong property: "no node ever has tree degree ≥ 3" —
    /// false on any star once the protocol settles (and initially).
    struct NoDegreeThree;

    impl InvariantSuite for NoDegreeThree {
        fn check_state(&self, _g: &Graph, net: &ControlledNet<MdstNode>) -> Option<Violation> {
            let mut deg = vec![0usize; net.nodes().len()];
            for (u, p) in net.nodes().iter().enumerate() {
                if let Some(parent) = p.parent() {
                    deg[u] += 1;
                    deg[parent.index()] += 1;
                }
            }
            deg.iter().position(|&d| d >= 3).map(|u| {
                Violation::new("bogus-degree-three", format!("v{u} has degree {}", deg[u]))
            })
        }

        fn check_quiescent(
            &self,
            _g: &Graph,
            _net: &ControlledNet<MdstNode>,
            _faulty: bool,
        ) -> Option<Violation> {
            None
        }
    }

    fn star4_counterexample(schedule: Vec<ControlledEvent>) -> Counterexample {
        Counterexample {
            n: 4,
            edges: vec![(0, 1), (0, 2), (0, 3)],
            root: 0,
            initial_parents: vec![None, Some(0), Some(0), Some(0)],
            lazy_starts: false,
            schedule,
            violation: Violation::new("bogus-degree-three", "v0 has degree 3"),
            at_quiescence: false,
        }
    }

    #[test]
    fn replay_reproduces_a_recorded_violation() {
        let cex = star4_counterexample(vec![]);
        let v = cex.replay(&NoDegreeThree).unwrap();
        assert_eq!(v.rule, "bogus-degree-three");
    }

    #[test]
    fn replay_rejects_a_non_enabled_schedule() {
        let mut cex = star4_counterexample(vec![ControlledEvent::Deliver {
            from: NodeId(1),
            to: NodeId(3),
        }]);
        cex.violation = Violation::new("anything", String::new());
        assert!(matches!(
            cex.replay(&MdstInvariants),
            Err(ReplayError::NotEnabled(_))
        ));
    }

    #[test]
    fn replay_flags_a_clean_run_as_no_violation() {
        // The path P2 under the real invariants violates nothing mid-flight.
        let cex = Counterexample {
            n: 2,
            edges: vec![(0, 1)],
            root: 0,
            initial_parents: vec![None, Some(0)],
            lazy_starts: false,
            schedule: vec![],
            violation: Violation::new("anything", String::new()),
            at_quiescence: false,
        };
        assert_eq!(cex.replay(&MdstInvariants), Err(ReplayError::NoViolation));
    }

    #[test]
    fn minimize_strips_irrelevant_events() {
        // The bogus violation already holds initially, so every scheduled
        // event is removable.
        let mut net = star4_counterexample(vec![]).initial_net().unwrap();
        let mut schedule = Vec::new();
        for _ in 0..5 {
            let Some(&ev) = net.enabled_events().first() else {
                break;
            };
            net.apply(ev).unwrap();
            schedule.push(ev);
        }
        assert!(!schedule.is_empty());
        let cex = star4_counterexample(schedule);
        let min = cex.minimize(&NoDegreeThree);
        assert!(min.schedule.is_empty());
        assert_eq!(
            min.replay(&NoDegreeThree).unwrap().rule,
            "bogus-degree-three"
        );
    }

    #[test]
    fn out_of_range_recipe_values_are_bad_recipes() {
        // 4294967297 truncates to node 1 as a `u32`; it must be rejected,
        // not replayed as the edge (1, 0).
        let far = u32::MAX as usize + 2;
        let mut cex = star4_counterexample(vec![]);
        cex.n = 3;
        cex.edges = vec![(far, 0), (0, 2)];
        cex.initial_parents = vec![None, Some(0), Some(0)];
        assert!(matches!(cex.initial_net(), Err(ReplayError::BadRecipe(_))));
        let mut cex = star4_counterexample(vec![]);
        cex.root = far;
        assert!(matches!(cex.initial_net(), Err(ReplayError::BadRecipe(_))));
        let mut cex = star4_counterexample(vec![]);
        cex.initial_parents[3] = Some(far);
        assert!(matches!(cex.initial_net(), Err(ReplayError::BadRecipe(_))));
        let mut cex = star4_counterexample(vec![]);
        cex.n = far;
        assert!(matches!(cex.initial_net(), Err(ReplayError::BadRecipe(_))));
    }

    #[test]
    fn repeated_recipe_edges_merge_into_one_link() {
        let mut cex = star4_counterexample(vec![]);
        cex.edges = vec![(0, 1), (1, 0), (0, 2), (0, 3), (0, 1)];
        let net = cex.initial_net().unwrap();
        assert_eq!(net.graph().edge_count(), 3);
    }

    #[test]
    fn counterexamples_round_trip_through_json() {
        let cex = star4_counterexample(vec![
            ControlledEvent::Deliver {
                from: NodeId(0),
                to: NodeId(1),
            },
            ControlledEvent::Crash { node: NodeId(2) },
        ]);
        let json = cex.to_json();
        let back = Counterexample::from_json(&json).unwrap();
        assert_eq!(back, cex);
    }
}
