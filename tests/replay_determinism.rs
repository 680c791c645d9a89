//! Determinism guarantees: identical inputs produce bit-identical results.
//!
//! * Two `Pipeline` sessions with the same graph, config and seeds yield
//!   bit-identical `RunReport`s — compared on the serialized report with
//!   only the wall-clock field excluded, since elapsed time is the one
//!   quantity a deterministic schedule cannot pin.
//! * A model-checking run is deterministic end to end: same sweep, same
//!   stats, same outcomes, and a recorded counterexample replays through
//!   JSON to the same violation.
//! * The simulator's event order is pinned: traced MDST runs under every
//!   delay model, a staggered start and a mixed fault plan reproduce
//!   recorded digests of their full trace and metrics, so a rewrite of the
//!   event queue or the link tables cannot silently reorder deliveries.
//!   A second set pins runs whose events lie hundreds of ticks ahead of
//!   the clock (long delays, widely staggered starts, a late crash).

use mdst::prelude::*;
use serde::{Serialize, Value};

/// Serializes a report and strips every `wall_ms` field (recursively) —
/// wall-clock time is measurement noise, everything else must be identical.
fn canonical(report: &RunReport) -> Value {
    fn strip(value: Value) -> Value {
        match value {
            Value::Object(fields) => Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "wall_ms")
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    strip(report.to_value())
}

fn run_once(graph: &Arc<Graph>, seed: u64) -> RunReport {
    Pipeline::on(graph)
        .initial(InitialTreeKind::Random(seed))
        .sim(SimConfig {
            delay: DelayModel::UniformRandom {
                min: 1,
                max: 7,
                seed,
            },
            ..SimConfig::default()
        })
        .run()
        .unwrap()
}

#[test]
fn identical_seeds_give_bit_identical_reports() {
    let graph = Arc::new(generators::gnp_connected(16, 0.25, 11).unwrap());
    for seed in [3u64, 77, 2024] {
        let a = run_once(&graph, seed);
        let b = run_once(&graph, seed);
        assert_eq!(
            canonical(&a),
            canonical(&b),
            "seed {seed}: two identical sessions disagreed"
        );
        assert_eq!(canonical(&a).to_json(), canonical(&b).to_json());
    }
}

#[test]
fn different_delay_seeds_may_reorder_but_reports_stay_comparable() {
    // Not a determinism claim — a guard that `canonical` actually compares
    // substance: the stripped reports still contain the outcome and degrees.
    let graph = Arc::new(generators::wheel(10).unwrap());
    let report = run_once(&graph, 5);
    let json = canonical(&report).to_json();
    assert!(json.contains("\"outcome\""));
    assert!(json.contains("\"final_degree\""));
    assert!(!json.contains("wall_ms"));
}

#[test]
fn model_checking_runs_are_deterministic() {
    let report_a = sweep_connected(2, 4, &CheckConfig::default());
    let report_b = sweep_connected(2, 4, &CheckConfig::default());
    assert_eq!(report_a.to_json(), report_b.to_json());
    assert_eq!(report_a.total_states, report_b.total_states);
}

#[test]
fn a_counterexample_round_trips_and_replays_to_the_same_violation() {
    // The stock invariants hold, so manufacture a counterexample through a
    // strict suite: any state with a message in flight is "violating".
    struct NoTraffic;
    impl InvariantSuite for NoTraffic {
        fn check_state(&self, _g: &Graph, net: &ControlledNet<MdstNode>) -> Option<Violation> {
            (net.in_flight() > 0).then(|| {
                Violation::new("bogus-no-traffic", format!("{} in flight", net.in_flight()))
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

    let graph = Arc::new(generators::cycle(4).unwrap());
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    let report = check_with_suite(&graph, &initial, &CheckConfig::default(), &NoTraffic);
    let cex = report
        .violation
        .expect("the root starts traffic immediately");
    assert_eq!(cex.violation.rule, "bogus-no-traffic");
    // Empty schedule: the violation already holds in the initial state, and
    // minimization proves no event was needed.
    assert!(cex.schedule.is_empty());

    let json = cex.to_json();
    let parsed = Counterexample::from_json(&json).unwrap();
    assert_eq!(parsed, cex);
    assert_eq!(parsed.to_json(), json, "serialization is a fixpoint");
    assert_eq!(parsed.replay(&NoTraffic).unwrap().rule, "bogus-no-traffic");
}

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// `(trace events, trace digest, metrics digest)` of one traced MDST run on
/// the simulator, plus its metrics. The trace digest covers every field of
/// every event in order; the metrics digest covers the serialized `Metrics`.
fn traced_digest(graph: &Arc<Graph>, config: SimConfig) -> ((usize, u64, u64), Metrics) {
    let initial = algorithms::greedy_high_degree_tree(graph, NodeId(0)).unwrap();
    let nodes = MdstNode::from_tree(&initial);
    let run = ExecutorKind::Sim
        .run(
            graph,
            |id, _| nodes[id.index()].clone(),
            &ExecConfig {
                sim: SimConfig {
                    record_trace: true,
                    ..config
                },
                ..Default::default()
            },
            &CancelToken::new(),
        )
        .unwrap();
    assert_eq!(run.status, ExecStatus::Quiesced);
    let mut trace = Fnv::new();
    for e in run.trace.events() {
        trace.u64(e.time);
        trace.bytes(&[e.kind as u8]);
        trace.u64(e.from.index() as u64);
        trace.u64(e.to.index() as u64);
        trace.bytes(e.message_kind.as_str().as_bytes());
        trace.bytes(&[0xff]);
        trace.u64(e.msg_id);
        trace.u64(e.seq);
    }
    let mut metrics = Fnv::new();
    metrics.bytes(run.metrics.to_value().to_json().as_bytes());
    let digest = (run.trace.events().len(), trace.0, metrics.0);
    (digest, run.metrics)
}

/// The graph every digest case runs on.
fn digest_graph() -> Arc<Graph> {
    Arc::new(generators::gnp_connected(40, 0.15, 7).unwrap())
}

/// Digests recorded before the simulator's event heap and per-link tables
/// were rewritten; they pin the exact delivery order of every case.
#[test]
fn simulator_event_order_matches_the_recorded_digests() {
    let graph = digest_graph();
    // Cut the root's link to its first tree child at time zero, so the very
    // first SearchInit wave loses a branch; crash a node early in the wave.
    let initial = algorithms::greedy_high_degree_tree(&graph, NodeId(0)).unwrap();
    let first_child = initial.children(NodeId(0))[0];
    let crashed = NodeId(5);
    assert_ne!(first_child, crashed);
    let cases: Vec<(&str, SimConfig, (usize, u64, u64))> = vec![
        (
            "unit",
            SimConfig::default(),
            (21900, 3266186272984516126, 2986840855307824500),
        ),
        (
            "uniform-random",
            SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 9,
                    seed: 21,
                },
                ..SimConfig::default()
            },
            (21900, 15820064634659524247, 13176036744478793331),
        ),
        (
            "per-link-fixed",
            SimConfig {
                delay: DelayModel::PerLinkFixed {
                    min: 1,
                    max: 13,
                    seed: 4,
                },
                ..SimConfig::default()
            },
            (21900, 147794449991175021, 14733442177838953539),
        ),
        (
            "staggered",
            SimConfig {
                start: StartModel::Staggered {
                    max_offset: 40,
                    seed: 9,
                },
                ..SimConfig::default()
            },
            (21900, 8638502307616719122, 1778740695341483531),
        ),
        (
            "loss-crash-cut",
            SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 5,
                    seed: 3,
                },
                faults: FaultPlan {
                    loss: 0.1,
                    seed: 17,
                    crashes: vec![CrashAt {
                        node: crashed,
                        at: 4,
                    }],
                    cuts: vec![CutAt {
                        a: NodeId(0),
                        b: first_child,
                        at: 0,
                    }],
                },
                ..SimConfig::default()
            },
            (65, 9290835337281682478, 13432159770040474040),
        ),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (name, config, recorded) in cases {
        let faulty = !config.faults.is_benign();
        let (digest, metrics) = traced_digest(&graph, config);
        if faulty {
            assert_eq!(metrics.crashed_nodes, 1, "{name}: the crash fired");
            assert!(metrics.dropped_messages >= 2, "{name}: cut and loss drop");
        }
        got.push((name, digest));
        want.push((name, recorded));
    }
    assert_eq!(got, want, "the simulator's event order or metrics moved");
}

/// Digests of runs whose events lie far ahead of the clock: delays of up to
/// 500 ticks, wake-ups spread over 1,000 ticks, and a crash scheduled at
/// t = 5000 while lossy traffic is still in flight. They were recorded on the
/// plain `(time, seq)` heap, so a queue that keeps near and far events apart
/// must merge the two back into exactly this order.
#[test]
fn far_future_events_match_the_recorded_digests() {
    let graph = digest_graph();
    let crashed = NodeId(5);
    let cases: Vec<(&str, SimConfig, (usize, u64, u64))> = vec![
        (
            "uniform-random-500",
            SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 500,
                    seed: 21,
                },
                ..SimConfig::default()
            },
            (21900, 3601520431322003594, 4223658633717804283),
        ),
        (
            "per-link-fixed-300",
            SimConfig {
                delay: DelayModel::PerLinkFixed {
                    min: 1,
                    max: 300,
                    seed: 4,
                },
                ..SimConfig::default()
            },
            (21900, 14909522491929170973, 7886463638891079182),
        ),
        (
            "staggered-1000",
            SimConfig {
                start: StartModel::Staggered {
                    max_offset: 1000,
                    seed: 9,
                },
                ..SimConfig::default()
            },
            (21900, 15703704134490836884, 18075851338459386974),
        ),
        (
            "late-crash-with-loss",
            SimConfig {
                delay: DelayModel::UniformRandom {
                    min: 1,
                    max: 500,
                    seed: 21,
                },
                faults: FaultPlan {
                    loss: 0.001,
                    seed: 17,
                    crashes: vec![CrashAt {
                        node: crashed,
                        at: 5000,
                    }],
                    cuts: Vec::new(),
                },
                ..SimConfig::default()
            },
            (1097, 3020861034061901817, 12688020749525075682),
        ),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (name, config, recorded) in cases {
        let faulty = !config.faults.is_benign();
        let (digest, metrics) = traced_digest(&graph, config);
        if faulty {
            assert_eq!(metrics.crashed_nodes, 1, "{name}: the crash fired");
            assert!(metrics.dropped_messages >= 1, "{name}: loss drops");
            assert!(
                metrics.quiescence_time > 5000,
                "{name}: traffic outlives the crash"
            );
        } else {
            assert_eq!(metrics.dropped_messages, 0, "{name}");
        }
        got.push((name, digest));
        want.push((name, recorded));
    }
    assert_eq!(got, want, "the simulator's event order or metrics moved");
}
