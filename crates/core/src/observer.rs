//! Streaming progress observers for [`crate::driver::Pipeline`] sessions.
//!
//! A campaign runner, a bench harness or a live dashboard wants to watch a
//! pipeline run *as it progresses* instead of parsing a message trace after
//! the fact. The [`Observer`] trait is that tap: register one (or several)
//! through [`crate::driver::Pipeline::observer`] and the driver delivers a
//! stream of typed events:
//!
//! 1. [`Observer::on_construction_done`] — fired live at the phase boundary,
//!    after the initial spanning tree is built and before the improvement
//!    protocol starts.
//! 2. [`Observer::on_round`] / [`Observer::on_exchange`] — one event per
//!    improvement round and per edge exchange. These are derived from the
//!    uniform executor result (and are therefore identical on every backend):
//!    the backends run the improvement phase to quiescence in one call, so
//!    the per-round events are replayed in causal order once the phase
//!    completes, not interleaved with it.
//! 3. [`Observer::on_fault`] — one event per injected fault. With a
//!    simulator trace (`record_trace = true`) every dropped message is
//!    reported individually with its simulated time; without one the driver
//!    still reports every crashed node and an aggregate drop count.
//! 4. [`Observer::on_finish`] — fired exactly once with the final
//!    [`crate::driver::RunReport`], after all other events.
//!
//! Every method has an empty default body, so an observer implements only
//! the events it cares about. Observers are plain `&mut` borrows: the
//! builder releases them when `run()` returns, so a caller can accumulate
//! into a local struct and inspect it afterwards.

use mdst_graph::NodeId;

/// What the driver knows right after the construction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructionEvent {
    /// Number of nodes of the input graph.
    pub n: usize,
    /// Number of edges of the input graph.
    pub m: usize,
    /// Maximum degree `k` of the freshly built initial spanning tree.
    pub initial_degree: usize,
    /// Messages spent by the construction (`0` for centralized seeds and
    /// for pre-built trees handed in via `Pipeline::initial_tree`).
    pub construction_messages: u64,
}

/// One improvement round (a `SearchDegree` broadcast and everything it
/// triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundEvent {
    /// Round number, starting at 1.
    pub round: u32,
    /// Whether this round performed an edge exchange, when attribution is
    /// certain. On an optimal run the protocol serialises one exchange per
    /// round with a final non-improving round, so every round is attributed
    /// (`Some`). On degraded runs (faults, event-limit aborts) the per-round
    /// attribution is unknown and this is `None`; the total exchange count
    /// still arrives through [`ExchangeEvent`]s.
    pub improved: Option<bool>,
}

/// One edge exchange (a Delete/Add pair lowering the targeted degree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeEvent {
    /// Exchange number, starting at 1. On an optimal run this equals the
    /// round that performed it; on degraded runs it is only the ordinal.
    pub index: u32,
}

/// One injected fault observed during the improvement phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A node crash-stopped. `time` is the simulated clock when a trace was
    /// recorded, `None` otherwise.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// Simulated time of the crash, when known.
        time: Option<u64>,
    },
    /// A message was lost (random loss, cut link, or crashed receiver).
    /// Reported per message only when the simulator recorded a trace.
    MessageDropped {
        /// Sender of the lost message.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Simulated time of the drop.
        time: u64,
        /// Message kind label (e.g. `"BFS"`).
        message_kind: String,
    },
    /// Aggregate count of lost messages, reported when no trace was
    /// recorded (the per-message details are not known then).
    MessagesDropped {
        /// Total messages lost during the run.
        count: u64,
    },
}

/// A streaming tap on one pipeline session. See the [module docs](self) for
/// the delivery order; every method defaults to a no-op.
pub trait Observer {
    /// The construction phase finished; the improvement phase is about to
    /// start. Fired live at the phase boundary.
    fn on_construction_done(&mut self, _event: &ConstructionEvent) {}

    /// One improvement round completed.
    fn on_round(&mut self, _event: &RoundEvent) {}

    /// One edge exchange was performed.
    fn on_exchange(&mut self, _event: &ExchangeEvent) {}

    /// One injected fault was observed.
    fn on_fault(&mut self, _event: &FaultEvent) {}

    /// The session is complete; `report` is the same value `run()` returns.
    fn on_finish(&mut self, _report: &crate::driver::RunReport) {}
}

/// An [`Observer`] that counts every event it receives — handy for tests and
/// for cheap progress meters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// `on_construction_done` calls received.
    pub constructions: usize,
    /// `on_round` calls received.
    pub rounds: usize,
    /// `on_exchange` calls received.
    pub exchanges: usize,
    /// `on_fault` calls received.
    pub faults: usize,
    /// `on_finish` calls received.
    pub finishes: usize,
}

impl Observer for CountingObserver {
    fn on_construction_done(&mut self, _event: &ConstructionEvent) {
        self.constructions += 1;
    }

    fn on_round(&mut self, _event: &RoundEvent) {
        self.rounds += 1;
    }

    fn on_exchange(&mut self, _event: &ExchangeEvent) {
        self.exchanges += 1;
    }

    fn on_fault(&mut self, _event: &FaultEvent) {
        self.faults += 1;
    }

    fn on_finish(&mut self, _report: &crate::driver::RunReport) {
        self.finishes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;
    impl Observer for Silent {}

    #[test]
    fn default_methods_are_no_ops() {
        // A unit observer compiles and accepts every event.
        let mut s = Silent;
        s.on_construction_done(&ConstructionEvent {
            n: 4,
            m: 3,
            initial_degree: 3,
            construction_messages: 0,
        });
        s.on_round(&RoundEvent {
            round: 1,
            improved: Some(false),
        });
        s.on_exchange(&ExchangeEvent { index: 1 });
        s.on_fault(&FaultEvent::MessagesDropped { count: 2 });
    }

    #[test]
    fn counting_observer_counts() {
        let mut c = CountingObserver::default();
        c.on_round(&RoundEvent {
            round: 1,
            improved: Some(true),
        });
        c.on_round(&RoundEvent {
            round: 2,
            improved: None,
        });
        c.on_exchange(&ExchangeEvent { index: 1 });
        c.on_fault(&FaultEvent::NodeCrashed {
            node: NodeId(3),
            time: None,
        });
        assert_eq!(c.rounds, 2);
        assert_eq!(c.exchanges, 1);
        assert_eq!(c.faults, 1);
        assert_eq!(c.finishes, 0);
    }
}
