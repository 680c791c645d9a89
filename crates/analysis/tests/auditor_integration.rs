//! End-to-end audits of real executions.
//!
//! Three layers of evidence that the happens-before auditor separates
//! healthy runs from corrupted ones:
//!
//! * property tests: every trace recorded by the discrete-event simulator
//!   (across graphs, seeds and random delay models) and by the
//!   step-controlled net (across random schedules, including drops and
//!   crashes) audits clean;
//! * mutation tests: corrupting a *real* clean trace — swapping two
//!   deliveries on a link, deleting a send, forging a duplicate delivery —
//!   is flagged with the matching rule label;
//! * cross-backend agreement: the same seed/topology run on the simulator
//!   and the sharded pool both audit clean and agree on the per-link
//!   message counts, and a pool flood whose hops nearly all cross shards
//!   audits clean;
//! * a differential oracle: the first auditor implementation, kept here as
//!   [`reference`], returns the same [`AuditReport`] — findings and their
//!   order included — on real traces and on random mutations of them.

use mdst_analysis::{audit, audit_events, AuditReport, Rule};
use mdst_core::{Pipeline, PipelineConfig};
use mdst_graph::{generators, NodeId};
use mdst_netsim::{
    CancelToken, Context, ControlledEvent, ControlledNet, DelayModel, ExecConfig, ExecutorKind,
    FaultPlan, NetMessage, Protocol, SimConfig, StartDiscipline, TraceEvent, TraceEventKind,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn traced_config(executor: ExecutorKind) -> PipelineConfig {
    PipelineConfig {
        sim: SimConfig {
            record_trace: true,
            ..Default::default()
        },
        executor,
        // Four pool workers interleave on real threads even on a 1-CPU host.
        workers: 4,
        ..Default::default()
    }
}

/// A traced improvement-phase run of the full MDST pipeline.
fn pipeline_trace(executor: ExecutorKind, n: usize, p: f64, seed: u64) -> Vec<TraceEvent> {
    let graph = Arc::new(generators::gnp_connected(n, p, seed).unwrap());
    let report = Pipeline::on(&graph)
        .config(traced_config(executor))
        .run()
        .unwrap();
    report.trace.events().to_vec()
}

// ---------------------------------------------------------------------------
// Property tests: clean executions audit clean
// ---------------------------------------------------------------------------

/// The flooding broadcast: the smallest protocol that exercises sends,
/// wake-ups and multi-hop causality on the controlled net.
#[derive(Debug, Clone)]
struct Token;

impl NetMessage for Token {
    fn kind(&self) -> &'static str {
        "Token"
    }
    fn encoded_bits(&self) -> usize {
        64
    }
}

struct Flood {
    id: NodeId,
    seen: bool,
}

impl Protocol for Flood {
    type Message = Token;
    fn on_start(&mut self, ctx: &mut impl Context<Token>) {
        if self.id == NodeId(0) {
            self.seen = true;
            for t in ctx.neighbors().to_vec() {
                ctx.send(t, Token);
            }
        }
    }
    fn on_message(&mut self, from: NodeId, _msg: Token, ctx: &mut impl Context<Token>) {
        if !self.seen {
            self.seen = true;
            let targets: Vec<NodeId> = ctx
                .neighbors()
                .iter()
                .copied()
                .filter(|&x| x != from)
                .collect();
            for t in targets {
                ctx.send(t, Token);
            }
        }
    }
    fn is_terminated(&self) -> bool {
        self.seen
    }
}

/// An xorshift stream of choices (the vendored proptest shim has no
/// collection strategies).
fn choices(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    }
}

/// A random schedule of the flood on the step-controlled net on
/// `gnp_connected(n, 0.5, seed)`, spending a small budget of drops and
/// crashes, as its trace.
fn controlled_trace(n: usize, seed: u64, sched: u64) -> Vec<TraceEvent> {
    let graph = Arc::new(generators::gnp_connected(n, 0.5, seed).unwrap());
    let mut net = ControlledNet::new_traced(&graph, StartDiscipline::Lazy, true, |id, _| Flood {
        id,
        seen: false,
    });
    let mut budget_drops = 2usize;
    let mut budget_crashes = 1usize;
    let mut next = choices(sched);
    for _ in 0..300 {
        let c = next() % 64;
        let enabled = net.enabled_events();
        if enabled.is_empty() {
            break;
        }
        // Mostly protocol events; occasionally spend the fault budget on
        // a drop or a crash so those trace paths are audited too.
        let event = if c.is_multiple_of(11) && (budget_drops > 0 || budget_crashes > 0) {
            let faults = net.fault_events();
            let fault = faults[c % faults.len()];
            match fault {
                ControlledEvent::Drop { .. } if budget_drops > 0 => {
                    budget_drops -= 1;
                    fault
                }
                ControlledEvent::Crash { .. } if budget_crashes > 0 => {
                    budget_crashes -= 1;
                    fault
                }
                _ => enabled[c % enabled.len()],
            }
        } else {
            enabled[c % enabled.len()]
        };
        net.apply(event).unwrap();
    }
    net.trace().events().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_sim_trace_audits_clean(
        n in 6usize..24,
        seed in 0u64..10_000,
        delayed in any::<bool>(),
    ) {
        let graph = Arc::new(generators::gnp_connected(n, 0.3, seed).unwrap());
        let mut config = traced_config(ExecutorKind::Sim);
        if delayed {
            // Random per-message delays reorder deliveries across links but
            // must never produce an intra-link inversion or a causal cycle.
            config.sim.delay = DelayModel::UniformRandom { min: 1, max: 5, seed };
        }
        let report = Pipeline::on(&graph).config(config).run().unwrap();
        let verdict = audit(&report.trace);
        prop_assert!(verdict.is_clean(), "{:#?}", verdict.findings);
        prop_assert!(verdict.sends > 0);
        prop_assert_eq!(verdict.sends, verdict.delivers);
    }

    #[test]
    fn every_controlled_schedule_audits_clean(
        n in 3usize..7,
        seed in 0u64..10_000,
        sched in any::<u64>(),
    ) {
        let verdict = audit_events(&controlled_trace(n, seed, sched));
        prop_assert!(verdict.is_clean(), "{:#?}", verdict.findings);
    }
}

// ---------------------------------------------------------------------------
// Mutation tests: corrupted traces are flagged with the right rule
// ---------------------------------------------------------------------------

/// A clean sim trace with at least two deliveries on one directed link.
fn trace_with_busy_link() -> (Vec<TraceEvent>, usize, usize) {
    let events = pipeline_trace(ExecutorKind::Sim, 12, 0.35, 42);
    assert!(audit_events(&events).is_clean());
    let mut last: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind != TraceEventKind::Deliver {
            continue;
        }
        if let Some(&prev) = last.get(&(e.from, e.to)) {
            return (events, prev, i);
        }
        last.insert((e.from, e.to), i);
    }
    panic!("no link carried two deliveries; pick a busier topology");
}

#[test]
fn swapping_two_deliveries_is_a_fifo_inversion() {
    let (mut events, first, second) = trace_with_busy_link();
    // Swap the message identities of the two deliveries: the earlier slot
    // now claims the later sequence number.
    let (a_id, a_seq) = (events[first].msg_id, events[first].seq);
    let (b_id, b_seq) = (events[second].msg_id, events[second].seq);
    events[first].msg_id = b_id;
    events[first].seq = b_seq;
    events[second].msg_id = a_id;
    events[second].seq = a_seq;
    let verdict = audit_events(&events);
    assert!(!verdict.is_clean());
    assert!(
        verdict.count(Rule::FifoInversion) >= 1,
        "{:#?}",
        verdict.findings
    );
}

#[test]
fn deleting_a_send_is_an_orphan_delivery() {
    let events = pipeline_trace(ExecutorKind::Sim, 10, 0.4, 7);
    assert!(audit_events(&events).is_clean());
    let victim = events
        .iter()
        .position(|e| e.kind == TraceEventKind::Send)
        .unwrap();
    let msg = events[victim].msg_id;
    let mutated: Vec<TraceEvent> = events
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, e)| e.clone())
        .collect();
    let verdict = audit_events(&mutated);
    let orphans: Vec<_> = verdict
        .findings
        .iter()
        .filter(|f| f.rule == Rule::OrphanDelivery)
        .collect();
    assert_eq!(orphans.len(), 1, "{:#?}", verdict.findings);
    assert_eq!(orphans[0].msg_id, msg);
}

#[test]
fn forging_a_second_delivery_is_a_duplicate() {
    let events = pipeline_trace(ExecutorKind::Sim, 10, 0.4, 9);
    assert!(audit_events(&events).is_clean());
    let mut mutated = events.clone();
    let forged = events
        .iter()
        .find(|e| e.kind == TraceEventKind::Deliver)
        .unwrap()
        .clone();
    mutated.push(forged.clone());
    let verdict = audit_events(&mutated);
    assert!(
        verdict
            .findings
            .iter()
            .any(|f| f.rule == Rule::DuplicateDelivery && f.msg_id == forged.msg_id),
        "{:#?}",
        verdict.findings
    );
}

// ---------------------------------------------------------------------------
// Cross-backend agreement
// ---------------------------------------------------------------------------

fn link_counts(report: &AuditReport) -> BTreeMap<(NodeId, NodeId), (u64, u64, u64)> {
    report
        .links
        .iter()
        .map(|l| ((l.from, l.to), (l.sends, l.delivers, l.drops)))
        .collect()
}

#[test]
fn all_backends_audit_clean_and_agree_on_per_link_counts() {
    // The improvement protocol is message-deterministic, so whatever the
    // scheduling backend, the multiset of (link, message) events must match
    // — and each backend's interleaving must independently satisfy the
    // happens-before discipline.
    for (n, p, seed) in [(14, 0.3, 1u64), (20, 0.25, 2), (9, 0.5, 3)] {
        let graph = Arc::new(generators::gnp_connected(n, p, seed).unwrap());
        let mut verdicts = Vec::new();
        for executor in ExecutorKind::all() {
            let report = Pipeline::on(&graph)
                .config(traced_config(executor))
                .run()
                .unwrap();
            let verdict = audit(&report.trace);
            assert!(verdict.is_clean(), "{executor}: {:#?}", verdict.findings);
            verdicts.push((executor, verdict));
        }
        let baseline = link_counts(&verdicts[0].1);
        assert!(!baseline.is_empty());
        for (executor, verdict) in &verdicts[1..] {
            assert_eq!(
                link_counts(verdict),
                baseline,
                "{executor} disagrees with sim on per-link message counts (n={n}, seed={seed})"
            );
        }
    }
}

#[test]
fn a_sharded_pool_flood_with_single_message_quanta_audits_clean() {
    // Four shards and one message per quantum: nearly every hop crosses a
    // shard through an outbox hand-over, so a hand-over that reordered a
    // link or let a delivery outrun its send would show up as a finding.
    let graph = Arc::new(generators::gnp_connected(40, 0.15, 11).unwrap());
    let config = ExecConfig {
        sim: SimConfig {
            record_trace: true,
            ..Default::default()
        },
        workers: 4,
        batch: 1,
    };
    let run = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| Flood { id, seen: false },
            &config,
            &CancelToken::new(),
        )
        .unwrap();
    assert_eq!(run.workers, 4);
    assert!(run.all_terminated(), "the flood reaches every node");
    let verdict = audit(&run.trace);
    assert!(verdict.is_clean(), "{:#?}", verdict.findings);
    let sends: u64 = verdict.links.iter().map(|l| l.sends).sum();
    assert_eq!(sends, run.metrics.messages_total);
}

// ---------------------------------------------------------------------------
// Differential oracle: the first auditor
// ---------------------------------------------------------------------------

/// The first auditor, kept verbatim apart from its imports and indentation.
mod reference {
    use mdst_analysis::{AuditReport, Finding, LinkStat, Rule};
    use mdst_netsim::{TraceEvent, TraceEventKind};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct VectorClock(Vec<u64>);

    impl VectorClock {
        pub fn new(n: usize) -> Self {
            VectorClock(vec![0; n])
        }

        pub fn get(&self, i: usize) -> u64 {
            self.0.get(i).copied().unwrap_or(0)
        }

        pub fn tick(&mut self, i: usize) {
            if let Some(c) = self.0.get_mut(i) {
                *c += 1;
            }
        }

        pub fn join(&mut self, other: &VectorClock) {
            for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
                *mine = (*mine).max(*theirs);
            }
        }

        pub fn precedes(&self, other: &VectorClock) -> bool {
            let mut strict = false;
            for (a, b) in self.0.iter().zip(&other.0) {
                if a > b {
                    return false;
                }
                if a < b {
                    strict = true;
                }
            }
            strict
        }

        pub fn concurrent(&self, other: &VectorClock) -> bool {
            self != other && !self.precedes(other) && !other.precedes(self)
        }
    }

    /// Message kind whose causally unordered initiations mean two coordinators.
    const COORDINATOR_KIND: &str = "SearchInit";
    /// Message kind whose causally unordered initiations mean two exchanges.
    const EXCHANGE_KIND: &str = "Cut";

    /// Replays `events` once and returns the full verdict. The slice must be in
    /// recording order — how every backend publishes it.
    pub fn audit_events(events: &[TraceEvent]) -> AuditReport {
        let n = events
            .iter()
            .map(|e| e.from.index().max(e.to.index()) + 1)
            .max()
            .unwrap_or(0);

        // Pass 1: where was each message sent?
        let mut send_index: HashMap<u64, usize> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            if e.kind == TraceEventKind::Send && e.msg_id != 0 {
                send_index.entry(e.msg_id).or_insert(i);
            }
        }

        // Pass 2: vector-clock replay.
        let mut clocks: Vec<VectorClock> = (0..n).map(|_| VectorClock::new(n)).collect();
        let mut in_flight: HashMap<u64, VectorClock> = HashMap::new();
        // Deliveries that preceded their own send in the trace: msg id →
        // (delivery index, receiver, the receiver's own event count at the
        // delivery). If the eventual send turns out to causally know that
        // receiver event, the message happens-before its own send — a cycle.
        let mut early_delivery: HashMap<u64, (usize, usize, u64)> = HashMap::new();
        let mut delivered: HashMap<u64, usize> = HashMap::new();
        let mut crashed_at: HashMap<usize, usize> = HashMap::new();
        let mut fifo_watermark: HashMap<(usize, usize), (u64, usize)> = HashMap::new();
        let mut links: BTreeMap<(usize, usize), LinkStat> = BTreeMap::new();
        // Happens-before-minimal initiations seen so far, per protocol rule.
        let mut coordinator_minima: Vec<(usize, VectorClock)> = Vec::new();
        let mut exchange_minima: Vec<(usize, VectorClock)> = Vec::new();

        let mut findings: Vec<Finding> = Vec::new();
        let (mut sends, mut delivers, mut drops, mut crashes) = (0u64, 0u64, 0u64, 0u64);

        let finding =
            |rule: Rule, i: usize, related: Option<usize>, e: &TraceEvent, detail: String| {
                Finding {
                    rule,
                    event_index: i,
                    related_index: related,
                    from: e.from,
                    to: e.to,
                    message_kind: e.message_kind.to_string(),
                    msg_id: e.msg_id,
                    detail,
                }
            };

        for (i, e) in events.iter().enumerate() {
            let (u, v) = (e.from.index(), e.to.index());
            let link = links.entry((u, v)).or_insert(LinkStat {
                from: e.from,
                to: e.to,
                sends: 0,
                delivers: 0,
                drops: 0,
            });
            match e.kind {
                TraceEventKind::Send => {
                    sends += 1;
                    link.sends += 1;
                    clocks[u].tick(u);
                    let snapshot = clocks[u].clone();
                    // Protocol-level mutual exclusion: keep the send only if no
                    // already-known minimal initiation happens-before it.
                    for (kind, minima, rule) in [
                        (
                            COORDINATOR_KIND,
                            &mut coordinator_minima,
                            Rule::CoordinatorRace,
                        ),
                        (
                            EXCHANGE_KIND,
                            &mut exchange_minima,
                            Rule::ConcurrentExchange,
                        ),
                    ] {
                        if e.message_kind != kind {
                            continue;
                        }
                        let dominated = minima.iter().any(|(_, vc)| vc.precedes(&snapshot));
                        if !dominated {
                            if let Some((first, vc)) = minima.first() {
                                if vc.concurrent(&snapshot) {
                                    let what = if rule == Rule::CoordinatorRace {
                                        "coordinator broadcasts"
                                    } else {
                                        "exchange cascades"
                                    };
                                    findings.push(finding(
                                        rule,
                                        i,
                                        Some(*first),
                                        e,
                                        format!(
                                            "{kind} initiation at node {} races the one at event {first}: \
                                             two {what} are not ordered by happens-before",
                                            e.from
                                        ),
                                    ));
                                }
                            }
                            minima.push((i, snapshot.clone()));
                        }
                    }
                    if let Some(&(d, v, count)) = early_delivery.get(&e.msg_id) {
                        // The message was delivered before this send; if the
                        // sender's snapshot causally includes the delivery event
                        // at the receiver, the delivery fed back into its own
                        // send: a happens-before cycle.
                        if snapshot.get(v) >= count {
                            findings.push(finding(
                                Rule::CausalPrecedesOwnSend,
                                i,
                                Some(d),
                                e,
                                format!(
                                    "msg {} causally precedes its own send: its delivery \
                                     (event {d}) reached back into the sender",
                                    e.msg_id
                                ),
                            ));
                        }
                    }
                    if e.msg_id != 0 {
                        in_flight.insert(e.msg_id, snapshot);
                    }
                }
                TraceEventKind::Deliver => {
                    delivers += 1;
                    link.delivers += 1;
                    match send_index.get(&e.msg_id) {
                        None => findings.push(finding(
                            Rule::OrphanDelivery,
                            i,
                            None,
                            e,
                            format!("delivery of msg {} which no event sent", e.msg_id),
                        )),
                        Some(&j) if j > i => findings.push(finding(
                            Rule::DeliverBeforeSend,
                            i,
                            Some(j),
                            e,
                            format!("msg {} delivered before its send at event {j}", e.msg_id),
                        )),
                        _ => {}
                    }
                    if let Some(&first) = delivered.get(&e.msg_id) {
                        findings.push(finding(
                            Rule::DuplicateDelivery,
                            i,
                            Some(first),
                            e,
                            format!("msg {} already delivered at event {first}", e.msg_id),
                        ));
                    } else {
                        delivered.insert(e.msg_id, i);
                    }
                    if let Some(&crash) = crashed_at.get(&v) {
                        findings.push(finding(
                            Rule::DeliveryToCrashed,
                            i,
                            Some(crash),
                            e,
                            format!("node {} crash-stopped at event {crash}", e.to),
                        ));
                    }
                    match fifo_watermark.get(&(u, v)) {
                        Some(&(seq, prev)) if e.seq <= seq => findings.push(finding(
                            Rule::FifoInversion,
                            i,
                            Some(prev),
                            e,
                            format!(
                                "seq {} delivered after seq {seq} (event {prev}) on link {}→{}",
                                e.seq, e.from, e.to
                            ),
                        )),
                        _ => {
                            fifo_watermark.insert((u, v), (e.seq, i));
                        }
                    }
                    if let Some(send_vc) = in_flight.remove(&e.msg_id) {
                        clocks[v].join(&send_vc);
                    } else if e.msg_id != 0 && send_index.get(&e.msg_id).is_some_and(|&j| j > i) {
                        // Delivered before its send: remember the receiver's
                        // event count so the send can be checked for a causal
                        // cycle when (if) it appears.
                        early_delivery
                            .entry(e.msg_id)
                            .or_insert((i, v, clocks[v].get(v) + 1));
                    }
                    clocks[v].tick(v);
                }
                TraceEventKind::Drop => {
                    drops += 1;
                    link.drops += 1;
                    in_flight.remove(&e.msg_id);
                }
                TraceEventKind::Crash => {
                    crashes += 1;
                    crashed_at.entry(u).or_insert(i);
                }
            }
        }

        findings.sort_by_key(|f| (f.event_index, f.rule.label()));
        AuditReport {
            events: events.len(),
            nodes: n,
            sends,
            delivers,
            drops,
            crashes,
            links: links.into_values().collect(),
            findings,
        }
    }
}

/// A real trace from one of four sources: the simulator, the simulator with
/// random delays and message loss, the pool, or the controlled net with
/// drops and crashes. Node ids stay below 20, because the reference
/// allocates n² clock entries.
fn varied_trace(source: usize, n: usize, seed: u64) -> Vec<TraceEvent> {
    match source {
        0 => pipeline_trace(ExecutorKind::Sim, n, 0.35, seed),
        1 => {
            let graph = Arc::new(generators::gnp_connected(n, 0.35, seed).unwrap());
            let mut config = traced_config(ExecutorKind::Sim);
            config.sim.delay = DelayModel::UniformRandom {
                min: 1,
                max: 5,
                seed,
            };
            config.sim.faults = FaultPlan {
                loss: 0.05,
                seed,
                ..FaultPlan::none()
            };
            let report = Pipeline::on(&graph).config(config).run().unwrap();
            report.trace.events().to_vec()
        }
        2 => pipeline_trace(ExecutorKind::Pool, n, 0.35, seed),
        _ => controlled_trace(3 + n % 4, seed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    }
}

/// Applies one random mutation to `events` (a no-op on an empty trace).
fn mutate(events: &mut Vec<TraceEvent>, next: &mut impl FnMut() -> usize) {
    if events.is_empty() {
        return;
    }
    let len = events.len();
    let i = next() % len;
    let j = next() % len;
    match next() % 10 {
        0 => events.swap(i, j),
        1 => {
            events.remove(i);
        }
        2 => {
            let copy = events[i].clone();
            events.insert(j, copy);
        }
        3 => events[i].msg_id = 0,
        4 => events[i].msg_id = events[j].msg_id,
        5 => events[i].msg_id = u64::MAX,
        6 => {
            let node = events[j].to;
            let crash = TraceEvent {
                time: events[i].time,
                kind: TraceEventKind::Crash,
                from: node,
                to: node,
                message_kind: "crash".into(),
                msg_id: 0,
                seq: 0,
            };
            events.insert(i, crash);
        }
        7 => {
            // Move a send to a random place after its delivery, so that
            // events the delivery caused may reach the sender first.
            let send = events[i..]
                .iter()
                .position(|e| e.kind == TraceEventKind::Send)
                .map(|k| i + k);
            if let Some(s) = send {
                let id = events[s].msg_id;
                if let Some(d) = events[s..]
                    .iter()
                    .position(|e| e.kind == TraceEventKind::Deliver && e.msg_id == id)
                    .map(|k| s + k)
                {
                    let moved = events.remove(s);
                    events.insert(d + next() % (len - d), moved);
                }
            }
        }
        8 => events[i].message_kind = "SearchInit".into(),
        _ => events[i].message_kind = "Cut".into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_auditor_matches_the_reference_on_real_and_mutated_traces(
        source in 0usize..4,
        n in 4usize..20,
        seed in 0u64..10_000,
        rounds in 0usize..6,
        sched in any::<u64>(),
    ) {
        let mut next = choices(sched);
        let mut events = varied_trace(source, n, seed);
        prop_assert_eq!(audit_events(&events), reference::audit_events(&events));
        for _ in 0..rounds {
            for _ in 0..=(next() % 3) {
                mutate(&mut events, &mut next);
            }
            prop_assert_eq!(audit_events(&events), reference::audit_events(&events));
        }
    }
}

/// Mutations that leave a trace with no findings would make the property
/// vacuous: check that the mutation mix reaches every rule.
#[test]
fn the_mutations_reach_every_rule() {
    let mut seen = std::collections::BTreeSet::new();
    let mut next = choices(0x2545_f491_4f6c_dd1d);
    for seed in 0..40 {
        let mut events = varied_trace(1, 8 + (seed as usize % 8), seed);
        for _ in 0..12 {
            mutate(&mut events, &mut next);
        }
        let report = audit_events(&events);
        assert_eq!(report, reference::audit_events(&events));
        seen.extend(report.findings.iter().map(|f| f.rule));
    }
    let missing: Vec<Rule> = Rule::ALL
        .into_iter()
        .filter(|r| !seen.contains(r))
        .collect();
    assert!(missing.is_empty(), "no mutation tripped {missing:?}");
}
