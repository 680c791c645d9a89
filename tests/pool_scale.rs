//! Scale test of the sharded pool: the acceptance bar for the executor
//! refactor is a 5,000-node run completing on at most 64 worker threads —
//! the regime one OS thread per node structurally cannot reach (it would
//! need 5,000 OS threads).

use mdst::prelude::*;
use mdst::spanning::flooding::FloodingSt;
use std::sync::Arc;

#[test]
fn pool_completes_a_5000_node_run_with_at_most_64_workers() {
    let n = 5_000;
    let graph = Arc::new(generators::random_connected(n, n / 2, 7).unwrap());
    let m = graph.edge_count() as u64;
    let run = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &ExecConfig {
                workers: 64,
                ..Default::default()
            },
            &CancelToken::new(),
        )
        .unwrap();
    assert!(
        run.workers <= 64,
        "the pool must multiplex {n} nodes over at most 64 workers, used {}",
        run.workers
    );
    assert_eq!(run.status, ExecStatus::Quiesced);
    // Flooding-based spanning-tree construction is message-deterministic:
    // exactly 2m + (n - 1) messages under any schedule, and the collected
    // parent pointers form a spanning tree rooted at the initiator.
    assert_eq!(run.metrics.messages_total, 2 * m + (n as u64 - 1));
    let tree = collect_tree(&run.nodes).unwrap();
    assert!(tree.is_spanning_tree_of(&graph));
    assert_eq!(tree.root(), NodeId(0));
}

/// Release-only scale gate for the batched message fabric: a 100,000-node
/// run, twenty times past the original acceptance bar. Ignored in debug
/// builds (an unoptimised build takes the fun out of a scale test); run it
/// with `cargo test --release -p mdst --test pool_scale`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: 100k nodes want an optimised build"
)]
fn pool_completes_a_100_000_node_run_with_a_degree_bound_verdict() {
    use mdst::core::bounds::ceil_log2;
    let n = 100_000;
    let graph = Arc::new(generators::random_connected(n, n / 2, 7).unwrap());
    let m = graph.edge_count() as u64;
    let run = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &ExecConfig::default(),
            &CancelToken::new(),
        )
        .unwrap();
    assert_eq!(run.status, ExecStatus::Quiesced);
    // Message determinism survives the scale jump: exactly 2m + (n − 1)
    // messages under any worker interleaving and any batch size.
    assert_eq!(run.metrics.messages_total, 2 * m + (n as u64 - 1));
    let tree = collect_tree(&run.nodes).unwrap();
    assert!(tree.is_spanning_tree_of(&graph));
    assert_eq!(tree.root(), NodeId(0));
    // Degree-bound verdicts. The graded one: the combinatorial `Δ*` lower
    // bound costs one linear articulation DFS, cheap even at this scale.
    assert!(within_paper_degree_bound(&graph, tree.max_degree()));
    // The stand-in, stricter still: every spanning tree on n ≥ 3 nodes has
    // a vertex of degree ≥ 2, so `Δ* ≥ 2`, and `2·2 + ⌈log₂ n⌉` never
    // exceeds the graded bound. It is schedule-independent because a
    // flooding tree's degrees never exceed the (fixed, seeded) graph's.
    let bound = 2 * 2 + ceil_log2(n);
    assert!(
        graph.max_degree() <= bound,
        "seed drifted: graph degree {} exceeds the verdict bound {bound}, \
         making the check schedule-dependent",
        graph.max_degree()
    );
    assert!(
        tree.max_degree() <= bound,
        "flooding tree degree {} violates the 2Δ*+⌈log n⌉ verdict ({bound})",
        tree.max_degree()
    );
}

/// Release-only grading-at-scale gate: the `Δ*` lower bound every campaign
/// run is graded with must stay linear. The 2·10⁵-deep path would overflow
/// the stack of a recursive DFS; the 10⁵-leaf star has the largest bound a
/// graph of its size can have. A quadratic grader would take hours here.
/// Run it with `cargo test --release -p mdst --test pool_scale
/// grading_stays_linear_at_scale`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: 2·10⁵ nodes want an optimised build"
)]
fn grading_stays_linear_at_scale() {
    assert_eq!(degree_lower_bound(&generators::path(200_000).unwrap()), 2);
    assert_eq!(
        degree_lower_bound(&generators::star(100_000).unwrap()),
        99_999
    );
}

#[test]
fn pool_borrows_the_shared_topology_instead_of_rebuilding_adjacency() {
    // The CSR substrate removed the per-run `Vec<Vec<NodeId>>` adjacency
    // re-materialisation: every backend borrows neighbour slices straight
    // out of one shared `Arc<Graph>`. Pointer equality proves it — the
    // topology each run reports *is* the caller's Arc, across repeated runs
    // and across backends, with no hidden copy in between.
    let graph = Arc::new(generators::random_connected(400, 200, 3).unwrap());
    let baseline = Arc::strong_count(&graph);
    let config = ExecConfig {
        workers: 8,
        ..Default::default()
    };
    let first = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &config,
            &CancelToken::new(),
        )
        .unwrap();
    let second = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &config,
            &CancelToken::new(),
        )
        .unwrap();
    assert!(
        Arc::ptr_eq(&first.topology, &graph) && Arc::ptr_eq(&second.topology, &graph),
        "every pool run must borrow the caller's Arc, not rebuild the topology"
    );
    assert!(Arc::ptr_eq(&first.topology, &second.topology));
    // Each finished run holds exactly one extra reference (its `topology`
    // field) — nothing else retained a clone, so no worker kept adjacency.
    assert_eq!(Arc::strong_count(&graph), baseline + 2);
    drop((first, second));
    assert_eq!(Arc::strong_count(&graph), baseline);
    // Every backend satisfies the same contract, at any pool width.
    let config = ExecConfig {
        workers: 4,
        ..Default::default()
    };
    for kind in ExecutorKind::all() {
        let run = kind
            .run(
                &graph,
                |id, _| FloodingSt::new(id, NodeId(0)),
                &config,
                &CancelToken::new(),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&run.topology, &graph), "{kind}");
    }
}

#[test]
fn pool_runs_the_full_mdst_pipeline_beyond_the_threaded_scale() {
    // The full pipeline (construction + improvement) at a node count where
    // one OS thread per node would already be painful: the pool executor drives the
    // improvement protocol to the same verdicts the simulator would reach.
    let graph = Arc::new(generators::star_with_leaf_edges(600).unwrap());
    let report = Pipeline::on(&graph)
        .executor(ExecutorKind::Pool)
        .workers(16)
        .run()
        .unwrap();
    assert_eq!(report.outcome, Outcome::Optimal);
    assert_eq!(report.initial_degree, 599);
    assert!(
        report.final_degree <= 3,
        "the improvement must dismantle the star, got {}",
        report.final_degree
    );
    assert!(report.tree().is_spanning_tree_of(&graph));
    assert!(within_paper_degree_bound(&graph, report.final_degree));
}

/// SplitMix64: a tiny deterministic generator so the million-node stream
/// needs no RNG dependency and both builder passes can regenerate the exact
/// same edges.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The million-node edge stream: a path through a label-scrambled node
/// permutation (so the spanning backbone contributes degree ≤ 2 everywhere —
/// a random-attachment tree's `Θ(log n)` hubs would bust the degree-bound
/// verdict at this scale) plus `extra` random chords. Self-loops are skipped;
/// the occasional duplicate chord is merged by `StreamingBuilder::finish`.
/// Regenerated from the seed for each pass, exactly like the two-pass file
/// ingestion the streaming builder exists for.
fn million_node_stream(n: usize, extra: usize, seed: u64, mut f: impl FnMut(usize, usize)) {
    // A fixed affine permutation scrambles the path labels: `stride` is odd,
    // hence coprime to any power-of-two-free n... gcd(stride, n) == 1 is all
    // that matters, and 1_000_003 is prime and no divisor of 10⁶.
    let stride: usize = 1_000_003;
    let label = |i: usize| (i.wrapping_mul(stride)) % n;
    for i in 1..n {
        f(label(i - 1), label(i));
    }
    let mut state = seed;
    let mut emitted = 0usize;
    while emitted < extra {
        let u = (splitmix64(&mut state) % n as u64) as usize;
        let v = (splitmix64(&mut state) % n as u64) as usize;
        if u != v {
            f(u, v);
            emitted += 1;
        }
    }
}

/// Memory-regression smoke for the compact CSR, CI-pinned at n = 10⁵ with
/// the million-node test's shape (m ≈ 3n): the footprint
/// `8·|V| + 16·|E| + 8` works out to ~56 bytes per node at average degree 6,
/// and this gate fails if a layout change pushes it past 60.
#[test]
fn compact_csr_stays_under_sixty_bytes_per_node_at_100k() {
    const N: usize = 100_000;
    const EXTRA: usize = 200_000;
    let mut b = StreamingBuilder::new(N).unwrap();
    million_node_stream(N, EXTRA, 0xfeed_f00d, |u, v| {
        b.count_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    });
    b.start_placement().unwrap();
    million_node_stream(N, EXTRA, 0xfeed_f00d, |u, v| {
        b.place_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    });
    let graph = b.finish().unwrap();
    let per_node = graph.memory_bytes() / graph.node_count();
    assert!(
        per_node <= 60,
        "compact CSR regressed to {per_node} bytes/node at n = 10⁵ \
         (m = {}); the diet holds the line at 60",
        graph.edge_count()
    );
}

/// Release-only gate for the million-node substrate: 10⁶ nodes and ~3×10⁶
/// edges ingested through the streaming two-pass builder, flooded to
/// quiescence on the pool, with the paper's degree-bound verdict checked on
/// the resulting spanning tree and the compact CSR held to half the seed
/// layout's footprint. Run it with
/// `cargo test --release -p mdst --test pool_scale`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: a million nodes want an optimised build"
)]
fn pool_completes_a_million_node_run_on_one_box() {
    use mdst::core::bounds::ceil_log2;
    const N: usize = 1_000_000;
    const EXTRA: usize = 2_000_000;
    const SEED: u64 = 0x5ca1_ab1e;
    // Two passes over the regenerated stream — the builder never sees the
    // edge set materialised in memory, only one edge at a time.
    let mut b = StreamingBuilder::new(N).unwrap();
    million_node_stream(N, EXTRA, SEED, |u, v| {
        b.count_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    });
    b.start_placement().unwrap();
    million_node_stream(N, EXTRA, SEED, |u, v| {
        b.place_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    });
    let graph = Arc::new(b.finish().unwrap());
    let m = graph.edge_count() as u64;
    assert!(
        (2_990_000..=3_000_000).contains(&m),
        "~3×10⁶ edges expected after duplicate merging, got {m}"
    );
    // Memory diet: the compact CSR must cost at most half of the seed layout
    // (usize-width offsets plus three 16-byte-per-edge arrays:
    // 8(n+1) + 48m bytes) at exactly the scale the diet was built for.
    let seed_layout_bytes = 8 * (N + 1) + 48 * m as usize;
    assert!(
        2 * graph.memory_bytes() <= seed_layout_bytes,
        "compact CSR ({} bytes) must undercut half the seed layout ({} bytes)",
        graph.memory_bytes(),
        seed_layout_bytes
    );
    // A bounded worker count keeps the per-worker metrics columns (two
    // `u64` columns of n entries each) from dominating the run's footprint.
    let run = ExecutorKind::Pool
        .run(
            &graph,
            |id, _| FloodingSt::new(id, NodeId(0)),
            &ExecConfig {
                workers: 8,
                ..Default::default()
            },
            &CancelToken::new(),
        )
        .unwrap();
    assert_eq!(run.status, ExecStatus::Quiesced);
    // Message determinism holds at 10⁶: exactly 2m + (n − 1) messages under
    // any worker interleaving.
    assert_eq!(run.metrics.messages_total, 2 * m + (N as u64 - 1));
    let tree = collect_tree(&run.nodes).unwrap();
    assert!(tree.is_spanning_tree_of(&graph));
    assert_eq!(tree.root(), NodeId(0));
    // Degree-bound verdict (see the 100k test): Δ* ≥ 2 on any n ≥ 3 graph,
    // so the paper's conservative `2Δ* + ⌈log₂ n⌉` bound is checkable. The
    // path backbone keeps the seeded graph's degrees Poisson-ish (≈ 2 + 4),
    // far under the bound, so the verdict is schedule-independent.
    let bound = 2 * 2 + ceil_log2(N);
    assert!(
        graph.max_degree() <= bound,
        "seed drifted: graph degree {} exceeds the verdict bound {bound}",
        graph.max_degree()
    );
    assert!(
        tree.max_degree() <= bound,
        "flooding tree degree {} violates the 2Δ*+⌈log n⌉ verdict ({bound})",
        tree.max_degree()
    );
}
