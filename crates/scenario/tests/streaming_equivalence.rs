//! Property tests pinning the streaming two-pass loader to an independent
//! reference model: for generated edge-list, DIMACS, METIS and MatrixMarket
//! files — plain and gzipped, with comments, blank lines, isolated nodes,
//! duplicate entries in both orientations and shuffled edge order —
//! `load_graph` must produce exactly the sorted, deduplicated `(min, max)`
//! edge set of the generated multiset, on the declared node count.

use mdst_graph::Graph;
use mdst_scenario::io::{load_graph, GraphFormat};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// SplitMix64, so edge sets, shuffles and comment placement are all
/// seed-deterministic (the vendored proptest shim has no collection
/// strategies — the seed carries the randomness instead).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A raw workload: a declared node count, an edge-multiset size and a seed
/// driving edge endpoints, shuffles and comment injection.
fn workload() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..40, 1usize..80, any::<u64>())
}

/// The seeded edge multiset: `count` loop-free pairs with endpoints below
/// `n`, duplicates welcome, and nothing forcing every node to appear — so
/// interior (and, for header-declared formats, trailing) nodes stay isolated.
fn gen_edges(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed;
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let u = (splitmix64(&mut state) % n as u64) as usize;
        let v = (splitmix64(&mut state) % n as u64) as usize;
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges
}

/// The reference model, built without any graph builder: the edge
/// multiset's `(min, max)` pairs, sorted and deduplicated.
fn model(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut set: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// What a loaded graph looks like next to the model: node count, edges in
/// identifier order, and the degree sum (which catches a row that lost or
/// gained an incidence without changing the edge iterator).
fn observed(graph: &Graph) -> (usize, Vec<(usize, usize)>, usize) {
    let edges = graph.edges().map(|(u, v)| (u.index(), v.index())).collect();
    (graph.node_count(), edges, graph.degree_sum())
}

/// The observation the model predicts for an `n`-node graph.
fn expected(n: usize, model: &[(usize, usize)]) -> (usize, Vec<(usize, usize)>, usize) {
    (n, model.to_vec(), 2 * model.len())
}

/// Removes the twin files when the case ends — pass or panic alike.
struct Cleanup(PathBuf, PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(&self.1);
    }
}

/// Writes `text` under a case-unique name plus a gzip twin and returns both
/// paths with a cleanup guard.
fn write_twins(text: &str, ext: &str) -> (PathBuf, PathBuf, Cleanup) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let plain = std::env::temp_dir().join(format!(
        "mdst_stream_eq_{}_{case}.{ext}",
        std::process::id()
    ));
    let gz = plain.with_extension(format!("{ext}.gz"));
    std::fs::write(&plain, text).expect("temp dir is writable");
    let mut enc = flate2::write::GzEncoder::new(Vec::new(), flate2::Compression::fast());
    enc.write_all(text.as_bytes()).expect("in-memory gzip");
    std::fs::write(&gz, enc.finish().expect("in-memory gzip")).expect("temp dir is writable");
    let guard = Cleanup(plain.clone(), gz.clone());
    (plain, gz, guard)
}

/// Renders the edge multiset as a hostile edge-list file: shuffled order,
/// interleaved `#`/`%` comment lines, blank lines and inline comments.
fn render_edge_list(edges: &[(usize, usize)], seed: u64) -> String {
    let mut order: Vec<(usize, usize)> = edges.to_vec();
    shuffle(&mut order, seed);
    let mut state = seed ^ 0xdead_beef;
    let mut out = String::from("# generated workload\n");
    for (u, v) in order {
        match splitmix64(&mut state) % 5 {
            0 => out.push_str("% interleaved comment\n"),
            1 => out.push('\n'),
            _ => {}
        }
        if splitmix64(&mut state).is_multiple_of(4) {
            out.push_str(&format!("{u} {v} # inline note\n"));
        } else {
            out.push_str(&format!("{u} {v}\n"));
        }
    }
    out
}

/// Renders the model as an `n`-vertex METIS file with shuffled neighbour
/// order inside each adjacency line and `%` comment lines sprinkled between
/// lines (comments vanish; blank data lines are positional, so isolated
/// nodes show up as exactly that — empty adjacency lines).
fn render_metis_shuffled(n: usize, model: &[(usize, usize)], seed: u64) -> String {
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in model {
        rows[u].push(v + 1);
        rows[v].push(u + 1);
    }
    let mut state = seed;
    let mut out = String::from("% generated workload\n");
    out.push_str(&format!("{n} {}\n", model.len()));
    for mut row in rows {
        if splitmix64(&mut state).is_multiple_of(4) {
            out.push_str("% between vertex lines\n");
        }
        shuffle(&mut row, splitmix64(&mut state));
        let row: Vec<String> = row.iter().map(usize::to_string).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

/// Renders the edge multiset as a DIMACS file: shuffled edge order, random
/// orientation per line, some edges repeated in the opposite orientation,
/// `c` comment lines and blank lines. The problem line's `m` counts either
/// the edge lines or the distinct edges (the seed picks), since published
/// files use both readings.
fn render_dimacs(n: usize, edges: &[(usize, usize)], seed: u64) -> String {
    let mut order: Vec<(usize, usize)> = edges.to_vec();
    shuffle(&mut order, seed);
    let mut state = seed ^ 0xd1ac5;
    let mut body = String::new();
    let mut lines = 0usize;
    for (u, v) in order {
        match splitmix64(&mut state) % 6 {
            0 => body.push_str("c interleaved comment\n"),
            1 => body.push('\n'),
            _ => {}
        }
        let (a, b) = if splitmix64(&mut state).is_multiple_of(2) {
            (u, v)
        } else {
            (v, u)
        };
        body.push_str(&format!("e {} {}\n", a + 1, b + 1));
        lines += 1;
        if splitmix64(&mut state).is_multiple_of(4) {
            body.push_str(&format!("e {} {}\n", b + 1, a + 1));
            lines += 1;
        }
    }
    let m = if seed.is_multiple_of(2) {
        lines
    } else {
        model(edges).len()
    };
    format!("c generated workload\np edge {n} {m}\n{body}")
}

/// Renders the edge multiset as a MatrixMarket coordinate file: shuffled
/// entry order, random orientation per entry, duplicate entries kept (the
/// declared `nnz` counts data lines, and duplicates collapse onto one
/// undirected edge), `%` comments and
/// blank lines.
fn render_matrix_market(n: usize, edges: &[(usize, usize)], seed: u64) -> String {
    let mut order: Vec<(usize, usize)> = edges.to_vec();
    shuffle(&mut order, seed);
    let mut state = seed ^ 0x5eed;
    let mut out = String::from("%%MatrixMarket matrix coordinate pattern symmetric\n");
    out.push_str("% generated workload\n");
    out.push_str(&format!("{n} {n} {}\n", order.len()));
    for (u, v) in order {
        match splitmix64(&mut state) % 6 {
            0 => out.push_str("% interleaved comment\n"),
            1 => out.push('\n'),
            _ => {}
        }
        if splitmix64(&mut state).is_multiple_of(2) {
            out.push_str(&format!("{} {}\n", u + 1, v + 1));
        } else {
            out.push_str(&format!("{} {}\n", v + 1, u + 1));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_edge_list_matches_the_reference_model((n, count, seed) in workload()) {
        let edges = gen_edges(n, count, seed);
        // An edge list cannot declare trailing isolated nodes: the loader
        // discovers `max(endpoint) + 1`, so the model must too.
        let top = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap();
        let want = expected(top + 1, &model(&edges));
        let text = render_edge_list(&edges, seed);
        let (plain, gz, _guard) = write_twins(&text, "el");
        let streamed = load_graph(&plain, Some(GraphFormat::EdgeList)).expect("plain file loads");
        prop_assert_eq!(observed(&streamed), want.clone());
        let inflated = load_graph(&gz, Some(GraphFormat::EdgeList)).expect("gzip twin loads");
        prop_assert_eq!(observed(&inflated), want);
    }

    #[test]
    fn streaming_dimacs_matches_the_reference_model((n, count, seed) in workload()) {
        let edges = gen_edges(n, count, seed);
        let want = expected(n, &model(&edges));
        let text = render_dimacs(n, &edges, seed);
        let (plain, gz, _guard) = write_twins(&text, "col");
        let streamed = load_graph(&plain, Some(GraphFormat::Dimacs)).expect("plain file loads");
        prop_assert_eq!(observed(&streamed), want.clone());
        let inflated = load_graph(&gz, Some(GraphFormat::Dimacs)).expect("gzip twin loads");
        prop_assert_eq!(observed(&inflated), want);
    }

    #[test]
    fn streaming_metis_matches_the_reference_model((n, count, seed) in workload()) {
        let edges = gen_edges(n, count, seed);
        let model = model(&edges);
        let want = expected(n, &model);
        let text = render_metis_shuffled(n, &model, seed);
        let (plain, gz, _guard) = write_twins(&text, "graph");
        let streamed = load_graph(&plain, Some(GraphFormat::Metis)).expect("plain file loads");
        prop_assert_eq!(observed(&streamed), want.clone());
        let inflated = load_graph(&gz, Some(GraphFormat::Metis)).expect("gzip twin loads");
        prop_assert_eq!(observed(&inflated), want);
    }

    #[test]
    fn streaming_matrix_market_matches_the_reference_model((n, count, seed) in workload()) {
        let edges = gen_edges(n, count, seed);
        let want = expected(n, &model(&edges));
        let text = render_matrix_market(n, &edges, seed);
        let (plain, gz, _guard) = write_twins(&text, "mtx");
        let streamed =
            load_graph(&plain, Some(GraphFormat::MatrixMarket)).expect("plain file loads");
        prop_assert_eq!(observed(&streamed), want.clone());
        let inflated = load_graph(&gz, Some(GraphFormat::MatrixMarket)).expect("gzip twin loads");
        prop_assert_eq!(observed(&inflated), want);
    }
}
