//! Hostile-input guard for the four graph readers. Seeded garbage and
//! corrupted renderings of real graphs go through `parse_graph` in every
//! format, and corrupted gzip files (magic kept) through `load_graph`. Each
//! call must return a `Result` — a graph or a typed error — and never panic.
//!
//! Mutations never stack and inserted digit runs are short, so no input
//! declares a node count between about 10⁶ and the 2³² limit: the guard
//! stays cheap in memory while reaching every scanner's error paths. Counts
//! above the limit are fed on purpose; they must fail before allocating.

use mdst_graph::generators;
use mdst_scenario::io::{load_graph, parse_graph, render_graph, save_graph, GraphFormat};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const FORMATS: [GraphFormat; 4] = [
    GraphFormat::EdgeList,
    GraphFormat::Dimacs,
    GraphFormat::Metis,
    GraphFormat::MatrixMarket,
];

/// SplitMix64, so every input is a pure function of the case seed (the
/// vendored proptest shim has no collection strategies).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A draw below `bound`.
fn below(state: &mut u64, bound: usize) -> usize {
    (splitmix64(state) % bound as u64) as usize
}

/// Runs `f`, failing the case with `what` and the offending input if it
/// panics. Whatever `Result` it returns is fine.
fn never_panics<T>(what: &str, input: &[u8], f: impl FnOnce() -> T) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        let shown = String::from_utf8_lossy(&input[..input.len().min(400)]).into_owned();
        panic!("{what} panicked on {} bytes: {shown:?}", input.len());
    }
}

/// Feeds `text` to every reader.
fn parse_everywhere(text: &str) {
    for format in FORMATS {
        never_panics(format.label(), text.as_bytes(), || {
            parse_graph(text, format)
        });
    }
}

/// Words the scanners branch on, plus counts just past the node limit and a
/// number too long for `usize`.
const WORDS: [&str; 22] = [
    "p",
    "edge",
    "sp",
    "e",
    "a",
    "c",
    "%%MatrixMarket",
    "matrix",
    "coordinate",
    "pattern",
    "real",
    "general",
    "symmetric",
    "%",
    "#",
    "011",
    "-1",
    "0.5",
    "é",
    "4294967297",
    "18446744073709551615",
    "99999999999999999999999",
];

/// Seeded garbage: keywords, short numbers and stray bytes, with a
/// separator after every number so no two merge into a longer one.
fn garbage(seed: u64) -> String {
    let mut state = seed;
    let mut out = String::new();
    for _ in 0..below(&mut state, 48) {
        match below(&mut state, 6) {
            0 | 1 => out.push_str(WORDS[below(&mut state, WORDS.len())]),
            2 | 3 => {
                let bound = [4, 40, 100_000][below(&mut state, 3)];
                out.push_str(&below(&mut state, bound).to_string());
            }
            4 => out.push(char::from(below(&mut state, 128) as u8)),
            _ => {}
        }
        out.push_str([" ", " ", "\n", "\t", "\r\n", "  ", "\n\n"][below(&mut state, 7)]);
    }
    out
}

/// One mutation of `bytes`, kept at or after `keep`: a flipped byte, up to
/// four deleted bytes, a run of up to three inserted digits, or a
/// truncation.
fn mutate(bytes: &[u8], keep: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = bytes.to_vec();
    if out.len() <= keep {
        return out;
    }
    let at = keep + below(&mut state, out.len() - keep);
    match below(&mut state, 4) {
        0 => out[at] ^= 1 + below(&mut state, 255) as u8,
        1 => {
            let end = (at + 1 + below(&mut state, 4)).min(out.len());
            out.drain(at..end);
        }
        2 => {
            for _ in 0..=below(&mut state, 3) {
                out.insert(at, b'0' + below(&mut state, 10) as u8);
            }
        }
        _ => out.truncate(at),
    }
    out
}

/// A small random graph, rendered canonically in `format`.
fn rendering(seed: u64, format: GraphFormat) -> String {
    let mut state = seed;
    let n = 2 + below(&mut state, 30);
    let extra = below(&mut state, 40);
    let graph = generators::random_connected(n, extra, seed).expect("valid parameters");
    render_graph(&graph, format)
}

/// Removes a case's file when the case ends — pass or panic alike.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Gzip files to corrupt: the checked-in samples (compressed by the real
/// `gzip`, so their blocks are Huffman-coded) and stored-block files written
/// by `save_graph` in every format.
fn gzip_bases() -> Vec<(&'static str, Vec<u8>)> {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let mut bases: Vec<(&'static str, Vec<u8>)> =
        ["sample.el.gz", "sample.mtx.gz", "sample.col.gz"]
            .into_iter()
            .map(|name| {
                (
                    name,
                    std::fs::read(data.join(name)).expect("sample is checked in"),
                )
            })
            .collect();
    let graph = generators::random_connected(12, 10, 7).expect("valid parameters");
    for name in ["g.el.gz", "g.col.gz", "g.graph.gz", "g.mtx.gz"] {
        let path = temp_path(name);
        let _guard = Cleanup(path.clone());
        save_graph(&path, &graph, None).expect("temp dir is writable");
        bases.push((name, std::fs::read(&path).expect("just written")));
    }
    bases
}

/// A process- and call-unique temp path ending in `name`.
fn temp_path(name: &str) -> PathBuf {
    static CALL: AtomicUsize = AtomicUsize::new(0);
    let call = CALL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mdst_fuzz_{}_{call}_{name}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn garbage_never_panics_a_reader(seed in any::<u64>()) {
        parse_everywhere(&garbage(seed));
    }

    #[test]
    fn corrupted_renderings_never_panic_a_reader(seed in any::<u64>()) {
        for format in FORMATS {
            let text = rendering(seed, format);
            let mutated = mutate(text.as_bytes(), 0, seed ^ 0x6d75_7461);
            parse_everywhere(&String::from_utf8_lossy(&mutated));
        }
    }
}

#[test]
fn corrupted_gzip_never_panics_load_graph() {
    let bases = gzip_bases();
    let mut state = 0x677a_6970u64;
    for _ in 0..1000 {
        let (name, bytes) = &bases[below(&mut state, bases.len())];
        // Offset 2 keeps the magic, so the reader takes the gzip path.
        let corrupt = mutate(bytes, 2, splitmix64(&mut state));
        let path = temp_path(name);
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, &corrupt).expect("temp dir is writable");
        never_panics(name, &corrupt, || load_graph(&path, None));
    }
}
