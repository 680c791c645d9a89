//! Shared fixtures of experiment E11: streaming two-pass CSR ingestion
//! measured against the legacy whole-file path, with an accounted peak-bytes
//! model.
//!
//! The workload is a seeded `random_connected(n, n/2)` graph serialised to an
//! edge-list file (and a gzip twin written by the vendored encoder). Three
//! ingestion paths read it back:
//!
//! * **legacy** — the pre-streaming rhythm: the whole file in one `String`,
//!   every edge parsed into a vector and deduplicated through a `BTreeSet`
//!   edge set, then one CSR assembly at the end. Peak memory carries the
//!   text *and* the edge set *and* the finished CSR at once.
//! * **streaming** — [`mdst_scenario::io::load_graph`]: two passes over the
//!   file, each line parsed into a pre-sized CSR row by counting sort. No
//!   intermediate edge vector ever exists.
//! * **streaming gzip** — the same two passes over the `.el.gz` twin through
//!   the chunked decoder, which the harness wraps in a high-water probe: the
//!   decoder's internal buffering is polled after every read, and E11
//!   *asserts* it stays under a fixed cap regardless of edge count — the
//!   machine-checked form of "the gzip path never materialises the stream".
//!
//! **Peak bytes are accounted, not traced**: the workspace forbids `unsafe`,
//! so a counting `#[global_allocator]` is off the table. Each path instead
//! reports the documented sum of its long-lived allocations (input text,
//! edge-set nodes, CSR arrays, streaming cursors, decoder buffers). The
//! model intentionally omits transient parser locals — identical on every
//! path and bounded by one line — so the *ratio* between paths is the honest
//! quantity, and it is what the table's final column shows.

use mdst::prelude::*;
use mdst_scenario::io::{self, GraphFormat, IoError};
use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Node counts of the full E11 ingestion sweep.
pub const E11_NODES: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Shrunk node counts used when `BENCH_SMOKE` is set.
pub const E11_SMOKE_NODES: [usize; 3] = [500, 2_000, 8_000];

/// Cap on the gzip decoder's internal buffering (input chunk plus the 32 KiB
/// window plus pending output), asserted per run: a decoder that buffered
/// the stream would blow through this on the first full-size workload.
pub const DECODER_HIGH_WATER_CAP: usize = 256 * 1024;

/// The node counts E11 sweeps in the current mode.
pub fn e11_nodes() -> [usize; 3] {
    if crate::fabric::smoke() {
        E11_SMOKE_NODES
    } else {
        E11_NODES
    }
}

/// One measured ingestion run.
pub struct IngestSample {
    /// Wall-clock time of the ingestion call.
    pub wall: Duration,
    /// Accounted peak bytes (see the module docs for the model).
    pub peak_bytes: usize,
    /// The decoder's buffering high-water mark (gzip path only).
    pub decoder_high_water: Option<usize>,
    /// Edges in the ingested graph (sanity cross-check between paths).
    pub edges: usize,
}

/// Serialises workload `n` as `<dir>/e11_<n>.el` plus a gzip twin, returning
/// `(plain path, gzip path, plain byte size)`.
pub fn write_workload(n: usize, dir: &Path) -> std::io::Result<(PathBuf, PathBuf, usize)> {
    let graph = generators::random_connected(n, n / 2, 11)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut text = String::new();
    for (u, v) in graph.edges() {
        text.push_str(&format!("{} {}\n", u.index(), v.index()));
    }
    let plain = dir.join(format!("e11_{n}.el"));
    std::fs::write(&plain, &text)?;
    let gz = dir.join(format!("e11_{n}.el.gz"));
    let mut enc = flate2::write::GzEncoder::new(
        std::io::BufWriter::new(std::fs::File::create(&gz)?),
        flate2::Compression::fast(),
    );
    enc.write_all(text.as_bytes())?;
    enc.finish()?.into_inner().map_err(|e| e.into_error())?;
    Ok((plain, gz, text.len()))
}

/// The legacy whole-file ingestion: one `String`, one edge vector
/// deduplicated through a `BTreeSet`, one build. Kept here (the production
/// loader streams now) as the measured baseline.
pub fn legacy_ingest(path: &Path) -> Result<(Graph, IngestSample), IoError> {
    let started = Instant::now();
    let text = std::fs::read_to_string(path).map_err(|e| IoError::Io(e.to_string()))?;
    let mut max_node = 0usize;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(u), Some(v)) = (it.next(), it.next()) else {
            continue;
        };
        let (Ok(u), Ok(v)) = (u.parse::<usize>(), v.parse::<usize>()) else {
            continue;
        };
        max_node = max_node.max(u).max(v);
        edges.push((u, v));
    }
    let mut edge_set: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    edges.retain(|&(u, v)| edge_set.insert((NodeId::new(u.min(v)), NodeId::new(u.max(v)))));
    let edge_count = edge_set.len();
    let graph = graph_from_edges(max_node + 1, &edges).map_err(io::IoError::Graph)?;
    let wall = started.elapsed();
    // Accounted peak: the input text, the parsed edge vector, the
    // `BTreeSet` edge set (8 payload bytes per edge plus ~50% amortised tree
    // overhead), and the finished CSR — all live simultaneously at the build.
    let peak_bytes = text.capacity()
        + edges.capacity() * std::mem::size_of::<(usize, usize)>()
        + edge_count * 12
        + graph.memory_bytes();
    let sample = IngestSample {
        wall,
        peak_bytes,
        decoder_high_water: None,
        edges: graph.edge_count(),
    };
    Ok((graph, sample))
}

/// The streaming production path over the plain edge list.
pub fn streaming_ingest(path: &Path) -> Result<(Graph, IngestSample), IoError> {
    let started = Instant::now();
    let graph = io::load_graph(path, Some(GraphFormat::EdgeList))?;
    let wall = started.elapsed();
    let sample = IngestSample {
        wall,
        // Accounted peak: the finished CSR plus the builder's placement
        // cursors (4 bytes per node). No edge vector, no input copy.
        peak_bytes: graph.memory_bytes() + 4 * graph.node_count(),
        decoder_high_water: None,
        edges: graph.edge_count(),
    };
    Ok((graph, sample))
}

/// A reader that forwards to the chunked gzip decoder and records the
/// decoder's buffering high-water mark across every read.
struct HighWaterProbe<R> {
    inner: flate2::read::GzDecoder<R>,
    peak: usize,
}

impl<R: std::io::BufRead> Read for HighWaterProbe<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.peak = self.peak.max(self.inner.buffer_high_water());
        Ok(n)
    }
}

/// The streaming path over the gzip twin, with the decoder's buffering
/// polled after every read. Returns the observed high-water mark so E11 can
/// assert it against [`DECODER_HIGH_WATER_CAP`].
pub fn streaming_gz_ingest(path: &Path) -> Result<(Graph, IngestSample), IoError> {
    use std::cell::Cell;
    let high_water = Cell::new(0usize);
    let started = Instant::now();
    let graph = io::stream_graph(GraphFormat::EdgeList, || {
        let file = std::fs::File::open(path).map_err(|e| IoError::Io(e.to_string()))?;
        let probe = HighWaterProbe {
            inner: flate2::read::GzDecoder::new(BufReader::new(file)),
            peak: 0,
        };
        Ok(BufReader::new(ProbeGuard {
            probe,
            peak: &high_water,
        }))
    })?;
    let wall = started.elapsed();
    let peak = high_water.get();
    let sample = IngestSample {
        wall,
        peak_bytes: graph.memory_bytes() + 4 * graph.node_count() + peak,
        decoder_high_water: Some(peak),
        edges: graph.edge_count(),
    };
    Ok((graph, sample))
}

/// Publishes a [`HighWaterProbe`]'s running peak into a `Cell` the caller
/// retains — the probe itself is consumed by the ingestion call (each pass
/// opens a fresh decoder), so the peak must escape through a side channel.
struct ProbeGuard<'a, R> {
    probe: HighWaterProbe<R>,
    peak: &'a std::cell::Cell<usize>,
}

impl<R: std::io::BufRead> Read for ProbeGuard<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.probe.read(buf)?;
        self.peak.set(self.peak.get().max(self.probe.peak));
        Ok(n)
    }
}
