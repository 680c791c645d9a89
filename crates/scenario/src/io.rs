//! Graph file I/O: edge-list, DIMACS, METIS and MatrixMarket formats, with
//! transparent gzip decompression.
//!
//! External graphs become first-class pipeline inputs through this module.
//! Four interchange formats are supported, all line-oriented and widely used
//! by graph repositories:
//!
//! * **edge list** — one `u v` pair per line, 0-based, `#`/`%` comments; the
//!   node count is `max(endpoint) + 1`;
//! * **DIMACS** — `c` comment lines, one `p edge <n> <m>` problem line, then
//!   `m` lines `e u v` with 1-based endpoints (the format of the DIMACS
//!   colouring/clique benchmarks, also produced by many generators);
//! * **METIS** — a `<n> <m> [fmt [ncon]]` header followed by one adjacency
//!   line per vertex (1-based neighbours, `%` comments), the input format of
//!   the METIS/KaHIP partitioner family. Vertex and edge weights are parsed
//!   and discarded (the model's links are uniform);
//! * **MatrixMarket** — `%%MatrixMarket matrix coordinate … …` sparse
//!   matrices read as adjacency structure (1-based `i j [value]` entries,
//!   diagonal entries dropped, values discarded) — the format of the
//!   SuiteSparse collection most MDST-adjacent papers benchmark on.
//!
//! All readers reject self loops (METIS/edge-list/DIMACS) and out-of-range
//! endpoints; duplicate edges and both orientations are tolerated where the
//! ecosystem produces them. Writers produce canonical output, so
//! `read(write(g))` reproduces `g` exactly for every format.
//!
//! Files ending in `.gz` (or starting with the gzip magic bytes, whatever
//! the name) are decompressed transparently by [`load_graph`]; the format is
//! inferred from the extension *under* the `.gz`, so `web.mtx.gz` is a
//! gzipped MatrixMarket file.
//!
//! All four readers **stream** through one two-pass driver,
//! [`stream_graph`]: two passes over the input (count degrees, then place
//! edges into exactly-sized CSR rows) build the compact layout without ever
//! materialising an intermediate edge vector — and gzipped inputs inflate
//! chunk by chunk through the incremental decoder, so a million-edge
//! `.el.gz` costs its finished graph plus fixed-size buffers, not its
//! inflated text. Each format is one scanner that validates its lines and
//! feeds the driver a header and pairs, so a new format is one scanner and
//! one arm of [`stream_graph`].

use mdst_graph::{Graph, GraphError, NodeId, StreamingBuilder};
use std::fmt;
use std::io::{BufRead, Read};
use std::path::Path;

/// Supported on-disk graph formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum GraphFormat {
    /// `u v` pairs, 0-based.
    EdgeList,
    /// DIMACS `p edge` / `e u v`, 1-based.
    Dimacs,
    /// METIS adjacency file (`n m [fmt [ncon]]` header, 1-based).
    Metis,
    /// MatrixMarket coordinate matrix read as adjacency (1-based).
    MatrixMarket,
}

impl GraphFormat {
    /// Guesses the format from the file extension: `.col`, `.clq`, `.gr` and
    /// `.dimacs` are DIMACS; `.graph` and `.metis` are METIS; `.mtx` is
    /// MatrixMarket; everything else is an edge list. A trailing `.gz` is
    /// stripped first, so double extensions (`.mtx.gz`, `.graph.gz`,
    /// `.el.gz`) resolve to the format of the compressed payload.
    pub fn from_path(path: &Path) -> GraphFormat {
        let mut ext = path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase);
        if ext.as_deref() == Some("gz") {
            // `x.mtx.gz` → file_stem `x.mtx` → extension `mtx`.
            ext = path
                .file_stem()
                .map(Path::new)
                .and_then(|stem| stem.extension())
                .and_then(|e| e.to_str())
                .map(str::to_ascii_lowercase);
        }
        match ext.as_deref() {
            Some("col") | Some("clq") | Some("gr") | Some("dimacs") => GraphFormat::Dimacs,
            Some("graph") | Some("metis") => GraphFormat::Metis,
            Some("mtx") => GraphFormat::MatrixMarket,
            _ => GraphFormat::EdgeList,
        }
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            GraphFormat::EdgeList => "edge-list",
            GraphFormat::Dimacs => "dimacs",
            GraphFormat::Metis => "metis",
            GraphFormat::MatrixMarket => "matrix-market",
        }
    }
}

/// Errors produced while reading or writing graph files.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// Filesystem problem (missing file, permissions, …).
    Io(String),
    /// The input contained no graph at all (empty file, or comments only).
    /// Not a [`IoError::Parse`]: there is no offending line to point at.
    Empty {
        /// What was being parsed, e.g. `"edge list"`.
        what: &'static str,
    },
    /// Malformed content, with the offending 1-based line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// File-level inconsistency that no single line is responsible for
    /// (e.g. a DIMACS header whose edge count disagrees with the body).
    Inconsistent {
        /// Human-readable description.
        message: String,
    },
    /// Structurally invalid graph (self loop, out-of-range endpoint, …).
    Graph(GraphError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(msg) => write!(f, "I/O error: {msg}"),
            IoError::Empty { what } => {
                write!(f, "empty input: the {what} contains no graph data")
            }
            IoError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            IoError::Inconsistent { message } => write!(f, "inconsistent input: {message}"),
            IoError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

fn parse_err<T>(line: usize, message: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Parse {
        line,
        message: message.into(),
    })
}

/// Strips `#` / `%` comments and surrounding whitespace.
fn strip_line(raw: &str) -> &str {
    let no_comment = match raw.find(['#', '%']) {
        Some(i) => &raw[..i],
        None => raw,
    };
    no_comment.trim()
}

/// Longest line, newline excluded, that the edge-list, DIMACS and
/// MatrixMarket scanners accept. Their lines hold a few numbers each, so
/// 1 MiB is far above any real file and bounds the line buffer. METIS
/// adjacency lines grow with a vertex's degree and are not capped.
const MAX_LINE: u64 = 1 << 20;

/// Drives `f` over `reader`'s lines with 1-based numbers, reusing one buffer
/// so million-line files do not allocate per line. A line longer than
/// `max_line` bytes (newline excluded) is an [`IoError::Parse`] naming it;
/// at most `max_line + 1` bytes of it are ever buffered.
fn for_each_line<R: BufRead>(
    mut reader: R,
    max_line: u64,
    mut f: impl FnMut(usize, &str) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut line = Vec::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        line_no += 1;
        let n = (&mut reader)
            .take(max_line.saturating_add(1))
            .read_until(b'\n', &mut line)
            .map_err(|e| IoError::Io(e.to_string()))?;
        if n == 0 {
            return Ok(());
        }
        if line.ends_with(b"\n") {
            line.pop();
            if line.ends_with(b"\r") {
                line.pop();
            }
        } else if n as u64 > max_line {
            return parse_err(line_no, format!("line is longer than {max_line} bytes"));
        }
        let text = std::str::from_utf8(&line)
            .map_err(|_| IoError::Io("stream did not contain valid UTF-8".to_string()))?;
        f(line_no, text)?;
    }
}

// ---------------------------------------------------------------------------
// The two-pass driver
// ---------------------------------------------------------------------------

/// What every scanner feeds, in file order: the header's node count (where
/// the format has one) and each pair. The same scan runs once per pass: in
/// pass 1 the sink counts degrees, in pass 2 it places the pairs into rows.
struct Sink {
    /// The CSR assembler both passes feed.
    builder: StreamingBuilder,
    /// `false` in pass 1 (counting), `true` in pass 2 (placing).
    placing: bool,
    /// Pairs fed in pass 1 (edge lines, neighbour mentions or entries).
    pairs: u64,
}

impl Sink {
    /// A header declared `n` nodes. Pairs call it too, with `max(u, v) + 1`:
    /// that is how a headerless edge list learns `n`. It only ever grows the
    /// count, so it is a no-op in pass 2 and for pairs that a headered
    /// format's scanner has range-checked.
    fn header(&mut self, n: usize) -> Result<(), IoError> {
        if n > self.builder.node_count() {
            self.builder.ensure_nodes(n)?;
        }
        Ok(())
    }

    /// The undirected pair `(u, v)`, 0-based.
    #[inline]
    fn edge(&mut self, u: usize, v: usize) -> Result<(), IoError> {
        let (u, v) = self.endpoints(u, v)?;
        if self.placing {
            return Ok(self.builder.place_edge(u, v)?);
        }
        Ok(self.builder.count_edge(u, v)?)
    }

    /// The directed mention `u → v`, 0-based (adjacency formats, whose
    /// build finishes with [`StreamingBuilder::finish_symmetric`]).
    #[inline]
    fn arc(&mut self, u: usize, v: usize) -> Result<(), IoError> {
        let (u, v) = self.endpoints(u, v)?;
        if self.placing {
            return Ok(self.builder.place_arc(u, v)?);
        }
        Ok(self.builder.count_arc(u, v)?)
    }

    /// Turns a pair into node ids; in pass 1 it first grows the node count
    /// to cover the pair and counts it. The sum saturates, and the
    /// node-count check rejects `usize::MAX` before any row is allocated.
    #[inline]
    fn endpoints(&mut self, u: usize, v: usize) -> Result<(NodeId, NodeId), IoError> {
        if !self.placing {
            self.header(u.max(v).saturating_add(1))?;
            self.pairs += 1;
        }
        Ok((NodeId::new(u), NodeId::new(v)))
    }
}

/// Runs `scan` over the input twice, counting degrees and then placing
/// edges into exactly-sized CSR rows; `open` reopens the input for each
/// pass. No intermediate edge vector is ever materialised, so peak memory is
/// the finished graph plus one line buffer. Returns the builder, ready to
/// finish, with what the first scan returned and the pairs it fed.
fn stream_two_pass<R: BufRead, T>(
    mut open: impl FnMut() -> Result<R, IoError>,
    scan: impl Fn(R, &mut Sink) -> Result<T, IoError>,
) -> Result<(StreamingBuilder, T, u64), IoError> {
    let mut sink = Sink {
        builder: StreamingBuilder::new(0)?,
        placing: false,
        pairs: 0,
    };
    let declared = scan(open()?, &mut sink)?;
    sink.builder.start_placement()?;
    sink.placing = true;
    scan(open()?, &mut sink)?;
    Ok((sink.builder, declared, sink.pairs))
}

// ---------------------------------------------------------------------------
// Edge list
// ---------------------------------------------------------------------------

/// Parses one edge-list line; `Ok(None)` for blanks and comments.
fn edge_list_line(line_no: usize, raw: &str) -> Result<Option<(usize, usize)>, IoError> {
    let line = strip_line(raw);
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
        return parse_err(line_no, format!("expected `u v`, got `{line}`"));
    };
    if parts.next().is_some() {
        return parse_err(
            line_no,
            format!("expected exactly two endpoints on `{line}`"),
        );
    }
    let u: usize = a.parse().map_err(|_| IoError::Parse {
        line: line_no,
        message: format!("`{a}` is not a node index"),
    })?;
    let v: usize = b.parse().map_err(|_| IoError::Parse {
        line: line_no,
        message: format!("`{b}` is not a node index"),
    })?;
    if u == v {
        return parse_err(line_no, format!("self loop `{u} {v}` is not allowed"));
    }
    Ok(Some((u, v)))
}

/// Scans an edge list, feeding every pair to the sink as an edge. There is
/// no header: the sink discovers the node count as `max(endpoint) + 1`.
fn scan_edge_list<R: BufRead>(reader: R, sink: &mut Sink) -> Result<(), IoError> {
    let mut any = false;
    for_each_line(reader, MAX_LINE, |line_no, raw| {
        if let Some((u, v)) = edge_list_line(line_no, raw)? {
            any = true;
            sink.edge(u, v)?;
        }
        Ok(())
    })?;
    any.then_some(())
        .ok_or(IoError::Empty { what: "edge list" })
}

/// Parses an edge list (`u v` per line, 0-based).
pub fn parse_edge_list(input: &str) -> Result<Graph, IoError> {
    parse_graph(input, GraphFormat::EdgeList)
}

/// Renders a graph as a canonical edge list.
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# mdst edge list: {} nodes, {} edges\n",
        graph.node_count(),
        graph.edge_count()
    ));
    for (u, v) in graph.edges() {
        out.push_str(&format!("{} {}\n", u.index(), v.index()));
    }
    out
}

// ---------------------------------------------------------------------------
// DIMACS
// ---------------------------------------------------------------------------

/// Parses a DIMACS graph (`p edge n m`, `e u v` with 1-based endpoints).
pub fn parse_dimacs(input: &str) -> Result<Graph, IoError> {
    parse_graph(input, GraphFormat::Dimacs)
}

/// Parses one endpoint of an edge line as a 1-based `usize`, checked against
/// the declared node count before it can become a `NodeId`.
fn dimacs_endpoint(token: Option<&str>, n: usize, line_no: usize) -> Result<usize, IoError> {
    let Some(v) = token.and_then(|t| t.parse::<usize>().ok()) else {
        return parse_err(line_no, "edge line needs two endpoints");
    };
    if v == 0 {
        return parse_err(line_no, "DIMACS endpoints are 1-based");
    }
    if v > n {
        return parse_err(line_no, format!("endpoint {v} out of range 1..={n}"));
    }
    Ok(v - 1)
}

/// Scans a DIMACS file, feeding the sink the problem line and every edge
/// line, and returns the edge count the problem line declares. All per-line
/// validation (line types, problem-line shape, endpoint ranges, self loops)
/// lives here so the two streaming passes agree exactly and every parse
/// error carries its line number.
fn scan_dimacs<R: BufRead>(reader: R, sink: &mut Sink) -> Result<usize, IoError> {
    // (n, m) once the problem line is parsed.
    let mut problem: Option<(usize, usize)> = None;
    for_each_line(reader, MAX_LINE, |line_no, raw| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if problem.is_some() {
                    return parse_err(line_no, "duplicate problem line");
                }
                let format = parts.next().unwrap_or("");
                if format != "edge" && format != "sp" && format != "graph" {
                    return parse_err(line_no, format!("unsupported problem type `{format}`"));
                }
                let mut count = |what: &str| {
                    parts
                        .next()
                        .and_then(|t| t.parse::<usize>().ok())
                        .ok_or_else(|| IoError::Parse {
                            line: line_no,
                            message: format!("problem line needs {what}"),
                        })
                };
                let n = count("a node count")?;
                let m = count("an edge count")?;
                if n == 0 {
                    return parse_err(line_no, "DIMACS graph must have at least one node");
                }
                problem = Some((n, m));
                sink.header(n)
            }
            Some("e") | Some("a") => {
                let Some((n, _)) = problem else {
                    return parse_err(line_no, "edge before problem line");
                };
                let u = dimacs_endpoint(parts.next(), n, line_no)?;
                let v = dimacs_endpoint(parts.next(), n, line_no)?;
                if u == v {
                    return parse_err(
                        line_no,
                        format!("self loop `e {} {}` is not allowed", u + 1, v + 1),
                    );
                }
                sink.edge(u, v)
            }
            Some(other) => parse_err(line_no, format!("unknown DIMACS line type `{other}`")),
            None => unreachable!("line is non-empty"),
        }
    })?;
    let Some((_, m)) = problem else {
        // No problem line seen: either the file is empty (or comments only),
        // which gets the dedicated empty-input error, or it is plain invalid.
        return Err(IoError::Empty {
            what: "DIMACS file (no `p edge <n> <m>` problem line)",
        });
    };
    Ok(m)
}

/// Renders a graph in DIMACS `edge` format.
pub fn to_dimacs(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("c generated by mdst-scenario\n");
    out.push_str(&format!(
        "p edge {} {}\n",
        graph.node_count(),
        graph.edge_count()
    ));
    for (u, v) in graph.edges() {
        out.push_str(&format!("e {} {}\n", u.index() + 1, v.index() + 1));
    }
    out
}

// ---------------------------------------------------------------------------
// METIS
// ---------------------------------------------------------------------------

/// Parses a METIS adjacency file.
///
/// The header is `<n> <m> [fmt [ncon]]` where `m` counts *undirected* edges;
/// `fmt` is up to three binary digits enabling, from the right, edge weights,
/// vertex weights and vertex sizes; `ncon` is the number of vertex weights
/// per vertex. Weights are validated as numbers and discarded. Each of the
/// `n` following data lines lists the 1-based neighbours of one vertex; every
/// edge must appear in both endpoint lists (the file is an adjacency
/// structure, not an edge list), which the parser enforces by requiring
/// exactly `2·m` neighbour entries and `m` distinct edges.
pub fn parse_metis(input: &str) -> Result<Graph, IoError> {
    parse_graph(input, GraphFormat::Metis)
}

fn skip_metis_number(
    tokens: &mut std::str::SplitWhitespace<'_>,
    line_no: usize,
    what: &str,
) -> Result<(), IoError> {
    let token = tokens.next().ok_or_else(|| IoError::Parse {
        line: line_no,
        message: format!("vertex line ends before its {what}"),
    })?;
    token.parse::<f64>().map_err(|_| IoError::Parse {
        line: line_no,
        message: format!("`{token}` is not a numeric {what}"),
    })?;
    Ok(())
}

/// Scans a METIS file, feeding the sink the header and every directed
/// neighbour mention as an arc, and returns the undirected edge count the
/// header declares. All per-line validation (header shape, weights,
/// ranges, self loops, duplicated mentions, vertex-line count) lives here so
/// the two streaming passes agree exactly and every parse error carries its
/// line number. Duplicate mentions are detectable per line because a mention
/// `(u, v)` can only ever appear on `u`'s own adjacency line.
fn scan_metis<R: BufRead>(reader: R, sink: &mut Sink) -> Result<usize, IoError> {
    // Header fields once parsed: (n, m, edge weights?, vertex weights?,
    // vertex sizes?, ncon).
    let mut header: Option<(usize, usize, bool, bool, bool, usize)> = None;
    let mut vertex = 0usize;
    let mut line_neighbors: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for_each_line(reader, u64::MAX, |line_no, raw| {
        // Comments vanish; empty lines are *kept* for the data section,
        // because a METIS file is positional — an isolated vertex is exactly
        // one blank adjacency line.
        let line = raw.trim();
        if line.starts_with('%') {
            return Ok(());
        }
        let Some((n, _, has_edge_weights, has_vertex_weights, has_vertex_sizes, ncon)) = header
        else {
            if line.is_empty() {
                return Ok(()); // blank lines before the header are tolerated
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if !(2..=4).contains(&fields.len()) {
                return parse_err(line_no, "METIS header must be `n m [fmt [ncon]]`");
            }
            let n: usize = fields[0].parse().map_err(|_| IoError::Parse {
                line: line_no,
                message: format!("`{}` is not a node count", fields[0]),
            })?;
            let m: usize = fields[1].parse().map_err(|_| IoError::Parse {
                line: line_no,
                message: format!("`{}` is not an edge count", fields[1]),
            })?;
            if n == 0 {
                return parse_err(line_no, "METIS graph must have at least one vertex");
            }
            let fmt = fields.get(2).copied().unwrap_or("0");
            if fmt.len() > 3 || !fmt.bytes().all(|b| b == b'0' || b == b'1') {
                return parse_err(line_no, format!("invalid METIS fmt field `{fmt}`"));
            }
            let fmt_bits = usize::from_str_radix(fmt, 2).map_err(|_| IoError::Parse {
                line: line_no,
                message: format!("invalid METIS fmt field `{fmt}`"),
            })?;
            let ncon: usize = match fields.get(3) {
                None => usize::from(fmt_bits & 0b010 != 0),
                Some(t) => t.parse().map_err(|_| IoError::Parse {
                    line: line_no,
                    message: format!("`{t}` is not an ncon count"),
                })?,
            };
            header = Some((
                n,
                m,
                fmt_bits & 0b001 != 0,
                fmt_bits & 0b010 != 0,
                fmt_bits & 0b100 != 0,
                ncon,
            ));
            return sink.header(n);
        };
        if vertex >= n {
            if line.is_empty() {
                return Ok(()); // tolerate trailing blank lines after the last vertex
            }
            return parse_err(line_no, format!("more than {n} vertex lines"));
        }
        let u = vertex;
        vertex += 1;
        let mut tokens = line.split_whitespace();
        if has_vertex_sizes {
            skip_metis_number(&mut tokens, line_no, "vertex size")?;
        }
        for _ in 0..if has_vertex_weights { ncon } else { 0 } {
            skip_metis_number(&mut tokens, line_no, "vertex weight")?;
        }
        line_neighbors.clear();
        while let Some(token) = tokens.next() {
            let v: usize = token.parse().map_err(|_| IoError::Parse {
                line: line_no,
                message: format!("`{token}` is not a neighbour index"),
            })?;
            if v == 0 || v > n {
                return parse_err(line_no, format!("neighbour {v} out of range 1..={n}"));
            }
            if v - 1 == u {
                return parse_err(line_no, format!("self loop on vertex {}", u + 1));
            }
            if !line_neighbors.insert(v - 1) {
                return parse_err(
                    line_no,
                    format!("vertex {} lists neighbour {v} twice", u + 1),
                );
            }
            sink.arc(u, v - 1)?;
            if has_edge_weights {
                skip_metis_number(&mut tokens, line_no, "edge weight")?;
            }
        }
        Ok(())
    })?;
    let Some((n, m, ..)) = header else {
        return Err(IoError::Empty {
            what: "METIS file (no header line)",
        });
    };
    if vertex != n {
        return Err(IoError::Inconsistent {
            message: format!("header declares {n} vertices but the file has {vertex} data lines"),
        });
    }
    Ok(m)
}

/// Renders a graph as a canonical METIS adjacency file.
pub fn to_metis(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("% generated by mdst-scenario\n");
    out.push_str(&format!("{} {}\n", graph.node_count(), graph.edge_count()));
    for u in graph.nodes() {
        let row: Vec<String> = graph
            .neighbors(u)
            .map(|v| (v.index() + 1).to_string())
            .collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// MatrixMarket
// ---------------------------------------------------------------------------

/// Parses a MatrixMarket coordinate file as an undirected graph.
///
/// Accepts `matrix coordinate` headers with any field type (`pattern`,
/// `real`, `integer`, `complex`) and any symmetry (`general`, `symmetric`,
/// `skew-symmetric`, `hermitian`); values are discarded — only the sparsity
/// pattern matters to the network model. The matrix must be square; its
/// dimension is the node count, so isolated nodes survive a round trip.
/// Diagonal entries (self loops in graph terms) are dropped, as customary
/// when sparse-matrix benchmarks are read as graphs, and both orientations
/// of an off-diagonal entry collapse onto one undirected edge.
pub fn parse_matrix_market(input: &str) -> Result<Graph, IoError> {
    parse_graph(input, GraphFormat::MatrixMarket)
}

/// Scans a MatrixMarket coordinate file, feeding the sink the size line and
/// every off-diagonal entry as an edge (diagonal entries are dropped).
/// Banner, size-line and entry validation (and the entry-count-vs-`nnz`
/// check) all live here so the two streaming passes agree exactly and every
/// parse error carries its line number.
fn scan_matrix_market<R: BufRead>(reader: R, sink: &mut Sink) -> Result<(), IoError> {
    let mut banner_seen = false;
    let mut size: Option<usize> = None;
    let mut nnz = 0usize;
    let mut entries = 0usize;
    for_each_line(reader, MAX_LINE, |line_no, raw| {
        if line_no == 1 {
            let banner_fields: Vec<String> = raw
                .split_whitespace()
                .map(str::to_ascii_lowercase)
                .collect();
            if banner_fields.first().map(String::as_str) != Some("%%matrixmarket") {
                return parse_err(1, "missing `%%MatrixMarket` banner");
            }
            if banner_fields.len() != 5 {
                return parse_err(
                    1,
                    "banner must be `%%MatrixMarket matrix coordinate <field> <symmetry>`",
                );
            }
            if banner_fields[1] != "matrix" {
                return parse_err(1, format!("unsupported object `{}`", banner_fields[1]));
            }
            if banner_fields[2] != "coordinate" {
                return parse_err(
                    1,
                    format!(
                        "unsupported format `{}` (only sparse `coordinate` matrices describe graphs)",
                        banner_fields[2]
                    ),
                );
            }
            if !matches!(
                banner_fields[3].as_str(),
                "pattern" | "real" | "integer" | "double" | "complex"
            ) {
                return parse_err(1, format!("unsupported field type `{}`", banner_fields[3]));
            }
            if !matches!(
                banner_fields[4].as_str(),
                "general" | "symmetric" | "skew-symmetric" | "hermitian"
            ) {
                return parse_err(1, format!("unsupported symmetry `{}`", banner_fields[4]));
            }
            banner_seen = true;
            return Ok(());
        }
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            return Ok(());
        }
        let Some(rows) = size else {
            let dims: Vec<&str> = line.split_whitespace().collect();
            if dims.len() != 3 {
                return parse_err(line_no, "size line must be `rows cols nnz`");
            }
            let parse_dim = |token: &str| -> Result<usize, IoError> {
                token.parse().map_err(|_| IoError::Parse {
                    line: line_no,
                    message: format!("`{token}` is not a matrix dimension"),
                })
            };
            let rows = parse_dim(dims[0])?;
            let cols = parse_dim(dims[1])?;
            nnz = parse_dim(dims[2])?;
            if rows != cols {
                return Err(IoError::Inconsistent {
                    message: format!(
                        "matrix is {rows}×{cols}; only square matrices describe graphs"
                    ),
                });
            }
            if rows == 0 {
                return parse_err(line_no, "matrix must have at least one row");
            }
            size = Some(rows);
            return sink.header(rows);
        };
        let mut fields = line.split_whitespace();
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            return parse_err(line_no, format!("expected `i j [value]`, got `{line}`"));
        };
        let i: usize = a.parse().map_err(|_| IoError::Parse {
            line: line_no,
            message: format!("`{a}` is not a row index"),
        })?;
        let j: usize = b.parse().map_err(|_| IoError::Parse {
            line: line_no,
            message: format!("`{b}` is not a column index"),
        })?;
        if i == 0 || i > rows || j == 0 || j > rows {
            return parse_err(
                line_no,
                format!("entry ({i}, {j}) outside a {rows}×{rows} matrix"),
            );
        }
        entries += 1;
        if i != j {
            return sink.edge(i - 1, j - 1);
        }
        Ok(())
    })?;
    if !banner_seen {
        return Err(IoError::Empty {
            what: "MatrixMarket file",
        });
    }
    if size.is_none() {
        return Err(IoError::Empty {
            what: "MatrixMarket file (banner but no size line)",
        });
    }
    if entries != nnz {
        return Err(IoError::Inconsistent {
            message: format!("size line declares {nnz} entries but the file has {entries}"),
        });
    }
    Ok(())
}

/// Renders a graph as a canonical MatrixMarket file (`pattern symmetric`,
/// lower-triangular entries).
pub fn to_matrix_market(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate pattern symmetric\n");
    out.push_str("% generated by mdst-scenario\n");
    out.push_str(&format!(
        "{n} {n} {m}\n",
        n = graph.node_count(),
        m = graph.edge_count()
    ));
    for (u, v) in graph.edges() {
        // Symmetric storage keeps the lower triangle: row ≥ column.
        out.push_str(&format!("{} {}\n", v.index() + 1, u.index() + 1));
    }
    out
}

// ---------------------------------------------------------------------------
// File-level helpers
// ---------------------------------------------------------------------------

/// Streams a graph in the given format into the compact CSR layout through
/// the two-pass driver; `open` reopens the input for each pass. This is the
/// one reader behind [`parse_graph`] and [`load_graph`]: the scanners check
/// every line, and the per-format checks that need the finished graph live
/// here.
pub fn stream_graph<R: BufRead>(
    format: GraphFormat,
    open: impl FnMut() -> Result<R, IoError>,
) -> Result<Graph, IoError> {
    match format {
        GraphFormat::EdgeList => {
            let (builder, (), _) = stream_two_pass(open, scan_edge_list)?;
            Ok(builder.finish()?)
        }
        GraphFormat::Dimacs => {
            let (builder, declared, lines) = stream_two_pass(open, scan_dimacs)?;
            // Repeated edges, in either orientation, merge into one.
            let graph = builder.finish()?;
            // Published DIMACS files disagree on whether `m` counts
            // undirected edges or edge *lines* (some list both orientations),
            // so either reading is accepted — anything else (truncated file,
            // surplus lines, wrong header) is an error.
            let distinct = graph.edge_count();
            if declared != distinct && declared as u64 != lines {
                return Err(IoError::Inconsistent {
                    message: format!(
                        "problem line declares {declared} edges but the file has \
                         {lines} edge lines ({distinct} distinct edges)"
                    ),
                });
            }
            Ok(graph)
        }
        GraphFormat::Metis => {
            let (builder, m, mentions) = stream_two_pass(open, scan_metis)?;
            // Global adjacency symmetry — every mention must have its
            // reciprocal on the other endpoint's line — is enforced by
            // `finish_symmetric` without any per-mention bookkeeping.
            let graph = builder.finish_symmetric().map_err(|e| match e {
                // Which line is missing a mention is a file-level question,
                // so these surface as inconsistencies, not line-numbered
                // parse errors.
                GraphError::AsymmetricAdjacency(..) | GraphError::DuplicateEdge(..) => {
                    IoError::Inconsistent {
                        message: e.to_string(),
                    }
                }
                other => IoError::Graph(other),
            })?;
            // With symmetry established, `2·m` mentions over `m` distinct
            // edges pigeonholes to exactly both orientations of every edge.
            if graph.edge_count() != m || mentions != 2 * m as u64 {
                return Err(IoError::Inconsistent {
                    message: format!(
                        "header declares {m} edges but the adjacency lists carry \
                         {mentions} neighbour entries ({} distinct edges); every \
                         edge must appear in both endpoint lists",
                        graph.edge_count()
                    ),
                });
            }
            Ok(graph)
        }
        GraphFormat::MatrixMarket => {
            // Both orientations of an entry collapse onto one edge.
            let (builder, (), _) = stream_two_pass(open, scan_matrix_market)?;
            Ok(builder.finish()?)
        }
    }
}

/// Parses `input` in the given format.
pub fn parse_graph(input: &str, format: GraphFormat) -> Result<Graph, IoError> {
    stream_graph(format, || Ok(input.as_bytes()))
}

/// Renders `graph` in the given format.
pub fn render_graph(graph: &Graph, format: GraphFormat) -> String {
    match format {
        GraphFormat::EdgeList => to_edge_list(graph),
        GraphFormat::Dimacs => to_dimacs(graph),
        GraphFormat::Metis => to_metis(graph),
        GraphFormat::MatrixMarket => to_matrix_market(graph),
    }
}

/// The two magic bytes every gzip member starts with.
const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

/// Opens `path` as a buffered line source, transparently layering the
/// streaming gzip decoder when the content starts with the gzip magic —
/// whatever the file is called, so benchmark suites work whether or not
/// their compression shows in the name. The decompressed stream is never
/// materialised: the decoder inflates chunk by chunk as lines are pulled.
fn open_lines(path: &Path) -> Result<Box<dyn BufRead>, IoError> {
    let file =
        std::fs::File::open(path).map_err(|e| IoError::Io(format!("{}: {e}", path.display())))?;
    let mut reader = std::io::BufReader::new(file);
    let head = reader
        .fill_buf()
        .map_err(|e| IoError::Io(format!("{}: {e}", path.display())))?;
    if head.starts_with(&GZIP_MAGIC) {
        Ok(Box::new(std::io::BufReader::new(
            flate2::read::GzDecoder::new(reader),
        )))
    } else {
        Ok(Box::new(reader))
    }
}

/// Loads a graph from a file, inferring the format from the extension when
/// none is given and gunzipping transparently (by content magic, not name).
///
/// Every format is **streamed** into the compact CSR layout in two passes
/// over the file — the file content, inflated or not, is never held in
/// memory, so peak usage is the finished graph plus fixed-size decode
/// buffers. Gzipped inputs are decompressed twice (once per pass), trading
/// CPU for the memory bound.
pub fn load_graph(path: impl AsRef<Path>, format: Option<GraphFormat>) -> Result<Graph, IoError> {
    let path = path.as_ref();
    let format = format.unwrap_or_else(|| GraphFormat::from_path(path));
    stream_graph(format, || open_lines(path))
}

/// Writes a graph to a file in the given (or extension-inferred) format,
/// gzip-compressing when the path ends in `.gz`.
pub fn save_graph(
    path: impl AsRef<Path>,
    graph: &Graph,
    format: Option<GraphFormat>,
) -> Result<(), IoError> {
    let path = path.as_ref();
    let format = format.unwrap_or_else(|| GraphFormat::from_path(path));
    let rendered = render_graph(graph, format);
    let io_err = |e: std::io::Error| IoError::Io(format!("{}: {e}", path.display()));
    let is_gz = path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("gz"));
    if is_gz {
        use std::io::Write;
        let mut encoder = flate2::write::GzEncoder::new(Vec::new(), flate2::Compression::default());
        encoder.write_all(rendered.as_bytes()).map_err(io_err)?;
        let compressed = encoder.finish().map_err(io_err)?;
        std::fs::write(path, compressed).map_err(io_err)
    } else {
        std::fs::write(path, rendered).map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_graph::generators;

    #[test]
    fn edge_list_round_trips() {
        let g = generators::petersen().unwrap();
        let text = to_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn dimacs_round_trips() {
        let g = generators::gnp_connected(20, 0.2, 5).unwrap();
        let text = to_dimacs(&g);
        let back = parse_dimacs(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_tolerates_comments_and_duplicates() {
        let g =
            parse_edge_list("# header\n0 1\n% other comment style\n1 2 # inline\n2 1\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_list_rejects_malformed_input() {
        assert!(matches!(parse_edge_list("0"), Err(IoError::Parse { .. })));
        assert!(matches!(
            parse_edge_list("0 1 2"),
            Err(IoError::Parse { .. })
        ));
        assert!(matches!(parse_edge_list("a b"), Err(IoError::Parse { .. })));
        assert!(matches!(parse_edge_list("3 3"), Err(IoError::Parse { .. })));
    }

    #[test]
    fn empty_inputs_get_the_dedicated_error_not_a_line_number() {
        for input in ["", "# only a comment\n", "% other comment style\n\n"] {
            let err = parse_edge_list(input).unwrap_err();
            assert!(matches!(err, IoError::Empty { .. }), "{input:?}: {err}");
            let text = err.to_string();
            assert!(text.contains("empty input"), "{text}");
            assert!(!text.contains("line 0"), "{text}");
        }
        let err = parse_dimacs("c comments only\n").unwrap_err();
        assert!(matches!(err, IoError::Empty { .. }), "{err}");
        // Header/body mismatches are file-level, not \"line 0\".
        let err = parse_dimacs("p edge 3 2\ne 1 2\n").unwrap_err();
        assert!(matches!(err, IoError::Inconsistent { .. }), "{err}");
        assert!(!err.to_string().contains("line 0"), "{err}");
    }

    #[test]
    fn lines_longer_than_the_cap_are_parse_errors() {
        // 2 MiB with no newline: rejected on line 1 after buffering 1 MiB.
        let err = parse_edge_list(&"1".repeat(2 << 20)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("longer than"), "{err}");
        let padding = " ".repeat(2 << 20);
        let dimacs = format!("p edge 2 1\ne 1 2{padding}\n");
        let err = parse_dimacs(&dimacs).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err}");
        let mm = format!("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1{padding}\n");
        let err = parse_graph(&mm, GraphFormat::MatrixMarket).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
        // A line of exactly the cap is fine, and METIS adjacency lines,
        // which grow with degree, are not capped at all.
        let at_cap = format!("0 1{}\n", " ".repeat(MAX_LINE as usize - 3));
        assert_eq!(parse_edge_list(&at_cap).unwrap().edge_count(), 1);
        let metis = format!("2 1\n2{padding}\n1\n");
        assert_eq!(
            parse_graph(&metis, GraphFormat::Metis)
                .unwrap()
                .edge_count(),
            1
        );
    }

    #[test]
    fn dimacs_rejects_malformed_input() {
        assert!(parse_dimacs("e 1 2\n").is_err()); // edge before problem line
        assert!(parse_dimacs("p edge 0 0\n").is_err());
        assert!(parse_dimacs("p edge 3 2\ne 1 2\n").is_err()); // missing edge
        assert!(parse_dimacs("p edge 3 1\ne 0 1\n").is_err()); // 0-based endpoint
        assert!(parse_dimacs("p edge 3 1\ne 1 1\n").is_err()); // self loop
        assert!(parse_dimacs("p edge 3 1\ne 1 4\n").is_err()); // out of range
        assert!(parse_dimacs("q edge 3 1\n").is_err()); // unknown line type
        assert!(parse_dimacs("p edge 3 1\np edge 3 1\ne 1 2\n").is_err()); // dup problem
                                                                           // Header/body mismatches: surplus lines and a duplicate-inflated
                                                                           // count are both errors when neither reading of `m` matches.
        assert!(parse_dimacs("p edge 3 1\ne 1 2\ne 2 3\n").is_err()); // surplus
        assert!(parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\n").is_err()); // 3 ≠ 2 lines, ≠ 1 unique
    }

    #[test]
    fn dimacs_range_checks_endpoints_before_they_become_node_ids() {
        // 4294967298 − 1 would truncate to node 1 as a `u32` and parse as
        // the edge (1, 0); it is a line-numbered range error instead.
        let err = parse_dimacs("p edge 3 1\ne 4294967298 1\n").unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn dimacs_rejects_oversized_node_counts_before_allocating() {
        let err = parse_dimacs("p edge 4294967299 0\n").unwrap_err();
        assert!(
            matches!(
                err,
                IoError::Graph(GraphError::TooLarge { what: "nodes", .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn headers_without_edges_load_as_isolated_nodes() {
        let banner = "%%MatrixMarket matrix coordinate pattern general\n";
        for (what, graph) in [
            ("dimacs", parse_dimacs("p edge 3 0\n")),
            ("metis", parse_metis("3 0\n\n\n\n")),
            ("mm", parse_matrix_market(&format!("{banner}3 3 0\n"))),
            (
                "mm diagonal",
                parse_matrix_market(&format!("{banner}3 3 1\n2 2\n")),
            ),
        ] {
            let g = graph.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!((g.node_count(), g.edge_count()), (3, 0), "{what}");
        }
    }

    #[test]
    fn edge_list_of_comments_only_is_empty() {
        let err = parse_edge_list("# a\n% b\n\n   # c\n").unwrap_err();
        assert!(matches!(err, IoError::Empty { what: "edge list" }), "{err}");
    }

    #[test]
    fn edge_list_endpoints_past_the_node_limit_are_too_large() {
        // Both counts lie above 2³², so the check fires before any row is
        // allocated; the second one overflows `max + 1` itself.
        for line in ["4294967296 0\n", "0 18446744073709551615\n"] {
            let err = parse_edge_list(line).unwrap_err();
            assert!(
                matches!(
                    err,
                    IoError::Graph(GraphError::TooLarge { what: "nodes", .. })
                ),
                "{line:?}: {err}"
            );
        }
    }

    #[test]
    fn dimacs_accepts_both_orientations() {
        let g = parse_dimacs("c demo\np edge 3 3\ne 1 2\ne 2 1\ne 2 3\n").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn format_is_inferred_from_extension() {
        assert_eq!(
            GraphFormat::from_path(Path::new("x/y/graph.col")),
            GraphFormat::Dimacs
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("graph.DIMACS")),
            GraphFormat::Dimacs
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("graph.edges")),
            GraphFormat::EdgeList
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("noext")),
            GraphFormat::EdgeList
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("road.graph")),
            GraphFormat::Metis
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("road.metis")),
            GraphFormat::Metis
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("web.mtx")),
            GraphFormat::MatrixMarket
        );
    }

    #[test]
    fn double_extensions_resolve_to_the_inner_format() {
        assert_eq!(
            GraphFormat::from_path(Path::new("suite/web.mtx.gz")),
            GraphFormat::MatrixMarket
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("suite/road.graph.gz")),
            GraphFormat::Metis
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("suite/pairs.el.gz")),
            GraphFormat::EdgeList
        );
        assert_eq!(
            GraphFormat::from_path(Path::new("suite/bench.col.GZ")),
            GraphFormat::Dimacs
        );
        // A bare `.gz` with no inner extension still defaults to edge list.
        assert_eq!(
            GraphFormat::from_path(Path::new("mystery.gz")),
            GraphFormat::EdgeList
        );
    }

    #[test]
    fn metis_round_trips() {
        let g = generators::gnp_connected(25, 0.2, 6).unwrap();
        let text = to_metis(&g);
        let back = parse_metis(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn metis_parses_weights_and_discards_them() {
        // fmt=011: vertex weights (ncon=2) and edge weights.
        let text = "% weighted\n3 2 011 2\n\
                    7 1 2 5 3 9\n\
                    1 1 1 5\n\
                    2 2 1 9\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        // fmt=100: vertex sizes only.
        let text = "2 1 100\n9 2\n4 1\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn metis_keeps_isolated_vertices() {
        let g = parse_metis("4 1\n2\n1\n\n\n").unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(3)), 0);
    }

    #[test]
    fn metis_rejects_malformed_input() {
        // No header at all.
        assert!(matches!(
            parse_metis("% only comments\n"),
            Err(IoError::Empty { .. })
        ));
        // Header arity and values.
        assert!(parse_metis("3\n").is_err());
        assert!(parse_metis("0 0\n").is_err());
        assert!(parse_metis("a b\n1\n").is_err());
        assert!(parse_metis("2 1 7\n2\n1\n").is_err()); // fmt not binary digits
                                                        // Wrong number of vertex lines.
        assert!(matches!(
            parse_metis("3 1\n2\n1\n"),
            Err(IoError::Inconsistent { .. })
        ));
        assert!(parse_metis("1 0\n\n2\n").is_err()); // surplus non-empty line
                                                     // Neighbour out of range / 0-based / self loop.
        assert!(parse_metis("2 1\n3\n1\n").is_err());
        assert!(parse_metis("2 1\n0\n1\n").is_err());
        assert!(parse_metis("2 1\n1\n2\n").is_err());
        // Asymmetric adjacency: edge listed only at one endpoint.
        assert!(matches!(
            parse_metis("2 1\n2\n\n"),
            Err(IoError::Inconsistent { .. })
        ));
        // A duplicated mention cannot impersonate the missing orientation.
        assert!(matches!(
            parse_metis("2 1\n2 2\n\n"),
            Err(IoError::Parse { .. })
        ));
        // Declared edge count disagrees with the lists.
        assert!(matches!(
            parse_metis("2 2\n2\n1\n"),
            Err(IoError::Inconsistent { .. })
        ));
        // Missing edge weight when fmt declares them.
        assert!(parse_metis("2 1 001\n2\n1 5\n").is_err());
    }

    #[test]
    fn matrix_market_round_trips() {
        let g = generators::gnp_connected(30, 0.15, 9).unwrap();
        let text = to_matrix_market(&g);
        let back = parse_matrix_market(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn matrix_market_accepts_values_diagonals_and_general_symmetry() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a 3x3 adjacency matrix with values and a diagonal\n\
                    3 3 5\n\
                    1 2 0.5\n\
                    2 1 0.5\n\
                    2 2 9.0\n\
                    1 3 -2.0\n\
                    3 1 -2.0\n";
        let g = parse_matrix_market(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2, "diagonal dropped, orientations merged");
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn matrix_market_preserves_isolated_nodes() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 1\n2 1\n";
        let g = parse_matrix_market(text).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn matrix_market_rejects_malformed_input() {
        assert!(matches!(
            parse_matrix_market(""),
            Err(IoError::Empty { .. })
        ));
        assert!(parse_matrix_market("1 2\n").is_err()); // no banner
        assert!(parse_matrix_market("%%MatrixMarket matrix array real general\n").is_err());
        assert!(parse_matrix_market("%%MatrixMarket vector coordinate real general\n").is_err());
        assert!(
            parse_matrix_market("%%MatrixMarket matrix coordinate pattern weird\n1 1 0\n").is_err()
        );
        // Banner but nothing else.
        assert!(matches!(
            parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n% x\n"),
            Err(IoError::Empty { .. })
        ));
        // Non-square, bad size line, entry out of range, nnz mismatch.
        let banner = "%%MatrixMarket matrix coordinate pattern general\n";
        assert!(parse_matrix_market(&format!("{banner}2 3 1\n1 2\n")).is_err());
        assert!(parse_matrix_market(&format!("{banner}2 2\n")).is_err());
        assert!(parse_matrix_market(&format!("{banner}2 2 1\n1 3\n")).is_err());
        assert!(parse_matrix_market(&format!("{banner}2 2 1\n0 1\n")).is_err());
        assert!(matches!(
            parse_matrix_market(&format!("{banner}2 2 2\n1 2\n")),
            Err(IoError::Inconsistent { .. })
        ));
    }

    #[test]
    fn gzipped_files_load_transparently_in_every_format() {
        let g = generators::gnp_connected(18, 0.25, 4).unwrap();
        let dir = std::env::temp_dir().join("mdst-io-gz-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, format) in [
            ("g.el.gz", GraphFormat::EdgeList),
            ("g.col.gz", GraphFormat::Dimacs),
            ("g.graph.gz", GraphFormat::Metis),
            ("g.mtx.gz", GraphFormat::MatrixMarket),
        ] {
            let path = dir.join(name);
            save_graph(&path, &g, None).unwrap();
            assert_eq!(GraphFormat::from_path(&path), format, "{name}");
            // The file on disk really is gzip, not plain text.
            let raw = std::fs::read(&path).unwrap();
            assert_eq!(&raw[..2], &GZIP_MAGIC, "{name}");
            let back = load_graph(&path, None).unwrap();
            assert_eq!(back, g, "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
