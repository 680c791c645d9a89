//! Undirected simple graph stored in CSR (compressed sparse row) layout.
//!
//! This is the communication graph of the paper's model: nodes are processors,
//! edges are bidirectional, non-interfering links. The structure is immutable
//! once built (networks do not change during a run), which lets the simulator
//! and every protocol share it behind a plain reference — or, at campaign
//! scale, behind one `Arc<Graph>` borrowed by thousands of runs.
//!
//! The CSR layout keeps the whole topology in four flat arrays of `u32`-wide
//! entries:
//!
//! * `offsets[u] .. offsets[u + 1]` delimits node `u`'s row,
//! * `targets[row]` holds the neighbours, sorted by identity,
//! * `edge_ids[row]` holds the connecting edge identifier in parallel,
//! * `first_edge[u]` is the identifier of the first edge whose *minimum*
//!   endpoint is `u` — the cumulative count of edges `(x, y)`, `x < y`, with
//!   `x < u`.
//!
//! The fourth array replaces the former explicit edge table `Vec<(NodeId,
//! NodeId)>`: because [`EdgeId`]s are assigned in lexicographic `(min, max)`
//! order, edge `e`'s endpoints are recoverable from the CSR rows alone — `u`
//! is the unique node with `first_edge[u] ≤ e < first_edge[u + 1]`, and `v`
//! is the `(e − first_edge[u])`-th neighbour of `u` greater than `u`. That
//! turns [`Graph::endpoints`] from one array load into two binary searches,
//! but drops 16 bytes per edge; combined with the 4-byte identities the whole
//! layout is `8·|V| + 16·|E|` bytes of payload versus the seed layout's
//! `8·|V| + 48·|E|` — about a third of the footprint at the million-node
//! scale target (observable via [`Graph::memory_bytes`]).
//!
//! Compared to the former `Vec<Vec<(NodeId, EdgeId)>>` adjacency this is one
//! allocation instead of `n + 1`, cache-linear neighbour iteration, and —
//! crucially for the executor layer — neighbour lists are borrowable as plain
//! `&[NodeId]` slices ([`Graph::neighbor_slice`]), so no runtime ever has to
//! re-materialise per-node neighbour vectors before a run.
//!
//! Every graph is assembled by one builder, [`StreamingBuilder`]: a two-pass
//! counting sort of an edge stream into exactly-sized CSR rows. File readers
//! replay their input for the two passes; in-memory callers (generators,
//! subgraphs, deserialisation, tests) replay a slice through
//! [`graph_from_edges`].

use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;

/// Stable identifier of an undirected edge: the lexicographic rank of its
/// `(min, max)` endpoint pair. Stored as `u32` — the builder rejects graphs
/// whose incidence count would overflow the 32-bit layout with
/// [`GraphError::TooLarge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Constructs an identifier from a dense `usize` index.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(
            index <= u32::MAX as usize,
            "edge index {index} overflows u32"
        );
        EdgeId(index as u32)
    }

    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immutable undirected simple graph (no self loops, no parallel edges) in
/// CSR layout.
///
/// Nodes are the dense range `0..node_count()`; each CSR row is kept sorted
/// by neighbour identity so iteration order is deterministic, which in turn
/// keeps the discrete-event simulator reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Row boundaries: node `u`'s neighbours live at `offsets[u]..offsets[u+1]`.
    /// Always `n + 1` entries with `offsets[0] == 0` and `offsets[n] == 2·|E|`.
    offsets: Box<[u32]>,
    /// Neighbour identities, sorted within each row. Length `2·|E|`.
    targets: Box<[NodeId]>,
    /// Edge identifier of each `(row node, target)` incidence, parallel to
    /// `targets`. Length `2·|E|`.
    edge_ids: Box<[EdgeId]>,
    /// `first_edge[u]` = number of edges whose minimum endpoint is `< u`;
    /// `n + 1` entries, `first_edge[n] == |E|`. Replaces the edge table.
    first_edge: Box<[u32]>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1].into_boxed_slice(),
            targets: Box::new([]),
            edge_ids: Box::new([]),
            first_edge: vec![0; n + 1].into_boxed_slice(),
        }
    }

    /// Assembles a graph from fully placed CSR rows (each row sorted by
    /// neighbour identity, symmetric, duplicate-free). This is the finishing
    /// step of [`StreamingBuilder`]: it derives `first_edge` from the row
    /// tails and fills `edge_ids` in one ordered sweep, so equal edge sets
    /// always produce byte-identical layouts.
    ///
    /// The sweep exploits the lexicographic identifier order twice over: row
    /// `u`'s *tail* (neighbours `> u`) lists the edges with minimum endpoint
    /// `u` in rank order, so tail identifiers are just `first_edge[u] + k`;
    /// and the *head* occurrences of a node `v` (rows `u > v` containing `v`)
    /// appear, across ascending `u`, in exactly the order of `v`'s tail — a
    /// second cursor per node replays that sequence without any search.
    fn from_sorted_rows(offsets: Vec<u32>, targets: Vec<NodeId>) -> Graph {
        let n = offsets.len() - 1;
        let mut first_edge = vec![0u32; n + 1];
        for u in 0..n {
            let row = &targets[offsets[u] as usize..offsets[u + 1] as usize];
            let tail = row.len() - row.partition_point(|&t| t.index() < u);
            first_edge[u + 1] = first_edge[u] + tail as u32;
        }
        let mut edge_ids = vec![EdgeId(0); targets.len()];
        let mut tail_cursor: Vec<u32> = first_edge[..n].to_vec();
        let mut head_cursor: Vec<u32> = first_edge[..n].to_vec();
        for u in 0..n {
            for idx in offsets[u] as usize..offsets[u + 1] as usize {
                let v = targets[idx].index();
                if v > u {
                    edge_ids[idx] = EdgeId(tail_cursor[u]);
                    tail_cursor[u] += 1;
                } else {
                    edge_ids[idx] = EdgeId(head_cursor[v]);
                    head_cursor[v] += 1;
                }
            }
        }
        Graph {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
            edge_ids: edge_ids.into_boxed_slice(),
            first_edge: first_edge.into_boxed_slice(),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.first_edge[self.first_edge.len() - 1] as usize
    }

    /// Heap footprint of the CSR arrays in bytes: `4·(n+1)` offsets,
    /// `4·2·|E|` targets, `4·2·|E|` edge identifiers and `4·(n+1)` first-edge
    /// ranks — `8·|V| + 16·|E| + 8` in total. This is the whole per-graph
    /// payload (the struct itself is four fat pointers), so scale tests can
    /// assert bytes-per-node budgets against it.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val::<[u32]>(&self.offsets)
            + std::mem::size_of_val::<[NodeId]>(&self.targets)
            + std::mem::size_of_val::<[EdgeId]>(&self.edge_ids)
            + std::mem::size_of_val::<[u32]>(&self.first_edge)
    }

    /// Iterator over all node identities `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`, in
    /// lexicographic (= identifier) order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges_with_ids().map(|(_, u, v)| (u, v))
    }

    /// Iterator over all edges together with their stable identifiers, in
    /// identifier order. Walks the CSR row tails (neighbours greater than the
    /// row node), which enumerate exactly the `(min, max)` pairs.
    pub fn edges_with_ids(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            let end = self.offsets[u + 1] as usize;
            let tail = (self.first_edge[u + 1] - self.first_edge[u]) as usize;
            let base = self.first_edge[u];
            self.targets[end - tail..end]
                .iter()
                .enumerate()
                .map(move |(k, &v)| (EdgeId(base + k as u32), NodeId::new(u), v))
        })
    }

    /// The endpoints `(u, v)` (with `u < v`) of edge `e`.
    ///
    /// Recovered from the rank structure: `u` is the node whose first-edge
    /// range contains `e`, and `v` is the corresponding entry of `u`'s row
    /// tail. Two array searches instead of the former edge-table load — the
    /// price of dropping 16 bytes per edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let rank = e.0;
        let u = self.first_edge.partition_point(|&f| f <= rank) - 1;
        let k = (rank - self.first_edge[u]) as usize;
        let end = self.offsets[u + 1] as usize;
        let tail = (self.first_edge[u + 1] - self.first_edge[u]) as usize;
        (NodeId::new(u), self.targets[end - tail + k])
    }

    /// The CSR row bounds of node `u`.
    #[inline]
    fn row(&self, u: NodeId) -> std::ops::Range<usize> {
        self.offsets[u.index()] as usize..self.offsets[u.index() + 1] as usize
    }

    /// Offset of `u`'s first incidence in the CSR arrays: the directed link
    /// `u → neighbor_slice(u)[slot]` has the dense index `row_start(u) + slot`
    /// in `0..2·|E|`, which executors use to index per-link tables.
    #[inline]
    pub fn row_start(&self, u: NodeId) -> usize {
        self.offsets[u.index()] as usize
    }

    /// Sorted neighbours of `u` as a borrowable slice. This is the zero-copy
    /// view the executor backends hand to protocol factories: it lives as
    /// long as the graph, so a shared `Arc<Graph>` serves every run without
    /// per-run adjacency re-materialisation.
    #[inline]
    pub fn neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.row(u)]
    }

    /// Sorted neighbours of `u`.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_slice(u).iter().copied()
    }

    /// Sorted neighbours of `u` together with the connecting edge identifiers.
    pub fn neighbors_with_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let row = self.row(u);
        self.targets[row.clone()]
            .iter()
            .copied()
            .zip(self.edge_ids[row].iter().copied())
    }

    /// Degree of `u` in the graph (number of incident links).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.row(u).len()
    }

    /// Maximum degree over all nodes, `0` for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes, `0` for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).min().unwrap_or(0)
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// The identifier of the edge `(u, v)` if it exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return None;
        }
        let row = self.row(u);
        self.targets[row.clone()]
            .binary_search(&v)
            .ok()
            .map(|pos| self.edge_ids[row.start + pos])
    }

    /// Checks that `u` is a valid node of this graph.
    pub fn check_node(&self, u: NodeId) -> Result<()> {
        if u.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: self.node_count(),
            })
        }
    }

    /// Sum of all degrees; always `2·|E|`.
    pub fn degree_sum(&self) -> usize {
        self.targets.len()
    }

    /// Returns the complement set of edges (pairs of distinct nodes that are
    /// *not* linked). Used by tests and by crafted worst-case generators.
    pub fn non_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in 0..self.node_count() {
            for v in (u + 1)..self.node_count() {
                if !self.has_edge(NodeId::new(u), NodeId::new(v)) {
                    out.push((NodeId::new(u), NodeId::new(v)));
                }
            }
        }
        out
    }

    /// Builds the subgraph induced by `keep` (nodes are re-indexed densely in
    /// ascending order of their original identity). Returns the subgraph and
    /// the mapping `new index -> old identity`.
    pub fn induced_subgraph(&self, keep: &BTreeSet<NodeId>) -> (Graph, Vec<NodeId>) {
        let old_of_new: Vec<NodeId> = keep.iter().copied().collect();
        let mut new_of_old = vec![usize::MAX; self.node_count()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old.index()] = new;
        }
        let edges: Vec<(usize, usize)> = self
            .edges()
            .map(|(u, v)| (new_of_old[u.index()], new_of_old[v.index()]))
            .filter(|&(u, v)| u != usize::MAX && v != usize::MAX)
            .collect();
        let sub =
            graph_from_edges(old_of_new.len(), &edges).expect("induced edges are valid and unique");
        (sub, old_of_new)
    }
}

impl Serialize for Graph {
    /// Serializes as `{"n": …, "edges": [[u, v], …]}` — the logical edge
    /// list, not the physical CSR arrays, so the persisted shape is layout
    /// independent (and a third the size of dumping the incidence arrays).
    fn to_value(&self) -> Value {
        let edges: Vec<Value> = self
            .edges()
            .map(|(u, v)| Value::Array(vec![Value::UInt(u.0 as u64), Value::UInt(v.0 as u64)]))
            .collect();
        Value::Object(vec![
            ("n".to_string(), Value::UInt(self.node_count() as u64)),
            ("edges".to_string(), Value::Array(edges)),
        ])
    }
}

impl Deserialize for Graph {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected graph object"))?;
        let n: usize = serde::field(obj, "n")?;
        let edges: Vec<(usize, usize)> = serde::field(obj, "edges")?;
        graph_from_edges(n, &edges)
            .map_err(|e| serde::Error::custom(format!("invalid graph edge: {e}")))
    }
}

/// Two-pass streaming CSR builder: ingests an edge stream twice and places
/// every incidence directly into its pre-sized CSR row, so peak memory is the
/// finished CSR plus cursors — never an intermediate `Vec<(u, v)>` edge list
/// and never a global lexicographic sort.
///
/// Protocol (counting sort over rows):
///
/// 1. **Pass 1** — replay the stream through [`StreamingBuilder::count_edge`]
///    (or [`StreamingBuilder::count_arc`] for directed adjacency formats like
///    METIS, which mention each edge once per endpoint);
/// 2. [`StreamingBuilder::start_placement`] — prefix-sums the counts into row
///    offsets and allocates the target array;
/// 3. **Pass 2** — replay the *same* stream through
///    [`StreamingBuilder::place_edge`] / [`StreamingBuilder::place_arc`];
/// 4. [`StreamingBuilder::finish`] (duplicate edges are merged) or
///    [`StreamingBuilder::finish_symmetric`] (duplicates are rejected, and
///    arcs without their reciprocal are reported) — sorts each row, applies
///    the duplicate policy, and hands the rows to the one CSR finishing step.
///
/// The two passes must replay identical streams: a stream that counts and
/// places different incidences is reported as
/// [`GraphError::StreamingMismatch`] rather than producing a corrupt graph.
/// Misuse of the phase protocol itself (placing before counting finished,
/// counting after placement started) is reported the same way.
#[derive(Debug, Clone)]
pub struct StreamingBuilder {
    n: usize,
    /// During pass 1, `offsets[i + 1]` is node `i`'s incidence count; after
    /// [`StreamingBuilder::start_placement`], the usual CSR prefix sums.
    offsets: Vec<u32>,
    /// Placement cursor per node (pass 2 only).
    cursor: Vec<u32>,
    /// Incidence slots, placed by counting sort (pass 2 only).
    targets: Vec<NodeId>,
    /// Total incidences counted in pass 1, kept in 64 bits to detect overflow
    /// of the 32-bit layout before any array index wraps.
    incidences: u64,
    placing: bool,
}

impl StreamingBuilder {
    /// Starts a streaming build for a graph on `n` nodes.
    ///
    /// Fallible because node counts arrive from outside (file headers,
    /// scenario specs): an absurd count is a typed error, raised before any
    /// allocation.
    pub fn new(n: usize) -> Result<Self> {
        check_node_count(n)?;
        Ok(StreamingBuilder {
            n,
            offsets: vec![0; n + 1],
            cursor: Vec::new(),
            targets: Vec::new(),
            incidences: 0,
            placing: false,
        })
    }

    /// Number of nodes of the graph being built.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Grows the node count to at least `n` during pass 1.
    ///
    /// Headerless formats (edge lists) carry no node count — it is
    /// `max(endpoint) + 1`, discovered while counting. Pass 2 replays the
    /// same stream, so by placement time the count is final; growing after
    /// [`StreamingBuilder::start_placement`] is a protocol violation.
    pub fn ensure_nodes(&mut self, n: usize) -> Result<()> {
        if self.placing {
            return Err(GraphError::StreamingMismatch(
                "ensure_nodes called after placement started".to_string(),
            ));
        }
        check_node_count(n)?;
        if n > self.n {
            self.n = n;
            self.offsets.resize(n + 1, 0);
        }
        Ok(())
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<()> {
        if u.index() >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: self.n,
            });
        }
        if v.index() >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                node_count: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        Ok(())
    }

    fn bump(&mut self, u: NodeId) -> Result<()> {
        if self.incidences >= u32::MAX as u64 {
            return Err(GraphError::TooLarge {
                what: "incidence slots",
                count: self.incidences + 1,
                limit: u32::MAX as u64,
            });
        }
        self.incidences += 1;
        self.offsets[u.index() + 1] += 1;
        Ok(())
    }

    /// Pass 1: counts the undirected edge `(u, v)` (one incidence per
    /// endpoint). Rejects out-of-range endpoints and self loops; duplicates
    /// are *not* detected here — they are resolved when the build finishes.
    pub fn count_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if self.placing {
            return Err(GraphError::StreamingMismatch(
                "count_edge called after placement started".to_string(),
            ));
        }
        self.check_endpoints(u, v)?;
        self.bump(u)?;
        self.bump(v)
    }

    /// Pass 1: counts the directed mention `u → v` (one incidence, in `u`'s
    /// row only). For adjacency formats that list every edge once per
    /// endpoint; pair with [`StreamingBuilder::finish_symmetric`].
    pub fn count_arc(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if self.placing {
            return Err(GraphError::StreamingMismatch(
                "count_arc called after placement started".to_string(),
            ));
        }
        self.check_endpoints(u, v)?;
        self.bump(u)
    }

    /// Ends pass 1: prefix-sums the per-node counts into CSR offsets and
    /// allocates the incidence array — the single big allocation of the
    /// build, sized exactly.
    pub fn start_placement(&mut self) -> Result<()> {
        if self.placing {
            return Err(GraphError::StreamingMismatch(
                "start_placement called twice".to_string(),
            ));
        }
        for i in 0..self.n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursor = self.offsets[..self.n].to_vec();
        self.targets = vec![NodeId(0); self.incidences as usize];
        self.placing = true;
        Ok(())
    }

    fn put(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        let c = self.cursor[u.index()];
        if c >= self.offsets[u.index() + 1] {
            return Err(GraphError::StreamingMismatch(format!(
                "pass 2 placed more incidences at {u} than pass 1 counted ({})",
                self.offsets[u.index() + 1] - self.offsets[u.index()]
            )));
        }
        self.targets[c as usize] = v;
        self.cursor[u.index()] = c + 1;
        Ok(())
    }

    /// Pass 2: places the undirected edge `(u, v)` into both endpoint rows.
    pub fn place_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if !self.placing {
            return Err(GraphError::StreamingMismatch(
                "place_edge called before start_placement".to_string(),
            ));
        }
        self.check_endpoints(u, v)?;
        self.put(u, v)?;
        self.put(v, u)
    }

    /// Pass 2: places the directed mention `u → v` into `u`'s row.
    pub fn place_arc(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if !self.placing {
            return Err(GraphError::StreamingMismatch(
                "place_arc called before start_placement".to_string(),
            ));
        }
        self.check_endpoints(u, v)?;
        self.put(u, v)
    }

    /// Finishes an undirected stream (built with
    /// [`StreamingBuilder::count_edge`] / [`StreamingBuilder::place_edge`]).
    ///
    /// Duplicate edges — repeated mentions of the same pair in either
    /// orientation — are **merged**: the result is the graph of the
    /// deduplicated `(min, max)` edge set. Both sides of a duplicate were
    /// placed symmetrically, so merging adjacent equal targets per sorted row
    /// keeps the graph symmetric.
    pub fn finish(self) -> Result<Graph> {
        self.into_graph(true, false)
    }

    /// Finishes a stream whose duplicates are errors: a directed-mention
    /// stream (built with [`StreamingBuilder::count_arc`] /
    /// [`StreamingBuilder::place_arc`]), or an undirected one whose edges
    /// must be distinct, as in [`graph_from_edges`].
    ///
    /// Duplicate mentions are **rejected** with
    /// [`GraphError::DuplicateEdge`], and every mention must have its
    /// reciprocal — an `u → v` without `v → u` is reported as
    /// [`GraphError::AsymmetricAdjacency`] (undirected edges are placed in
    /// both rows, so they always pass).
    pub fn finish_symmetric(self) -> Result<Graph> {
        self.into_graph(false, true)
    }

    fn into_graph(mut self, merge_duplicates: bool, check_symmetry: bool) -> Result<Graph> {
        if !self.placing {
            // A zero-pass build (no edges ever counted) is legal: finish an
            // empty placement so isolated-node graphs need no ceremony.
            self.start_placement()?;
        }
        let n = self.n;
        for i in 0..n {
            if self.cursor[i] != self.offsets[i + 1] {
                return Err(GraphError::StreamingMismatch(format!(
                    "pass 2 placed {} incidences at v{i} but pass 1 counted {}",
                    self.cursor[i] - self.offsets[i],
                    self.offsets[i + 1] - self.offsets[i]
                )));
            }
        }
        let mut offsets = self.offsets;
        let mut targets = self.targets;
        // Counting sort got every incidence into its row; a per-row sort (not
        // a global lexicographic one) establishes the layout invariant.
        for u in 0..n {
            targets[offsets[u] as usize..offsets[u + 1] as usize].sort_unstable();
        }
        if merge_duplicates {
            // Compact adjacent duplicates row by row, rebuilding offsets.
            let mut write = 0usize;
            let mut new_offsets = vec![0u32; n + 1];
            for u in 0..n {
                let mut prev: Option<NodeId> = None;
                for i in offsets[u] as usize..offsets[u + 1] as usize {
                    let t = targets[i];
                    if prev != Some(t) {
                        targets[write] = t;
                        write += 1;
                        prev = Some(t);
                    }
                }
                new_offsets[u + 1] = write as u32;
            }
            targets.truncate(write);
            offsets = new_offsets;
        } else {
            for u in 0..n {
                let row = &targets[offsets[u] as usize..offsets[u + 1] as usize];
                if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                    let (a, b) = (NodeId::new(u), w[0]);
                    let key = if a < b { (a, b) } else { (b, a) };
                    return Err(GraphError::DuplicateEdge(key.0, key.1));
                }
            }
        }
        if check_symmetry {
            for u in 0..n {
                for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                    let back =
                        &targets[offsets[v.index()] as usize..offsets[v.index() + 1] as usize];
                    if back.binary_search(&NodeId::new(u)).is_err() {
                        return Err(GraphError::AsymmetricAdjacency(NodeId::new(u), v));
                    }
                }
            }
        }
        Ok(Graph::from_sorted_rows(offsets, targets))
    }
}

/// Rejects node counts the 32-bit identity space cannot address.
pub(crate) fn check_node_count(n: usize) -> Result<()> {
    if n as u64 > u32::MAX as u64 + 1 {
        return Err(GraphError::TooLarge {
            what: "nodes",
            count: n as u64,
            limit: u32::MAX as u64 + 1,
        });
    }
    Ok(())
}

/// Builds a graph from an edge list over `n` nodes by replaying the slice as
/// the two passes of a [`StreamingBuilder`].
///
/// This is the in-memory entry point (generators, subgraphs,
/// deserialisation, tests). Node counts past the 32-bit identity space,
/// out-of-range endpoints, self loops and repeated edges (in either
/// orientation) are typed errors.
pub fn graph_from_edges(n: usize, edge_list: &[(usize, usize)]) -> Result<Graph> {
    let mut builder = StreamingBuilder::new(n)?;
    // Endpoints are range-checked as `usize`, so none is truncated into a
    // valid identity on its way to a `NodeId`.
    let node = |u: usize| {
        if u < n {
            Ok(NodeId::new(u))
        } else {
            Err(GraphError::NodeOutOfRange {
                node: NodeId(u.min(u32::MAX as usize) as u32),
                node_count: n,
            })
        }
    };
    for &(u, v) in edge_list {
        builder.count_edge(node(u)?, node(v)?)?;
    }
    builder.start_placement()?;
    for &(u, v) in edge_list {
        builder.place_edge(NodeId::new(u), NodeId::new(v))?;
    }
    builder.finish_symmetric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.degree_sum(), 0);
    }

    #[test]
    fn builder_rejects_self_loops() {
        assert_eq!(
            graph_from_edges(3, &[(0, 1), (1, 1)]),
            Err(GraphError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn builder_rejects_duplicates_in_both_orientations() {
        assert_eq!(
            graph_from_edges(3, &[(0, 1), (1, 2), (1, 0)]),
            Err(GraphError::DuplicateEdge(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn builder_rejects_out_of_range() {
        assert!(matches!(
            graph_from_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        // An endpoint past the 32-bit identity space must not wrap into a
        // valid node (4294967297 truncates to 1).
        assert!(matches!(
            graph_from_edges(3, &[(u32::MAX as usize + 2, 0)]),
            Err(GraphError::NodeOutOfRange { node_count: 3, .. })
        ));
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = graph_from_edges(4, &[(0, 3), (0, 1), (2, 0), (1, 3)]).unwrap();
        let n0: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(n0, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(g.degree(NodeId(0)), 3);
        assert_eq!(g.degree(NodeId(2)), 1);
        assert!(g.has_edge(NodeId(3), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(g.degree_sum(), 2 * g.edge_count());
    }

    #[test]
    fn neighbor_slices_match_the_iterator_view() {
        let g = graph_from_edges(5, &[(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]).unwrap();
        for u in g.nodes() {
            let from_iter: Vec<NodeId> = g.neighbors(u).collect();
            assert_eq!(g.neighbor_slice(u), from_iter.as_slice());
            assert_eq!(g.neighbor_slice(u).len(), g.degree(u));
            assert!(g.neighbor_slice(u).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn edge_ids_are_stable_and_consistent() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        for (id, u, v) in g.edges_with_ids() {
            assert_eq!(g.endpoints(id), (u, v));
            assert_eq!(g.edge_id(u, v), Some(id));
            assert_eq!(g.edge_id(v, u), Some(id));
        }
    }

    #[test]
    fn edge_ids_are_lexicographic_ranks() {
        let g = graph_from_edges(5, &[(3, 4), (0, 2), (1, 2), (0, 4), (2, 3)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(edges, sorted, "edges() must iterate in lexicographic order");
        for (i, (id, u, v)) in g.edges_with_ids().enumerate() {
            assert_eq!(id.index(), i);
            assert!(u < v);
            assert_eq!(g.endpoints(id), (u, v));
        }
    }

    #[test]
    fn neighbors_with_edges_agrees_with_edge_id() {
        let g = graph_from_edges(5, &[(0, 2), (2, 4), (1, 2), (0, 4)]).unwrap();
        for u in g.nodes() {
            for (v, e) in g.neighbors_with_edges(u) {
                assert_eq!(g.edge_id(u, v), Some(e));
                let (a, b) = g.endpoints(e);
                assert!((a, b) == (u, v) || (a, b) == (v, u));
            }
        }
    }

    #[test]
    fn non_edges_complement_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let non = g.non_edges();
        assert_eq!(non.len(), 6 - 3);
        for &(u, v) in &non {
            assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let keep: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect();
        let (sub, mapping) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(mapping, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn check_node_bounds() {
        let g = Graph::empty(2);
        assert!(g.check_node(NodeId(1)).is_ok());
        assert!(g.check_node(NodeId(2)).is_err());
    }

    #[test]
    fn memory_bytes_matches_the_layout_formula() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]).unwrap();
        let (n, m) = (g.node_count(), g.edge_count());
        assert_eq!(g.memory_bytes(), 8 * n + 16 * m + 8);
        assert_eq!(Graph::empty(10).memory_bytes(), 8 * 10 + 8);
    }

    #[test]
    fn graph_serde_round_trips_via_edge_list() {
        let g = graph_from_edges(5, &[(0, 2), (2, 4), (1, 2), (0, 4)]).unwrap();
        let v = g.to_value();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(5));
        let back = Graph::from_value(&v).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn streaming_matches_in_memory_builder() {
        let edges = [(0usize, 3usize), (0, 1), (2, 0), (1, 3), (2, 4)];
        let reference = graph_from_edges(6, &edges).unwrap();
        let mut s = StreamingBuilder::new(6).unwrap();
        for &(u, v) in &edges {
            s.count_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        s.start_placement().unwrap();
        for &(u, v) in &edges {
            s.place_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let g = s.finish().unwrap();
        assert_eq!(g, reference);
    }

    #[test]
    fn streaming_and_idempotent_builder_share_dedupe_semantics() {
        // The pinned contract: a stream with duplicate mentions (in both
        // orientations) finishes to exactly the graph of its deduplicated
        // `(min, max)` edge set.
        let mentions = [(0usize, 1usize), (1, 0), (0, 1), (2, 1), (1, 2), (3, 0)];
        let reference = graph_from_edges(4, &[(0, 1), (0, 3), (1, 2)]).unwrap();
        let mut s = StreamingBuilder::new(4).unwrap();
        for &(u, v) in &mentions {
            s.count_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        s.start_placement().unwrap();
        for &(u, v) in &mentions {
            s.place_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let g = s.finish().unwrap();
        assert_eq!(g, reference);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn streaming_symmetric_mode_accepts_reciprocal_arcs() {
        let arcs = [(0usize, 1usize), (1, 0), (1, 2), (2, 1)];
        let mut s = StreamingBuilder::new(3).unwrap();
        for &(u, v) in &arcs {
            s.count_arc(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        s.start_placement().unwrap();
        for &(u, v) in &arcs {
            s.place_arc(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let g = s.finish_symmetric().unwrap();
        assert_eq!(g, graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap());
    }

    #[test]
    fn streaming_symmetric_mode_rejects_missing_reciprocal() {
        let mut s = StreamingBuilder::new(3).unwrap();
        s.count_arc(NodeId(0), NodeId(1)).unwrap();
        s.start_placement().unwrap();
        s.place_arc(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            s.finish_symmetric(),
            Err(GraphError::AsymmetricAdjacency(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn streaming_symmetric_mode_rejects_duplicate_mentions() {
        let mut s = StreamingBuilder::new(3).unwrap();
        for _ in 0..2 {
            s.count_arc(NodeId(0), NodeId(1)).unwrap();
        }
        s.count_arc(NodeId(1), NodeId(0)).unwrap();
        s.start_placement().unwrap();
        for _ in 0..2 {
            s.place_arc(NodeId(0), NodeId(1)).unwrap();
        }
        s.place_arc(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(
            s.finish_symmetric(),
            Err(GraphError::DuplicateEdge(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn streaming_detects_pass_disagreement() {
        // Counted two edges, placed one: finish must refuse.
        let mut s = StreamingBuilder::new(3).unwrap();
        s.count_edge(NodeId(0), NodeId(1)).unwrap();
        s.count_edge(NodeId(1), NodeId(2)).unwrap();
        s.start_placement().unwrap();
        s.place_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(s.finish(), Err(GraphError::StreamingMismatch(_))));
        // Placed an edge never counted: the row overflows immediately.
        let mut s = StreamingBuilder::new(3).unwrap();
        s.count_edge(NodeId(0), NodeId(1)).unwrap();
        s.start_placement().unwrap();
        s.place_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(
            s.place_edge(NodeId(0), NodeId(2)),
            Err(GraphError::StreamingMismatch(_))
        ));
    }

    #[test]
    fn streaming_handles_isolated_nodes_and_empty_streams() {
        let s = StreamingBuilder::new(4).unwrap();
        let g = s.finish().unwrap();
        assert_eq!(g, Graph::empty(4));
        let mut s = StreamingBuilder::new(5).unwrap();
        s.count_edge(NodeId(1), NodeId(3)).unwrap();
        s.start_placement().unwrap();
        s.place_edge(NodeId(1), NodeId(3)).unwrap();
        let g = s.finish().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.degree(NodeId(4)), 0);
    }

    #[test]
    fn streaming_rejects_oversized_node_counts() {
        assert!(matches!(
            StreamingBuilder::new(u32::MAX as usize + 2),
            Err(GraphError::TooLarge { what: "nodes", .. })
        ));
        assert!(matches!(
            graph_from_edges(u32::MAX as usize + 2, &[]),
            Err(GraphError::TooLarge { what: "nodes", .. })
        ));
    }
}
