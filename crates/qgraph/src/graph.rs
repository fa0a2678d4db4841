//! Weighted undirected graph representation on CSR storage.
//!
//! The graph is stored twice: as a flat edge list (the natural shape for cut
//! evaluation, Hamiltonian construction and SDP assembly) and as a
//! **compressed sparse row** adjacency — one flat `(neighbor, weight)` array
//! plus per-node offsets — the natural shape for traversals, modularity
//! bookkeeping, and million-node instances. Both views are built once and
//! kept consistent: [`GraphBuilder`] is the scalable construction path
//! (append edges in O(1), one sort-based finalize), while
//! [`Graph::add_edge`] remains for small incremental builds.
//!
//! ## Memory layout
//!
//! For `n` nodes and `m` edges the finalized graph owns exactly three
//! allocations:
//!
//! * `edges`: `m × 16` bytes (`Edge { u: u32, v: u32, w: f64 }`), in
//!   insertion order with canonical `u < v` orientation;
//! * `adj`: `2m × 16` bytes (`(NodeId, f64)` pairs, each edge appearing
//!   once per endpoint), sorted by neighbor id within each node's slice;
//! * `offsets`: `(n + 1) × 8` bytes, with node `v`'s neighbors at
//!   `adj[offsets[v]..offsets[v + 1]]`.
//!
//! Total: `48m + 8n + O(1)` bytes — 24 bytes per edge-endpoint plus the
//! offset array, well under the suite's 48 bytes/endpoint ceiling
//! (`BENCH_large.json`). There are no per-node heap allocations, so a
//! 10⁷-node instance costs ten million *entries*, not ten million `Vec`s.

use std::fmt;

/// Node identifier. Graphs in this suite stay well below `u32::MAX` nodes,
/// and the narrower index keeps edge lists compact (see the perf-book advice
/// on smaller integers for hot types).
pub type NodeId = u32;

/// A weighted undirected edge. Stored with `u < v` canonical orientation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Edge weight `w_uv = w_vu`. May be negative in QAOA² merge graphs.
    pub w: f64,
}

/// Errors for graph construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An endpoint index is out of range.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
    /// A self-loop was supplied; MaxCut never benefits from them and the
    /// Ising mapping has no `Z_i Z_i` term, so they are rejected outright.
    SelfLoop { node: NodeId },
    /// The same unordered pair appeared twice.
    DuplicateEdge { u: NodeId, v: NodeId },
    /// An edge weight is NaN or infinite. Every cut value, cost table and
    /// partition score would inherit it, so it is rejected on entry.
    NonFiniteWeight { u: NodeId, v: NodeId },
    /// Parse failure in [`crate::io`].
    Parse { line: usize, message: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for graph with {num_nodes} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node} rejected"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::NonFiniteWeight { u, v } => {
                write!(f, "edge ({u}, {v}) has a non-finite weight")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The per-edge checks every construction path applies: both endpoints
/// in range, no self-loop, a finite weight.
fn check_edge(n: usize, u: NodeId, v: NodeId, w: f64) -> crate::Result<()> {
    if (u as usize) >= n {
        return Err(GraphError::NodeOutOfRange { node: u, num_nodes: n });
    }
    if (v as usize) >= n {
        return Err(GraphError::NodeOutOfRange { node: v, num_nodes: n });
    }
    if u == v {
        return Err(GraphError::SelfLoop { node: u });
    }
    if !w.is_finite() {
        return Err(GraphError::NonFiniteWeight { u: u.min(v), v: u.max(v) });
    }
    Ok(())
}

/// Streaming construction for [`Graph`]: append edges freely (O(1) each,
/// range and self-loop checked immediately), then [`GraphBuilder::finalize`]
/// sorts, detects duplicates, and assembles the CSR adjacency in one
/// `O(m log m)` pass. This is the path every generator, reader, and
/// contraction uses — unlike [`Graph::add_edge`] there is no per-insert
/// duplicate scan or adjacency splice, so hubs and million-edge streams
/// stay linear.
///
/// ```
/// use qq_graph::graph::GraphBuilder;
///
/// let mut b = GraphBuilder::with_capacity(4, 3);
/// b.add_edge(2, 0, 1.0).unwrap();
/// b.add_edge(1, 3, 0.5).unwrap();
/// b.add_edge(0, 1, 2.0).unwrap();
/// let g = b.finalize().unwrap();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(0), &[(1, 2.0), (2, 1.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Start a builder for a graph on `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::new() }
    }

    /// Start a builder with room for `edge_capacity` edges — the
    /// capacity hint streaming readers take from the Gset header, so
    /// ingestion performs one allocation instead of a doubling series.
    pub fn with_capacity(num_nodes: usize, edge_capacity: usize) -> Self {
        GraphBuilder { num_nodes, edges: Vec::with_capacity(edge_capacity) }
    }

    /// Reserve room for `additional` further edges.
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Number of nodes the finalized graph will have.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Edges appended so far.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append one undirected edge. O(1): range, self-loop and non-finite
    /// weight violations error immediately; duplicate pairs are detected
    /// by [`GraphBuilder::finalize`]'s sort (no per-insert scan).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> crate::Result<()> {
        check_edge(self.num_nodes, u, v, w)?;
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push(Edge { u: a, v: b, w });
        Ok(())
    }

    /// Assemble the CSR graph: count degrees, scatter both endpoints of
    /// every edge, sort each node's slice by neighbor id, and reject
    /// duplicate unordered pairs (adjacent after the sort). `O(m log d)`
    /// overall for maximum degree `d`; edge insertion order is preserved
    /// in [`Graph::edges`].
    ///
    /// Above [`PAR_FINALIZE_MIN_EDGES`] the degree count, endpoint
    /// scatter, and per-slice sorts run on the worker pool in
    /// [`PAR_FINALIZE_RANGES`] fixed chunks. Chunk layout depends only on
    /// the input size — never the thread count — and the two paths write
    /// identical bytes (scatter order within a node's slice is erased by
    /// the sort), so which path runs is invisible to callers and to the
    /// determinism digest.
    pub fn finalize(self) -> crate::Result<Graph> {
        let GraphBuilder { num_nodes, edges } = self;
        if edges.len() >= PAR_FINALIZE_MIN_EDGES {
            return finalize_parallel(num_nodes, edges);
        }
        let mut offsets = vec![0usize; num_nodes + 1];
        for e in &edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        // CAST: literal zero placeholder — trivially in NodeId range.
        let mut adj = vec![(0 as NodeId, 0.0f64); 2 * edges.len()];
        let mut cursor = offsets.clone();
        for e in &edges {
            adj[cursor[e.u as usize]] = (e.v, e.w);
            cursor[e.u as usize] += 1;
            adj[cursor[e.v as usize]] = (e.u, e.w);
            cursor[e.v as usize] += 1;
        }
        for v in 0..num_nodes {
            let slice = &mut adj[offsets[v]..offsets[v + 1]];
            slice.sort_unstable_by_key(|&(u, _)| u);
            if let Some(pair) = slice.windows(2).find(|p| p[0].0 == p[1].0) {
                let other = pair[0].0;
                // CAST: v < num_nodes, which stays below u32::MAX by the
                // NodeId contract (every edge endpoint was range-checked
                // at add_edge).
                let v = v as NodeId;
                return Err(GraphError::DuplicateEdge { u: v.min(other), v: v.max(other) });
            }
        }
        Ok(Graph { num_nodes, edges, offsets, adj })
    }
}

/// Edge count above which [`GraphBuilder::finalize`] assembles the CSR
/// arrays on the worker pool. A pure size gate (never thread-count
/// dependent) chosen so the 10⁵-node bench smoke leg already exercises
/// the parallel path while unit-test graphs skip its setup cost.
pub const PAR_FINALIZE_MIN_EDGES: usize = 1 << 16;

/// Fixed fan-out of the parallel finalize: the edge list is cut into this
/// many histogram chunks and the node space into this many contiguous
/// ranges. A constant keeps chunk boundaries identical at any
/// `RAYON_NUM_THREADS`, and bounds the transient per-chunk degree
/// histograms to `PAR_FINALIZE_RANGES × 4(n+1)` bytes.
const PAR_FINALIZE_RANGES: usize = 8;

/// Pool-parallel CSR assembly. Three phases:
///
/// 1. **Degree count** — per-chunk `u32` histograms over fixed edge
///    chunks, summed element-wise in chunk order (integer adds, so the
///    result equals the sequential count exactly).
/// 2. **Scatter + sort** — the node space is split at offset boundaries
///    into contiguous ranges of roughly equal endpoint count; each range
///    owns a disjoint `&mut` sub-slice of `adj` (no locks, no unsafe),
///    scans the full edge list, scatters the endpoints that land in its
///    range, then sorts each node slice by neighbor id. Scanning `m`
///    edges per range costs `PAR_FINALIZE_RANGES × m` reads total, but
///    the skipped-endpoint test is two compares while the writes — the
///    cache-missing part — stay partitioned and local.
/// 3. **Duplicate check** — each range reports its first duplicate in
///    ascending node order; taking the first report in range order
///    reproduces the sequential path's error exactly.
fn finalize_parallel(num_nodes: usize, edges: Vec<Edge>) -> crate::Result<Graph> {
    use rayon::prelude::*;

    let hist_chunk = edges.len().div_ceil(PAR_FINALIZE_RANGES).max(1);
    // REDUCTION: fixed par_chunks(hist_chunk) — a pure function of the
    // edge count; integer histograms merge index-wise, no floats cross
    // chunks.
    let counts = edges
        .par_chunks(hist_chunk)
        .map(|chunk| {
            let mut counts = vec![0u32; num_nodes + 1];
            for e in chunk {
                counts[e.u as usize + 1] += 1;
                counts[e.v as usize + 1] += 1;
            }
            counts
        })
        .reduce(
            || vec![0u32; num_nodes + 1],
            |mut acc, part| {
                for (a, p) in acc.iter_mut().zip(&part) {
                    *a += *p;
                }
                acc
            },
        );
    let mut offsets = vec![0usize; num_nodes + 1];
    for i in 0..num_nodes {
        offsets[i + 1] = offsets[i] + counts[i + 1] as usize;
    }
    drop(counts);

    // Node-range boundaries balanced by endpoint count, derived from the
    // offsets alone (deterministic). Monotone by construction.
    let total = 2 * edges.len();
    let mut bounds = Vec::with_capacity(PAR_FINALIZE_RANGES + 1);
    bounds.push(0usize);
    for i in 1..PAR_FINALIZE_RANGES {
        let target = total * i / PAR_FINALIZE_RANGES;
        let node = offsets.partition_point(|&o| o < target).min(num_nodes);
        bounds.push(node.max(*bounds.last().unwrap_or(&0)));
    }
    bounds.push(num_nodes);

    // (lo, hi, the disjoint &mut adj sub-slice covering those nodes)
    type ScatterTask<'a> = (usize, usize, &'a mut [(NodeId, f64)]);
    // CAST: literal zero placeholder — trivially in NodeId range.
    let mut adj = vec![(0 as NodeId, 0.0f64); total];
    let mut tasks: Vec<ScatterTask> = Vec::with_capacity(PAR_FINALIZE_RANGES);
    let mut rest: &mut [(NodeId, f64)] = &mut adj;
    for pair in bounds.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(offsets[hi] - offsets[lo]);
        rest = tail;
        tasks.push((lo, hi, head));
    }

    // REDUCTION: fixed per-node-range tasks (one leaf each); the collect
    // is keyed by task index and carries no floats.
    let first_dup = tasks
        .into_par_iter()
        .with_min_len(1)
        .map(|(lo, hi, slice)| {
            let base = offsets[lo];
            let mut cursor: Vec<usize> = offsets[lo..hi].to_vec();
            for e in &edges {
                let (u, v) = (e.u as usize, e.v as usize);
                if u >= lo && u < hi {
                    slice[cursor[u - lo] - base] = (e.v, e.w);
                    cursor[u - lo] += 1;
                }
                if v >= lo && v < hi {
                    slice[cursor[v - lo] - base] = (e.u, e.w);
                    cursor[v - lo] += 1;
                }
            }
            for node in lo..hi {
                let s = &mut slice[offsets[node] - base..offsets[node + 1] - base];
                s.sort_unstable_by_key(|&(u, _)| u);
                if let Some(pair) = s.windows(2).find(|p| p[0].0 == p[1].0) {
                    let other = pair[0].0;
                    // CAST: node < num_nodes ≤ NodeId range (add_edge
                    // range-checked every endpoint).
                    let node = node as NodeId;
                    return Some((node.min(other), node.max(other)));
                }
            }
            None
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .next();
    if let Some((u, v)) = first_dup {
        return Err(GraphError::DuplicateEdge { u, v });
    }
    Ok(Graph { num_nodes, edges, offsets, adj })
}

/// A weighted undirected graph with `0..n` contiguous node ids on CSR
/// storage (see the module docs for the exact layout). Neighbor slices
/// are always sorted by neighbor id — a documented invariant traversals
/// and binary-search lookups rely on.
#[derive(Debug, Clone)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// Node `v`'s neighbors live at `adj[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Flat `(neighbor, weight)` pairs; every edge appears twice, and
    /// each node's slice is sorted ascending by neighbor id.
    adj: Vec<(NodeId, f64)>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Create an edgeless graph on `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Graph { num_nodes, edges: Vec::new(), offsets: vec![0; num_nodes + 1], adj: Vec::new() }
    }

    /// Start a [`GraphBuilder`] on `num_nodes` nodes — the scalable
    /// construction path for anything beyond a handful of edges.
    pub fn builder(num_nodes: usize) -> GraphBuilder {
        GraphBuilder::new(num_nodes)
    }

    /// Create a graph from an iterator of `(u, v, w)` triples.
    ///
    /// Duplicate unordered pairs and self-loops are rejected.
    pub fn from_edges<I>(num_nodes: usize, iter: I) -> crate::Result<Self>
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let iter = iter.into_iter();
        let mut b = GraphBuilder::with_capacity(num_nodes, iter.size_hint().0);
        for (u, v, w) in iter {
            b.add_edge(u, v, w)?;
        }
        b.finalize()
    }

    /// Add one undirected edge to an already-built graph.
    ///
    /// Kept for small incremental builds and test fixtures: the
    /// duplicate check is an `O(log d)` binary search on the sorted
    /// neighbor slice (no linear hub scan), but splicing the CSR arrays
    /// costs `O(n + m)` per call — bulk construction belongs in
    /// [`GraphBuilder`], which is linear overall.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> crate::Result<()> {
        check_edge(self.num_nodes, u, v, w)?;
        if self.neighbor_index(u, v).is_ok() {
            return Err(GraphError::DuplicateEdge { u: u.min(v), v: u.max(v) });
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push(Edge { u: a, v: b, w });
        // Splice both endpoints into the sorted CSR slices: compute both
        // global insertion points on the pre-insert arrays, insert at the
        // later position first so the earlier index stays valid.
        // INVARIANT: the duplicate check above guarantees v is absent from
        // u's slice (and vice versa), so binary search returns Err here.
        let pos_u = self.offsets[u as usize] + self.neighbor_index(u, v).unwrap_err();
        // INVARIANT: same absence guarantee, mirrored orientation.
        let pos_v = self.offsets[v as usize] + self.neighbor_index(v, u).unwrap_err();
        // u's slice receives entry (v, w) at pos_u; v's slice receives
        // (u, w) at pos_v. When both land on the same slice boundary the
        // position ties break by owner id — the lower node's slice comes
        // first in the flat array, so its entry must be inserted second.
        let op_u = (pos_u, u as usize, (v, w));
        let op_v = (pos_v, v as usize, (u, w));
        let (first, second) =
            if (op_u.0, op_u.1) > (op_v.0, op_v.1) { (op_u, op_v) } else { (op_v, op_u) };
        self.adj.insert(first.0, first.2);
        self.adj.insert(second.0, second.2);
        for node in [u, v] {
            for o in &mut self.offsets[node as usize + 1..] {
                *o += 1;
            }
        }
        Ok(())
    }

    /// Position of `v` within `u`'s sorted neighbor slice (`Ok`) or the
    /// insertion point that keeps the slice sorted (`Err`).
    fn neighbor_index(&self, u: NodeId, v: NodeId) -> std::result::Result<usize, usize> {
        self.neighbors(u).binary_search_by_key(&v, |&(x, _)| x)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Flat edge list (canonical `u < v` orientation, insertion order).
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of `v` as `(neighbor, weight)` pairs, sorted ascending
    /// by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, f64)] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v` (neighbor count, not weighted).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Weighted degree of `v`: `Σ_u w_vu`.
    pub fn weighted_degree(&self, v: NodeId) -> f64 {
        self.neighbors(v).iter().map(|&(_, w)| w).sum()
    }

    /// Sum of all edge weights (each edge counted once).
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// True if every edge weight equals 1 (the paper's "unweighted" case).
    pub fn is_unit_weighted(&self) -> bool {
        self.edges.iter().all(|e| e.w == 1.0)
    }

    /// Edge density: `|E| / (n choose 2)`; 0 for graphs with < 2 nodes.
    pub fn density(&self) -> f64 {
        if self.num_nodes < 2 {
            return 0.0;
        }
        let max = self.num_nodes as f64 * (self.num_nodes as f64 - 1.0) / 2.0;
        self.edges.len() as f64 / max
    }

    /// Weight of the edge `(u, v)` if present. `O(log d)` binary search
    /// on the sorted neighbor slice.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if (u as usize) >= self.num_nodes {
            return None;
        }
        self.neighbor_index(u, v).ok().map(|i| self.adj[self.offsets[u as usize] + i].1)
    }

    /// Bytes of heap memory the graph's three arrays occupy (capacity,
    /// not length — what the allocator actually holds). The
    /// `BENCH_large.json` memory-ceiling number is this divided by
    /// `2 · num_edges()` (bytes per edge-endpoint).
    pub fn memory_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<Edge>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.adj.capacity() * std::mem::size_of::<(NodeId, f64)>()
    }

    /// Connected components as lists of node ids (each sorted ascending).
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.num_nodes;
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            // CAST: start < num_nodes ≤ NodeId range.
            stack.push(start as NodeId);
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &(u, _) in self.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Induced subgraph on `nodes` (need not be sorted). Returns the new
    /// graph plus the mapping `local id -> original id`. One linear pass
    /// through the parent edge list into a [`GraphBuilder`].
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut local_of = vec![u32::MAX; self.num_nodes];
        for (i, &v) in nodes.iter().enumerate() {
            // CAST: i indexes the subgraph's node list, whose length is
            // at most num_nodes ≤ NodeId range.
            local_of[v as usize] = i as u32;
        }
        let mut b = GraphBuilder::new(nodes.len());
        for e in &self.edges {
            let lu = local_of[e.u as usize];
            let lv = local_of[e.v as usize];
            if lu != u32::MAX && lv != u32::MAX {
                // INVARIANT: local ids are a bijection onto 0..nodes.len()
                // and parent edges are unique, so induced edges are too.
                b.add_edge(lu, lv, e.w).expect("induced edges are unique and in range");
            }
        }
        // INVARIANT: induced edges inherit uniqueness from the parent,
        // so finalize's duplicate scan cannot fire.
        let g = b.finalize().expect("induced edges are unique");
        (g, nodes.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_weight(), 6.0);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(g.add_edge(1, 0, f64::NAN), Err(GraphError::NonFiniteWeight { u: 0, v: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(0, 5, 1.0),
            Err(GraphError::NodeOutOfRange { node: 5, num_nodes: 2 })
        );
    }

    #[test]
    fn rejects_duplicate_edge_either_orientation() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        assert_eq!(g.add_edge(1, 0, 2.0), Err(GraphError::DuplicateEdge { u: 0, v: 1 }));
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(2, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert_eq!(g.edge_weight(7, 0), None);
    }

    #[test]
    fn weighted_degree_sums_incident_weights() {
        let g = triangle();
        assert_eq!(g.weighted_degree(0), 4.0);
        assert_eq!(g.weighted_degree(2), 5.0);
    }

    #[test]
    fn canonical_edge_orientation() {
        let g = Graph::from_edges(3, [(2, 0, 1.0)]).unwrap();
        let e = g.edges()[0];
        assert!(e.u < e.v);
    }

    #[test]
    fn connected_components_split() {
        // two disjoint edges + isolated node
        let g = Graph::from_edges(5, [(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[2, 0]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 1);
        // edge (0,2,w=3) survives, remapped to local (1,0) -> canonical (0,1)
        assert_eq!(sub.edges()[0].w, 3.0);
        assert_eq!(map, vec![2, 0]);
    }

    #[test]
    fn unit_weight_detection() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(g.is_unit_weighted());
        let h = triangle();
        assert!(!h.is_unit_weighted());
    }

    #[test]
    fn neighbors_are_sorted_by_id() {
        // edges inserted in scrambled order; CSR slices must come out
        // sorted — the invariant binary-search lookups rely on
        let g = Graph::from_edges(5, [(3, 1, 1.0), (1, 0, 2.0), (4, 1, 3.0), (1, 2, 4.0)]).unwrap();
        assert_eq!(g.neighbors(1), &[(0, 2.0), (2, 4.0), (3, 1.0), (4, 3.0)]);
        assert_eq!(g.degree(1), 4);
        assert_eq!(g.neighbors(0), &[(1, 2.0)]);
    }

    #[test]
    fn builder_defers_duplicate_detection_to_finalize() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 0, 2.0).unwrap(); // accepted now…
        assert_eq!(b.num_edges(), 2);
        // …rejected at finalize, canonical orientation in the error
        assert_eq!(b.finalize().unwrap_err(), GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn builder_validates_range_and_self_loops_eagerly() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3, 1.0),
            Err(GraphError::NodeOutOfRange { node: 3, num_nodes: 3 })
        );
        assert_eq!(b.add_edge(2, 2, 1.0), Err(GraphError::SelfLoop { node: 2 }));
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(b.add_edge(2, 1, w), Err(GraphError::NonFiniteWeight { u: 1, v: 2 }));
        }
    }

    #[test]
    fn builder_matches_incremental_construction() {
        let edges = [(0u32, 4u32, 1.5), (2, 1, -2.0), (3, 4, 0.25), (0, 1, 7.0)];
        let mut incremental = Graph::new(5);
        for &(u, v, w) in &edges {
            incremental.add_edge(u, v, w).unwrap();
        }
        let built = Graph::from_edges(5, edges).unwrap();
        assert_eq!(incremental.num_edges(), built.num_edges());
        for (a, b) in incremental.edges().iter().zip(built.edges()) {
            assert_eq!((a.u, a.v, a.w), (b.u, b.v, b.w));
        }
        for v in 0..5 {
            assert_eq!(incremental.neighbors(v), built.neighbors(v), "node {v}");
        }
    }

    #[test]
    fn add_edge_after_build_keeps_csr_consistent() {
        let mut g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        g.add_edge(1, 2, 5.0).unwrap();
        g.add_edge(3, 0, 2.0).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[(1, 1.0), (3, 2.0)]);
        assert_eq!(g.neighbors(1), &[(0, 1.0), (2, 5.0)]);
        assert_eq!(g.neighbors(2), &[(1, 5.0), (3, 1.0)]);
        assert_eq!(g.neighbors(3), &[(0, 2.0), (2, 1.0)]);
        assert_eq!(g.edge_weight(3, 0), Some(2.0));
    }

    #[test]
    fn builder_capacity_hint_preallocates() {
        let mut b = GraphBuilder::with_capacity(10, 64);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.finalize().unwrap();
        assert_eq!(g.num_edges(), 1);
        // capacity-based accounting includes the hint's slack
        assert!(g.memory_bytes() >= 64 * std::mem::size_of::<Edge>());
    }

    #[test]
    fn memory_bytes_tracks_the_three_arrays() {
        let g = triangle();
        let expected = g.edges().len() * 16 // Edge
            + 4 * 8 // offsets: n + 1 usizes
            + 2 * g.num_edges() * 16; // adj pairs
                                      // capacities may exceed lengths; the floor is the exact layout
        assert!(g.memory_bytes() >= expected);
        // an edgeless graph still owns its offset array
        assert!(Graph::new(100).memory_bytes() >= 101 * 8);
    }

    #[test]
    fn duplicate_on_a_hub_is_found_by_binary_search() {
        // star-shaped hub: the duplicate check must not degrade to a
        // linear scan (pinned here only behaviorally — the complexity
        // claim lives in the binary search over the sorted slice)
        let mut g = Graph::new(1000);
        for v in 1..1000 {
            g.add_edge(0, v, 1.0).unwrap();
        }
        assert_eq!(g.add_edge(517, 0, 1.0), Err(GraphError::DuplicateEdge { u: 0, v: 517 }));
        assert_eq!(g.degree(0), 999);
    }
}
