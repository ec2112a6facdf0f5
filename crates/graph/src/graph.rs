//! The arena-backed adjacency multigraph type.

use crate::index::MultiplicityIndex;
use sgr_util::prefetch::prefetch_read;
use sgr_util::FxHashMap;

/// Node identifier. `u32` keeps adjacency lists compact (half the memory
/// traffic of `usize` on 64-bit targets) while supporting graphs of up to
/// ~4.29 billion nodes — far beyond the paper's largest dataset (YouTube,
/// 1.13 M nodes).
pub type NodeId = u32;

/// Degree vector `{n(k)}_k`: `dv[k]` is the number of nodes with degree
/// `k`, for `k = 0 ..= k_max` (the paper indexes from 1; index 0 holds
/// isolated nodes, which occur only transiently during construction).
pub type DegreeVector = Vec<usize>;

/// Structural invariant violations reported by [`Graph::validate`] and
/// the raw-adjacency constructors ([`Graph::from_adjacency`],
/// [`Graph::from_flat`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The total neighbor-entry count is odd, so it cannot be `2 m`.
    OddNeighborEntries { total: usize },
    /// A flat adjacency's degree sum disagrees with its arena length.
    DegreeArenaMismatch { degree_sum: u64, arena_len: usize },
    /// A node lists a neighbor id outside `0 .. n`.
    OutOfRangeNeighbor { node: NodeId, neighbor: NodeId },
    /// A node's loop-entry count is odd (each self-loop stores its
    /// endpoint twice).
    OddLoopEntries { node: NodeId },
    /// The degree sum is not twice the edge count.
    HandshakeViolation {
        degree_sum: usize,
        twice_edges: usize,
    },
    /// `v ∈ adj[u]` a different number of times than `u ∈ adj[v]`.
    Asymmetry {
        u: NodeId,
        v: NodeId,
        forward: usize,
        backward: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::OddNeighborEntries { total } => {
                write!(f, "odd total neighbor-entry count {total}")
            }
            GraphError::DegreeArenaMismatch {
                degree_sum,
                arena_len,
            } => write!(
                f,
                "adjacency degree sum {degree_sum} != neighbor arena length {arena_len}"
            ),
            GraphError::OutOfRangeNeighbor { node, neighbor } => {
                write!(f, "node {node} lists out-of-range neighbor {neighbor}")
            }
            GraphError::OddLoopEntries { node } => {
                write!(f, "node {node} has an odd number of loop entries")
            }
            GraphError::HandshakeViolation {
                degree_sum,
                twice_edges,
            } => write!(
                f,
                "handshake violation: sum of degrees {degree_sum} != 2m = {twice_edges}"
            ),
            GraphError::Asymmetry {
                u,
                v,
                forward,
                backward,
            } => write!(
                f,
                "asymmetry between {u} and {v}: {forward} forward vs {backward} backward"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Undirected multigraph with self-loops, per the paper's model (§III-A).
///
/// An edge `{u, v}` with `u != v` stores `v` in `u`'s neighbor list and
/// `u` in `v`'s; a self-loop at `u` stores `u` **twice** in `u`'s list.
/// Hence for every node, `degree(u) == neighbors(u).len()` and
/// `Σ_u degree(u) == 2 m`.
///
/// # Storage model
///
/// All neighbor lists live in **one flat arena** (`Vec<NodeId>`) with a
/// per-node *extent* — a `(start, capacity)` range of the arena of which
/// the first `degree(u)` slots are live. There is no per-node heap `Vec`,
/// so the whole graph spans a constant number of allocations regardless
/// of node count (steady state: 8 bytes/node of bookkeeping plus the
/// arena itself, vs 24 bytes of `Vec` header plus a separately allocated,
/// capacity-overcommitted buffer per node before).
///
/// Extents come in two layouts:
///
/// * **Tight** — extents are packed in ascending node order and the
///   capacity of `u` is implied by the next extent's start (the CSR
///   layout, plus a live length per node). [`Graph::reserve_neighbors`]
///   builds this layout with capacities taken from the caller's target
///   degrees; [`Graph::from_edges`] (and with it the crawl subgraph and
///   the edge-list reader), the raw-adjacency constructors,
///   [`Graph::from_view`] and [`Graph::from_index`] build it with
///   exact-fit capacities.
/// * **Dynamic** — capacities are materialized per node, and an extent
///   that overflows is relocated to the end of the arena with doubled
///   capacity (the abandoned slots are reclaimed by an occasional
///   compaction). This is the layout incremental builders (generators)
///   run in; the first overflowing append converts a tight graph to it
///   transparently.
///
/// The restoration pipeline never leaves the tight layout after
/// construction: targeting fixes every node's degree before wiring, so
/// [`Graph::reserve_neighbors`] sizes each extent to its final degree,
/// and stub matching fills extents exactly. Rewiring mutates no `Graph`:
/// the engine keeps the multigraph as a [`MultiplicityIndex`] and hands
/// back [`Graph::from_index`], tight and fully packed. No extent ever
/// grows, no slot is ever relocated, and [`Graph::freeze`] is a
/// near-copy-free compaction (for a fully packed tight graph, a plain
/// copy of the two arrays).
///
/// Mutations reproduce the element movement of the previous per-node
/// `Vec` representation exactly — appends at the live length, removals by
/// swap-with-last within the live slice — so neighbor *order*, and with
/// it every order-sensitive float kernel downstream of
/// [`Graph::freeze`], is bitwise-identical to
/// [`crate::reference::ReferenceGraph`] (the retained oracle) under any
/// operation sequence.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Extent starts. Tight layout (`caps == None`): `n + 1` prefix
    /// sums, the extent of `u` spanning `starts[u] .. starts[u + 1]`.
    /// Dynamic layout: the first `n` entries are per-node starts (extents
    /// may live anywhere in the arena); the final entry is meaningless.
    starts: Vec<u32>,
    /// Live neighbor count per node (`degree(u)`).
    lens: Vec<u32>,
    /// Dynamic-layout extent capacities; `None` means tight layout.
    caps: Option<Vec<u32>>,
    /// The neighbor slab every extent lives in.
    arena: Vec<NodeId>,
    /// Arena slots abandoned by dynamic-layout relocations; when they
    /// outnumber the live capacity, [`Self::compact`] reclaims them.
    dead: usize,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes (ids `0 .. n`).
    pub fn with_nodes(n: usize) -> Self {
        Self {
            starts: vec![0; n + 1],
            lens: vec![0; n],
            caps: None,
            arena: Vec::new(),
            dead: 0,
            num_edges: 0,
        }
    }

    /// Builds a graph with `n` nodes from an edge list. Multi-edges and
    /// self-loops in the input are kept.
    ///
    /// Degrees are counted first, so the graph comes out in the tight
    /// layout with exact-fit extents and no slot ever relocates. Entries
    /// are then placed in edge order, each `(u, v)` appending `v` to `u`'s
    /// list and `u` to `v`'s (a loop appends `u` twice), so every
    /// neighbour list is in the order repeated [`Self::add_edge`] calls
    /// would give it.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut lens = vec![0u32; n];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} nodes"
            );
            lens[u as usize] += 1;
            lens[v as usize] += 1;
        }
        let total: usize = lens.iter().map(|&d| d as usize).sum();
        let mut g = Self::tight(lens, vec![0; total]);
        let mut fill = g.starts[..n].to_vec();
        let mut place = |u: NodeId, v: NodeId| {
            g.arena[fill[u as usize] as usize] = v;
            fill[u as usize] += 1;
        };
        for &(u, v) in edges {
            place(u, v);
            place(v, u);
        }
        g
    }

    /// Rebuilds a graph from raw adjacency lists, **preserving per-node
    /// neighbor order**, so order-sensitive float kernels see the lists
    /// exactly as given — unlike [`crate::CsrGraph::thaw`], which re-adds
    /// edges and therefore reorders neighbor lists.
    ///
    /// The input must satisfy the storage conventions of this type: the
    /// lists are symmetric (`v ∈ adj[u]` as many times as `u ∈ adj[v]`)
    /// and each self-loop at `u` stores `u` twice in `adj[u]`.
    ///
    /// # Errors
    /// Returns the first invariant violation found (out-of-range neighbor,
    /// odd loop-entry count, asymmetry) as a typed [`GraphError`].
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        let lens = adj.iter().map(|nbrs| nbrs.len() as u32).collect();
        let g = Self::tight(lens, adj.concat());
        g.validate()?;
        Ok(g)
    }

    /// Rebuilds a graph from a flat adjacency — per-node degrees plus one
    /// neighbor slab in ascending node order — **preserving neighbor
    /// order**, without the intermediate per-node `Vec`s of
    /// [`Self::from_adjacency`]. This is the checkpoint loader's path:
    /// the on-disk layout *is* the tight arena layout, so the slab is
    /// adopted as the arena directly.
    ///
    /// # Errors
    /// [`GraphError::DegreeArenaMismatch`] when the degree sum disagrees
    /// with the slab length, otherwise the first invariant violation
    /// found by [`Self::validate`].
    pub fn from_flat(degrees: &[u32], flat: Vec<NodeId>) -> Result<Self, GraphError> {
        let degree_sum: u64 = degrees.iter().map(|&d| d as u64).sum();
        if degree_sum != flat.len() as u64 {
            return Err(GraphError::DegreeArenaMismatch {
                degree_sum,
                arena_len: flat.len(),
            });
        }
        let g = Self::tight(degrees.to_vec(), flat);
        g.validate()?;
        Ok(g)
    }

    /// Copies any read-only view into a mutable graph, **preserving
    /// per-node neighbor order** (so a freeze → `from_view` round trip is
    /// the identity on neighbor sequences, unlike
    /// [`crate::CsrGraph::thaw`]). The source view is trusted to satisfy
    /// the storage invariants — it came from a [`Graph`] or a validated
    /// snapshot — so no re-validation pass is paid.
    pub fn from_view<G: crate::GraphView + ?Sized>(g: &G) -> Self {
        let lens = g.nodes().map(|u| g.degree(u) as u32).collect();
        let mut arena = Vec::with_capacity(2 * g.num_edges());
        for u in g.nodes() {
            arena.extend_from_slice(g.neighbors(u));
        }
        Self::tight(lens, arena)
    }

    /// Materializes the multigraph an index describes in **canonical
    /// order** (each list ascending, `v` repeated `A_uv` times), which
    /// depends only on the edge multiset. The index is trusted, so no
    /// re-validation pass is paid.
    ///
    /// One pass over the index: each list is expanded at the arena's end
    /// and its length read off the cursor. The arena is reserved at the
    /// index's extent total, the degree sum at build, which rewiring
    /// preserves.
    pub fn from_index(idx: &MultiplicityIndex) -> Self {
        let mut lens = Vec::with_capacity(idx.num_nodes());
        let mut arena = Vec::with_capacity(idx.extent_total());
        for u in 0..idx.num_nodes() as NodeId {
            let before = arena.len();
            for (v, a) in idx.entries(u) {
                arena.extend(std::iter::repeat_n(v, a as usize));
            }
            lens.push((arena.len() - before) as u32);
        }
        Self::tight(lens, arena)
    }

    /// The tight layout with exact-fit extents: node `u` owns the next
    /// `lens[u]` entries of `arena` (the lengths sum to its length).
    fn tight(lens: Vec<u32>, arena: Vec<NodeId>) -> Self {
        Self::check_arena_fits(arena.len());
        let mut starts = Vec::with_capacity(lens.len() + 1);
        starts.push(0u32);
        let mut off = 0u32;
        for &d in &lens {
            off += d;
            starts.push(off);
        }
        debug_assert_eq!(off as usize, arena.len());
        Self {
            starts,
            lens,
            caps: None,
            num_edges: arena.len() / 2,
            arena,
            dead: 0,
        }
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.lens.len()
    }

    /// Number of edges, counting each multi-edge copy once and each
    /// self-loop once.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Average degree `k̄ = 2m / n` (Eq. 1). Zero for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.lens.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.lens.len() as f64
        }
    }

    /// Extent capacity of node `u`.
    #[inline]
    fn cap(&self, u: usize) -> usize {
        match &self.caps {
            None => (self.starts[u + 1] - self.starts[u]) as usize,
            Some(caps) => caps[u] as usize,
        }
    }

    /// The arena index ceiling: offsets are `u32` (deliberately, to halve
    /// their cache footprint), so the slab cannot exceed `u32::MAX`
    /// entries — ≈ 2.1 billion edges, the same ceiling
    /// [`crate::CsrGraph`] has.
    #[inline]
    fn check_arena_fits(total: usize) {
        assert!(
            u32::try_from(total).is_ok(),
            "graph too large for u32 arena offsets ({total} neighbor entries)"
        );
    }

    /// Rebuilds the arena **tight**: extents packed in ascending node
    /// order, node `u` sized to `max(degree(u), degrees[u])`, live
    /// entries copied over in order. After this, node `u` can reach
    /// degree `degrees[u]` without any slot moving (self-loops store two
    /// entries but also count twice toward the degree, so the target
    /// degree *is* the required entry count) — the arena builder that
    /// makes bulk edge insertion toward a known target degree vector
    /// allocation-free.
    ///
    /// No-op when the graph is already tight with sufficient capacity
    /// everywhere, so the stub matcher's internal call is free for
    /// callers that pre-reserved.
    ///
    /// # Panics
    /// Panics if `degrees.len()` differs from the node count.
    pub fn reserve_neighbors(&mut self, degrees: &[u32]) {
        let n = self.lens.len();
        assert_eq!(degrees.len(), n, "degree length mismatch");
        if self.caps.is_none()
            && self
                .lens
                .iter()
                .zip(degrees)
                .enumerate()
                .all(|(u, (&len, &d))| self.cap(u) >= len.max(d) as usize)
        {
            return;
        }
        let mut new_starts = Vec::with_capacity(n + 1);
        new_starts.push(0u32);
        let mut total = 0usize;
        for (u, &d) in degrees.iter().enumerate() {
            total += (self.lens[u].max(d)) as usize;
            Self::check_arena_fits(total);
            new_starts.push(total as u32);
        }
        let mut new_arena = vec![0 as NodeId; total];
        for (u, &dst) in new_starts.iter().take(n).enumerate() {
            let len = self.lens[u] as usize;
            let src = self.starts[u] as usize;
            let dst = dst as usize;
            new_arena[dst..dst + len].copy_from_slice(&self.arena[src..src + len]);
        }
        self.starts = new_starts;
        self.arena = new_arena;
        self.caps = None;
        self.dead = 0;
    }

    /// Appends a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.lens.len() as NodeId;
        self.lens.push(0);
        match &mut self.caps {
            // Tight: a zero-capacity extent at the current end.
            None => {
                let end = *self.starts.last().expect("starts is never empty");
                self.starts.push(end);
            }
            Some(caps) => {
                let last = self.starts.len() - 1;
                self.starts.insert(last, self.arena.len() as u32);
                caps.push(0);
            }
        }
        id
    }

    /// Appends `x` to `u`'s live slice, growing the extent if full.
    #[inline]
    fn push_entry(&mut self, u: NodeId, x: NodeId) {
        let ui = u as usize;
        let len = self.lens[ui] as usize;
        if len < self.cap(ui) {
            let slot = self.starts[ui] as usize + len;
            self.arena[slot] = x;
            self.lens[ui] = (len + 1) as u32;
        } else {
            self.grow_and_push(ui, x);
        }
    }

    /// Cold path of [`Self::push_entry`]: converts to the dynamic layout
    /// if needed and relocates `u`'s extent to the arena end with at
    /// least doubled capacity.
    #[cold]
    fn grow_and_push(&mut self, u: usize, x: NodeId) {
        if self.caps.is_none() {
            self.caps = Some(self.starts.windows(2).map(|w| w[1] - w[0]).collect());
        }
        let len = self.lens[u] as usize;
        let old_cap = self.cap(u);
        let old_start = self.starts[u] as usize;
        let new_cap = (old_cap * 2).max(4).max(len + 1);
        let new_start = self.arena.len();
        Self::check_arena_fits(new_start + new_cap);
        self.arena.resize(new_start + new_cap, 0);
        let (old, new) = self.arena.split_at_mut(new_start);
        new[..len].copy_from_slice(&old[old_start..old_start + len]);
        new[len] = x;
        self.starts[u] = new_start as u32;
        self.caps.as_mut().expect("converted above")[u] = new_cap as u32;
        self.lens[u] = (len + 1) as u32;
        self.dead += old_cap;
        // Reclaim abandoned extents once they outnumber the live
        // capacity; amortized against the relocations that created them.
        if self.dead > self.arena.len() - self.dead {
            self.compact();
        }
    }

    /// Repacks every dynamic extent in ascending node order at its
    /// current capacity, dropping dead slots. Neighbor order within each
    /// extent is preserved (plain copies), so compaction is invisible to
    /// every observer.
    fn compact(&mut self) {
        let caps = self.caps.as_ref().expect("compact only runs dynamic");
        let total: usize = caps.iter().map(|&c| c as usize).sum();
        let mut new_arena = vec![0 as NodeId; total];
        let mut off = 0usize;
        for (u, &cap) in caps.iter().enumerate() {
            let len = self.lens[u] as usize;
            let src = self.starts[u] as usize;
            new_arena[off..off + len].copy_from_slice(&self.arena[src..src + len]);
            self.starts[u] = off as u32;
            off += cap as usize;
        }
        self.arena = new_arena;
        self.dead = 0;
    }

    /// Adds an undirected edge `{u, v}`; `u == v` adds a self-loop.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.lens.len() && (v as usize) < self.lens.len(),
            "edge ({u}, {v}) out of range for {} nodes",
            self.lens.len()
        );
        if u == v {
            self.push_entry(u, u);
            self.push_entry(u, u);
        } else {
            self.push_entry(u, v);
            self.push_entry(v, u);
        }
        self.num_edges += 1;
    }

    /// Removes the live entry at `pos` of `u`'s slice by swapping the
    /// last live entry into it — the same element movement as
    /// `Vec::swap_remove`, which the order-equivalence contract with the
    /// reference representation depends on.
    #[inline]
    fn swap_remove_entry(&mut self, u: NodeId, pos: usize) {
        let ui = u as usize;
        let start = self.starts[ui] as usize;
        let last = self.lens[ui] as usize - 1;
        self.arena[start + pos] = self.arena[start + last];
        self.lens[ui] = last as u32;
    }

    /// Removes one copy of edge `{u, v}` if present; returns whether an
    /// edge was removed. O(deg(u) + deg(v)).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let pos_u = self.neighbors(u).iter().position(|&x| x == v);
        let Some(pu) = pos_u else { return false };
        if u == v {
            // Remove two stored copies of the loop endpoint.
            self.swap_remove_entry(u, pu);
            let second = self
                .neighbors(u)
                .iter()
                .position(|&x| x == u)
                .expect("self-loop invariant: loops are stored twice");
            self.swap_remove_entry(u, second);
        } else {
            self.swap_remove_entry(u, pu);
            let pv = self
                .neighbors(v)
                .iter()
                .position(|&x| x == u)
                .expect("undirected invariant: reverse entry exists");
            self.swap_remove_entry(v, pv);
        }
        self.num_edges -= 1;
        true
    }

    /// Hints that `u`'s extent header (its start and live length) will
    /// be read soon. Changes nothing; see [`sgr_util::prefetch`].
    #[inline]
    pub fn prefetch_header(&self, u: NodeId) {
        prefetch_read(&self.starts[u as usize]);
        prefetch_read(&self.lens[u as usize]);
    }

    /// Hints the arena slot the next entry appended to `u`'s list goes
    /// to; reads the header [`Self::prefetch_header`] hints. Changes
    /// nothing.
    #[inline]
    pub fn prefetch_append(&self, u: NodeId) {
        let slot = self.starts[u as usize] as usize + self.lens[u as usize] as usize;
        if let Some(x) = self.arena.get(slot) {
            prefetch_read(x);
        }
    }

    /// Degree of `u` (self-loops count twice, per the `A_ii` convention).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.lens[u as usize] as usize
    }

    /// Neighbor list of `u` (multi-edges repeated; each self-loop
    /// contributes two copies of `u`).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let start = self.starts[u as usize] as usize;
        &self.arena[start..start + self.lens[u as usize] as usize]
    }

    /// Adjacency-matrix entry `A_uv`: edge multiplicity for `u != v`,
    /// twice the loop count for `u == v`. O(deg(u)); use
    /// [`crate::index::MultiplicityIndex`] for repeated lookups.
    pub fn multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        self.neighbors(u).iter().filter(|&&x| x == v).count()
    }

    /// Whether at least one edge `{u, v}` exists. Scans the smaller
    /// endpoint's list.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).contains(&b)
    }

    /// Iterates every node id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.lens.len()).map(|i| i as NodeId)
    }

    /// Iterates every edge exactly once as `(u, v)` with `u <= v`.
    /// Multi-edges are yielded once per copy; each self-loop once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.lens.len()).flat_map(move |u| {
            let u = u as NodeId;
            let mut loops_seen = 0usize;
            self.neighbors(u).iter().filter_map(move |&v| {
                if v > u {
                    Some((u, v))
                } else if v == u {
                    // Each loop is stored twice; yield every other copy.
                    loops_seen += 1;
                    if loops_seen.is_multiple_of(2) {
                        Some((u, u))
                    } else {
                        None
                    }
                } else {
                    None
                }
            })
        })
    }

    /// Maximum degree; 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).max().unwrap_or(0)
    }

    /// Degree vector `{n(k)}_k` indexed `0 ..= k_max`.
    pub fn degree_vector(&self) -> DegreeVector {
        let mut dv = vec![0usize; self.max_degree() + 1];
        for &l in &self.lens {
            dv[l as usize] += 1;
        }
        dv
    }

    /// Number of self-loop edges in the whole graph.
    pub fn num_self_loops(&self) -> usize {
        self.nodes()
            .map(|u| self.neighbors(u).iter().filter(|&&v| v == u).count() / 2)
            .sum()
    }

    /// Number of edge copies beyond the first between each node pair.
    pub fn num_multi_edges(&self) -> usize {
        let mut extra = 0usize;
        let mut seen: FxHashMap<NodeId, usize> = FxHashMap::default();
        for u in self.nodes() {
            seen.clear();
            for &v in self.neighbors(u) {
                if v >= u {
                    *seen.entry(v).or_insert(0) += 1;
                }
            }
            for (&v, &cnt) in seen.iter() {
                let copies = if v == u { cnt / 2 } else { cnt };
                extra += copies.saturating_sub(1);
            }
        }
        extra
    }

    /// Whether the graph is simple (no self-loops, no multi-edges).
    pub fn is_simple(&self) -> bool {
        self.num_self_loops() == 0 && self.num_multi_edges() == 0
    }

    /// Returns a simple copy: multi-edges collapsed to one copy, self-loops
    /// dropped. Mirrors the paper's dataset preprocessing ("removing
    /// multiple edges and the directions of edges").
    pub fn simplified(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.num_edges);
        let mut seen: sgr_util::FxHashSet<(NodeId, NodeId)> = sgr_util::FxHashSet::default();
        for (u, v) in self.edges() {
            if u != v && seen.insert((u, v)) {
                edges.push((u, v));
            }
        }
        Graph::from_edges(self.num_nodes(), &edges)
    }

    /// Freezes the current state into an immutable CSR snapshot
    /// (order-preserving; see [`crate::CsrGraph::freeze`]). Read-only
    /// consumers should be handed the snapshot, not the mutable graph.
    ///
    /// A fully packed tight graph — the steady state after
    /// [`Self::reserve_neighbors`]-sized construction and
    /// degree-preserving rewiring — already *is* the CSR layout, so this
    /// reduces to copying the two arrays instead of walking every
    /// neighbor slice.
    pub fn freeze(&self) -> crate::CsrGraph {
        if self.caps.is_none() && self.arena.len() == 2 * self.num_edges {
            return crate::CsrGraph::from_raw_parts(
                self.starts.clone(),
                self.arena.clone(),
                self.num_edges,
                false,
            );
        }
        crate::CsrGraph::freeze(self)
    }

    /// Checks internal invariants in O(n + m) time; run by the
    /// validating constructors (so by every checkpoint load), tests and
    /// debug assertions. Returns a typed [`GraphError`] describing the
    /// first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_nodes();
        let total_deg: usize = self.lens.iter().map(|&l| l as usize).sum();
        if !total_deg.is_multiple_of(2) {
            return Err(GraphError::OddNeighborEntries { total: total_deg });
        }
        // `ends[v + 1]` counts the upward entries `v ∈ adj[u]`, `v > u`,
        // for the symmetry check below.
        let mut ends = vec![0u32; n + 1];
        for u in self.nodes() {
            let nbrs = self.neighbors(u);
            let mut self_copies = 0usize;
            for &v in nbrs {
                if (v as usize) >= n {
                    return Err(GraphError::OutOfRangeNeighbor {
                        node: u,
                        neighbor: v,
                    });
                }
                if v == u {
                    self_copies += 1;
                } else if v > u {
                    ends[v as usize + 1] += 1;
                }
            }
            if !self_copies.is_multiple_of(2) {
                return Err(GraphError::OddLoopEntries { node: u });
            }
        }
        if total_deg != 2 * self.num_edges {
            return Err(GraphError::HandshakeViolation {
                degree_sum: total_deg,
                twice_edges: 2 * self.num_edges,
            });
        }
        // Symmetry: for every pair u < v, the count of v in adj[u] equals
        // the count of u in adj[v]. A counting-sort transpose of the
        // upward entries lists, for each node v, the lower nodes whose
        // lists hold v (with multiplicity); that list must equal v's own
        // downward entries as a multiset. One tally array serves every
        // node, all zeros again after each node that passes: O(n + m).
        for i in 0..n {
            ends[i + 1] += ends[i];
        }
        let mut listed_by = vec![0 as NodeId; ends[n] as usize];
        for u in self.nodes() {
            for &v in self.neighbors(u) {
                if v > u {
                    listed_by[ends[v as usize] as usize] = u;
                    ends[v as usize] += 1;
                }
            }
        }
        // `ends[v]` is now the end of v's segment, `ends[v - 1]` its start.
        let mut tally = vec![0u32; n];
        for v in self.nodes() {
            let start = if v == 0 { 0 } else { ends[v as usize - 1] };
            let listing = &listed_by[start as usize..ends[v as usize] as usize];
            let own = self.neighbors(v);
            for &u in listing {
                tally[u as usize] = tally[u as usize].wrapping_add(1);
            }
            for &u in own.iter().filter(|&&u| u < v) {
                tally[u as usize] = tally[u as usize].wrapping_sub(1);
            }
            let mismatch = listing
                .iter()
                .chain(own)
                .find(|&&u| u < v && tally[u as usize] != 0);
            if let Some(&u) = mismatch {
                return Err(GraphError::Asymmetry {
                    u,
                    v,
                    forward: listing.iter().filter(|&&x| x == u).count(),
                    backward: own.iter().filter(|&&x| x == u).count(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.average_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        for u in 0..3 {
            assert_eq!(g.degree(u), 2);
        }
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = Graph::with_nodes(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.degree_vector(), vec![0]);
        g.validate().unwrap();
    }

    #[test]
    fn self_loop_convention() {
        // A single self-loop: degree 2, A_ii = 2 (Newman's convention,
        // which the paper adopts).
        let mut g = Graph::with_nodes(1);
        g.add_edge(0, 0);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.multiplicity(0, 0), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_self_loops(), 1);
        assert!(!g.is_simple());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 0)]);
        g.validate().unwrap();
    }

    #[test]
    fn multi_edges_counted() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.multiplicity(0, 1), 3);
        assert_eq!(g.multiplicity(1, 0), 3);
        assert_eq!(g.num_multi_edges(), 2);
        assert!(!g.is_simple());
        assert_eq!(g.edges().count(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = triangle();
        g.add_edge(1, 1); // loop
        g.add_edge(0, 2); // multi-edge copy
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 2), (1, 1), (1, 2)]);
        assert_eq!(edges.len(), g.num_edges());
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = triangle();
        assert!(g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        g.validate().unwrap();

        // Loop removal restores both copies.
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        assert!(g.remove_edge(0, 0));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn remove_one_copy_of_multi_edge() {
        let mut g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        assert!(g.remove_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        g.validate().unwrap();
    }

    #[test]
    fn degree_vector_matches_definition() {
        // Star with 3 leaves: one node of degree 3, three of degree 1.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree_vector(), vec![0, 3, 0, 1]);
    }

    #[test]
    fn simplified_removes_loops_and_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        let s = g.simplified();
        assert!(s.is_simple());
        assert_eq!(s.num_edges(), 2);
        assert!(s.has_edge(0, 1));
        assert!(s.has_edge(1, 2));
        assert_eq!(s.num_nodes(), 3);
    }

    #[test]
    fn add_node_extends() {
        let mut g = triangle();
        let v = g.add_node();
        assert_eq!(v, 3);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.degree(3), 0);
        g.add_edge(3, 0);
        assert!(g.has_edge(0, 3));
        g.validate().unwrap();
    }

    #[test]
    fn add_node_in_both_layouts() {
        // Tight (fresh) graph, then dynamic (post-overflow) graph: in
        // both layouts added nodes start isolated and wire up normally.
        let mut g = Graph::with_nodes(2);
        let a = g.add_node(); // tight: zero-capacity extent appended
        g.add_edge(0, 1); // converts to dynamic
        let b = g.add_node(); // dynamic: capacity-0 extent appended
        g.add_edge(a, b);
        g.add_edge(b, 0);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(b), 2);
        g.validate().unwrap();
    }

    #[test]
    fn from_adjacency_preserves_order() {
        let mut g = triangle();
        g.add_edge(1, 1);
        g.add_edge(0, 2);
        let adj: Vec<Vec<NodeId>> = g.nodes().map(|u| g.neighbors(u).to_vec()).collect();
        let back = Graph::from_adjacency(adj).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
        back.validate().unwrap();
    }

    #[test]
    fn from_adjacency_rejects_invalid_with_typed_errors() {
        // Asymmetric: 0 lists 1 but 1 does not list 0 (total is even —
        // two one-sided entries — so the symmetry check must catch it).
        assert_eq!(
            Graph::from_adjacency(vec![vec![1], vec![2], vec![]]).unwrap_err(),
            GraphError::Asymmetry {
                u: 0,
                v: 1,
                forward: 1,
                backward: 0
            }
        );
        // Out-of-range neighbor.
        assert_eq!(
            Graph::from_adjacency(vec![vec![5], vec![0]]).unwrap_err(),
            GraphError::OutOfRangeNeighbor {
                node: 0,
                neighbor: 5
            }
        );
        // Single loop entry (loops must be stored twice).
        assert_eq!(
            Graph::from_adjacency(vec![vec![0], vec![1]]).unwrap_err(),
            GraphError::OddLoopEntries { node: 0 }
        );
        // Odd total entry count.
        assert_eq!(
            Graph::from_adjacency(vec![vec![1]]).unwrap_err(),
            GraphError::OddNeighborEntries { total: 1 }
        );
    }

    #[test]
    fn validate_finds_a_multiplicity_mismatch_at_a_hub() {
        // The hub is the highest id, so every leaf pair is checked against
        // the hub's list: a scan of that list per leaf would be quadratic.
        let leaves = 20_000u32;
        let hub = leaves;
        let mut adj: Vec<Vec<NodeId>> = (0..leaves).map(|_| vec![hub]).collect();
        adj.push((0..leaves).collect());
        Graph::from_adjacency(adj.clone())
            .unwrap()
            .validate()
            .unwrap();
        // The hub lists leaf 17 twice, leaf 17 lists the hub once; leaf
        // 9000 lists the hub twice (keeping the entry count even).
        adj[hub as usize].push(17);
        adj[9000].push(hub);
        assert_eq!(
            Graph::from_adjacency(adj).unwrap_err(),
            GraphError::Asymmetry {
                u: 17,
                v: hub,
                forward: 1,
                backward: 2
            }
        );
    }

    #[test]
    fn validate_catches_an_entry_only_the_higher_endpoint_lists() {
        assert_eq!(
            Graph::from_adjacency(vec![vec![], vec![0], vec![0]]).unwrap_err(),
            GraphError::Asymmetry {
                u: 0,
                v: 1,
                forward: 0,
                backward: 1
            }
        );
    }

    #[test]
    fn from_flat_roundtrip_and_mismatch() {
        let mut g = triangle();
        g.add_edge(1, 1);
        let degrees: Vec<u32> = g.nodes().map(|u| g.degree(u) as u32).collect();
        let flat: Vec<NodeId> = g.nodes().flat_map(|u| g.neighbors(u).to_vec()).collect();
        let back = Graph::from_flat(&degrees, flat.clone()).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
        // Degree sum disagreeing with the slab is a typed error.
        let mut bad = degrees.clone();
        bad[0] += 1;
        assert_eq!(
            Graph::from_flat(&bad, flat).unwrap_err(),
            GraphError::DegreeArenaMismatch {
                degree_sum: (2 * g.num_edges() + 1) as u64,
                arena_len: 2 * g.num_edges(),
            }
        );
    }

    #[test]
    fn from_view_preserves_order() {
        let mut g = triangle();
        g.add_edge(1, 1);
        g.add_edge(0, 2);
        let csr = g.freeze();
        let back = Graph::from_view(&csr);
        assert_eq!(back.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
        back.validate().unwrap();
    }

    #[test]
    fn reserve_then_fill_never_relocates() {
        // Reserving target degrees up front keeps the graph in the tight
        // layout through wiring and through degree-preserving swap
        // cycles — the construction/rewiring warm path.
        let mut g = Graph::with_nodes(4);
        g.reserve_neighbors(&[2, 2, 2, 2]);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v);
        }
        assert!(g.caps.is_none(), "wiring within reserve must stay tight");
        assert_eq!(g.arena.len(), 2 * g.num_edges());
        // A double-edge swap: remove two edges, add two back. Occupancy
        // per node dips then returns to the reserved capacity.
        assert!(g.remove_edge(0, 1));
        assert!(g.remove_edge(2, 3));
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        assert!(g.caps.is_none(), "swaps must never leave the tight layout");
        g.validate().unwrap();
        assert!(g.nodes().all(|u| g.degree(u) == 2));
    }

    #[test]
    fn overflow_converts_and_compacts_transparently() {
        // Growing far past every reserved extent exercises relocation and
        // compaction; structure must be preserved throughout.
        let mut g = Graph::with_nodes(6);
        for round in 0..8 {
            for u in 0..6u32 {
                g.add_edge(u, (u + 1 + round) % 6);
            }
            g.validate().unwrap();
        }
        assert_eq!(g.num_edges(), 48);
        assert!(g.caps.is_some(), "unreserved growth runs dynamic");
        // Freeze still works off the dynamic layout (generic path).
        let csr = g.freeze();
        for u in g.nodes() {
            assert_eq!(csr.neighbors(u), g.neighbors(u));
        }
    }

    #[test]
    fn reserve_is_noop_when_capacity_suffices() {
        let mut g = Graph::with_nodes(3);
        g.reserve_neighbors(&[2, 2, 2]);
        let arena_before = g.arena.len();
        g.add_edge(0, 1);
        g.reserve_neighbors(&[2, 2, 2]); // already satisfied
        assert_eq!(g.arena.len(), arena_before);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn has_edge_scans_smaller_side() {
        let mut g = Graph::with_nodes(5);
        for v in 1..5 {
            g.add_edge(0, v);
        }
        assert!(g.has_edge(0, 4));
        assert!(g.has_edge(4, 0));
        assert!(!g.has_edge(1, 2));
    }
}
