//! Shared BFS traversal engine for the read path.
//!
//! Every BFS-heavy property kernel — the shortest-path sweep (properties
//! 8–10), the dissimilarity `distance_profile` — used to carry its own
//! ad-hoc level-synchronous loop. This module replaces them with one
//! engine offering two kernels over any [`GraphView`] (ideally a frozen
//! [`sgr_graph::CsrGraph`] arena):
//!
//! * [`BfsScratch::single_source`] — **direction-optimizing** BFS
//!   (Beamer, Asanović, Patterson, SC'12): frontier, next, and visited
//!   live in dense bitsets; level expansion runs *top-down* (scan the
//!   frontier's neighbor slices) while the frontier is small and flips to
//!   *bottom-up* (scan unvisited nodes for any frontier parent, with
//!   early exit on the first hit) once the frontier's outgoing-edge count
//!   crosses the α threshold, switching back for the small tail levels
//!   under the β threshold. Low-diameter social graphs spend most of
//!   their edges in two or three huge middle levels, which is exactly
//!   where bottom-up pays: each unvisited node stops at its first parent
//!   instead of being touched once per incoming frontier edge.
//! * [`BfsScratch::batch`] — **multi-source batched** BFS (up to 64
//!   sources per traversal): each node carries a `u64` seen-mask and
//!   frontier-mask, so one pass over the arena advances all sources of
//!   the batch at once. Workloads that need one histogram *per source* —
//!   the dissimilarity `distance_profile`, the sampled-pivot
//!   shortest-path sweep — amortize every neighbor-slice scan across the
//!   whole batch: a node active at the same level for many sources costs
//!   one slice walk instead of one per source. Levels alternate between
//!   a top-down form (scan the active list) and a bottom-up form (scan
//!   the not-yet-complete candidate list, OR-ing parent masks with early
//!   exit once the remaining mask is covered).
//!
//! # Traversal model
//!
//! **Why bottom-up preserves level sets exactly.** BFS level `l + 1` is,
//! by definition, the set of unvisited nodes adjacent to level `l`; which
//! endpoint of each such edge does the discovering is irrelevant to *set
//! membership*. The top-down step enumerates exactly that set by scanning
//! forward from the frontier; the bottom-up step enumerates exactly that
//! set by scanning backward from the unvisited side. Both produce the
//! same level sets — only the *discovery order within a level* differs.
//! Every output of this engine is therefore defined purely in terms of
//! level sets, never discovery order:
//!
//! * per-level **counts** (the distance histograms) are level-set sizes;
//! * the **eccentricity** is the index of the deepest non-empty level;
//! * the **far node** (the double-sweep seed of the sampled-diameter
//!   refinement) is the *lowest node id in the deepest level* — an
//!   order-free rule shared by every kernel here, including
//!   [`mod@reference`], so direction switching, source batching, neighbor
//!   order (sorted vs insertion-order snapshots), and thread count can
//!   never change a result.
//!
//! **Determinism argument.** Distances in an unweighted graph are unique,
//! so per-source histograms are engine-invariant integers. The α/β mode
//! switches change only which loop materializes a level. Multi-source
//! masks commute (`|=` over `u64`), so batch composition cannot change
//! per-source results. Parallel callers split *sources* into contiguous
//! chunks and reduce chunk results in chunk order (first-max-wins for the
//! far node, ordered summation for float averages), which makes every
//! public result bitwise-identical at any `threads` setting — the
//! equivalence suite (`tests/bfs_equivalence.rs`) pins engine-vs-oracle
//! and thread-count identity on the full property surface. The oracle,
//! [`mod@reference`], is kept for that comparison only: every
//! shortest-path and distance-profile computation runs on the engine.
//!
//! **Scratch reuse.** All traversal state lives in a reusable
//! [`BfsScratch`] (the same pattern as `ConstructScratch`): buffers are
//! sized once per graph and the warm path
//! performs **zero heap allocations** (proven by
//! `tests/bfs_zero_alloc.rs` with the counting global allocator). Bitsets
//! and mask arrays are bulk-cleared — at BFS scale a linear `fill(0)` of
//! `n/8` bytes is faster than stamp checks in the inner loops — while the
//! per-slot batch bookkeeping is epoch-stamped so a new batch starts in
//! O(batch width).

use crate::PropsConfig;
use sgr_graph::{GraphView, NodeId};
use sgr_util::Xoshiro256pp;

/// Top-down → bottom-up switch: flip when the frontier's outgoing-edge
/// count exceeds `unexplored_edges / ALPHA` (Beamer's α).
const ALPHA: u64 = 14;
/// Bottom-up → top-down switch: flip back when the frontier shrinks below
/// `n / BETA` nodes (Beamer's β).
const BETA: usize = 24;
/// Maximum number of sources per batched traversal (one bit per source in
/// the per-node `u64` masks).
pub const BATCH_WIDTH: usize = 64;

/// Summary of one single-source traversal; the per-level counts are read
/// from [`BfsScratch::levels`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingleBfs {
    /// Eccentricity of the source within its component (deepest level).
    pub depth: usize,
    /// Lowest node id in the deepest level (the source itself when the
    /// source is isolated).
    pub far: NodeId,
    /// Number of nodes reached, including the source.
    pub reached: usize,
}

/// Reusable traversal state: zero heap allocations on the warm path.
///
/// One scratch serves both kernels; parallel callers hold one per worker
/// thread. Buffers grow monotonically via [`ensure`](Self::ensure) and
/// are never shrunk.
#[derive(Clone, Debug)]
pub struct BfsScratch {
    /// Visited bitset (single-source kernel).
    visited: Vec<u64>,
    /// Bottom-up frontier bitset of the current level (single-source).
    front_bits: Vec<u64>,
    /// Discovery queue; level boundaries are tracked by the kernel loop.
    queue: Vec<NodeId>,
    /// Per-level counts of the latest traversal; `levels[0]` is always 0
    /// (the source's own level, per the distance-histogram convention).
    levels: Vec<u64>,
    /// Per-node seen masks (batched kernel): bit `i` set ⇔ source `i`
    /// has reached the node.
    seen: Vec<u64>,
    /// Per-node frontier masks of the current level (batched kernel).
    front: Vec<u64>,
    /// Per-node arrival masks being built for the next level.
    next: Vec<u64>,
    /// Nodes with a non-zero frontier mask this level.
    active: Vec<NodeId>,
    /// Nodes with a non-zero arrival mask next level.
    next_active: Vec<NodeId>,
    /// Bottom-up candidates: nodes whose seen mask is not yet full.
    cand: Vec<NodeId>,
    /// Level-major per-source histogram rows (`BATCH_WIDTH` counts per
    /// level) of the latest batch.
    batch_hist: Vec<u64>,
    /// Per-slot eccentricities of the latest batch.
    depth: [usize; BATCH_WIDTH],
    /// Per-slot far nodes (lowest id in the slot's deepest level).
    far: [NodeId; BATCH_WIDTH],
    /// Number of source slots used by the latest batch.
    batch_len: usize,
    /// Node capacity the buffers are sized for.
    nodes: usize,
}

impl Default for BfsScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl BfsScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            visited: Vec::new(),
            front_bits: Vec::new(),
            queue: Vec::new(),
            levels: Vec::new(),
            seen: Vec::new(),
            front: Vec::new(),
            next: Vec::new(),
            active: Vec::new(),
            next_active: Vec::new(),
            cand: Vec::new(),
            batch_hist: Vec::new(),
            depth: [0; BATCH_WIDTH],
            far: [0; BATCH_WIDTH],
            batch_len: 0,
            nodes: 0,
        }
    }

    /// Grows every buffer to cover `n` nodes (no-op when already sized).
    /// This is the only place the scratch allocates.
    pub fn ensure(&mut self, n: usize) {
        if self.nodes >= n {
            return;
        }
        let words = n.div_ceil(64);
        self.visited.resize(words, 0);
        self.front_bits.resize(words, 0);
        self.queue.reserve(n.saturating_sub(self.queue.capacity()));
        self.seen.resize(n, 0);
        self.front.resize(n, 0);
        self.next.resize(n, 0);
        self.active
            .reserve(n.saturating_sub(self.active.capacity()));
        self.next_active
            .reserve(n.saturating_sub(self.next_active.capacity()));
        self.cand.reserve(n.saturating_sub(self.cand.capacity()));
        self.nodes = n;
    }

    /// Per-level counts of the latest single-source traversal
    /// (`levels()[l]` = nodes at distance `l`; index 0 is always 0).
    #[inline]
    pub fn levels(&self) -> &[u64] {
        &self.levels
    }

    /// Count of nodes at distance `level` from batch source slot `slot`
    /// in the latest [`batch`](Self::batch) run.
    #[inline]
    pub fn batch_count(&self, level: usize, slot: usize) -> u64 {
        debug_assert!(slot < self.batch_len);
        self.batch_hist[level * BATCH_WIDTH + slot]
    }

    /// Eccentricity of batch source slot `slot`.
    #[inline]
    pub fn batch_depth(&self, slot: usize) -> usize {
        debug_assert!(slot < self.batch_len);
        self.depth[slot]
    }

    /// Far node (lowest id in the deepest level) of batch source slot
    /// `slot`.
    #[inline]
    pub fn batch_far(&self, slot: usize) -> NodeId {
        debug_assert!(slot < self.batch_len);
        self.far[slot]
    }

    /// Direction-optimizing single-source BFS from `source`. Per-level
    /// counts land in [`levels`](Self::levels); see [`SingleBfs`] for the
    /// summary. Warm calls perform no heap allocations.
    pub fn single_source<G: GraphView>(&mut self, g: &G, source: NodeId) -> SingleBfs {
        let n = g.num_nodes();
        self.ensure(n);
        self.visited[..n.div_ceil(64)].fill(0);
        let total_edge_slots = 2 * g.num_edges() as u64;
        self.queue.clear();
        self.levels.clear();
        self.levels.push(0);
        set_bit(&mut self.visited, source);
        self.queue.push(source);
        // Edge-count bookkeeping for the α/β switch heuristic. These are
        // *heuristics only*: results are level-set determined either way.
        let mut explored_edges = g.degree(source) as u64;
        let mut frontier_edges = explored_edges;
        let mut bottom_up = false;
        let mut start = 0usize; // current frontier is queue[start..end]
        let mut last_start = 0usize;
        loop {
            let end = self.queue.len();
            let frontier_len = end - start;
            if frontier_len == 0 {
                break;
            }
            // Mode decision for expanding the next level.
            let unexplored = total_edge_slots.saturating_sub(explored_edges);
            if !bottom_up {
                if frontier_edges > unexplored / ALPHA {
                    bottom_up = true;
                    self.front_bits[..n.div_ceil(64)].fill(0);
                    for &u in &self.queue[start..end] {
                        set_bit(&mut self.front_bits, u);
                    }
                }
            } else if frontier_len < n / BETA {
                bottom_up = false;
            } else {
                // Staying bottom-up: promote last level's discoveries to
                // the frontier bitset (they were recorded in the queue).
                self.front_bits[..n.div_ceil(64)].fill(0);
                for &u in &self.queue[start..end] {
                    set_bit(&mut self.front_bits, u);
                }
            }
            let mut new_edges = 0u64;
            if bottom_up {
                // Bottom-up: every unvisited node scans its neighbor
                // slice for a frontier parent, stopping at the first hit.
                let words = n.div_ceil(64);
                for wi in 0..words {
                    let mut w = !self.visited[wi];
                    if wi == words - 1 && !n.is_multiple_of(64) {
                        w &= (1u64 << (n % 64)) - 1;
                    }
                    while w != 0 {
                        let v = (wi * 64 + w.trailing_zeros() as usize) as NodeId;
                        w &= w - 1;
                        for &u in g.neighbors(v) {
                            if get_bit(&self.front_bits, u) {
                                set_bit(&mut self.visited, v);
                                self.queue.push(v);
                                new_edges += g.degree(v) as u64;
                                break;
                            }
                        }
                    }
                }
            } else {
                for i in start..end {
                    let u = self.queue[i];
                    for &v in g.neighbors(u) {
                        if !get_bit(&self.visited, v) {
                            set_bit(&mut self.visited, v);
                            self.queue.push(v);
                            new_edges += g.degree(v) as u64;
                        }
                    }
                }
            }
            if self.queue.len() > end {
                self.levels.push((self.queue.len() - end) as u64);
                last_start = end;
            }
            explored_edges += new_edges;
            frontier_edges = new_edges;
            start = end;
        }
        // Far node: lowest id in the deepest level — level-set
        // determined, so identical under any expansion mode, neighbor
        // order, or batching (see the module docs).
        let far = self.queue[last_start..]
            .iter()
            .copied()
            .min()
            .expect("queue holds at least the source");
        SingleBfs {
            depth: self.levels.len() - 1,
            far,
            reached: self.queue.len(),
        }
    }

    /// Multi-source batched BFS from up to [`BATCH_WIDTH`] `sources`
    /// (must be distinct). After the call, per-source histograms are read
    /// with [`batch_count`](Self::batch_count) /
    /// [`batch_depth`](Self::batch_depth) /
    /// [`batch_far`](Self::batch_far); the traversal's level count is
    /// returned. Warm calls perform no heap allocations as long as the
    /// graph's eccentricities do not exceed those already seen.
    pub fn batch<G: GraphView>(&mut self, g: &G, sources: &[NodeId]) -> usize {
        let n = g.num_nodes();
        let k = sources.len();
        assert!(
            (1..=BATCH_WIDTH).contains(&k),
            "batch width must be 1..={BATCH_WIDTH}, got {k}"
        );
        self.ensure(n);
        let full: u64 = if k == 64 { !0 } else { (1u64 << k) - 1 };
        self.seen[..n].fill(0);
        self.front[..n].fill(0);
        self.next[..n].fill(0);
        self.active.clear();
        self.next_active.clear();
        self.batch_hist.clear();
        self.batch_hist.resize(BATCH_WIDTH, 0); // level-0 row: all zero
        self.batch_len = k;
        for (i, &s) in sources.iter().enumerate() {
            let bit = 1u64 << i;
            debug_assert_eq!(self.seen[s as usize] & bit, 0, "duplicate batch source {s}");
            if self.seen[s as usize] == 0 {
                self.active.push(s);
            }
            self.seen[s as usize] |= bit;
            self.front[s as usize] |= bit;
            self.depth[i] = 0;
            self.far[i] = s;
        }
        let mut frontier_edges: u64 = self.active.iter().map(|&u| g.degree(u) as u64).sum();
        let total_edge_slots = 2 * g.num_edges() as u64;
        let mut explored_edges = frontier_edges;
        let mut bottom_up = false;
        let mut cand_built = false;
        let mut level = 0usize;
        loop {
            level += 1;
            // Mode decision, mirroring the single-source α/β heuristic.
            // "Unexplored" is approximated by the edge slots of nodes not
            // yet complete (`seen != full`) once the candidate list
            // exists; before that, by total − explored.
            let unexplored = total_edge_slots.saturating_sub(explored_edges);
            if !bottom_up && frontier_edges > unexplored / ALPHA {
                bottom_up = true;
            } else if bottom_up && self.active.len() < n / BETA {
                bottom_up = false;
            }
            if bottom_up && !cand_built {
                self.cand.clear();
                for v in 0..n as NodeId {
                    if self.seen[v as usize] != full {
                        self.cand.push(v);
                    }
                }
                cand_built = true;
            }
            self.batch_hist.resize((level + 1) * BATCH_WIDTH, 0);
            if bottom_up {
                // Bottom-up: each incomplete node gathers its neighbors'
                // frontier masks, early-exiting once its remaining mask
                // is covered.
                let mut kept = 0usize;
                for ci in 0..self.cand.len() {
                    let v = self.cand[ci];
                    let rem = full & !self.seen[v as usize];
                    if rem == 0 {
                        continue; // completed earlier; drop from cand
                    }
                    let mut acc = 0u64;
                    for &u in g.neighbors(v) {
                        acc |= self.front[u as usize];
                        if acc & rem == rem {
                            break;
                        }
                    }
                    let new = acc & rem;
                    if new != 0 {
                        self.next[v as usize] = new;
                        self.next_active.push(v);
                    }
                    self.cand[kept] = v;
                    kept += 1;
                }
                self.cand.truncate(kept);
            } else {
                for ai in 0..self.active.len() {
                    let u = self.active[ai];
                    let fu = self.front[u as usize];
                    for &v in g.neighbors(u) {
                        let t = fu & !self.seen[v as usize];
                        if t != 0 {
                            if self.next[v as usize] == 0 {
                                self.next_active.push(v);
                            }
                            self.next[v as usize] |= t;
                        }
                    }
                }
            }
            if self.next_active.is_empty() {
                self.batch_hist.truncate(level * BATCH_WIDTH);
                break;
            }
            // Commit the level: merge arrivals into seen, record
            // per-source counts, update depth/far (min-id rule), and
            // promote next → front.
            for &u in &self.active {
                self.front[u as usize] = 0;
            }
            let row = level * BATCH_WIDTH;
            let mut new_edges = 0u64;
            for &v in &self.next_active {
                let mut new = self.next[v as usize];
                self.next[v as usize] = 0;
                self.front[v as usize] = new;
                self.seen[v as usize] |= new;
                new_edges += g.degree(v) as u64;
                while new != 0 {
                    let i = new.trailing_zeros() as usize;
                    new &= new - 1;
                    self.batch_hist[row + i] += 1;
                    if self.depth[i] < level {
                        self.depth[i] = level;
                        self.far[i] = v;
                    } else if self.far[i] > v {
                        self.far[i] = v;
                    }
                }
            }
            explored_edges += new_edges;
            frontier_edges = new_edges;
            std::mem::swap(&mut self.active, &mut self.next_active);
            self.next_active.clear();
        }
        // Leave front all-zero for the next run.
        for &u in &self.active {
            self.front[u as usize] = 0;
        }
        self.active.clear();
        self.batch_hist.len() / BATCH_WIDTH
    }
}

#[inline]
fn set_bit(bits: &mut [u64], i: NodeId) {
    bits[i as usize >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn get_bit(bits: &[u64], i: NodeId) -> bool {
    bits[i as usize >> 6] & (1u64 << (i & 63)) != 0
}

/// Selects the traversal sources for a kernel: every node in exact mode
/// (`n <= cfg.exact_threshold`), otherwise `cfg.num_pivots` distinct
/// pivots drawn from the RNG stream seeded with `cfg.seed ^ salt` (each
/// kernel keeps its historical salt so committed results are unchanged).
/// Returns the sources and whether exact mode was chosen.
pub fn pivot_sources(n: usize, cfg: &PropsConfig, salt: u64) -> (Vec<NodeId>, bool) {
    if n <= cfg.exact_threshold {
        ((0..n as NodeId).collect(), true)
    } else {
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ salt);
        let k = cfg.num_pivots.min(n);
        (
            sgr_util::sampling::sample_indices(n, k, &mut rng)
                .into_iter()
                .map(|i| i as NodeId)
                .collect(),
            false,
        )
    }
}

/// The shared source-parallel phase driver: splits `sources` into at most
/// `threads` contiguous chunks and runs `f` on each (scoped threads when
/// more than one chunk, inline otherwise). Results come back **in chunk
/// order**, so callers can reduce them deterministically — every kernel's
/// thread-count invariance rests on this ordering plus order-free
/// per-chunk results.
pub fn run_source_chunks<R, F, G>(g: &G, sources: &[NodeId], threads: usize, f: F) -> Vec<R>
where
    G: GraphView + Sync,
    R: Send,
    F: Fn(&G, &[NodeId]) -> R + Sync,
{
    let threads = threads.max(1).min(sources.len().max(1));
    if threads <= 1 || sources.len() < 4 {
        return vec![f(g, sources)];
    }
    let chunks: Vec<&[NodeId]> = sources.chunks(sources.len().div_ceil(threads)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(|| f(g, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("BFS worker panicked"))
            .collect()
    })
}

pub mod reference {
    //! The pre-engine level-synchronous BFS kernel, kept as the oracle
    //! the equivalence suite and `bench_props` measure the engine against
    //! (the same role `rewire::reference` and `construct::reference`
    //! play). Identical semantics to the engine — including the
    //! level-set-determined far-node rule — with the straightforward
    //! queue-and-bitset implementation that shipped with the CSR layer.
    //! No property computation calls it: [`shortest_path_properties`] and
    //! [`distance_profile`] rebuild the two BFS-bound results on this
    //! kernel alone, single-threaded, for comparison with the engine's.

    use crate::dissimilarity::DistanceProfile;
    use crate::paths::{merge_histogram, ShortestPathProperties};
    use crate::PropsConfig;
    use sgr_graph::components::largest_component_csr;
    use sgr_graph::{GraphView, NodeId};

    /// Single-source level-synchronous BFS; returns the distance
    /// histogram (`hist[l]` = number of nodes at distance `l > 0`,
    /// `hist[0] == 0`) and the far node (lowest id in the deepest
    /// level).
    pub fn bfs_histogram<G: GraphView>(
        g: &G,
        source: NodeId,
        visited: &mut [u64],
        queue: &mut Vec<NodeId>,
    ) -> (Vec<u64>, NodeId) {
        for w in visited.iter_mut() {
            *w = 0;
        }
        queue.clear();
        visited[source as usize >> 6] |= 1u64 << (source & 63);
        queue.push(source);
        let mut hist: Vec<u64> = Vec::new();
        let mut start = 0usize;
        let mut last_start = 0usize;
        while start < queue.len() {
            let end = queue.len();
            for i in start..end {
                let u = queue[i];
                for &v in g.neighbors(u) {
                    let word = (v >> 6) as usize;
                    let bit = 1u64 << (v & 63);
                    if visited[word] & bit == 0 {
                        visited[word] |= bit;
                        queue.push(v);
                    }
                }
            }
            if queue.len() > end {
                // Everything pushed during this pass sits one level
                // deeper.
                hist.push((queue.len() - end) as u64);
                last_start = end;
            }
            start = end;
        }
        // Distance-indexed convention: index 0 is the source's own level
        // and always reads 0.
        let mut full = vec![0u64; hist.len() + 1];
        full[1..].copy_from_slice(&hist);
        let far = queue[last_start..]
            .iter()
            .copied()
            .min()
            .expect("queue holds at least the source");
        (full, far)
    }

    /// [`crate::paths::shortest_path_properties`] on this kernel: the
    /// same pivots, one [`bfs_histogram`] per source merged in source
    /// order (the far node of the first source reaching the largest
    /// depth wins), and in sampled mode the same ≤4-pass double sweep
    /// from that far node.
    pub fn shortest_path_properties<G: GraphView>(
        g: &G,
        cfg: &PropsConfig,
    ) -> ShortestPathProperties {
        let n = g.num_nodes();
        if n < 2 {
            return ShortestPathProperties::from_histogram(Vec::new(), 0);
        }
        let (sources, exact) = super::pivot_sources(n, cfg, 0);
        let mut visited = vec![0u64; n.div_ceil(64)];
        let mut queue = Vec::with_capacity(n);
        let mut hist = Vec::new();
        let mut far = sources.first().copied().unwrap_or(0);
        for &s in &sources {
            let (h, f) = bfs_histogram(g, s, &mut visited, &mut queue);
            merge_histogram(&mut hist, &mut far, &h, f);
        }
        let mut diameter = hist.len().saturating_sub(1);
        if !exact {
            let mut frontier = far;
            for _ in 0..4 {
                let (h, next) = bfs_histogram(g, frontier, &mut visited, &mut queue);
                diameter = diameter.max(h.len() - 1);
                if next == frontier {
                    break;
                }
                frontier = next;
            }
        }
        ShortestPathProperties::from_histogram(hist, diameter)
    }

    /// [`crate::dissimilarity::distance_profile`] on this kernel: the
    /// same component and pivots, one [`bfs_histogram`] per source.
    pub fn distance_profile<G: GraphView>(g: &G, cfg: &PropsConfig) -> DistanceProfile {
        let (lcc, _) = largest_component_csr(g);
        let n = lcc.num_nodes();
        if n < 2 {
            return DistanceProfile {
                mu: vec![0.0],
                nnd: 0.0,
            };
        }
        let (sources, _) = super::pivot_sources(n, cfg, 0xd155);
        let norm = (n - 1) as f64;
        let mut visited = vec![0u64; n.div_ceil(64)];
        let mut queue = Vec::with_capacity(n);
        let dists = sources
            .iter()
            .map(|&s| {
                let (h, _) = bfs_histogram(&lcc, s, &mut visited, &mut queue);
                h.iter().map(|&c| c as f64 / norm).collect()
            })
            .collect();
        DistanceProfile::from_distributions(dists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{barbell, complete, cycle, path, star};
    use sgr_graph::{CsrGraph, Graph};

    fn reference_run<G: GraphView>(g: &G, s: NodeId) -> (Vec<u64>, NodeId) {
        let n = g.num_nodes();
        let mut visited = vec![0u64; n.div_ceil(64)];
        let mut queue = Vec::new();
        reference::bfs_histogram(g, s, &mut visited, &mut queue)
    }

    fn assert_engine_matches_reference<G: GraphView>(g: &G) {
        let mut scratch = BfsScratch::new();
        for s in g.nodes() {
            let (want_hist, want_far) = reference_run(g, s);
            let run = scratch.single_source(g, s);
            assert_eq!(scratch.levels(), want_hist.as_slice(), "hist @ source {s}");
            assert_eq!(run.far, want_far, "far @ source {s}");
            assert_eq!(run.depth, want_hist.len() - 1);
        }
        // Batched: all sources in ≤64-wide batches.
        let sources: Vec<NodeId> = g.nodes().collect();
        for chunk in sources.chunks(BATCH_WIDTH) {
            let levels = scratch.batch(g, chunk);
            for (i, &s) in chunk.iter().enumerate() {
                let (want_hist, want_far) = reference_run(g, s);
                assert_eq!(scratch.batch_depth(i), want_hist.len() - 1, "depth of {s}");
                assert_eq!(scratch.batch_far(i), want_far, "far of {s}");
                for l in 0..levels {
                    let want = want_hist.get(l).copied().unwrap_or(0);
                    assert_eq!(scratch.batch_count(l, i), want, "count({l}) of {s}");
                }
            }
        }
    }

    #[test]
    fn classic_graphs_match_reference() {
        assert_engine_matches_reference(&path(17));
        assert_engine_matches_reference(&cycle(12));
        assert_engine_matches_reference(&complete(9));
        assert_engine_matches_reference(&star(7));
        assert_engine_matches_reference(&barbell(6));
    }

    #[test]
    fn disconnected_and_messy_graphs_match_reference() {
        // Two components, multi-edges, self-loops, isolated nodes.
        let mut g = Graph::from_edges(9, &[(0, 1), (0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]);
        g.add_edge(2, 2);
        assert_engine_matches_reference(&g);
        assert_engine_matches_reference(&CsrGraph::freeze(&g));
        assert_engine_matches_reference(&CsrGraph::freeze_sorted(&g));
    }

    #[test]
    fn random_graph_matches_reference_on_all_backends() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let g = sgr_gen::holme_kim(900, 3, 0.4, &mut rng).unwrap();
        assert_engine_matches_reference(&g);
        assert_engine_matches_reference(&CsrGraph::freeze_sorted(&g));
    }

    #[test]
    fn forced_bottom_up_still_matches() {
        // A dense graph drives the α switch immediately.
        let g = complete(130);
        assert_engine_matches_reference(&g);
    }

    #[test]
    fn far_node_is_min_of_deepest_level() {
        // Star from the center: every leaf is at level 1; lowest id wins.
        let g = star(5);
        let mut scratch = BfsScratch::new();
        let run = scratch.single_source(&g, 0);
        assert_eq!(run.depth, 1);
        assert_eq!(run.far, 1);
        // Isolated source: far is the source itself.
        let g = Graph::with_nodes(3);
        let run = scratch.single_source(&g, 2);
        assert_eq!(run.depth, 0);
        assert_eq!(run.far, 2);
        assert_eq!(scratch.levels(), &[0]);
    }

    #[test]
    fn batch_width_limits_enforced() {
        let g = path(4);
        let mut scratch = BfsScratch::new();
        let levels = scratch.batch(&g, &[0, 3]);
        assert_eq!(levels, 4); // distances 0..=3 from node 0
        assert_eq!(scratch.batch_depth(0), 3);
        assert_eq!(scratch.batch_depth(1), 3);
        assert_eq!(scratch.batch_far(0), 3);
        assert_eq!(scratch.batch_far(1), 0);
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn oversized_batch_panics() {
        let g = path(100);
        let sources: Vec<NodeId> = (0..65).collect();
        BfsScratch::new().batch(&g, &sources);
    }

    #[test]
    fn pivot_sources_exact_and_sampled() {
        let cfg = PropsConfig::default();
        let (s, exact) = pivot_sources(10, &cfg, 0);
        assert!(exact);
        assert_eq!(s.len(), 10);
        let cfg = PropsConfig {
            exact_threshold: 0,
            num_pivots: 4,
            ..cfg
        };
        let (s, exact) = pivot_sources(100, &cfg, 0xb7);
        assert!(!exact);
        assert_eq!(s.len(), 4);
        // Distinct pivots.
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 4);
    }
}
