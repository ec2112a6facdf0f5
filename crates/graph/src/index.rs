//! Adjacency-multiplicity index over one flat arena.
//!
//! Triangle counting and the rewiring engine need many `A_uv` queries
//! and common-neighbor scans. Scanning raw neighbor lists
//! makes each query O(deg); this index spends one pass of preprocessing
//! and O(m) memory on per-node sorted `(neighbor, A_uv)` lists, and
//! supports incremental updates. The rewiring engine keeps its multigraph
//! here alone and builds the result with [`crate::Graph::from_index`].
//!
//! # Storage model
//!
//! Three flat arrays hold the whole index:
//!
//! * `starts` — `n + 1` offsets; node `u` owns the extent
//!   `starts[u] .. starts[u + 1]` of `slots`, sized to `deg(u)` at build;
//! * `lens` — the live distinct-neighbor count of each node: the first
//!   `lens[u]` slots of `u`'s extent are in use;
//! * `slots` — `(neighbor, A_uv)` pairs, each extent's live prefix kept
//!   **strictly ascending** by neighbor.
//!
//! Every node, leaf or hub, uses the same layout: lookups binary-search
//! the live prefix, and updates binary-search and shift within the extent
//! (`copy_within`). No node owns a heap object, and nothing branches on
//! node size; a built index never allocates again.
//!
//! One query hashes: [`MultiplicityIndex::gather_shared`] marks the keys
//! of two prefixes in a caller-owned [`GatherTable`] and probes it with
//! the keys of the other two, collecting every probe key that hits a
//! mark. That gathers every node the two unions share, plus the odd hash
//! collision, in one read of the four prefixes; an empty gather is exact
//! proof that the unions are disjoint. The rewiring engine evaluates a
//! swap from the gathered keys alone and skips the majority of swaps,
//! whose endpoint unions share no node. Each query marks with a fresh
//! one-byte epoch, so the table is reused without a clearing pass and
//! without allocating.
//!
//! # Degree-preservation invariant
//!
//! Extents never grow or move. That is sound because a node's
//! distinct-neighbor count is at most its degree, and no user of the index
//! lets a node's degree exceed its value at build time: read-only
//! consumers never mutate, and rewiring swaps — in the evaluate-then-commit
//! engines and the apply-rollback reference alike, on commit and on
//! rollback — remove both old edges before adding the two new ones. So at
//! every step `lens[u] ≤ deg(u) ≤` the extent size. An
//! [`add_edge`](MultiplicityIndex::add_edge) into a full extent means a
//! caller broke this invariant, and panics.

use crate::view::GraphView;
use crate::NodeId;
use sgr_util::prefetch::prefetch_read;

/// Cache lines of an extent that
/// [`MultiplicityIndex::prefetch_extent`] hints: a mean-degree extent
/// fits in one or two, and past its head a long extent is read as a
/// stream the hardware prefetcher already follows.
const PREFETCH_LINES: usize = 4;

/// Index from `(u, v)` to the adjacency-matrix entry `A_uv`
/// (multiplicity; `A_uu` = 2 × loop count). See the module docs for the
/// storage model.
#[derive(Clone, Debug)]
pub struct MultiplicityIndex {
    /// Extent offsets into `slots` (`n + 1` entries).
    starts: Vec<u32>,
    /// Live distinct-neighbor count per node.
    lens: Vec<u32>,
    /// `(neighbor, A_uv)` pairs; each extent's live prefix ascending.
    slots: Vec<(NodeId, u32)>,
    /// Total structural mutations (`add_edge` + `remove_edge` calls),
    /// maintained only in debug builds. The rewiring engine asserts this
    /// is unchanged across rejected swap attempts.
    #[cfg(debug_assertions)]
    mutations: u64,
}

impl MultiplicityIndex {
    /// Builds the index from any read-only view in O(n + m log k̄): each
    /// node's neighbor list is sorted in one reused scratch buffer and
    /// run-length encoded into its extent.
    ///
    /// # Panics
    /// Panics if the view holds more than `u32::MAX` neighbor entries.
    pub fn build<G: GraphView + ?Sized>(g: &G) -> Self {
        let n = g.num_nodes();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0u32);
        let mut total = 0usize;
        for u in g.nodes() {
            total += g.neighbors(u).len();
            starts.push(u32::try_from(total).expect("index too large for u32 extent offsets"));
        }
        let mut slots = vec![(0, 0); total];
        let mut lens = Vec::with_capacity(n);
        let mut scratch: Vec<NodeId> = Vec::new();
        for u in g.nodes() {
            scratch.clear();
            scratch.extend_from_slice(g.neighbors(u));
            scratch.sort_unstable();
            let extent = &mut slots[starts[u as usize] as usize..starts[u as usize + 1] as usize];
            let mut len = 0usize;
            for &v in &scratch {
                if len > 0 && extent[len - 1].0 == v {
                    extent[len - 1].1 += 1;
                } else {
                    extent[len] = (v, 1);
                    len += 1;
                }
            }
            lens.push(len as u32);
        }
        Self {
            starts,
            lens,
            slots,
            #[cfg(debug_assertions)]
            mutations: 0,
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.lens.len()
    }

    /// Total size of the extents: the neighbor entries of the view the
    /// index was built from.
    pub(crate) fn extent_total(&self) -> usize {
        self.slots.len()
    }

    /// Start of `u`'s extent in `slots`, and its live length.
    #[inline]
    fn span(&self, u: NodeId) -> (usize, usize) {
        (
            self.starts[u as usize] as usize,
            self.lens[u as usize] as usize,
        )
    }

    /// The live, strictly ascending `(neighbor, A_uv)` slice of `u`.
    #[inline]
    fn list(&self, u: NodeId) -> &[(NodeId, u32)] {
        let (s, len) = self.span(u);
        &self.slots[s..s + len]
    }

    /// Number of distinct neighbors of `u` (counting `u` itself if it has
    /// a loop).
    #[inline]
    pub fn num_distinct(&self, u: NodeId) -> usize {
        self.lens[u as usize] as usize
    }

    /// `A_uv` (0 when absent).
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> u32 {
        let list = self.list(u);
        match list.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => list[i].1,
            Err(_) => 0,
        }
    }

    /// Whether any edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.get(u, v) > 0
    }

    /// Iterates `(neighbor, A_uv)` pairs of `u` (each neighbor once), in
    /// ascending neighbor order.
    #[inline]
    pub fn entries(&self, u: NodeId) -> std::iter::Copied<std::slice::Iter<'_, (NodeId, u32)>> {
        self.list(u).iter().copied()
    }

    /// Collects into `out` (cleared first) every key of the longer of
    /// `N(a) ∪ N(a2)` and `N(b) ∪ N(b2)` whose hash the shorter one marks
    /// in `table`: every node the two unions share, and the odd hash
    /// collision, unsorted and possibly twice (a key in both probed
    /// lists). An empty `out` is exact: the unions are disjoint. Aliased
    /// nodes (`a == a2`, `a == b`, …) are fine.
    ///
    /// The marks carry the table's fresh epoch, so nothing clears them:
    /// a slot marked by an earlier query holds another epoch and reads
    /// as unmarked. `out` never holds more than the probed union's two
    /// live extents, at most twice the largest distinct-neighbour count,
    /// so a buffer reserved to that never reallocates.
    pub fn gather_shared(
        &self,
        a: NodeId,
        a2: NodeId,
        b: NodeId,
        b2: NodeId,
        table: &mut GatherTable,
        out: &mut Vec<NodeId>,
    ) {
        let epoch = table.next_epoch();
        let slots = &mut table.slots[..];
        let shift = 32 - slots.len().trailing_zeros();
        // Fibonacci hashing: the top bits of `w · 2^32/φ`. The mask
        // changes no index; it lets the compiler drop the bounds check
        // from both loops below.
        let mask = slots.len() - 1;
        let at = |w: NodeId| ((w.wrapping_mul(0x9E37_79B1) as u64) >> shift) as usize & mask;
        let (mut marked, mut probed) =
            ([self.list(a), self.list(a2)], [self.list(b), self.list(b2)]);
        // Sharing is symmetric; marking the shorter side keeps the table
        // sparse.
        if marked[0].len() + marked[1].len() > probed[0].len() + probed[1].len() {
            std::mem::swap(&mut marked, &mut probed);
        }
        for list in marked {
            for &(w, _) in list {
                slots[at(w)] = epoch;
            }
        }
        out.clear();
        for list in probed {
            for &(w, _) in list {
                if slots[at(w)] == epoch {
                    out.push(w);
                }
            }
        }
    }

    /// Hints that `u`'s extent header (`starts[u]`, `lens[u]`) will be
    /// read soon. Changes nothing; see [`sgr_util::prefetch`].
    #[inline]
    pub fn prefetch_header(&self, u: NodeId) {
        prefetch_read(&self.starts[u as usize]);
        prefetch_read(&self.lens[u as usize]);
    }

    /// Hints that the first four cache lines of `u`'s live extent will be
    /// read soon. Reads the header, so it pays off once
    /// [`prefetch_header`](Self::prefetch_header) has brought that in.
    #[inline]
    pub fn prefetch_extent(&self, u: NodeId) {
        const PER_LINE: usize = 64 / std::mem::size_of::<(NodeId, u32)>();
        let (s, len) = self.span(u);
        let last = len.saturating_sub(1);
        for line in 0..PREFETCH_LINES {
            // Clamped rather than cut short, so the loop takes no
            // length-dependent branch: a short extent re-hints its last
            // entry.
            if let Some(entry) = self.slots.get(s + (line * PER_LINE).min(last)) {
                prefetch_read(entry);
            }
        }
    }

    /// Structural mutation count (debug builds only; always 0 in release).
    /// Used by the rewiring engine to assert rejected attempts touch
    /// nothing.
    #[inline]
    pub fn mutation_count(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            self.mutations
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    #[inline]
    fn note_mutation(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.mutations += 1;
        }
    }

    /// Registers the addition of edge `{u, v}` (loop adds 2 to `A_uu`).
    ///
    /// # Panics
    /// Panics if `u` or `v` gains a distinct neighbor while its extent is
    /// full — only possible when its degree exceeds its build-time value
    /// (see the module docs' degree-preservation invariant).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.note_mutation();
        if u == v {
            self.bump(u, u, 2);
        } else {
            self.bump(u, v, 1);
            self.bump(v, u, 1);
        }
    }

    /// Adds `by` to `A_uv` in `u`'s extent, inserting the entry in order
    /// when absent.
    #[inline]
    fn bump(&mut self, u: NodeId, v: NodeId, by: u32) {
        let (s, len) = self.span(u);
        match self.slots[s..s + len].binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.slots[s + i].1 += by,
            Err(i) => {
                let cap = self.starts[u as usize + 1] as usize - s;
                assert!(
                    len < cap,
                    "node {u} gained a distinct neighbor beyond its {cap}-slot index extent: \
                     its degree grew past its value when the index was built"
                );
                self.slots.copy_within(s + i..s + len, s + i + 1);
                self.slots[s + i] = (v, by);
                self.lens[u as usize] += 1;
            }
        }
    }

    /// Registers the removal of one copy of edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.note_mutation();
        if u == v {
            self.drop_by(u, u, 2);
        } else {
            self.drop_by(u, v, 1);
            self.drop_by(v, u, 1);
        }
    }

    /// Subtracts `by` from `A_uv` in `u`'s extent, deleting the entry at
    /// zero; debug-asserts the entry holds at least `by`.
    #[inline]
    fn drop_by(&mut self, u: NodeId, v: NodeId, by: u32) {
        let (s, len) = self.span(u);
        let i = self.slots[s..s + len]
            .binary_search_by_key(&v, |&(w, _)| w)
            .unwrap_or_else(|_| panic!("removing a non-existent edge from the index"));
        let entry = &mut self.slots[s + i].1;
        debug_assert!(*entry >= by);
        *entry -= by;
        if *entry == 0 {
            self.slots.copy_within(s + i + 1..s + len, s + i);
            self.lens[u as usize] -= 1;
        }
    }

    /// Consistency check against a graph; returns the first mismatch.
    pub fn validate_against<G: GraphView + ?Sized>(&self, g: &G) -> Result<(), String> {
        if self.num_nodes() != g.num_nodes() {
            return Err(format!(
                "index covers {} nodes, graph has {}",
                self.num_nodes(),
                g.num_nodes()
            ));
        }
        // A fresh build is the canonical form: strictly ascending,
        // run-length-encoded neighbor lists.
        let fresh = Self::build(g);
        for u in g.nodes() {
            let (have, want) = (self.list(u), fresh.list(u));
            if have != want {
                let i = have.iter().zip(want).take_while(|(a, b)| a == b).count();
                return Err(format!(
                    "node {u}: entry {i} is {:?} in the index but {:?} in the graph",
                    have.get(i),
                    want.get(i)
                ));
            }
        }
        Ok(())
    }
}

/// The byte table [`MultiplicityIndex::gather_shared`] marks: a
/// power-of-two number of slots, and the epoch of the last query.
///
/// A query marks with the next epoch, one byte no slot holds, so the
/// marks of earlier queries never read as its own. After 255 queries the
/// epochs run out, and the next query zeroes the table and starts again
/// at 1: one fill of the table per 255 queries replaces a clearing
/// pass per query.
#[derive(Clone, Debug)]
pub struct GatherTable {
    slots: Box<[u8]>,
    epoch: u8,
}

impl GatherTable {
    /// An all-zero table of `len` slots.
    ///
    /// # Panics
    /// Panics unless `len` is a power of two.
    pub fn new(len: usize) -> Self {
        assert!(len.is_power_of_two(), "gather table of {len} slots");
        Self {
            slots: vec![0; len].into_boxed_slice(),
            epoch: 0,
        }
    }

    /// The next query's epoch, zeroing the table when the byte wraps.
    #[inline]
    fn next_epoch(&mut self) -> u8 {
        if self.epoch == u8::MAX {
            self.slots.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn build_matches_graph() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 1)]);
        g.add_edge(3, 3);
        let idx = MultiplicityIndex::build(&g);
        assert_eq!(idx.get(0, 1), 2);
        assert_eq!(idx.get(1, 0), 2);
        assert_eq!(idx.get(1, 2), 1);
        assert_eq!(idx.get(3, 3), 2);
        assert_eq!(idx.get(0, 3), 0);
        assert!(idx.has_edge(2, 0));
        assert!(!idx.has_edge(1, 3));
        idx.validate_against(&g).unwrap();
    }

    #[test]
    fn incremental_updates_stay_consistent() {
        // Removes before adds, as rewiring does: degrees never exceed
        // their build-time values.
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 3)]);
        let mut idx = MultiplicityIndex::build(&g);
        g.remove_edge(0, 1);
        idx.remove_edge(0, 1);
        g.remove_edge(3, 3);
        idx.remove_edge(3, 3);
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.get(0, 1), 0);
        assert_eq!(idx.get(3, 3), 0);
        g.add_edge(0, 3);
        idx.add_edge(0, 3);
        g.add_edge(1, 3);
        idx.add_edge(1, 3);
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.get(3, 0), 1);
        assert_eq!(idx.entries(3).collect::<Vec<_>>(), [(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn entries_iterate_each_neighbor_once() {
        let g = Graph::from_edges(4, &[(0, 3), (0, 1), (0, 3), (0, 2), (0, 1)]);
        let idx = MultiplicityIndex::build(&g);
        assert_eq!(idx.entries(0).collect::<Vec<_>>(), [(1, 2), (2, 1), (3, 2)]);
        assert_eq!(idx.entries(0).len(), idx.num_distinct(0));
    }

    #[test]
    #[should_panic(expected = "non-existent edge")]
    fn removing_absent_edge_panics() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut idx = MultiplicityIndex::build(&g);
        idx.remove_edge(0, 1);
        idx.remove_edge(0, 1); // second removal must panic
    }

    #[test]
    #[should_panic(expected = "beyond its 1-slot index extent")]
    fn adding_into_a_full_extent_panics() {
        // Node 0 has degree 1 at build; a second distinct neighbor
        // cannot fit.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut idx = MultiplicityIndex::build(&g);
        idx.add_edge(0, 2);
    }

    #[test]
    fn extra_copies_of_a_present_neighbor_need_no_slot() {
        // A_01 grows in place: no new distinct neighbor, no overflow.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut idx = MultiplicityIndex::build(&g);
        idx.add_edge(0, 1);
        assert_eq!(idx.get(0, 1), 2);
        assert_eq!(idx.num_distinct(0), 1);
    }

    #[test]
    fn validate_detects_mismatch() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let other = Graph::from_edges(3, &[(0, 2)]);
        let idx = MultiplicityIndex::build(&other);
        let err = idx.validate_against(&g).unwrap_err();
        assert!(err.contains("node 0"), "{err}");
        assert!(idx.validate_against(&Graph::with_nodes(2)).is_err());
    }

    /// A star whose hub has `n` distinct leaves `1..=n`.
    fn star(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (1..=n as NodeId).map(|v| (0, v)).collect();
        Graph::from_edges(n + 1, &edges)
    }

    #[test]
    fn hub_nodes_share_the_layout_and_stay_consistent() {
        let n = 300;
        let mut g = star(n);
        let mut idx = MultiplicityIndex::build(&g);
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.num_distinct(0), n);
        assert!(idx.entries(0).map(|(w, _)| w).eq(1..=n as NodeId));
        for v in 1..=n as NodeId {
            assert_eq!(idx.get(0, v), 1);
            assert_eq!(idx.get(v, 0), 1);
        }
        // Hub churn: drop every odd leaf, then double the edges to the
        // even ones (existing neighbors: their counts grow in place).
        for v in (1..=n as NodeId).step_by(2) {
            g.remove_edge(0, v);
            idx.remove_edge(0, v);
        }
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.num_distinct(0), n / 2);
        for v in (2..=n as NodeId).step_by(2) {
            g.add_edge(0, v);
            idx.add_edge(0, v);
        }
        idx.validate_against(&g).unwrap();
        assert_eq!(idx.get(0, 2), 2);
        assert_eq!(idx.get(0, 1), 0);
    }

    /// Union-intersection reference: probe every node of the graph.
    fn naive_unions(idx: &MultiplicityIndex, q: [NodeId; 4]) -> Vec<(NodeId, [u32; 4])> {
        (0..idx.num_nodes() as NodeId)
            .filter_map(|w| {
                let v = q.map(|x| idx.get(x, w));
                (v[0] + v[1] > 0 && v[2] + v[3] > 0).then_some((w, v))
            })
            .collect()
    }

    /// What the rewiring engine reads from a gather: its keys sorted and
    /// deduplicated, each with its four multiplicities, kept only where
    /// both unions hold it (a collision's key misses one side).
    fn gathered_unions(
        idx: &MultiplicityIndex,
        q: [NodeId; 4],
        table: &mut GatherTable,
    ) -> (Vec<NodeId>, Vec<(NodeId, [u32; 4])>) {
        let mut keys = Vec::new();
        idx.gather_shared(q[0], q[1], q[2], q[3], table, &mut keys);
        let raw = keys.clone();
        keys.sort_unstable();
        keys.dedup();
        let common = keys
            .into_iter()
            .map(|w| (w, q.map(|x| idx.get(x, w))))
            .filter(|(_, v)| v[0] + v[1] > 0 && v[2] + v[3] > 0)
            .collect();
        (raw, common)
    }

    /// Two hubs against leaves, multi-edges, self-loops, and a separate
    /// path 151..=155 with a loop at its end, whose unions with the rest
    /// are disjoint.
    fn quadruple_graph() -> (MultiplicityIndex, [NodeId; 12]) {
        let n = 150;
        let mut edges: Vec<(NodeId, NodeId)> = (2..=n as NodeId).map(|v| (0, v)).collect();
        edges.extend((2..n as NodeId).step_by(3).map(|v| (1, v)));
        edges.extend([
            (0, 1),
            (2, 3),
            (2, 3),
            (3, 4),
            (2, 4),
            (3, 3),
            (0, 0),
            (5, 97),
            (5, 149),
            (6, 97),
            (4, 149),
            (151, 152),
            (152, 153),
            (153, 154),
            (154, 155),
            (155, 155),
        ]);
        let g = Graph::from_edges(n + 6, &edges);
        let nodes = [0, 1, 2, 3, 4, 5, 6, 97, 150, 151, 153, 155];
        (MultiplicityIndex::build(&g), nodes)
    }

    #[test]
    fn gather_matches_naive_on_all_quadruples() {
        // Every aliasing of the four nodes (a == a2, a == b, all equal),
        // with a full-size table and with a two-byte one, where disjoint
        // unions collide: each gather must hold the naive common set, so
        // it is empty only when that set is, and every key it holds must
        // come from one of the unions.
        let (idx, nodes) = quadruple_graph();
        let mut tables = [GatherTable::new(1 << 14), GatherTable::new(2)];
        // Per table: empty gathers, and nonempty gathers of disjoint
        // unions (collisions).
        let mut outcomes = [[0usize; 2]; 2];
        for a in nodes {
            for a2 in nodes {
                for b in nodes {
                    for b2 in nodes {
                        let q = [a, a2, b, b2];
                        let want = naive_unions(&idx, q);
                        for (t, table) in tables.iter_mut().enumerate() {
                            let (raw, got) = gathered_unions(&idx, q, table);
                            assert_eq!(got, want, "table {t}: {q:?}");
                            assert!(!raw.is_empty() || want.is_empty(), "table {t}: {q:?}");
                            for &w in &raw {
                                assert!(q.iter().any(|&x| idx.has_edge(x, w)), "{q:?}: {w}");
                            }
                            outcomes[t][0] += raw.is_empty() as usize;
                            outcomes[t][1] += (!raw.is_empty() && want.is_empty()) as usize;
                        }
                    }
                }
            }
        }
        assert!(outcomes[0][0] > 0 && outcomes[1][1] > 0, "{outcomes:?}");
    }

    #[test]
    fn gather_after_the_epoch_wraps_matches_a_fresh_table() {
        // 600 consecutive queries on one table cross the 255-query epoch
        // wrap twice; every answer, order included, must be the one an
        // all-zero table gives. Queries 0 and 300 mark N(5) = {97, 149}
        // and probe the hub 0, which holds both; the others mark the
        // path nodes' neighbours only and probe the hub too. So the marks
        // of 97 and 149 outlive 254 queries, and a wrap that kept them
        // would gather them again 255 queries later, under the same
        // epoch.
        let (idx, _) = quadruple_graph();
        for len in [1 << 14, 64, 2] {
            let mut reused = GatherTable::new(len);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for i in 0..600usize {
                let x = if i % 300 == 0 {
                    5
                } else {
                    [151, 153, 155][i % 3]
                };
                idx.gather_shared(x, x, 0, 0, &mut reused, &mut got);
                let mut fresh = GatherTable::new(len);
                idx.gather_shared(x, x, 0, 0, &mut fresh, &mut want);
                assert_eq!(got, want, "{len}-slot table, query {i}: {x}");
            }
        }
    }

    #[test]
    fn mutation_counter_tracks_updates_in_debug() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut idx = MultiplicityIndex::build(&g);
        let before = idx.mutation_count();
        idx.remove_edge(0, 2);
        idx.add_edge(0, 2);
        if cfg!(debug_assertions) {
            assert_eq!(idx.mutation_count(), before + 2);
        }
    }
}
