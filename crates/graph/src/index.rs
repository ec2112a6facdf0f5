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
//! the live prefix, updates binary-search and shift within the extent
//! (`copy_within`), and [`MultiplicityIndex::for_each_common_of_unions`]
//! merges four ascending prefixes with a galloping catch-up
//! ([`merge_unions`]; passing each node twice, `(x, x, y, y)`, gives the
//! common neighbours of `x` and `y`). No node owns a heap object, and
//! nothing branches on node size; a built index never allocates again.
//!
//! One query hashes: [`MultiplicityIndex::may_share_neighbor`] marks the
//! keys of two prefixes in a caller-owned byte table and probes it with
//! the keys of the other two, a filter whose "disjoint" answer is exact.
//! It lets the rewiring engine skip the merge for the majority of swaps,
//! whose endpoint unions share no node; the table is cleared by
//! replaying the marks, so it is reused without allocating.
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

    /// Calls `f(w, A_aw, A_a2w, A_bw, A_b2w)` once for every `w` in
    /// `(N(a) ∪ N(a2)) ∩ (N(b) ∪ N(b2))`, in ascending order of `w`; an
    /// absent entry reads 0. Aliased nodes (`a == a2`, `a == b`, …) are
    /// fine.
    ///
    /// This is the hot kernel of the rewiring engine's swap evaluation:
    /// one [`merge_unions`] pass serves all four toggles of a swap, so
    /// each endpoint's extent is read once per attempt.
    #[inline]
    pub fn for_each_common_of_unions<F: FnMut(NodeId, u32, u32, u32, u32)>(
        &self,
        a: NodeId,
        a2: NodeId,
        b: NodeId,
        b2: NodeId,
        f: F,
    ) {
        merge_unions(self.list(a), self.list(a2), self.list(b), self.list(b2), f)
    }

    /// Whether `N(a) ∪ N(a2)` and `N(b) ∪ N(b2)` may share a node: the
    /// cheap filter in front of
    /// [`for_each_common_of_unions`](Self::for_each_common_of_unions).
    ///
    /// Marks the hash of every key of the shorter union in `table`, ORs
    /// the marks at the hashes of the longer union's keys, then clears the
    /// marked bytes by replaying the marks, so `table` — a power-of-two
    /// length, all zero — is all zero again on return. `false` is exact:
    /// the unions are disjoint. `true` may be a hash collision, which only
    /// costs the caller the merge it would have run anyway.
    pub fn may_share_neighbor(
        &self,
        a: NodeId,
        a2: NodeId,
        b: NodeId,
        b2: NodeId,
        table: &mut [u8],
    ) -> bool {
        debug_assert!(table.len().is_power_of_two());
        let shift = 32 - table.len().trailing_zeros();
        // Fibonacci hashing: the top bits of `w · 2^32/φ`. The mask
        // changes no index; it lets the compiler drop the bounds check
        // from every loop below.
        let mask = table.len() - 1;
        let at = |w: NodeId| ((w.wrapping_mul(0x9E37_79B1) as u64) >> shift) as usize & mask;
        let (mut marked, mut probed) =
            ([self.list(a), self.list(a2)], [self.list(b), self.list(b2)]);
        // Disjointness is symmetric, and marking reads a list twice.
        if marked[0].len() + marked[1].len() > probed[0].len() + probed[1].len() {
            std::mem::swap(&mut marked, &mut probed);
        }
        for list in marked {
            for &(w, _) in list {
                table[at(w)] = 1;
            }
        }
        let mut hit = 0u8;
        for list in probed {
            for &(w, _) in list {
                hit |= table[at(w)];
            }
        }
        for list in marked {
            for &(w, _) in list {
                table[at(w)] = 0;
            }
        }
        hit != 0
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

/// Key at `list[i]`, or [`NodeId::MAX`] once the cursor is past the end.
#[inline]
fn key_at(list: &[(NodeId, u32)], i: usize) -> NodeId {
    list.get(i).map_or(NodeId::MAX, |&(w, _)| w)
}

/// Value at `list[i]` if its key is `w` (stepping the cursor past it),
/// else 0.
#[inline]
fn take(list: &[(NodeId, u32)], i: &mut usize, w: NodeId) -> u32 {
    match list.get(*i) {
        Some(&(k, v)) if k == w => {
            *i += 1;
            v
        }
        _ => 0,
    }
}

/// Union-by-union sorted intersection: calls `f(w, a_w, a2_w, b_w, b2_w)`
/// for every key `w` present in `a` or `a2` **and** in `b` or `b2` (all
/// four ascending `(key, value)` slices), in ascending key order, with 0
/// for a slice that lacks `w`. Keys must be below [`NodeId::MAX`], which
/// marks an exhausted cursor.
///
/// Each side's front is the smaller of its two cursors' keys. Equal
/// fronts are a hit; otherwise both cursors of the trailing side catch
/// up to the other front through `advance4`: four independent compares
/// per quad (a form the autovectorizer can lift to SIMD), then a
/// galloping search once a whole quad falls below the bound, so a hub
/// pair against a leaf pair costs a logarithmic skip per leaf key
/// instead of a linear walk.
pub fn merge_unions<F: FnMut(NodeId, u32, u32, u32, u32)>(
    a: &[(NodeId, u32)],
    a2: &[(NodeId, u32)],
    b: &[(NodeId, u32)],
    b2: &[(NodeId, u32)],
    mut f: F,
) {
    let (mut i, mut i2, mut j, mut j2) = (0usize, 0usize, 0usize, 0usize);
    loop {
        let left = key_at(a, i).min(key_at(a2, i2));
        let right = key_at(b, j).min(key_at(b2, j2));
        if left.max(right) == NodeId::MAX {
            return; // one side is exhausted
        }
        if left == right {
            let (va, va2) = (take(a, &mut i, left), take(a2, &mut i2, left));
            let (vb, vb2) = (take(b, &mut j, left), take(b2, &mut j2, left));
            f(left, va, va2, vb, vb2);
        } else if left < right {
            i = advance4(a, i, right);
            i2 = advance4(a2, i2, right);
        } else {
            j = advance4(b, j, left);
            j2 = advance4(b2, j2, left);
        }
    }
}

/// Advances `i` past every key of `list` strictly below `bound`.
///
/// One branchless quad first — the bound usually sits within a few
/// slots. If the whole quad is below it, gallop: double the stride while
/// the probed key stays below the bound, then `partition_point` the last
/// window.
#[inline]
fn advance4(list: &[(NodeId, u32)], mut i: usize, bound: NodeId) -> usize {
    if i + 4 <= list.len() {
        let adv = (list[i].0 < bound) as usize
            + (list[i + 1].0 < bound) as usize
            + (list[i + 2].0 < bound) as usize
            + (list[i + 3].0 < bound) as usize;
        i += adv;
        if adv < 4 {
            return i;
        }
        // Invariant: every key in `list[..i]` is below `bound`.
        let mut step = 4usize;
        while i + step <= list.len() && list[i + step - 1].0 < bound {
            i += step;
            step *= 2;
        }
        let hi = (i + step).min(list.len());
        return i + list[i..hi].partition_point(|&(w, _)| w < bound);
    }
    while i < list.len() && list[i].0 < bound {
        i += 1;
    }
    i
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

    fn collected_unions(idx: &MultiplicityIndex, q: [NodeId; 4]) -> Vec<(NodeId, [u32; 4])> {
        let mut out = Vec::new();
        idx.for_each_common_of_unions(q[0], q[1], q[2], q[3], |w, a, a2, b, b2| {
            out.push((w, [a, a2, b, b2]))
        });
        out
    }

    #[test]
    fn merge_unions_matches_naive_on_all_quadruples() {
        // Two hubs against leaves, multi-edges, self-loops, and every
        // aliasing of the four nodes (a == a2, a == b, all equal); a
        // separate path 151..=155 with a loop at its end gives unions
        // that are disjoint. `may_share_neighbor` runs on every
        // quadruple with a full-size table and with a two-byte one, where
        // disjoint unions collide: its "disjoint" must always be right,
        // and it must leave the table zeroed.
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
        let idx = MultiplicityIndex::build(&g);
        let nodes = [0, 1, 2, 3, 4, 5, 6, 97, 150, 151, 153, 155];
        let (mut full, mut tiny) = (vec![0u8; 1 << 14], [0u8; 2]);
        // Per table: "disjoint" answers, and "may share" on disjoint
        // unions (collisions).
        let mut outcomes = [[0usize; 2]; 2];
        for a in nodes {
            for a2 in nodes {
                for b in nodes {
                    for b2 in nodes {
                        let q = [a, a2, b, b2];
                        let want = naive_unions(&idx, q);
                        assert_eq!(collected_unions(&idx, q), want, "{q:?}");
                        for (t, table) in [&mut full[..], &mut tiny[..]].into_iter().enumerate() {
                            let may = idx.may_share_neighbor(a, a2, b, b2, table);
                            assert!(may || want.is_empty(), "table {t}: {q:?} share {want:?}");
                            assert!(table.iter().all(|&x| x == 0), "table {t} dirty: {q:?}");
                            outcomes[t][0] += !may as usize;
                            outcomes[t][1] += (may && want.is_empty()) as usize;
                        }
                    }
                }
            }
        }
        assert!(outcomes[0][0] > 0 && outcomes[1][1] > 0, "{outcomes:?}");
    }

    #[test]
    fn advance4_gallops_to_the_first_key_at_or_above_the_bound() {
        let list: Vec<(NodeId, u32)> = (0..1000).map(|k| (2 * k, 1)).collect();
        for start in [0, 1, 5, 17, 500, 996, 999, 1000] {
            for bound in [0, 1, 7, 8, 9, 63, 64, 1001, 1998, 1999, 5000] {
                let want = start.max(list.partition_point(|&(w, _)| w < bound));
                assert_eq!(
                    advance4(&list, start, bound),
                    want,
                    "start {start}, bound {bound}"
                );
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
