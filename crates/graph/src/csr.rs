//! Immutable CSR (compressed sparse row) snapshot of a graph.
//!
//! The adjacency [`Graph`](crate::Graph) keeps its neighbor lists in one
//! arena too, but it is built for mutation (construction appends extents
//! that may relocate): each node carries a start and a separate live
//! length, and in the dynamic layout its extent can sit anywhere in the
//! arena, between abandoned slots. The evaluation pipeline, however,
//! spends most of its time in *read-only* kernels: BFS sweeps, Brandes
//! betweenness, triangle counting, and the Lanczos recurrence behind λ1.
//!
//! [`CsrGraph`] packs all neighbor lists into a single arena, in node
//! order and with no gaps:
//!
//! ```text
//! offsets:   [0, d(0), d(0)+d(1), …, 2m]          (n + 1 entries)
//! neighbors: [ N(0) … | N(1) … | … | N(n-1) … ]   (2m entries)
//! ```
//!
//! `neighbors(u)` is two adjacent loads from `offsets`; the whole
//! structure spans two allocations regardless of graph size, and a scan
//! over nodes in id order walks the arena sequentially. For a fully packed
//! tight `Graph` — the pipeline's steady state — [`Graph::freeze`] is a
//! copy of its two arrays.
//!
//! [`Graph::freeze`]: crate::Graph::freeze
//!
//! [`CsrGraph::freeze`] preserves each node's neighbor **order**, so every
//! iteration-order-sensitive computation (floating-point accumulation,
//! BFS discovery order, RNG-free tie-breaking) produces bitwise-identical
//! results on either representation — the property-based tests in
//! `sgr-props` rely on this. [`CsrGraph::freeze_sorted`] additionally
//! sorts each neighbor slice ascending, enabling binary-search membership
//! queries and more sequential access patterns, at the cost of that
//! order-identity guarantee.

use crate::view::GraphView;
use crate::{DegreeVector, NodeId};

/// Immutable CSR snapshot of an undirected multigraph with self-loops.
///
/// Follows the same storage conventions as [`Graph`]: a parallel edge
/// stores its endpoint once per copy, a self-loop at `u` stores `u` twice,
/// so `degree(u) == neighbors(u).len()` and the neighbor arena has exactly
/// `2 m` entries.
///
/// [`Graph`]: crate::Graph
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    /// `offsets[u] .. offsets[u + 1]` indexes `u`'s slice of `neighbors`.
    offsets: Vec<u32>,
    /// The neighbor arena (`2 m` entries).
    neighbors: Vec<NodeId>,
    /// Edge count (each multi-edge copy once, each self-loop once).
    num_edges: usize,
    /// Whether every per-node neighbor slice is sorted ascending.
    sorted: bool,
}

impl CsrGraph {
    /// Freezes any read-only view into a CSR snapshot, preserving each
    /// node's neighbor order (so results of order-sensitive algorithms are
    /// bitwise-identical to the source representation's).
    ///
    /// # Panics
    /// Panics if the view has more than `u32::MAX` neighbor entries
    /// (≈ 2.1 billion edges) — the offset array is deliberately `u32` to
    /// halve its cache footprint.
    pub fn freeze<G: GraphView + ?Sized>(g: &G) -> Self {
        let n = g.num_nodes();
        let total: usize = 2 * g.num_edges();
        assert!(
            u32::try_from(total).is_ok(),
            "graph too large for u32 CSR offsets ({total} neighbor entries)"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(total);
        offsets.push(0u32);
        for u in g.nodes() {
            neighbors.extend_from_slice(g.neighbors(u));
            offsets.push(neighbors.len() as u32);
        }
        debug_assert_eq!(neighbors.len(), total, "handshake violation in source view");
        Self {
            offsets,
            neighbors,
            num_edges: g.num_edges(),
            sorted: false,
        }
    }

    /// As [`freeze`](Self::freeze), but sorts each neighbor slice
    /// ascending. Membership queries ([`multiplicity`](Self::multiplicity),
    /// [`has_edge`](Self::has_edge)) then run in O(log deg) via binary
    /// search, and traversals touch per-node state in ascending order.
    pub fn freeze_sorted<G: GraphView + ?Sized>(g: &G) -> Self {
        let mut csr = Self::freeze(g);
        for u in 0..csr.num_nodes() {
            let (lo, hi) = (csr.offsets[u] as usize, csr.offsets[u + 1] as usize);
            csr.neighbors[lo..hi].sort_unstable();
        }
        csr.sorted = true;
        csr
    }

    /// Freezes `g` into a snapshot whose node ids are **relabeled in
    /// degree-descending order** (ties broken by ascending old id, so the
    /// relabeling is deterministic), returning the snapshot together with
    /// both id maps.
    ///
    /// Traversal kernels that keep per-node state (Brandes' σ/δ/dist
    /// arrays, BFS visited bitsets) touch high-degree nodes far more often
    /// than leaves; packing the hubs into the lowest ids concentrates
    /// those random accesses into the first few cache lines/pages of each
    /// state array. Neighbor slices are sorted ascending in the **new**
    /// id space (the snapshot reports [`is_sorted`](Self::is_sorted)), so
    /// per-slice access walks hub state in order too.
    ///
    /// The result is the same graph up to isomorphism — degree vector and
    /// relabeled edge multiset are preserved exactly — but *not* the same
    /// labeled graph, so order-sensitive float kernels produce different
    /// (equally valid) results than on [`freeze`](Self::freeze); use the
    /// id maps to translate per-node outputs back.
    pub fn freeze_relabeled<G: GraphView + ?Sized>(g: &G) -> RelabeledCsr {
        let n = g.num_nodes();
        let total: usize = 2 * g.num_edges();
        assert!(
            u32::try_from(total).is_ok(),
            "graph too large for u32 CSR offsets ({total} neighbor entries)"
        );
        let mut new_to_old: Vec<NodeId> = (0..n as NodeId).collect();
        new_to_old.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
        let mut old_to_new = vec![0 as NodeId; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as NodeId;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(total);
        offsets.push(0u32);
        for &old in &new_to_old {
            let start = neighbors.len();
            neighbors.extend(g.neighbors(old).iter().map(|&v| old_to_new[v as usize]));
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len() as u32);
        }
        debug_assert_eq!(neighbors.len(), total, "handshake violation in source view");
        RelabeledCsr {
            csr: Self {
                offsets,
                neighbors,
                num_edges: g.num_edges(),
                sorted: true,
            },
            old_to_new,
            new_to_old,
        }
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges, counting each multi-edge copy once and each
    /// self-loop once.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `u` (self-loops count twice).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Neighbor slice of `u` in the arena.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Whether neighbor slices are sorted (snapshot built by
    /// [`freeze_sorted`](Self::freeze_sorted)).
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Adjacency-matrix entry `A_uv`. O(log deg(u)) on sorted snapshots,
    /// O(deg(u)) otherwise.
    pub fn multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        let nbrs = self.neighbors(u);
        if self.sorted {
            let lo = nbrs.partition_point(|&w| w < v);
            let hi = nbrs.partition_point(|&w| w <= v);
            hi - lo
        } else {
            nbrs.iter().filter(|&&x| x == v).count()
        }
    }

    /// Whether at least one edge `{u, v}` exists. O(log deg) on sorted
    /// snapshots; scans the smaller endpoint's slice otherwise.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let nbrs = self.neighbors(a);
        if self.sorted {
            nbrs.binary_search(&b).is_ok()
        } else {
            nbrs.contains(&b)
        }
    }

    /// Maximum degree; 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Degree vector `{n(k)}_k` indexed `0 ..= k_max`.
    pub fn degree_vector(&self) -> DegreeVector {
        let mut dv = vec![0usize; self.max_degree() + 1];
        for w in self.offsets.windows(2) {
            dv[(w[1] - w[0]) as usize] += 1;
        }
        dv
    }

    /// Raw arena access for the on-disk snapshot writer
    /// ([`crate::snapshot`]): `(offsets, neighbors, num_edges, sorted)`.
    pub(crate) fn raw_parts(&self) -> (&[u32], &[NodeId], usize, bool) {
        (&self.offsets, &self.neighbors, self.num_edges, self.sorted)
    }

    /// Rebuilds a snapshot from raw arenas read back from disk, after the
    /// snapshot reader has validated them (monotone offsets, in-range
    /// neighbor ids, consistent edge count).
    pub(crate) fn from_raw_parts(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        num_edges: usize,
        sorted: bool,
    ) -> Self {
        Self {
            offsets,
            neighbors,
            num_edges,
            sorted,
        }
    }

    /// Thaws the snapshot back into a mutable [`Graph`] with the same
    /// node count and edge multiset. Per-node neighbor *order* is **not**
    /// preserved (the graph is rebuilt by re-adding edges in
    /// [`GraphView::edges`] order), so order-sensitive kernels may
    /// produce different — equally valid — floating-point results on the
    /// thawed graph than on the snapshot; re-freeze the result if the
    /// bitwise-identity guarantee is needed again.
    ///
    /// [`Graph`]: crate::Graph
    pub fn thaw(&self) -> crate::Graph {
        let mut g = crate::Graph::with_nodes(self.num_nodes());
        for (u, v) in GraphView::edges(self) {
            g.add_edge(u, v);
        }
        g
    }
}

/// A degree-descending relabeled snapshot plus its id maps; produced by
/// [`CsrGraph::freeze_relabeled`].
#[derive(Clone, Debug)]
pub struct RelabeledCsr {
    /// The snapshot in the new (degree-descending) id space.
    pub csr: CsrGraph,
    /// `old_to_new[old]` — the new id of original node `old`.
    pub old_to_new: Vec<NodeId>,
    /// `new_to_old[new]` — the original id of snapshot node `new`.
    pub new_to_old: Vec<NodeId>,
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        CsrGraph::neighbors(self, u)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        CsrGraph::degree(self, u)
    }

    fn multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        CsrGraph::multiplicity(self, u, v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }

    fn degree_vector(&self) -> DegreeVector {
        CsrGraph::degree_vector(self)
    }
}

impl From<&crate::Graph> for CsrGraph {
    fn from(g: &crate::Graph) -> Self {
        CsrGraph::freeze(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn messy() -> Graph {
        let mut g = Graph::from_edges(5, &[(0, 1), (0, 1), (1, 2), (2, 0), (3, 1)]);
        g.add_edge(4, 4);
        g.add_edge(1, 1);
        g
    }

    #[test]
    fn freeze_preserves_structure_and_order() {
        let g = messy();
        let csr = CsrGraph::freeze(&g);
        assert_eq!(csr.num_nodes(), g.num_nodes());
        assert_eq!(csr.num_edges(), g.num_edges());
        assert_eq!(csr.average_degree(), g.average_degree());
        assert_eq!(csr.max_degree(), g.max_degree());
        assert_eq!(csr.degree_vector(), g.degree_vector());
        assert_eq!(csr.num_self_loops(), g.num_self_loops());
        for u in g.nodes() {
            assert_eq!(csr.neighbors(u), g.neighbors(u), "order changed at {u}");
            assert_eq!(csr.degree(u), g.degree(u));
        }
        // Identical edge sequences (not just multisets).
        assert_eq!(
            GraphView::edges(&csr).collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sorted_freeze_sorts_but_keeps_multiset() {
        let g = messy();
        let csr = CsrGraph::freeze_sorted(&g);
        assert!(csr.is_sorted());
        for u in g.nodes() {
            let slice = csr.neighbors(u);
            assert!(slice.windows(2).all(|w| w[0] <= w[1]), "unsorted at {u}");
            let mut expect = g.neighbors(u).to_vec();
            expect.sort_unstable();
            assert_eq!(slice, expect.as_slice());
        }
    }

    #[test]
    fn membership_queries_match_graph() {
        let g = messy();
        for csr in [CsrGraph::freeze(&g), CsrGraph::freeze_sorted(&g)] {
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(csr.multiplicity(u, v), g.multiplicity(u, v), "({u},{v})");
                    assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "({u},{v})");
                }
            }
        }
    }

    #[test]
    fn thaw_roundtrip() {
        let g = messy();
        let back = CsrGraph::freeze(&g).thaw();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        back.validate().unwrap();
    }

    #[test]
    fn empty_and_isolated() {
        let csr = CsrGraph::freeze(&Graph::with_nodes(0));
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert_eq!(GraphView::edges(&csr).count(), 0);

        let csr = CsrGraph::freeze(&Graph::with_nodes(3));
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.degree(1), 0);
        assert!(csr.neighbors(1).is_empty());
    }

    #[test]
    fn relabeled_freeze_is_degree_descending_isomorphism() {
        let mut g = messy();
        g.add_edge(1, 4); // break some degree ties
        let r = CsrGraph::freeze_relabeled(&g);
        assert!(r.csr.is_sorted());
        assert_eq!(r.csr.num_nodes(), g.num_nodes());
        assert_eq!(r.csr.num_edges(), g.num_edges());
        assert_eq!(r.csr.degree_vector(), g.degree_vector());
        // Maps are inverse bijections.
        for old in g.nodes() {
            assert_eq!(r.new_to_old[r.old_to_new[old as usize] as usize], old);
            // Degrees carried over through the relabeling.
            assert_eq!(r.csr.degree(r.old_to_new[old as usize]), g.degree(old));
        }
        // New ids are ordered by non-increasing degree.
        for new in 1..r.csr.num_nodes() {
            assert!(r.csr.degree(new as NodeId - 1) >= r.csr.degree(new as NodeId));
        }
        // Ties broken by ascending old id.
        for new in 1..r.csr.num_nodes() {
            if r.csr.degree(new as NodeId - 1) == r.csr.degree(new as NodeId) {
                assert!(r.new_to_old[new - 1] < r.new_to_old[new]);
            }
        }
        // Edge multiset preserved under the mapping (multi-edges, loops).
        let mut want: Vec<(NodeId, NodeId)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (r.old_to_new[u as usize], r.old_to_new[v as usize]);
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        want.sort_unstable();
        let mut have: Vec<(NodeId, NodeId)> = GraphView::edges(&r.csr)
            .map(|(u, v)| if u <= v { (u, v) } else { (v, u) })
            .collect();
        have.sort_unstable();
        assert_eq!(have, want);
    }

    #[test]
    fn relabeled_freeze_empty_and_isolated() {
        let r = CsrGraph::freeze_relabeled(&Graph::with_nodes(0));
        assert_eq!(r.csr.num_nodes(), 0);
        assert!(r.old_to_new.is_empty());

        let r = CsrGraph::freeze_relabeled(&Graph::from_edges(4, &[(2, 3)]));
        // Isolated nodes 0 and 1 sink to the highest new ids.
        assert_eq!(r.csr.degree(0), 1);
        assert_eq!(r.csr.degree(3), 0);
        assert_eq!(&r.new_to_old[..2], &[2, 3]);
    }

    #[test]
    fn refreeze_from_csr() {
        // freeze is generic over any view, including another snapshot.
        let g = messy();
        let once = CsrGraph::freeze(&g);
        let twice = CsrGraph::freeze(&once);
        for u in g.nodes() {
            assert_eq!(once.neighbors(u), twice.neighbors(u));
        }
    }
}
