//! Per-node triangle counts on multigraphs.
//!
//! The paper's definition (§III-C):
//! `t_i = Σ_{j<l, j≠i, l≠i} A_ij A_il A_jl` — triangles through `v_i`,
//! counted with edge multiplicities. Self-loops never contribute (the sum
//! excludes `j = i` and `l = i`, and `A_jl` with `j ≠ l` ignores loops).
//! Equivalently: every triangle `{u, v, w}` of distinct nodes adds its
//! weight `A_uv·A_uw·A_vw` to each of `t_u`, `t_v` and `t_w`.
//!
//! # The oriented pass
//!
//! Rank the nodes by the strict total order `(d̃, id)`, where `d̃` is the
//! distinct-neighbor count, and store every distinct non-loop pair
//! `{u, v}` **once**, in the out-list of its lower-ranked endpoint.
//! Every triangle then has exactly one lowest node `u`, and its other two
//! nodes `v < w` (in rank) satisfy `v, w ∈ out(u)` and `w ∈ out(v)`. So
//! the pass marks `out(u)` in a dense array, scans `out(v)` for every
//! `v ∈ out(u)` against the marks, and finds each triangle exactly once,
//! from `u` through `v` — no pair is revisited and no `/2` or `/3`
//! correction is needed.
//!
//! The weights are exact integers and integer addition is associative,
//! so `t` does not depend on the order in which triangles are found: the
//! pass returns the same `t`, bit for bit, as any other exact count,
//! such as the wedge enumeration the `triangle_census` tests hold it to.
//! Everything derived from `t` (clustering, the rewire engine's
//! per-degree sums `T_k` and distance) is therefore bitwise unchanged
//! too.
//!
//! Cost: the out-lists are built in one pass over the
//! [`MultiplicityIndex`] entries into one flat arena sized to `Σ d̃ / 2`
//! (every non-loop pair counts twice in `Σ d̃`), comparing one packed
//! `(d̃, id)` word per endpoint: O(n + m̃) time and memory for m̃ distinct
//! non-loop pairs. About half the comparisons go each way, so the pass
//! writes every entry at the arena cursor and advances the cursor by the
//! comparison's outcome instead of branching on it. Enumeration costs `Σ_{(u,v)} (1 + |out(v)|)` over
//! oriented pairs. A node of rank above `v` has at least `d̃_v`
//! neighbors, so `|out(v)| ≤ min(d̃_v, √(2m̃))`, and the pass is
//! O(m̃ √m̃) — against O(Σ_i d̃_i²) for scanning every neighbor's full
//! list from every node, which a single hub makes quadratic.
//!
//! On a large graph the enumeration's time goes to memory latency, not
//! arithmetic: each oriented pair `(u, v)` jumps to `v`'s offsets and
//! out-list, two cold reads at a node the pass has no locality with. The
//! pairs are visited in arena order, so the pass knows them in advance
//! and issues prefetch hints ([`sgr_util::prefetch::prefetch_read`]) for
//! `offs[v]` of the pair `OFFS_AHEAD` (16) ahead and for the first entry of
//! `out(v)` of the pair `LIST_AHEAD` (8) ahead, whose offset the first hint
//! has brought in by then. Hints change no result.
//!
//! The same enumeration yields **shared partners**: a triangle contributes
//! `A_uw·A_vw` to `sp(u, v)`, and likewise for its other two pairs, so one
//! accumulator per out-entry collects `sp` of every edge at once
//! ([`crate::local::LocalProperties::compute`] uses this).

use sgr_graph::index::MultiplicityIndex;
use sgr_graph::{GraphView, NodeId};
use sgr_util::prefetch::prefetch_read;

/// How many oriented pairs ahead the pass hints `offs[v]`.
const OFFS_AHEAD: usize = 16;
/// How many oriented pairs ahead the pass hints the head of `out(v)`.
const LIST_AHEAD: usize = 8;

/// Computes `t_i` for every node of any [`GraphView`] backend.
/// O(m̃ √m̃) over m̃ distinct non-loop pairs; see the module docs.
pub fn triangle_counts<G: GraphView + ?Sized>(g: &G) -> Vec<u64> {
    triangle_counts_with_index(&MultiplicityIndex::build(g))
}

/// As [`triangle_counts`] but reusing a prebuilt index.
pub fn triangle_counts_with_index(idx: &MultiplicityIndex) -> Vec<u64> {
    // Orient first: the orientation's rank keys are freed before `t` is
    // allocated, so the two are never resident together.
    let oriented = Oriented::build(idx);
    let mut t = vec![0u64; idx.num_nodes()];
    oriented.for_each_triangle(|nodes, _, a| {
        let w = a[0] * a[1] * a[2];
        for x in nodes {
            t[x as usize] += w;
        }
    });
    t
}

/// Total number of triangles `(1/3) Σ_i t_i`.
pub fn total_triangles<G: GraphView + ?Sized>(g: &G) -> u64 {
    triangle_counts(g).iter().sum::<u64>() / 3
}

/// The degree-ordered orientation of a multigraph's distinct non-loop
/// pairs: `out(u)` holds `(v, A_uv)` for every neighbor `v` ranked above
/// `u` under `(d̃, id)`, ascending by `v`. See the module docs.
pub(crate) struct Oriented {
    /// `n + 1` offsets into `out`.
    offs: Vec<u32>,
    /// Every distinct non-loop pair once, as `(upper endpoint, A)`.
    out: Vec<(NodeId, u32)>,
}

impl Oriented {
    /// Orients `idx` in one pass over its (ascending) entries: `v` joins
    /// `out(u)` when `u`'s packed `(d̃, id)` key is below `v`'s.
    pub(crate) fn build(idx: &MultiplicityIndex) -> Self {
        let n = idx.num_nodes();
        let rank: Vec<u64> = (0..n as NodeId)
            .map(|u| (idx.num_distinct(u) as u64) << 32 | u as u64)
            .collect();
        let twice_pairs: usize = (0..n as NodeId).map(|u| idx.num_distinct(u)).sum();
        let mut offs = Vec::with_capacity(n + 1);
        offs.push(0u32);
        // Every entry is written at the cursor, which only the entries
        // that join advance: no branch on the unpredictable comparison.
        // The cursor stays below the pair count, so one spare slot holds
        // the last write.
        let mut out = vec![(0, 0); twice_pairs / 2 + 1];
        let mut len = 0usize;
        for (u, &ru) in rank.iter().enumerate() {
            for (v, a) in idx.entries(u as NodeId) {
                out[len] = (v, a);
                len += usize::from(ru < rank[v as usize]);
            }
            offs.push(len as u32);
        }
        out.truncate(len);
        Self { offs, out }
    }

    /// Number of oriented pairs (distinct non-loop pairs of the graph).
    pub(crate) fn num_pairs(&self) -> usize {
        self.out.len()
    }

    /// The multiplicity `A` of every oriented pair, in pair-index order.
    pub(crate) fn multiplicities(&self) -> impl Iterator<Item = u32> + '_ {
        self.out.iter().map(|&(_, a)| a)
    }

    /// Calls `f(nodes, pairs, a)` once per triangle `{u, v, w}` (ranked
    /// `u < v < w`) with `nodes = [u, v, w]`, the pair indices
    /// `pairs = [uv, uw, vw]` into the orientation (`0..num_pairs()`) and
    /// their multiplicities `a = [A_uv, A_uw, A_vw]`.
    pub(crate) fn for_each_triangle<F>(&self, mut f: F)
    where
        F: FnMut([NodeId; 3], [usize; 3], [u64; 3]),
    {
        let n = self.offs.len() - 1;
        // mark[w] = 1 + pair index of (u, w) while u's out-list is marked.
        let mut mark = vec![0u32; n];
        let range = |x: usize| self.offs[x] as usize..self.offs[x + 1] as usize;
        for u in 0..n {
            let ru = range(u);
            for e in ru.clone() {
                mark[self.out[e].0 as usize] = e as u32 + 1;
            }
            for uv in ru.clone() {
                self.prefetch_ahead(uv);
                let (v, a_uv) = self.out[uv];
                for vw in range(v as usize) {
                    let (w, a_vw) = self.out[vw];
                    let m = mark[w as usize];
                    if m != 0 {
                        let uw = m as usize - 1;
                        f(
                            [u as NodeId, v, w],
                            [uv, uw, vw],
                            [a_uv as u64, self.out[uw].1 as u64, a_vw as u64],
                        );
                    }
                }
            }
            for e in ru {
                mark[self.out[e].0 as usize] = 0;
            }
        }
    }

    /// The prefetch hints of the module docs, issued before pair `uv`.
    #[inline(always)]
    fn prefetch_ahead(&self, uv: usize) {
        if let Some(&(v, _)) = self.out.get(uv + OFFS_AHEAD) {
            prefetch_read(&self.offs[v as usize]);
        }
        if let Some(&(v, _)) = self.out.get(uv + LIST_AHEAD) {
            if let Some(first) = self.out.get(self.offs[v as usize] as usize) {
                prefetch_read(first);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, complete_bipartite, cycle, star};
    use sgr_graph::{CsrGraph, Graph};

    #[test]
    fn triangle_graph() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangle_counts(&g), vec![1, 1, 1]);
        assert_eq!(total_triangles(&g), 1);
    }

    #[test]
    fn complete_graph_counts() {
        // K_5: each node is in C(4,2) = 6 triangles.
        let g = complete(5);
        assert_eq!(triangle_counts(&g), vec![6; 5]);
        assert_eq!(total_triangles(&g), 10);
    }

    #[test]
    fn bipartite_has_none() {
        let g = complete_bipartite(3, 4);
        assert_eq!(total_triangles(&g), 0);
        let g = cycle(8);
        assert_eq!(total_triangles(&g), 0);
    }

    #[test]
    fn multi_edges_multiply() {
        // Triangle with doubled edge (0,1): t_2 = A_20 A_21 A_01 = 2,
        // t_0 = t_1 = 2 as well (paired with the double edge).
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangle_counts(&g), vec![2, 2, 2]);
    }

    #[test]
    fn self_loops_do_not_count() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        g.add_edge(0, 0);
        g.add_edge(1, 1);
        assert_eq!(triangle_counts(&g), vec![1, 1, 1]);
    }

    #[test]
    fn empty_and_single() {
        assert!(triangle_counts(&Graph::with_nodes(0)).is_empty());
        assert_eq!(triangle_counts(&Graph::with_nodes(3)), vec![0, 0, 0]);
    }

    #[test]
    fn csr_backend_counts_identically() {
        let mut g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (0, 1), (2, 3), (3, 4)]);
        g.add_edge(4, 4);
        let csr = CsrGraph::freeze(&g);
        assert_eq!(triangle_counts(&g), triangle_counts(&csr));
        assert_eq!(total_triangles(&g), total_triangles(&csr));
    }

    #[test]
    fn orientation_stores_each_pair_once_below_its_upper_endpoint() {
        // Star hub 0 with leaves 1..=4, a doubled leaf edge (1,2), a loop.
        let mut g = star(4);
        g.add_edge(1, 2);
        g.add_edge(1, 2);
        g.add_edge(3, 3);
        let idx = MultiplicityIndex::build(&g);
        let o = Oriented::build(&idx);
        // Ranks (d̃, id): 4 (d̃ 1) < 1 < 2 < 3 (d̃ 2, ties broken by id;
        // node 3's loop counts as a distinct neighbor) < 0 (d̃ 4).
        let out = |u: usize| &o.out[o.offs[u] as usize..o.offs[u + 1] as usize];
        assert_eq!(out(0), []);
        assert_eq!(out(1), [(0, 1), (2, 2)]);
        assert_eq!(out(2), [(0, 1)]);
        assert_eq!(out(3), [(0, 1)]);
        assert_eq!(out(4), [(0, 1)]);
        assert_eq!(o.num_pairs(), 5);
        let mut seen = Vec::new();
        o.for_each_triangle(|nodes, pairs, a| seen.push((nodes, pairs, a)));
        assert_eq!(seen, [([1, 2, 0], [1, 0, 2], [2, 1, 1])]);
    }
}
