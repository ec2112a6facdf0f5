//! Per-node triangle counts on multigraphs.
//!
//! The paper's definition (§III-C):
//! `t_i = Σ_{j<l, j≠i, l≠i} A_ij A_il A_jl` — triangles through `v_i`,
//! counted with edge multiplicities. Self-loops never contribute (the sum
//! excludes `j = i` and `l = i`, and `A_jl` with `j ≠ l` ignores loops).
//!
//! The kernel marks `A_i·` in an epoch-stamped
//! [`sgr_util::scratch::ScratchAccum`] and folds each neighbor's entry
//! list against the dense marks, replacing the per-pair binary searches
//! of the naive double loop with O(1) array reads. The arena
//! is sized once, so steady-state counting performs no per-node heap
//! allocation.

use sgr_graph::index::MultiplicityIndex;
use sgr_graph::GraphView;
use sgr_util::scratch::ScratchAccum;

/// Computes `t_i` for every node of any [`GraphView`] backend.
/// O(Σ_i d̃_i²) (distinct-neighbor degrees) with O(1) adjacency reads.
pub fn triangle_counts<G: GraphView + ?Sized>(g: &G) -> Vec<u64> {
    let idx = MultiplicityIndex::build(g);
    triangle_counts_with_index(g, &idx)
}

/// As [`triangle_counts`] but reusing a prebuilt index.
pub fn triangle_counts_with_index<G: GraphView + ?Sized>(
    g: &G,
    idx: &MultiplicityIndex,
) -> Vec<u64> {
    let n = g.num_nodes();
    debug_assert_eq!(n, idx.num_nodes());
    let mut t = vec![0u64; n];
    // marks.get(l) = A_il while node i is being processed.
    let mut marks: ScratchAccum<i64> = ScratchAccum::with_keys(n);
    for i in g.nodes() {
        marks.begin();
        for (l, a_il) in idx.entries(i) {
            if l != i {
                marks.add(l, a_il as i64);
            }
        }
        // Each unordered pair {j, l} of distinct marked neighbors is seen
        // twice (once from j's list, once from l's), hence the final /2.
        let mut acc = 0u64;
        for (j, a_ij) in idx.entries(i) {
            if j == i {
                continue;
            }
            let mut through_j = 0u64;
            for (l, a_jl) in idx.entries(j) {
                if l == i || l == j {
                    continue;
                }
                let a_il = marks.get(l);
                if a_il > 0 {
                    through_j += a_jl as u64 * a_il as u64;
                }
            }
            acc += a_ij as u64 * through_j;
        }
        debug_assert!(acc.is_multiple_of(2));
        t[i as usize] = acc / 2;
    }
    t
}

/// Total number of triangles `(1/3) Σ_i t_i`.
pub fn total_triangles<G: GraphView + ?Sized>(g: &G) -> u64 {
    triangle_counts(g).iter().sum::<u64>() / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, complete_bipartite, cycle};
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
}
