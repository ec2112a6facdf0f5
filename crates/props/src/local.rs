//! Local structural properties (1)–(7) of §V-B.
//!
//! Generic over [`GraphView`], so the same code runs on the mutable
//! adjacency lists and on a frozen [`sgr_graph::CsrGraph`] snapshot.
//! Triangle counts and edgewise shared partners come from one
//! degree-ordered triangle pass ([`crate::triangles`]): each triangle is
//! found once, adds its weight to the `t` of its three nodes, and adds
//! the product of two of its multiplicities to the `sp` of the third
//! pair. The shared-partner histogram then folds one accumulator per
//! distinct non-loop pair — weighted by that pair's multiplicity — so
//! no edge's neighbor lists are scanned twice.

use crate::triangles::Oriented;
use sgr_graph::index::MultiplicityIndex;
use sgr_graph::{GraphView, NodeId};

/// The degree-indexed local properties, computed in one pass.
#[derive(Clone, Debug)]
pub struct LocalProperties {
    /// `{P(k)}` (Eq. 2).
    pub degree_dist: Vec<f64>,
    /// `{k̄nn(k)}` — neighbor connectivity.
    pub knn: Vec<f64>,
    /// `c̄` — network clustering coefficient.
    pub mean_clustering: f64,
    /// `{c̄(k)}` — degree-dependent clustering.
    pub clustering_by_degree: Vec<f64>,
    /// `{P(s)}` — edgewise shared-partner distribution.
    pub shared_partner_dist: Vec<f64>,
}

impl LocalProperties {
    /// Computes properties (3)–(7). Multi-edges and self-loops follow the
    /// paper's adjacency conventions throughout (multiplicities weight
    /// `k̄nn`, triangles, and shared partners; a self-loop contributes 2 to
    /// its node's degree).
    pub fn compute<G: GraphView>(g: &G) -> Self {
        let n = g.num_nodes();
        let kmax = g.max_degree();
        let idx = MultiplicityIndex::build(g);

        // Degree distribution.
        let dv = g.degree_vector();
        let degree_dist: Vec<f64> = dv
            .iter()
            .map(|&c| if n > 0 { c as f64 / n as f64 } else { 0.0 })
            .collect();

        // Neighbor connectivity: k̄nn(k) = mean over deg-k nodes of
        // (1/k) Σ_j A_ij d_j. The adjacency list stores j exactly A_ij
        // times, so summing neighbor degrees over the list is the inner
        // sum.
        let mut knn_sum = vec![0.0f64; kmax + 1];
        for u in g.nodes() {
            let k = g.degree(u);
            if k == 0 {
                continue;
            }
            let s: f64 = g.neighbors(u).iter().map(|&v| g.degree(v) as f64).sum();
            knn_sum[k] += s / k as f64;
        }
        let knn: Vec<f64> = knn_sum
            .iter()
            .zip(dv.iter())
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();

        // One triangle pass: t_i per node, and sp(u, v) =
        // Σ_{w≠u,v} A_uw A_vw per distinct non-loop pair.
        let census = Oriented::build(&idx);
        let mut t = vec![0u64; n];
        let mut sp = vec![0u64; census.num_pairs()];
        census.for_each_triangle(|nodes, pairs, a| {
            let w = a[0] * a[1] * a[2];
            for x in nodes {
                t[x as usize] += w;
            }
            sp[pairs[0]] += a[1] * a[2];
            sp[pairs[1]] += a[0] * a[2];
            sp[pairs[2]] += a[0] * a[1];
        });

        // Clustering (mean and degree-dependent) from triangle counts.
        let mut c_sum_by_k = vec![0.0f64; kmax + 1];
        let mut c_total = 0.0f64;
        for u in g.nodes() {
            let k = g.degree(u);
            if k >= 2 {
                let c_u = 2.0 * t[u as usize] as f64 / (k as f64 * (k as f64 - 1.0));
                c_sum_by_k[k] += c_u;
                c_total += c_u;
            }
        }
        let mean_clustering = if n > 0 { c_total / n as f64 } else { 0.0 };
        let clustering_by_degree: Vec<f64> = c_sum_by_k
            .iter()
            .zip(dv.iter())
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();

        // Edgewise shared partners, one count per edge copy: a pair of
        // multiplicity A_uv puts A_uv edges into bin sp(u, v). Loops have
        // no well-defined shared partners and are not in the census.
        let mut sp_counts: Vec<u64> = Vec::new();
        let mut m_eff = 0u64;
        for (&s, a) in sp.iter().zip(census.multiplicities()) {
            let s = s as usize;
            if sp_counts.len() <= s {
                sp_counts.resize(s + 1, 0);
            }
            sp_counts[s] += a as u64;
            m_eff += a as u64;
        }
        let shared_partner_dist: Vec<f64> = if m_eff == 0 {
            vec![0.0]
        } else {
            sp_counts.iter().map(|&c| c as f64 / m_eff as f64).collect()
        };

        Self {
            degree_dist,
            knn,
            mean_clustering,
            clustering_by_degree,
            shared_partner_dist,
        }
    }
}

/// Degree assortativity coefficient (Newman's `r`): the Pearson
/// correlation of endpoint degrees over edges. Complements the paper's
/// `k̄nn(k)` (property 4) with a scalar summary; social graphs are
/// typically assortative (`r > 0`), web/technology graphs disassortative.
/// Self-loops are excluded; multi-edge copies each count. Returns 0 for
/// graphs with no degree variance across edges.
pub fn degree_assortativity<G: GraphView>(g: &G) -> f64 {
    let mut m = 0.0f64;
    let (mut sum_prod, mut sum_mean, mut sum_sq) = (0.0f64, 0.0f64, 0.0f64);
    for (u, v) in g.edges() {
        if u == v {
            continue;
        }
        let (j, k) = (g.degree(u) as f64, g.degree(v) as f64);
        m += 1.0;
        sum_prod += j * k;
        sum_mean += 0.5 * (j + k);
        sum_sq += 0.5 * (j * j + k * k);
    }
    if m == 0.0 {
        return 0.0;
    }
    let mean = sum_mean / m;
    let num = sum_prod / m - mean * mean;
    let den = sum_sq / m - mean * mean;
    if den.abs() < 1e-15 {
        0.0
    } else {
        num / den
    }
}

/// `sp(u, v) = Σ_{k ≠ u, v} A_uk A_vk` — multiplicity-weighted common
/// neighbors. Iterates the smaller neighbor map.
///
/// This is the point-query form (and the reference the tests hold the
/// batched pass to); [`LocalProperties::compute`] gets every edge's `sp`
/// at once from the triangle pass instead of probing per pair.
pub fn shared_partners(idx: &MultiplicityIndex, u: NodeId, v: NodeId) -> usize {
    let (a, b) = (u, v);
    let count_from = |x: NodeId, y: NodeId| -> usize {
        idx.entries(x)
            .filter(|&(w, _)| w != x && w != y)
            .map(|(w, a_xw)| a_xw as usize * idx.get(y, w) as usize)
            .sum()
    };
    // Pick the endpoint with fewer distinct neighbors to iterate (O(1)
    // via the index's per-node size, not a full entries() walk).
    let deg_a = idx.num_distinct(a);
    let deg_b = idx.num_distinct(b);
    if deg_a <= deg_b {
        count_from(a, b)
    } else {
        count_from(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, cycle, star};
    use sgr_graph::Graph;

    #[test]
    fn star_properties() {
        let g = star(5);
        let p = LocalProperties::compute(&g);
        // 5 leaves of degree 1, one hub of degree 5.
        assert!((p.degree_dist[1] - 5.0 / 6.0).abs() < 1e-12);
        assert!((p.degree_dist[5] - 1.0 / 6.0).abs() < 1e-12);
        // Leaves see the hub: knn(1) = 5; hub sees leaves: knn(5) = 1.
        assert!((p.knn[1] - 5.0).abs() < 1e-12);
        assert!((p.knn[5] - 1.0).abs() < 1e-12);
        assert_eq!(p.mean_clustering, 0.0);
        // Each edge has 0 shared partners.
        assert!((p.shared_partner_dist[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_properties() {
        let g = complete(6);
        let p = LocalProperties::compute(&g);
        assert!((p.degree_dist[5] - 1.0).abs() < 1e-12);
        assert!((p.knn[5] - 5.0).abs() < 1e-12);
        assert!((p.mean_clustering - 1.0).abs() < 1e-12);
        assert!((p.clustering_by_degree[5] - 1.0).abs() < 1e-12);
        // Every edge of K_6 has 4 shared partners.
        assert!((p.shared_partner_dist[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_properties() {
        let g = cycle(10);
        let p = LocalProperties::compute(&g);
        assert!((p.degree_dist[2] - 1.0).abs() < 1e-12);
        assert!((p.knn[2] - 2.0).abs() < 1e-12);
        assert_eq!(p.mean_clustering, 0.0);
        assert!((p.shared_partner_dist[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_partners_multiplicity() {
        // Triangle with doubled third edge: sp(0,1) counts A_02 * A_12.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (1, 2), (2, 0)]);
        let idx = MultiplicityIndex::build(&g);
        assert_eq!(shared_partners(&idx, 0, 1), 2);
        assert_eq!(shared_partners(&idx, 1, 2), 1);
    }

    #[test]
    fn batched_sp_pass_matches_point_query_reference() {
        // The triangle-pass histogram inside compute() and the public
        // shared_partners() point query must never drift apart.
        let mut g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 0),
                (4, 2),
                (5, 6),
            ],
        );
        g.add_edge(1, 1);
        let idx = MultiplicityIndex::build(&g);
        let mut expected: Vec<u64> = Vec::new();
        let mut m_eff = 0u64;
        for (u, v) in g.edges() {
            if u == v {
                continue;
            }
            let sp = shared_partners(&idx, u, v);
            if expected.len() <= sp {
                expected.resize(sp + 1, 0);
            }
            expected[sp] += 1;
            m_eff += 1;
        }
        let expected: Vec<f64> = expected.iter().map(|&c| c as f64 / m_eff as f64).collect();
        let p = LocalProperties::compute(&g);
        assert_eq!(p.shared_partner_dist, expected);
    }

    #[test]
    fn loop_edges_are_skipped_in_sp_dist() {
        let mut g = complete(3);
        g.add_edge(0, 0);
        let p = LocalProperties::compute(&g);
        // Only the three triangle edges count; each has one shared partner.
        assert!((p.shared_partner_dist[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assortativity_signs() {
        // Regular graphs: no degree variance → r = 0 by convention.
        assert_eq!(degree_assortativity(&cycle(10)), 0.0);
        assert_eq!(degree_assortativity(&complete(6)), 0.0);
        // Stars are maximally disassortative: r = -1.
        assert!((degree_assortativity(&star(8)) + 1.0).abs() < 1e-12);
        // Two joined cliques of different sizes: assortative core exists;
        // just check the value is finite and in [-1, 1].
        let g = sgr_gen::classic::barbell(5);
        let r = degree_assortativity(&g);
        assert!((-1.0..=1.0).contains(&r));
        // Edgeless / loop-only graphs are 0.
        let mut h = Graph::with_nodes(2);
        assert_eq!(degree_assortativity(&h), 0.0);
        h.add_edge(0, 0);
        assert_eq!(degree_assortativity(&h), 0.0);
    }

    #[test]
    fn empty_graph_is_well_defined() {
        let g = Graph::with_nodes(0);
        let p = LocalProperties::compute(&g);
        assert_eq!(p.mean_clustering, 0.0);
        assert_eq!(p.shared_partner_dist, vec![0.0]);
    }
}
