//! The CSR contract: every property kernel must produce **bitwise**
//! identical results on the adjacency-list backend and on an
//! order-preserving CSR snapshot of the same graph. Floating-point
//! accumulation is order-sensitive, so this only holds because
//! `CsrGraph::freeze` keeps each node's neighbor order and the kernels
//! never branch on representation — which is exactly what these tests
//! pin down, on random multigraphs with parallel edges and self-loops.

use proptest::prelude::*;
use sgr_graph::{CsrGraph, Graph, NodeId};
use sgr_props::{PropsConfig, StructuralProperties};

/// A small random multigraph; duplicate pairs and `u == v` draws give
/// multi-edges and self-loops, so the loop conventions are exercised.
fn arb_multigraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..32).prop_flat_map(|n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        (Just(n), proptest::collection::vec(edge, 0..90))
    })
}

fn assert_bits_eq(name: &str, a: f64, b: f64) {
    prop_assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{} differs between backends: {} vs {}",
        name,
        a,
        b
    );
}

fn assert_vec_bits_eq(name: &str, a: &[f64], b: &[f64]) {
    prop_assert_eq!(a.len(), b.len(), "{} length differs", name);
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}[{}] differs between backends: {} vs {}",
            name,
            i,
            x,
            y
        );
    }
}

fn assert_all_12_identical(g: &Graph, cfg: &PropsConfig) {
    let csr = CsrGraph::freeze(g);
    let pa = StructuralProperties::compute(g, cfg);
    let pb = StructuralProperties::compute(&csr, cfg);
    assert_bits_eq("n", pa.num_nodes, pb.num_nodes);
    assert_bits_eq("k_avg", pa.avg_degree, pb.avg_degree);
    assert_vec_bits_eq("P(k)", &pa.degree_dist, &pb.degree_dist);
    assert_vec_bits_eq("knn(k)", &pa.knn, &pb.knn);
    assert_bits_eq("c_avg", pa.mean_clustering, pb.mean_clustering);
    assert_vec_bits_eq("c(k)", &pa.clustering_by_degree, &pb.clustering_by_degree);
    assert_vec_bits_eq("P(s)", &pa.shared_partner_dist, &pb.shared_partner_dist);
    assert_bits_eq("l_avg", pa.avg_path_length, pb.avg_path_length);
    assert_vec_bits_eq("P(l)", &pa.path_length_dist, &pb.path_length_dist);
    assert_bits_eq("l_max", pa.diameter, pb.diameter);
    assert_vec_bits_eq("b(k)", &pa.betweenness_by_degree, &pb.betweenness_by_degree);
    assert_bits_eq("lambda1", pa.lambda1, pb.lambda1);
}

proptest! {
    /// Exact mode (the default config covers these sizes).
    #[test]
    fn all_12_properties_bitwise_identical_exact((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        assert_all_12_identical(&g, &PropsConfig::default());
    }

    /// Sampled mode: forcing pivot sampling exercises the RNG-seeded
    /// source selection and double-sweep diameter refinement paths.
    #[test]
    fn all_12_properties_bitwise_identical_sampled((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let cfg = PropsConfig {
            exact_threshold: 0,
            num_pivots: 8,
            threads: 1,
            seed: 0xc0ffee,
        };
        assert_all_12_identical(&g, &cfg);
    }

    /// The auxiliary measures follow the same contract.
    #[test]
    fn dissimilarity_and_assortativity_identical((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let csr = CsrGraph::freeze(&g);
        let cfg = PropsConfig::default();
        let d_gg = sgr_props::dissimilarity::dissimilarity(&g, &csr, &cfg);
        prop_assert!(d_gg < 1e-12, "self-dissimilarity across backends: {}", d_gg);
        let ra = sgr_props::local::degree_assortativity(&g);
        let rb = sgr_props::local::degree_assortativity(&csr);
        prop_assert_eq!(ra.to_bits(), rb.to_bits());
        let ta = sgr_props::triangles::triangle_counts(&g);
        let tb = sgr_props::triangles::triangle_counts(&csr);
        prop_assert_eq!(ta, tb);
    }
}
