//! Standalone dK-series generators (0K, 1K, 2K, 2.5K).
//!
//! These are the classical full-information generators: they *measure* the
//! required statistics from a given graph (no sampling involved) and
//! produce a random graph preserving them. They double as extension
//! features and as reference implementations for the restoration tests —
//! e.g. the 2K generator exercises the same stub-matching engine as the
//! paper's Algorithm 5 with an empty subgraph.

use crate::construct::{wire_stubs, ConstructScratch, DkError};
use crate::extract::joint_degree_matrix;
use crate::rewire::{RewireEngine, RewireStats};
use sgr_graph::{DegreeVector, Graph, NodeId};
use sgr_props::local::LocalProperties;
use sgr_util::{FxHashMap, Xoshiro256pp};

/// 0K: a random multigraph with the same `n` and `m` (hence `k̄`) as the
/// input statistics — uniform stub pairing over an `n`-node graph.
pub fn generate_0k(n: usize, m: usize, rng: &mut Xoshiro256pp) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n == 0 {
        return g;
    }
    for _ in 0..m {
        let u = rng.gen_range(n) as NodeId;
        let v = rng.gen_range(n) as NodeId;
        g.add_edge(u, v);
    }
    g
}

/// 1K: the configuration model — a uniform random pairing of degree
/// stubs realizing the given degree vector (multi-edges and loops allowed,
/// per the paper's model).
///
/// # Errors
/// Fails with [`DkError::LeftoverStubs`] if the degree sum is odd
/// (condition DV-2).
pub fn generate_1k(dv: &DegreeVector, rng: &mut Xoshiro256pp) -> Result<Graph, DkError> {
    let n: usize = dv.iter().sum();
    let mut g = Graph::with_nodes(n);
    // Stub list: node id repeated degree times.
    let mut stubs: Vec<NodeId> = Vec::new();
    let mut node = 0u32;
    for (k, &count) in dv.iter().enumerate() {
        for _ in 0..count {
            for _ in 0..k {
                stubs.push(node);
            }
            node += 1;
        }
    }
    if !stubs.len().is_multiple_of(2) {
        return Err(DkError::LeftoverStubs { count: 1 });
    }
    sgr_util::sampling::shuffle(&mut stubs, rng);
    for pair in stubs.chunks_exact(2) {
        g.add_edge(pair[0], pair[1]);
    }
    Ok(g)
}

/// 2K: a random graph realizing the degree vector *and* joint degree
/// matrix of `source` (measured, then rebuilt from scratch with the
/// stub-matching engine).
pub fn generate_2k(source: &Graph, rng: &mut Xoshiro256pp) -> Result<Graph, DkError> {
    let jdm = joint_degree_matrix(source);
    let target_deg: Vec<u32> = source.nodes().map(|u| source.degree(u) as u32).collect();
    let mut g = Graph::with_nodes(source.num_nodes());
    wire_stubs(&mut g, &target_deg, &jdm, rng, &mut ConstructScratch::new())?;
    Ok(g)
}

/// 2.5K: 2K plus rewiring toward the source's degree-dependent
/// clustering. `rc` is the rewiring-attempts coefficient (`R_C` in the
/// paper; 500 there). Returns the graph and the rewiring statistics.
pub fn generate_25k(
    source: &Graph,
    rc: f64,
    rng: &mut Xoshiro256pp,
) -> Result<(Graph, RewireStats), DkError> {
    let g2k = generate_2k(source, rng)?;
    let target = LocalProperties::compute(source).clustering_by_degree;
    let candidates: Vec<(NodeId, NodeId)> = g2k.edges().collect();
    let mut engine = RewireEngine::new(g2k, candidates, &target);
    let stats = engine.run(rc, rng);
    Ok((engine.into_graph(), stats))
}

/// Measures how much of a JDM's mass two graphs share — a convenience for
/// tests and ablations: `1 - L1(jdm_a, jdm_b)/(2m)` (1.0 = identical).
pub fn jdm_similarity(a: &Graph, b: &Graph) -> f64 {
    let ja = joint_degree_matrix(a);
    let jb = joint_degree_matrix(b);
    let mut keys: FxHashMap<(u32, u32), ()> = FxHashMap::default();
    for &k in ja.keys().chain(jb.keys()) {
        keys.insert(k, ());
    }
    let mut diff = 0u64;
    for (&(k, k2), _) in keys.iter() {
        if k > k2 {
            continue;
        }
        let x = ja.get(&(k, k2)).copied().unwrap_or(0);
        let y = jb.get(&(k, k2)).copied().unwrap_or(0);
        diff += x.abs_diff(y);
    }
    let total = (a.num_edges() + b.num_edges()) as f64;
    if total == 0.0 {
        1.0
    } else {
        1.0 - diff as f64 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(2718)
    }

    fn social(seed: u64) -> Graph {
        sgr_gen::holme_kim(400, 3, 0.6, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn zero_k_preserves_counts() {
        let g = generate_0k(100, 250, &mut rng());
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 250);
        assert!((g.average_degree() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn one_k_preserves_degree_vector() {
        let src = social(1);
        let dv = src.degree_vector();
        let g = generate_1k(&dv, &mut rng()).unwrap();
        assert_eq!(g.degree_vector(), dv);
        assert_eq!(g.num_edges(), src.num_edges());
        g.validate().unwrap();
    }

    #[test]
    fn one_k_rejects_odd_sum() {
        let dv = vec![0usize, 3]; // three degree-1 nodes
        assert!(generate_1k(&dv, &mut rng()).is_err());
    }

    #[test]
    fn two_k_preserves_jdm() {
        let src = social(2);
        let g = generate_2k(&src, &mut rng()).unwrap();
        assert_eq!(g.degree_vector(), src.degree_vector());
        assert_eq!(joint_degree_matrix(&g), joint_degree_matrix(&src));
        assert!((jdm_similarity(&src, &g) - 1.0).abs() < 1e-12);
        g.validate().unwrap();
    }

    #[test]
    fn two_k_randomizes_clustering() {
        // 2K destroys most clustering relative to a Holme–Kim source.
        let src = social(3);
        let g = generate_2k(&src, &mut rng()).unwrap();
        let c_src = LocalProperties::compute(&src).mean_clustering;
        let c_gen = LocalProperties::compute(&g).mean_clustering;
        assert!(
            c_gen < 0.6 * c_src,
            "2K clustering {c_gen} not much below source {c_src}"
        );
    }

    #[test]
    fn two_five_k_restores_clustering() {
        let src = social(4);
        let (g, stats) = generate_25k(&src, 30.0, &mut rng()).unwrap();
        // DV and JDM still exact.
        assert_eq!(g.degree_vector(), src.degree_vector());
        assert_eq!(joint_degree_matrix(&g), joint_degree_matrix(&src));
        // Clustering moved substantially toward the target.
        assert!(
            stats.final_distance < 0.6 * stats.initial_distance,
            "rewiring only got D from {} to {}",
            stats.initial_distance,
            stats.final_distance
        );
    }

    #[test]
    fn jdm_similarity_detects_difference() {
        let a = sgr_gen::classic::star(4);
        let b = sgr_gen::classic::cycle(5);
        assert!(jdm_similarity(&a, &b) < 0.5);
        assert!((jdm_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }
}
