//! Property-based tests of the dK-series substrate: measurement,
//! realizability, construction, and rewiring must agree with each other
//! on arbitrary graphs.

use proptest::prelude::*;
use sgr_dk::extract::{
    jdm_is_symmetric, jdm_matches_degree_vector, jdm_num_edges, joint_degree_matrix,
};
use sgr_dk::rewire::RewireEngine;
use sgr_dk::{wire_stubs, ConstructScratch};
use sgr_graph::Graph;
use sgr_props::local::LocalProperties;
use sgr_util::Xoshiro256pp;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (30usize..150, 2usize..4, 0.0f64..0.8, 0u64..1_000).prop_map(|(n, m, pt, seed)| {
        sgr_gen::holme_kim(n, m, pt, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    })
}

/// A from-empty 2K construction of `g`: its degree sequence and joint
/// degree matrix, wired by stub matching onto `g`'s node set.
fn build_2k(g: &Graph, rng: &mut Xoshiro256pp) -> Graph {
    let target: Vec<u32> = g.nodes().map(|u| g.degree(u) as u32).collect();
    let mut h = Graph::with_nodes(g.num_nodes());
    wire_stubs(
        &mut h,
        &target,
        &joint_degree_matrix(g),
        rng,
        &mut ConstructScratch::new(),
    )
    .unwrap();
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn measured_jdm_always_satisfies_conditions(g in arb_graph()) {
        let jdm = joint_degree_matrix(&g);
        prop_assert!(jdm_is_symmetric(&jdm));
        prop_assert!(jdm_matches_degree_vector(&jdm, &g.degree_vector()));
        prop_assert_eq!(jdm_num_edges(&jdm), g.num_edges() as u64);
    }

    #[test]
    fn two_k_is_exact(g in arb_graph(), seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let h = build_2k(&g, &mut rng);
        prop_assert_eq!(h.degree_vector(), g.degree_vector());
        prop_assert_eq!(joint_degree_matrix(&h), joint_degree_matrix(&g));
        prop_assert!(h.validate().is_ok());
    }

    #[test]
    fn two_five_k_keeps_2k_exact_and_never_worsens_distance(
        g in arb_graph(),
        seed in 0u64..10_000,
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let h2k = build_2k(&g, &mut rng);
        let target = LocalProperties::compute(&g).clustering_by_degree;
        let edges: Vec<_> = h2k.edges().collect();
        let mut engine = RewireEngine::new(h2k, edges, &target);
        let stats = engine.run(2.0, &mut rng);
        let h = engine.into_graph();
        prop_assert_eq!(h.degree_vector(), g.degree_vector());
        prop_assert_eq!(joint_degree_matrix(&h), joint_degree_matrix(&g));
        prop_assert!(stats.final_distance <= stats.initial_distance + 1e-9);
        prop_assert!(h.validate().is_ok());
    }

    #[test]
    fn rewiring_engine_internal_state_is_consistent(
        g in arb_graph(),
        seed in 0u64..10_000,
        attempts in 50u64..400,
    ) {
        // Target a foreign clustering vector to force real activity.
        let target: Vec<f64> = LocalProperties::compute(&g)
            .clustering_by_degree
            .iter()
            .map(|&c| (c * 0.5).min(1.0))
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let mut engine = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        engine.run_attempts(attempts, &mut rng);
        prop_assert!(engine.validate().is_ok(), "{:?}", engine.validate());
    }

    #[test]
    fn rewiring_distance_is_monotone_nonincreasing(
        g in arb_graph(),
        seed in 0u64..10_000,
    ) {
        let target = vec![0.0; g.max_degree() + 1];
        let edges: Vec<_> = g.edges().collect();
        let mut engine = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut last = engine.distance();
        for _ in 0..10 {
            engine.run_attempts(50, &mut rng);
            let now = engine.distance();
            prop_assert!(now <= last + 1e-9, "distance increased: {last} -> {now}");
            last = now;
        }
    }
}
