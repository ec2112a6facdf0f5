//! Property-based tests of the target-construction engines: the DV and
//! JDM realizability conditions (§IV) must hold on arbitrary crawls for
//! **both** the batched engine and the per-unit `target_jdm::reference`
//! oracle, and the two engines must be invariant-equivalent — identical
//! `{n*(k)}`, identical marginals `s(k)`, identical `m*` cells, identical
//! edge totals (see the determinism section of `sgr_core::target_jdm`).

use proptest::prelude::*;
use sgr_core::target_dv::{self, TargetDv};
use sgr_core::target_jdm::{self, TargetJdm};
use sgr_estimate::Estimates;
use sgr_sample::{random_walk, AccessModel, Subgraph};
use sgr_util::Xoshiro256pp;

/// A random-walk crawl of a random Holme–Kim graph, plus its estimates.
fn crawl_setup(n: usize, m: usize, frac: f64, seed: u64) -> (Subgraph, Estimates) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let g = sgr_gen::holme_kim(n, m, 0.5, &mut rng).unwrap();
    let mut am = AccessModel::new(&g);
    let start = am.random_seed(&mut rng);
    let target = ((n as f64 * frac) as usize).max(3);
    let crawl = random_walk(&mut am, start, target, &mut rng);
    (
        crawl.subgraph(),
        sgr_estimate::estimate_all(&crawl).unwrap(),
    )
}

fn arb_crawl() -> impl Strategy<Value = (Subgraph, Estimates, u64)> {
    (60usize..300, 2usize..4, 0u64..5_000).prop_map(|(n, m, seed)| {
        let (sg, est) = crawl_setup(n, m, 0.12, seed);
        (sg, est, seed)
    })
}

/// DV-1 (nonnegative, by type), DV-2 (even degree sum), DV-3
/// (`n'(k) ≤ n*(k)`), plus the queried-degree and visible-degree rules of
/// Algorithm 2.
fn check_dv(dv: &TargetDv, sg: &Subgraph) {
    assert_eq!(dv.degree_sum() % 2, 0, "DV-2: odd degree sum");
    for k in 0..=dv.k_max {
        assert!(dv.n_star[k] >= dv.n_prime[k], "DV-3 broken at k = {k}");
    }
    for u in sg.queried_nodes() {
        assert_eq!(
            dv.d_star[u as usize] as usize,
            sg.graph.degree(u),
            "queried node changed degree"
        );
    }
    for u in sg.visible_nodes() {
        assert!(
            dv.d_star[u as usize] as usize >= sg.graph.degree(u),
            "visible node target below subgraph degree"
        );
    }
}

/// JDM-1 (nonnegative, by type), JDM-2 (symmetry), JDM-3
/// (`s(k) = k·n*(k)`), JDM-4 (`m* ≥ m'`), and the edge-total identity
/// `2·Σ m* = Σ k·n*(k)`.
#[allow(clippy::needless_range_loop)] // k is a degree, not just an index
fn check_jdm(jdm: &TargetJdm, dv: &TargetDv) {
    let s = jdm.marginals();
    for k in 1..=jdm.k_max {
        assert_eq!(
            s[k],
            k as u64 * dv.n_star[k],
            "JDM-3 marginal broken at k = {k}"
        );
        for k2 in 1..=jdm.k_max {
            assert_eq!(jdm.get(k, k2), jdm.get(k2, k), "JDM-2 asymmetry");
            assert!(
                jdm.get(k, k2) >= jdm.prime(k, k2),
                "JDM-4 broken at ({k}, {k2})"
            );
        }
    }
    assert_eq!(2 * jdm.num_edges(), dv.degree_sum());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dv_conditions_hold((sg, est, seed) in arb_crawl()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xD5);
        let dv = target_dv::build(&sg, &est, &mut rng);
        check_dv(&dv, &sg);
        // n'(k) is exactly the d* histogram.
        let mut counts = vec![0u64; dv.k_max + 1];
        for &d in &dv.d_star {
            counts[d as usize] += 1;
        }
        prop_assert_eq!(counts, dv.n_prime);
    }

    #[test]
    fn jdm_conditions_hold_for_batched_engine((sg, est, seed) in arb_crawl()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x1D);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
        check_dv(&dv, &sg);
        check_jdm(&jdm, &dv);
    }

    #[test]
    fn jdm_conditions_hold_for_reference_engine((sg, est, seed) in arb_crawl()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x2E);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let jdm = target_jdm::reference::build(&sg, &est, &mut dv).unwrap();
        check_dv(&dv, &sg);
        check_jdm(&jdm, &dv);
    }

    #[test]
    fn engines_are_invariant_equivalent((sg, est, seed) in arb_crawl()) {
        // The empty subgraph is Gjoka et al.'s baseline (Appendix B),
        // which runs the same builders with `V' = ∅`.
        for sg in [&sg, &Subgraph::empty()] {
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x3F);
            let dv0 = target_dv::build(sg, &est, &mut rng);
            let mut dv_fast = dv0.clone();
            let mut dv_ref = dv0.clone();
            let fast = target_jdm::build(sg, &est, &mut dv_fast).unwrap();
            let oracle = target_jdm::reference::build(sg, &est, &mut dv_ref).unwrap();
            prop_assert_eq!(&dv_fast.n_star, &dv_ref.n_star, "n* diverged");
            prop_assert_eq!(fast.marginals(), oracle.marginals(), "marginals diverged");
            prop_assert_eq!(fast.num_edges(), oracle.num_edges(), "edge totals diverged");
            // The shared cost functions and tie rule make the engines agree
            // cell-for-cell, not just on the aggregates the contract names.
            for k in 1..=fast.k_max {
                for k2 in k..=fast.k_max {
                    prop_assert_eq!(
                        fast.get(k, k2),
                        oracle.get(k, k2),
                        "m*({}, {}) diverged",
                        k,
                        k2
                    );
                }
            }
        }
    }

    #[test]
    fn dv_on_an_empty_subgraph_draws_no_rng((_sg, est, seed) in arb_crawl()) {
        // The Gjoka baseline reuses the proposed method's RNG stream only
        // because Algorithm 2 has nothing to assign when `V' = ∅`.
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x4A);
        let before = rng.state();
        let dv = target_dv::build(&Subgraph::empty(), &est, &mut rng);
        prop_assert_eq!(rng.state(), before, "Algorithm 2 drew from the RNG");
        prop_assert!(dv.n_prime.iter().all(|&c| c == 0), "n' not all zero");
        prop_assert!(dv.d_star.is_empty(), "d* not empty");
        check_dv(&dv, &Subgraph::empty());
    }
}

/// Fixed-seed equivalence across a spread of crawl sizes — the committed
/// anchor the proptests randomize around.
#[test]
fn fixed_seed_equivalence_suite() {
    for (n, seed) in [(200, 0u64), (400, 7), (400, 13), (800, 21), (1200, 34)] {
        let (sg, est) = crawl_setup(n, 3, 0.1, seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed + 1000);
        let dv0 = target_dv::build(&sg, &est, &mut rng);
        let mut dv_fast = dv0.clone();
        let mut dv_ref = dv0.clone();
        let fast = target_jdm::build(&sg, &est, &mut dv_fast).unwrap();
        let oracle = target_jdm::reference::build(&sg, &est, &mut dv_ref).unwrap();
        assert_eq!(dv_fast.n_star, dv_ref.n_star, "n* (n={n}, seed {seed})");
        assert_eq!(
            fast.marginals(),
            oracle.marginals(),
            "marginals (n={n}, seed {seed})"
        );
        assert_eq!(
            fast.num_edges(),
            oracle.num_edges(),
            "edge totals (n={n}, seed {seed})"
        );
    }
}

/// Targeting consumes no RNG: the same inputs give the same targets no
/// matter what generator state surrounds the call (the pipeline's stream
/// is only advanced by Phases 1, 3, and 4).
#[test]
fn targeting_is_deterministic_given_dv() {
    let (sg, est) = crawl_setup(500, 3, 0.1, 99);
    let mut rng = Xoshiro256pp::seed_from_u64(1234);
    let dv0 = target_dv::build(&sg, &est, &mut rng);
    let mut dv_a = dv0.clone();
    let mut dv_b = dv0.clone();
    let a = target_jdm::build(&sg, &est, &mut dv_a).unwrap();
    let b = target_jdm::build(&sg, &est, &mut dv_b).unwrap();
    assert_eq!(dv_a.n_star, dv_b.n_star);
    assert_eq!(a.marginals(), b.marginals());
    assert_eq!(a.num_edges(), b.num_edges());
}
