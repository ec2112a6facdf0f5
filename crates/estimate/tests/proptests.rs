//! Property-based tests of the estimator layer: well-definedness and
//! basic sanity on arbitrary connected graphs and walks, and the JDD
//! against its §III-E formula. (Unbiasedness is tested by Monte-Carlo
//! integration tests at the workspace level.)

use std::collections::BTreeMap;

use proptest::prelude::*;
use sgr_estimate::{estimate_all, Estimates, PAIR_GAP_FRACTION};
use sgr_graph::components::largest_component;
use sgr_graph::Graph;
use sgr_sample::{random_walk, AccessModel, Crawl};
use sgr_util::Xoshiro256pp;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (30usize..150, 2usize..4, 0.0f64..0.8, 0u64..1_000).prop_map(|(n, m, pt, seed)| {
        let g = sgr_gen::holme_kim(n, m, pt, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap();
        largest_component(&g).0
    })
}

fn crawl_on(g: &Graph, frac: f64, seed: u64) -> Crawl {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut am = AccessModel::new(g);
    let start = am.random_seed(&mut rng);
    let target = ((g.num_nodes() as f64 * frac) as usize).max(3);
    random_walk(&mut am, start, target, &mut rng)
}

fn check_estimates(g: &Graph, crawl: &Crawl, est: &Estimates) {
    // All finite and nonnegative.
    assert!(est.n_hat.is_finite() && est.n_hat > 0.0);
    assert!(est.avg_degree_hat.is_finite() && est.avg_degree_hat >= 1.0);
    assert!(est.degree_dist.iter().all(|p| p.is_finite() && *p >= 0.0));
    assert!(est.clustering.iter().all(|c| c.is_finite() && *c >= 0.0));
    for (&(k, k2), &p) in est.jdd.iter() {
        assert!(p.is_finite() && p > 0.0);
        assert_eq!(
            est.jdd.get(&(k2, k)).copied().unwrap_or(-1.0),
            p,
            "asymmetric JDD entry"
        );
    }
    // n̂ is at least the number of distinct observed nodes only when
    // collisions exist is not guaranteed; but it must be at least the
    // number of *queried* nodes divided by a sane factor — we only check
    // positivity plus an upper sanity bound of 1000× the truth.
    assert!(est.n_hat <= 1000.0 * g.num_nodes() as f64);
    // Every observed degree has positive estimated probability.
    for i in 0..crawl.len() {
        let d = crawl.degree_of_step(i);
        assert!(
            est.degree_prob(d) > 0.0,
            "observed degree {d} has zero probability"
        );
    }
    // ĉ̄(k) is a ratio of two unbiased estimators; on very short walks a
    // degree visited once can produce values above 1 (bounded by
    // k·r / ((k-1)(r-2))). Only nonnegativity and finiteness are
    // guaranteed per-sample — asymptotic accuracy is covered by the
    // Monte-Carlo integration tests.
}

/// `P̂(k, k')` by the literal §III-E double loop, from the walk's `n̂`
/// and `k̄̂`: induced edges (IE) over ordered step pairs at least `M`
/// apart, traversed edges (TE) over consecutive pairs in both
/// orientations, IE where `k + k' ≥ 2 k̄̂` and TE below it, and the two
/// orientations of each off-diagonal pair averaged.
fn jdd_by_formula(crawl: &Crawl, n_hat: f64, k_hat: f64) -> BTreeMap<(u32, u32), f64> {
    let r = crawl.len();
    let m = ((r as f64 * PAIR_GAP_FRACTION) as usize).max(1);
    let deg = |i: usize| crawl.degree_of_step(i) as u32;

    // IE: the copies of x_j in N(x_i), summed by degree pair.
    let mut ie: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut num_pairs = 0u64;
    for i in 0..r {
        let nbrs = crawl.neighbors_of(crawl.seq[i]);
        for j in 0..r {
            if i.abs_diff(j) < m {
                continue;
            }
            num_pairs += 1;
            let copies = nbrs.iter().filter(|&&v| v == crawl.seq[j]).count();
            if copies > 0 {
                *ie.entry((deg(i), deg(j))).or_insert(0.0) += copies as f64;
            }
        }
    }

    // TE: consecutive pairs, each counted in both orientations.
    let mut te: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for i in 1..r {
        let (k, k2) = (deg(i - 1), deg(i));
        *te.entry((k, k2)).or_insert(0) += 1;
        *te.entry((k2, k)).or_insert(0) += 1;
    }

    let threshold = 2.0 * k_hat;
    let mut hybrid: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (&(k, k2), &raw) in &ie {
        if (k + k2) as f64 >= threshold {
            let p = n_hat * k_hat * raw / (k as f64 * k2 as f64 * num_pairs as f64);
            hybrid.insert((k, k2), p);
        }
    }
    for (&(k, k2), &c) in &te {
        if ((k + k2) as f64) < threshold {
            hybrid.insert((k, k2), c as f64 / (2.0 * (r as f64 - 1.0)));
        }
    }
    let mut out = BTreeMap::new();
    for &(k, k2) in hybrid.keys() {
        let a = hybrid.get(&(k, k2)).copied().unwrap_or(0.0);
        let b = hybrid.get(&(k2, k)).copied().unwrap_or(0.0);
        out.insert((k, k2), (a + b) / 2.0);
        out.insert((k2, k), (a + b) / 2.0);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn estimates_are_well_defined(g in arb_graph(), seed in 0u64..100_000, frac in 0.05f64..0.6) {
        let crawl = crawl_on(&g, frac, seed);
        let est = estimate_all(&crawl).unwrap();
        check_estimates(&g, &crawl, &est);
    }

    #[test]
    fn degree_distribution_mass_is_reasonable(g in arb_graph(), seed in 0u64..100_000) {
        // P̂(k) is a ratio of unbiased estimators; its total mass should
        // stay within a broad band even on small walks.
        let crawl = crawl_on(&g, 0.4, seed);
        let est = estimate_all(&crawl).unwrap();
        let total: f64 = est.degree_dist.iter().sum();
        prop_assert!((0.4..=2.5).contains(&total), "ΣP̂(k) = {total}");
    }

    #[test]
    fn longer_walks_do_not_increase_average_degree_error_much(
        g in arb_graph(),
        seed in 0u64..100_000,
    ) {
        // Weak consistency: the k̄ estimate from a 60% crawl should not
        // be wildly off (within a factor of 2 of the truth).
        let crawl = crawl_on(&g, 0.6, seed);
        let est = estimate_all(&crawl).unwrap();
        let truth = g.average_degree();
        prop_assert!(
            est.avg_degree_hat > truth / 2.0 && est.avg_degree_hat < truth * 2.0,
            "k̄̂ = {} vs truth {truth}",
            est.avg_degree_hat
        );
    }

    #[test]
    fn estimators_only_touch_the_sampling_list(g in arb_graph(), seed in 0u64..100_000) {
        // Re-running the estimators from a *copied* crawl (no graph
        // access) gives identical results — i.e. the analyst needs only L.
        let crawl = crawl_on(&g, 0.3, seed);
        let copy = Crawl {
            seq: crawl.seq.clone(),
            neighbors: crawl.neighbors.clone(),
        };
        let a = estimate_all(&crawl).unwrap();
        let b = estimate_all(&copy).unwrap();
        prop_assert_eq!(a.n_hat, b.n_hat);
        prop_assert_eq!(a.avg_degree_hat, b.avg_degree_hat);
        prop_assert_eq!(a.degree_dist, b.degree_dist);
        prop_assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn jdd_matches_the_section_3e_formula(g in arb_graph(), seed in 0u64..100_000, frac in 0.05f64..1.0) {
        let mut crawl = crawl_on(&g, frac, seed);
        crawl.seq.truncate(400);
        let est = estimate_all(&crawl).unwrap();
        let expect = jdd_by_formula(&crawl, est.n_hat, est.avg_degree_hat);
        prop_assert!(!expect.is_empty());
        let got: BTreeMap<(u32, u32), f64> = est.jdd.iter().map(|(&k, &p)| (k, p)).collect();
        prop_assert_eq!(got.keys().collect::<Vec<_>>(), expect.keys().collect::<Vec<_>>());
        for (key, &p) in &expect {
            let q = got[key];
            prop_assert!(
                (p - q).abs() <= 1e-12 * p.abs().max(q.abs()),
                "P̂{key:?}: estimator {q} vs formula {p}"
            );
        }
    }
}
