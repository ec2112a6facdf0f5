//! Monte-Carlo verification of the estimators' (asymptotic) unbiasedness —
//! the empirical counterpart of the paper's Appendix A, which proves that
//! the hybrid joint-degree-distribution estimator is asymptotically
//! unbiased, plus the published results for `n̂`, `k̄̂`, and `P̂(k)`.
//!
//! Strategy: fix one hidden graph; run many independent long walks; the
//! *mean* of each estimator across walks must approach the true value far
//! more tightly than any single walk does.

use social_graph_restoration::estimate::estimate_all;
use social_graph_restoration::graph::Graph;
use social_graph_restoration::props::local::LocalProperties;
use social_graph_restoration::sample::{random_walk, AccessModel, Crawl};
use social_graph_restoration::util::{FxHashMap, Xoshiro256pp};

/// A long walk: keeps walking past the query target so the chain mixes
/// (estimator quality depends on r, the sequence length).
fn long_walk(g: &Graph, steps: usize, rng: &mut Xoshiro256pp) -> Crawl {
    let mut am = AccessModel::new(g);
    let start = am.random_seed(rng);
    let mut crawl = random_walk(&mut am, start, g.num_nodes(), rng);
    let mut current = *crawl.seq.last().unwrap();
    while crawl.seq.len() < steps {
        let nbrs = crawl.neighbors_of(current);
        let next = nbrs[rng.gen_range(nbrs.len())];
        crawl.neighbors.entry(next).or_insert_with(|| {
            let fetched = am.query(next).to_vec();
            fetched
        });
        crawl.seq.push(next);
        current = next;
    }
    crawl
}

fn hidden() -> Graph {
    sgr_test_graph()
}

fn sgr_test_graph() -> Graph {
    social_graph_restoration::gen::holme_kim(
        400,
        3,
        0.5,
        &mut Xoshiro256pp::seed_from_u64(20220101),
    )
    .unwrap()
}

#[test]
fn average_degree_estimator_is_unbiased() {
    let g = hidden();
    let truth = g.average_degree();
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let walks = 40;
    let mean: f64 = (0..walks)
        .map(|_| {
            let crawl = long_walk(&g, 2_000, &mut rng);
            estimate_all(&crawl).unwrap().avg_degree_hat
        })
        .sum::<f64>()
        / walks as f64;
    assert!(
        (mean - truth).abs() / truth < 0.03,
        "mean k̄̂ = {mean:.3} vs truth {truth:.3}"
    );
}

#[test]
fn size_estimator_is_unbiased() {
    let g = hidden();
    let truth = g.num_nodes() as f64;
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let walks = 40;
    let mean: f64 = (0..walks)
        .map(|_| {
            let crawl = long_walk(&g, 3_000, &mut rng);
            estimate_all(&crawl).unwrap().n_hat
        })
        .sum::<f64>()
        / walks as f64;
    assert!(
        (mean - truth).abs() / truth < 0.08,
        "mean n̂ = {mean:.1} vs truth {truth}"
    );
}

#[test]
fn degree_distribution_estimator_is_unbiased() {
    let g = hidden();
    let truth = LocalProperties::compute(&g).degree_dist;
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let walks = 40;
    let mut mean = vec![0.0f64; truth.len()];
    for _ in 0..walks {
        let crawl = long_walk(&g, 2_000, &mut rng);
        let est = estimate_all(&crawl).unwrap().degree_dist;
        for (m, &e) in mean.iter_mut().zip(est.iter()) {
            *m += e / walks as f64;
        }
    }
    let l1: f64 = truth
        .iter()
        .zip(mean.iter())
        .map(|(&t, &m)| (t - m).abs())
        .sum();
    assert!(l1 < 0.06, "mean-P̂(k) L1 error = {l1:.4}");
}

#[test]
fn jdd_estimator_is_asymptotically_unbiased() {
    // Appendix A's claim, checked empirically: E[P̂(k,k')] → P(k,k').
    let g = hidden();
    // Ground-truth JDD over *ordered* degree pairs: P(k,k') with
    // µ(k,k) = 2 (Eq. 3), so Σ over ordered pairs = 1.
    let mut truth: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    let m = g.num_edges() as f64;
    for (u, v) in g.edges() {
        let k = g.degree(u) as u32;
        let k2 = g.degree(v) as u32;
        if k == k2 {
            *truth.entry((k, k)).or_insert(0.0) += 2.0 / (2.0 * m);
        } else {
            *truth.entry((k, k2)).or_insert(0.0) += 1.0 / (2.0 * m);
            *truth.entry((k2, k)).or_insert(0.0) += 1.0 / (2.0 * m);
        }
    }
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let walks = 30;
    let mut mean: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    for _ in 0..walks {
        let crawl = long_walk(&g, 3_000, &mut rng);
        let est = estimate_all(&crawl).unwrap().jdd;
        for (&(k, k2), &p) in est.iter() {
            *mean.entry((k, k2)).or_insert(0.0) += p / walks as f64;
        }
    }
    // Compare total variation over the union of supports. The hybrid
    // estimator is asymptotically unbiased; at r = 3000 on n = 400 we
    // allow a 20% L1 budget (single walks are far worse).
    let keys: std::collections::BTreeSet<(u32, u32)> =
        truth.keys().chain(mean.keys()).copied().collect();
    let mut l1 = 0.0;
    let mut mass = 0.0;
    for &k in &keys {
        let t = truth.get(&k).copied().unwrap_or(0.0);
        let e = mean.get(&k).copied().unwrap_or(0.0);
        l1 += (t - e).abs();
        mass += t;
    }
    assert!((mass - 1.0).abs() < 1e-9, "truth JDD must sum to 1");
    assert!(l1 < 0.20, "mean-P̂(k,k') L1 error = {l1:.4}");
}

#[test]
fn clustering_estimator_tracks_truth() {
    let g = hidden();
    let truth = LocalProperties::compute(&g).clustering_by_degree;
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let walks = 30;
    let mut mean = vec![0.0f64; truth.len()];
    for _ in 0..walks {
        let crawl = long_walk(&g, 3_000, &mut rng);
        let est = estimate_all(&crawl).unwrap().clustering;
        for (m, &e) in mean.iter_mut().zip(est.iter()) {
            *m += e / walks as f64;
        }
    }
    let l1 = social_graph_restoration::props::distance::normalized_l1(&truth, &mean);
    assert!(l1 < 0.25, "mean-ĉ̄(k) normalized L1 = {l1:.4}");
}
