//! Network dissimilarity `D(G, G')` (Schieber et al., Nat. Commun. 2017).
//!
//! The paper's final future-work item suggests using or extending the
//! dissimilarity (its Ref. 64) of a given graph to investigate how well the
//! proposed method restores the original social graph". This module
//! implements that measure so restored graphs can be scored with a single
//! principled number in addition to the 12 per-property distances.
//!
//! For a graph `G`, let `P_i = (p_i(1), …, p_i(d))` be node `i`'s
//! distance distribution (fraction of *other* nodes at each hop count;
//! disconnected pairs are assigned bucket `d+1` so distributions compare
//! across graphs of different connectivity). With `μ_G` the average of
//! the `P_i` and `J(·)` the Jensen–Shannon divergence:
//!
//! * the **network node dispersion** `NND(G) = J(P_1,…,P_n) / log(d+1)`
//!   measures distance-distribution heterogeneity;
//! * the dissimilarity is
//!   `D(G, H) = w1 · sqrt(J(μ_G, μ_H) / log 2)
//!            + w2 · |sqrt(NND(G)) − sqrt(NND(H))|`
//!   with the original paper's weights `w1 = w2 = 0.45` renormalized to
//!   sum to 1 (we omit the third, α-centrality term, which mainly
//!   discriminates graph complements — irrelevant for restoration
//!   quality; the omission is the standard "first two terms" variant).

use crate::bfs::{self, BfsScratch, BATCH_WIDTH};
use crate::PropsConfig;
use sgr_graph::components::largest_component_csr;
use sgr_graph::{GraphView, NodeId};

/// Per-node distance distributions, averaged profile, and dispersion.
#[derive(Clone, Debug)]
pub struct DistanceProfile {
    /// `μ_G` — the mean distance distribution. Index `l` = fraction of
    /// ordered pairs at distance `l`; the last bucket holds unreachable
    /// pairs.
    pub mu: Vec<f64>,
    /// `NND(G)` — network node dispersion.
    pub nnd: f64,
}

impl DistanceProfile {
    /// Reduces per-source distance distributions (`dists[i][l]` =
    /// fraction of the other nodes at distance `l` from source `i`, in
    /// source order) to `μ` and the dispersion.
    pub(crate) fn from_distributions(mut dists: Vec<Vec<f64>>) -> Self {
        let mut d_max = 1usize;
        for h in &dists {
            d_max = d_max.max(h.len().saturating_sub(1));
        }
        // Align lengths: buckets 1..=d_max (+ trailing unreachable
        // bucket, always 0 inside the LCC but kept so graphs of different
        // diameters compare in a common space).
        let len = d_max + 2;
        for h in &mut dists {
            h.resize(len, 0.0);
        }
        let mut mu = vec![0.0f64; len];
        for h in &dists {
            for (m, &x) in mu.iter_mut().zip(h.iter()) {
                *m += x / dists.len() as f64;
            }
        }
        // NND: J(P_1..P_S) = (1/S) Σ_i Σ_l p_i(l) ln(p_i(l)/μ(l)).
        let mut j = 0.0f64;
        for h in &dists {
            for (l, &p) in h.iter().enumerate() {
                if p > 0.0 && mu[l] > 0.0 {
                    j += p * (p / mu[l]).ln();
                }
            }
        }
        j /= dists.len() as f64;
        let nnd = (j / ((d_max as f64) + 1.0).ln().max(f64::MIN_POSITIVE)).max(0.0);
        DistanceProfile { mu, nnd }
    }
}

/// Computes the distance profile of (the largest component of) `g`.
/// Above `cfg.exact_threshold` nodes, `cfg.num_pivots` sampled sources
/// are used — an unbiased estimator of both `μ` and the dispersion's
/// node average. The component is extracted straight into a CSR snapshot
/// ([`largest_component_csr`]) and every BFS reads the flat arena
/// (parallel edges and self-loops never change a distance, so no dedup
/// copy is needed). Sources run in multi-source batches on the shared
/// [`crate::bfs`] engine across `cfg.effective_threads()` source chunks;
/// per-source distributions and the `μ`/`NND` reduction are functions of
/// distances alone, so results are bitwise-identical at every thread
/// count and to [`crate::bfs::reference::distance_profile`].
pub fn distance_profile<G: GraphView + Sync>(g: &G, cfg: &PropsConfig) -> DistanceProfile {
    let (lcc, _) = largest_component_csr(g);
    let n = lcc.num_nodes();
    if n < 2 {
        return DistanceProfile {
            mu: vec![0.0],
            nnd: 0.0,
        };
    }
    let (sources, _) = bfs::pivot_sources(n, cfg, 0xd155);
    // Per-source distributions, computed per source chunk and
    // concatenated in chunk order — i.e. in source order, the same
    // sequence the single-threaded loop produces.
    let dists = bfs::run_source_chunks(&lcc, &sources, cfg.effective_threads(), chunk_profiles)
        .into_iter()
        .flatten()
        .collect();
    DistanceProfile::from_distributions(dists)
}

/// One worker's share of the profile pass: the normalized distance
/// distribution of every source in `chunk`, in chunk order. Counts are
/// level-set sizes (exact integers in `f64`), so the distributions are
/// bitwise the ones the reference kernel gives.
fn chunk_profiles<G: GraphView>(g: &G, chunk: &[NodeId]) -> Vec<Vec<f64>> {
    // Normalize over the n-1 other nodes (all reachable in the LCC).
    let norm = (g.num_nodes() - 1) as f64;
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(chunk.len());
    let mut scratch = BfsScratch::new();
    for batch in chunk.chunks(BATCH_WIDTH) {
        scratch.batch(g, batch);
        for i in 0..batch.len() {
            let ecc = scratch.batch_depth(i);
            let mut h = vec![0.0f64; ecc + 1];
            for (l, x) in h.iter_mut().enumerate().skip(1) {
                *x = scratch.batch_count(l, i) as f64 / norm;
            }
            out.push(h);
        }
    }
    out
}

/// Jensen–Shannon divergence of two discrete distributions (natural log),
/// zero-padding the shorter.
pub fn jensen_shannon(p: &[f64], q: &[f64]) -> f64 {
    let len = p.len().max(q.len());
    let get = |xs: &[f64], i: usize| xs.get(i).copied().unwrap_or(0.0);
    let mut js = 0.0f64;
    for i in 0..len {
        let a = get(p, i);
        let b = get(q, i);
        let m = (a + b) / 2.0;
        if a > 0.0 {
            js += 0.5 * a * (a / m).ln();
        }
        if b > 0.0 {
            js += 0.5 * b * (b / m).ln();
        }
    }
    js.max(0.0)
}

/// The dissimilarity `D(G, H) ∈ [0, 1]` (two-term variant, weights
/// renormalized to `0.5 / 0.5`). Zero iff the two graphs have identical
/// distance profiles and dispersion. The two sides may use different
/// [`GraphView`] backends (e.g. a mutable original against a frozen
/// restoration).
pub fn dissimilarity<G: GraphView + Sync, H: GraphView + Sync>(
    g: &G,
    h: &H,
    cfg: &PropsConfig,
) -> f64 {
    let pg = distance_profile(g, cfg);
    let ph = distance_profile(h, cfg);
    let first = (jensen_shannon(&pg.mu, &ph.mu) / 2.0f64.ln()).sqrt();
    let second = (pg.nnd.sqrt() - ph.nnd.sqrt()).abs();
    0.5 * first + 0.5 * second
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, cycle, path, star};
    use sgr_util::Xoshiro256pp;

    fn cfg() -> PropsConfig {
        PropsConfig::default()
    }

    #[test]
    fn identical_graphs_have_zero_dissimilarity() {
        let g = cycle(20);
        assert!(dissimilarity(&g, &g, &cfg()) < 1e-12);
        let g = sgr_gen::holme_kim(300, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(1)).unwrap();
        assert!(dissimilarity(&g, &g, &cfg()) < 1e-12);
    }

    #[test]
    fn complete_graph_profile() {
        // K_n: every node sees all others at distance 1; NND = 0.
        let p = distance_profile(&complete(8), &cfg());
        assert!((p.mu[1] - 1.0).abs() < 1e-12);
        assert!(p.nnd.abs() < 1e-12);
    }

    #[test]
    fn path_has_positive_dispersion() {
        // Path nodes have very different distance distributions.
        let p = distance_profile(&path(20), &cfg());
        assert!(p.nnd > 0.05, "NND = {}", p.nnd);
    }

    #[test]
    fn structurally_different_graphs_score_high_and_same_model_scores_low() {
        let a = complete(30);
        let b = path(30);
        let c = star(29);
        assert!(dissimilarity(&a, &b, &cfg()) > 0.2);
        assert!(dissimilarity(&a, &c, &cfg()) > 0.2);
        // Two draws of the same random model are far closer to each other
        // than either is to a path.
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let e1 = sgr_gen::erdos_renyi_gnm(200, 800, &mut rng).unwrap();
        let e2 = sgr_gen::erdos_renyi_gnm(200, 800, &mut rng).unwrap();
        let d_same = dissimilarity(&e1, &e2, &cfg());
        let d_diff = dissimilarity(&e1, &path(200), &cfg());
        assert!(
            d_same < 0.3 * d_diff,
            "same-model D = {d_same}, vs-path D = {d_diff}"
        );
    }

    #[test]
    fn symmetric_and_bounded() {
        let a = sgr_gen::holme_kim(200, 3, 0.6, &mut Xoshiro256pp::seed_from_u64(2)).unwrap();
        let b = sgr_gen::erdos_renyi_gnm(200, 600, &mut Xoshiro256pp::seed_from_u64(3)).unwrap();
        let d1 = dissimilarity(&a, &b, &cfg());
        let d2 = dissimilarity(&b, &a, &cfg());
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1), "D = {d1}");
    }

    #[test]
    fn engines_and_thread_counts_agree_bitwise() {
        let g = sgr_gen::holme_kim(800, 3, 0.4, &mut Xoshiro256pp::seed_from_u64(11)).unwrap();
        let base = PropsConfig {
            exact_threshold: 0,
            num_pivots: 64,
            threads: 1,
            ..PropsConfig::default()
        };
        let want = crate::bfs::reference::distance_profile(&g, &base);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 4] {
            let got = distance_profile(&g, &PropsConfig { threads, ..base });
            assert_eq!(got.nnd.to_bits(), want.nnd.to_bits());
            assert_eq!(bits(&got.mu), bits(&want.mu));
        }
    }

    #[test]
    fn js_divergence_properties() {
        assert_eq!(jensen_shannon(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        // Disjoint supports: JS = ln 2.
        let js = jensen_shannon(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((js - 2.0f64.ln()).abs() < 1e-12);
        // Length mismatch zero-pads.
        let js = jensen_shannon(&[1.0], &[1.0, 0.0]);
        assert!(js.abs() < 1e-12);
    }

    #[test]
    fn subgraph_of_a_graph_is_measurably_dissimilar() {
        // The future-work use case in miniature: a 10% crawl's subgraph
        // is structurally far from the original, and the measure sees it.
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let g = sgr_gen::holme_kim(600, 4, 0.5, &mut rng).unwrap();
        let mut am = sgr_sample::AccessModel::new(&g);
        let seed = am.random_seed(&mut rng);
        let crawl = sgr_sample::random_walk(&mut am, seed, 60, &mut rng);
        let sub = crawl.subgraph();
        let d_sub = dissimilarity(&g, &sub.graph, &cfg());
        assert!(
            d_sub > 0.02,
            "subgraph dissimilarity suspiciously low: {d_sub}"
        );
    }
}
