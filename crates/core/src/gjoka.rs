//! The reproducible version of Gjoka et al.'s 2.5K generation method
//! (Appendix B of the paper): the proposed pipeline run on an empty
//! subgraph.
//!
//! Appendix B is the proposed method without the sampled subgraph, and
//! `V' = ∅` is exactly that: Algorithm 2 has no node to assign (no RNG
//! draw, `n' = 0`, empty `d*`), Algorithm 4 has no `m'` to dominate,
//! construction starts from an empty graph, and every edge is added, so
//! rewiring runs over `Ẽ_rew = Ẽ`. The contrast with [`crate::restore`]
//! is the paper's proposed-vs-baseline comparison (the accuracy gap on
//! `c̄(k)` and the several-fold rewiring-time gap). The Gjoka goldens in
//! `crates/core/tests/pipeline_golden.rs` pin the baseline's RNG stream.

use crate::{NoopObserver, RestoreConfig, RestoreError, Restored};
use sgr_sample::{Crawl, Subgraph};
use sgr_util::Xoshiro256pp;

/// Runs Gjoka et al.'s method (Appendix B) from a random-walk crawl.
///
/// Shares [`RestoreConfig`] with the proposed method:
/// `rewiring_coefficient` is `R_C` (500 in the paper), `rewire: false`
/// stops after construction, and `threads` is ignored. The returned
/// [`Restored::subgraph`] is empty.
pub fn generate(
    crawl: &Crawl,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
) -> Result<Restored, RestoreError> {
    let empty = |_: &Crawl| Subgraph::empty();
    crate::start(crawl, empty, cfg, rng, None, &mut NoopObserver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_dk::extract::joint_degree_matrix;
    use sgr_graph::Graph;
    use sgr_sample::random_walk_until_fraction;

    fn cfg(rc: f64) -> RestoreConfig {
        RestoreConfig {
            rewiring_coefficient: rc,
            ..RestoreConfig::default()
        }
    }

    fn run(n: usize, frac: f64, seed: u64, rc: f64) -> (Graph, Restored) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = sgr_gen::holme_kim(n, 4, 0.5, &mut rng).unwrap();
        let crawl = random_walk_until_fraction(&g, frac, &mut rng);
        let out = generate(&crawl, &cfg(rc), &mut rng).unwrap();
        (g, out)
    }

    #[test]
    fn generated_graph_realizes_its_targets() {
        let (_, out) = run(600, 0.1, 1, 10.0);
        out.graph.validate().unwrap();
        // Degree vector internally consistent with the measured JDM (the
        // generator's own invariant).
        let jdm = joint_degree_matrix(&out.graph);
        assert!(sgr_dk::extract::jdm_matches_degree_vector(
            &jdm,
            &out.graph.degree_vector()
        ));
    }

    #[test]
    fn size_tracks_the_estimate() {
        // The generator's own invariant is fidelity to n̂ (the estimate),
        // not to the hidden truth — the estimator's noise at small sample
        // sizes is the estimator's business, tested in sgr-estimate.
        let (_, out) = run(800, 0.1, 2, 5.0);
        let n_gen = out.graph.num_nodes() as f64;
        assert!(
            (n_gen - out.estimates.n_hat).abs() / out.estimates.n_hat < 0.1,
            "generated n = {n_gen} vs n̂ = {}",
            out.estimates.n_hat
        );
    }

    #[test]
    fn all_edges_are_candidates() {
        let (_, out) = run(500, 0.1, 3, 2.0);
        assert_eq!(out.stats.candidate_edges, out.stats.edges);
        assert_eq!(out.subgraph.num_nodes(), 0);
    }

    #[test]
    fn estimation_is_timed_apart_from_targeting() {
        let (_, out) = run(500, 0.1, 6, 1.0);
        assert!(out.stats.estimate_secs > 0.0);
        assert!(out.stats.target_secs > 0.0);
    }

    #[test]
    fn empty_crawl_errors() {
        let crawl = Crawl::default();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        assert!(generate(&crawl, &cfg(10.0), &mut rng).is_err());
    }

    #[test]
    fn threads_knob_never_changes_results() {
        let run_with = |threads: usize| {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            let g = sgr_gen::holme_kim(500, 4, 0.5, &mut rng).unwrap();
            let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
            let cfg = RestoreConfig {
                rewiring_coefficient: 10.0,
                rewire: true,
                threads,
            };
            generate(&crawl, &cfg, &mut rng).unwrap()
        };
        let base = run_with(1);
        for threads in [2, 4] {
            let r = run_with(threads);
            assert_eq!(
                base.graph.edges().collect::<Vec<_>>(),
                r.graph.edges().collect::<Vec<_>>(),
                "threads = {threads} changed the generated graph"
            );
            assert_eq!(
                base.stats.rewire_stats.final_distance.to_bits(),
                r.stats.rewire_stats.final_distance.to_bits()
            );
        }
    }

    #[test]
    fn rewiring_moves_toward_clustering_target() {
        let (_, out) = run(600, 0.12, 5, 20.0);
        let s = out.stats.rewire_stats;
        assert!(s.final_distance <= s.initial_distance);
    }
}
