//! The reproducible version of Gjoka et al.'s 2.5K generation method
//! (Appendix B of the paper).
//!
//! Same estimates, same machinery — but **no use of the sampled
//! subgraph**: the target degree vector and joint degree matrix skip their
//! modification steps, the graph is built from an empty graph, and every
//! edge is a rewiring candidate (`Ẽ_rew = Ẽ`). The contrast with
//! [`crate::restore`] is exactly the paper's proposed-vs-baseline
//! comparison (and the source of both the accuracy gap on `c̄(k)` and the
//! several-fold rewiring-time gap).

use crate::{RestoreConfig, RestoreError, RestoreStats};
use sgr_dk::construct::{wire_stubs_with, ConstructScratch};
use sgr_dk::extract::JointDegreeMatrix;
use sgr_dk::rewire::RewireStats;
use sgr_estimate::{estimate_all, Estimates};
use sgr_graph::Graph;
use sgr_sample::Crawl;
use sgr_util::{FxHashMap, Xoshiro256pp};

/// Output of the Gjoka et al. baseline.
#[derive(Debug)]
pub struct GjokaOutput {
    /// The generated graph.
    pub graph: Graph,
    /// An order-preserving CSR snapshot of `graph`, frozen after rewiring
    /// (see [`crate::Restored::snapshot`]).
    pub snapshot: sgr_graph::CsrGraph,
    /// The estimates used as targets.
    pub estimates: Estimates,
    /// Phase timings and counters (same shape as the proposed method's).
    pub stats: RestoreStats,
}

/// Runs Gjoka et al.'s method (Appendix B) from a random-walk crawl.
///
/// Shares [`RestoreConfig`] with the proposed method:
/// `rewiring_coefficient` is `R_C` (500 in the paper), `rewire: false`
/// stops after construction, and `threads` selects the rewiring engine
/// (results are identical at every thread count).
pub fn generate(
    crawl: &Crawl,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
) -> Result<GjokaOutput, RestoreError> {
    generate_with(crawl, cfg, rng, &mut ConstructScratch::new())
}

/// [`generate`] against caller-owned stub-matching scratch (identical
/// results; a warm scratch makes the construction phase's stub matching
/// allocation-free — see [`crate::restore_with`]).
pub fn generate_with(
    crawl: &Crawl,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
    scratch: &mut ConstructScratch,
) -> Result<GjokaOutput, RestoreError> {
    if crawl.num_queried() == 0 {
        return Err(RestoreError::EmptyCrawl);
    }
    let te = std::time::Instant::now();
    let estimates = estimate_all(crawl)?;
    let estimate_secs = te.elapsed().as_secs_f64();
    // Targets without subgraph modification steps.
    let t0 = std::time::Instant::now();
    let mut dv = crate::target_dv::build_gjoka(&estimates);
    let jdm = crate::target_jdm::build_gjoka(&estimates, &mut dv)?;
    let target_secs = t0.elapsed().as_secs_f64();

    // Construction from an empty graph: every node takes its degree from
    // the target degree sequence; every edge comes from stub matching.
    let t1 = std::time::Instant::now();
    let n_total = dv.num_nodes() as usize;
    let mut g = Graph::with_nodes(n_total);
    let mut dseq: Vec<u32> = Vec::with_capacity(n_total);
    for k in 1..=dv.k_max {
        for _ in 0..dv.n_star[k] {
            dseq.push(k as u32);
        }
    }
    sgr_util::sampling::shuffle(&mut dseq, rng);
    let mut add: JointDegreeMatrix = FxHashMap::default();
    for (k, k2, star, _) in jdm.upper_entries() {
        if star > 0 {
            add.insert((k as u32, k2 as u32), star);
        }
    }
    let tm = std::time::Instant::now();
    wire_stubs_with(&mut g, &dseq, &add, rng, scratch)?;
    let stub_matching_secs = tm.elapsed().as_secs_f64();
    // Move the edge list out of the scratch instead of copying it.
    let candidates = scratch.take_added();
    let construct_secs = t1.elapsed().as_secs_f64();

    // Rewiring with every edge as a candidate (Ẽ_rew = Ẽ).
    let t2 = std::time::Instant::now();
    let candidate_edges = candidates.len();
    let (graph, rewire_stats) = if cfg.rewire && candidate_edges > 0 {
        let mut target_c = estimates.clustering.clone();
        target_c.resize(dv.k_max + 1, 0.0);
        crate::run_rewiring(
            g,
            candidates,
            &target_c,
            cfg.rewiring_coefficient,
            cfg.threads,
            rng,
        )
    } else {
        (g, RewireStats::default())
    };
    let rewire_secs = t2.elapsed().as_secs_f64();

    let stats = RestoreStats {
        estimate_secs,
        target_secs,
        construct_secs,
        stub_matching_secs,
        rewire_secs,
        rewire_stats,
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        candidate_edges,
        // The baseline stays a monolith: no staging, no checkpoints.
        ..RestoreStats::default()
    };
    let snapshot = graph.freeze();
    Ok(GjokaOutput {
        graph,
        snapshot,
        estimates,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_dk::extract::joint_degree_matrix;
    use sgr_sample::random_walk_until_fraction;

    fn cfg(rc: f64) -> RestoreConfig {
        RestoreConfig {
            rewiring_coefficient: rc,
            ..RestoreConfig::default()
        }
    }

    fn run(n: usize, frac: f64, seed: u64, rc: f64) -> (Graph, GjokaOutput) {
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
