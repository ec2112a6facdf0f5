//! Pins the [`sgr_core::PipelineObserver`] contract the `sgr serve` job
//! server depends on: attaching an observer never perturbs results (same
//! RNG stream, same final edge multiset), events arrive in stage order,
//! and progress/checkpoint callbacks carry the committed counters.

use std::path::PathBuf;

use sgr_core::{
    restore_with_checkpoints, restore_with_checkpoints_observed, CheckpointPolicy,
    PipelineObserver, RestoreConfig, RestoreStats,
};
use sgr_graph::{Graph, NodeId};
use sgr_sample::random_walk_until_fraction;
use sgr_util::rng::SplitMix64;
use sgr_util::Xoshiro256pp;

fn edge_multiset_hash(g: &Graph) -> u64 {
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    edges.sort_unstable();
    let mut h = 0x5851_f42d_4c95_7f2du64;
    for &(u, v) in &edges {
        h = SplitMix64::new(h ^ (((u as u64) << 32) | v as u64)).next_u64();
    }
    h
}

fn fixed_crawl() -> (sgr_sample::Crawl, Xoshiro256pp) {
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let g = sgr_gen::holme_kim(300, 4, 0.5, &mut rng).unwrap();
    let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
    (crawl, rng)
}

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgr-observer-{}-{}", std::process::id(), tag));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[derive(Default)]
struct Recorder {
    stages: Vec<&'static str>,
    progress: Vec<(u64, u64)>,
    checkpoints: Vec<PathBuf>,
    last_stats_attempts: u64,
}

impl PipelineObserver for Recorder {
    fn stage_started(&mut self, stage: &'static str) {
        self.stages.push(stage);
    }
    fn rewire_progress(&mut self, done: u64, total: u64, stats: &RestoreStats) {
        self.progress.push((done, total));
        self.last_stats_attempts = stats.rewire_stats.attempts;
    }
    fn checkpoint_written(&mut self, path: &std::path::Path, _stats: &RestoreStats) {
        self.checkpoints.push(path.to_path_buf());
    }
}

/// The observed run must be bitwise-identical to the unobserved one, and
/// the recorded events must reflect the pipeline's actual structure.
#[test]
fn observer_is_neutral_and_sees_stage_order() {
    let cfg = RestoreConfig {
        rewiring_coefficient: 5.0,
        rewire: true,
        threads: 1,
    };
    let policy = CheckpointPolicy {
        dir: ckpt_dir("plain"),
        every: 2_000,
        abort_after: None,
    };
    let (crawl, mut rng) = fixed_crawl();
    let plain = restore_with_checkpoints(
        &crawl,
        &cfg,
        &mut rng,
        &mut sgr_dk::ConstructScratch::new(),
        &policy,
    )
    .unwrap();
    let plain_end = rng.next_u64();

    let policy_obs = CheckpointPolicy {
        dir: ckpt_dir("observed"),
        every: 2_000,
        abort_after: None,
    };
    let (crawl2, mut rng2) = fixed_crawl();
    let mut rec = Recorder::default();
    let observed = restore_with_checkpoints_observed(
        &crawl2,
        &cfg,
        &mut rng2,
        &mut sgr_dk::ConstructScratch::new(),
        &policy_obs,
        &mut rec,
    )
    .unwrap();

    // Neutrality: same final graph, same RNG stream position.
    assert_eq!(
        edge_multiset_hash(&plain.graph),
        edge_multiset_hash(&observed.graph)
    );
    assert_eq!(plain_end, rng2.next_u64());

    // Stage order is the pipeline order.
    assert_eq!(rec.stages, ["estimate", "target", "construct", "rewire"]);

    // Progress is monotonic, ends at the total, and mirrors the stats'
    // committed-attempt cursor.
    let total = rec.progress.last().unwrap().1;
    assert!(total > 0);
    assert!(rec.progress.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(rec.progress.last().unwrap().0, total);
    assert_eq!(rec.last_stats_attempts, total);
    assert_eq!(observed.stats.rewire_stats.attempts, total);

    // Every durable checkpoint was reported, in file-sequence order.
    assert_eq!(
        rec.checkpoints.len() as u64,
        observed.stats.checkpoints_written
    );
    assert!(rec
        .checkpoints
        .iter()
        .all(|p| p.starts_with(&policy_obs.dir)));

    for dir in [&policy.dir, &policy_obs.dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Times the hand-off from construction to rewiring: the instant the
/// construct-stage checkpoint is reported, and the instant of the first
/// rewiring progress report with the `rewire_secs` booked by then.
#[derive(Default)]
struct SetupClock {
    constructed_at: Option<std::time::Instant>,
    first_progress: Option<(std::time::Duration, f64)>,
}

impl PipelineObserver for SetupClock {
    fn checkpoint_written(&mut self, path: &std::path::Path, _stats: &RestoreStats) {
        if path.to_string_lossy().ends_with("constructed.sgrsnap") {
            self.constructed_at = Some(std::time::Instant::now());
        }
    }
    fn rewire_progress(&mut self, _done: u64, _total: u64, stats: &RestoreStats) {
        if self.first_progress.is_none() {
            let since = self.constructed_at.expect("construct checkpoint first");
            self.first_progress = Some((since.elapsed(), stats.rewire_secs));
        }
    }
}

/// `rewire_secs` covers the rewiring engine's set-up (multiplicity index,
/// triangle counts, degree buckets), not only its attempts: with a tiny
/// `R_C` the set-up is nearly all of the time between construction and
/// the first progress report, and `rewire_secs` must account for it.
#[test]
fn rewire_secs_include_engine_setup() {
    let mut rng = Xoshiro256pp::seed_from_u64(41);
    let g = sgr_gen::holme_kim(6_000, 4, 0.5, &mut rng).unwrap();
    let crawl = random_walk_until_fraction(&g, 0.3, &mut rng);
    let cfg = RestoreConfig {
        rewiring_coefficient: 0.01,
        rewire: true,
        threads: 1,
    };
    let policy = CheckpointPolicy::at_boundaries(ckpt_dir("setup"));
    let mut clock = SetupClock::default();
    restore_with_checkpoints_observed(
        &crawl,
        &cfg,
        &mut rng,
        &mut sgr_dk::ConstructScratch::new(),
        &policy,
        &mut clock,
    )
    .unwrap();
    std::fs::remove_dir_all(&policy.dir).ok();
    let (interval, rewire_secs) = clock.first_progress.expect("rewiring ran");
    assert!(
        rewire_secs >= 0.9 * interval.as_secs_f64(),
        "rewire_secs {rewire_secs:.6} s covers too little of the {:.6} s \
         between the construct checkpoint and the first progress report",
        interval.as_secs_f64()
    );
}
