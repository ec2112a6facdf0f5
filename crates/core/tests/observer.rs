//! Pins the [`sgr_core::PipelineObserver`] contract the `sgr serve` job
//! server depends on: attaching an observer never perturbs results (same
//! RNG stream, same final edge multiset), events arrive in stage order,
//! and progress/checkpoint callbacks carry the committed counters — on
//! fresh runs and on resumed ones, which is how the server adopts
//! interrupted jobs. `SGR_REWIRE_TEST_THREADS` narrows the rewiring
//! widths under test to one, as in the checkpoint-resume suite.

use std::path::PathBuf;

use sgr_core::{
    restore, restore_with_checkpoints, CheckpointPolicy, NoopObserver, PipelineObserver,
    RestoreConfig, RestoreError, RestoreStats,
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

/// Rewiring widths under test: `{1, 4}` by default, or the single width
/// named by `SGR_REWIRE_TEST_THREADS` (the CI override).
fn test_thread_counts() -> Vec<usize> {
    match std::env::var("SGR_REWIRE_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("SGR_REWIRE_TEST_THREADS must be an integer")],
        Err(_) => vec![1, 4],
    }
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
    /// The committed-attempt cursor at each checkpoint.
    checkpoint_attempts: Vec<u64>,
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
    fn checkpoint_written(&mut self, path: &std::path::Path, stats: &RestoreStats) {
        self.checkpoints.push(path.to_path_buf());
        self.checkpoint_attempts.push(stats.rewire_stats.attempts);
    }
}

/// The observed run must be bitwise-identical to the unobserved one, and
/// the recorded events must reflect the pipeline's actual structure.
#[test]
fn observer_is_neutral_and_sees_stage_order() {
    for threads in test_thread_counts() {
        let cfg = RestoreConfig {
            rewiring_coefficient: 5.0,
            rewire: true,
            threads,
        };
        let policy = CheckpointPolicy {
            dir: ckpt_dir(&format!("plain-{threads}")),
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
            dir: ckpt_dir(&format!("observed-{threads}")),
            every: 2_000,
            abort_after: None,
        };
        let (crawl2, mut rng2) = fixed_crawl();
        let mut rec = Recorder::default();
        let observed =
            sgr_core::run(&crawl2, &cfg, &mut rng2, Some(&policy_obs), &mut rec).unwrap();

        // Neutrality: same final graph, same RNG stream position.
        assert_eq!(
            edge_multiset_hash(&plain.graph),
            edge_multiset_hash(&observed.graph)
        );
        assert_eq!(plain_end, rng2.next_u64());

        // Stage order is the pipeline order.
        assert_eq!(rec.stages, ["estimate", "target", "construct", "rewire"]);

        // Progress is monotonic, ends at the total, and mirrors the
        // stats' committed-attempt cursor.
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
}

/// Observed resume, the path the job server adopts interrupted jobs
/// through: a run killed at a mid-rewire checkpoint resumes to the
/// uninterrupted run's graph with a recording observer and without one,
/// and the observer sees the rewiring stage re-entered at the
/// checkpoint's attempt cursor.
#[test]
fn observed_resume_is_neutral_and_continues_from_the_checkpoint() {
    const EVERY: u64 = 1_000;
    for threads in test_thread_counts() {
        let cfg = RestoreConfig {
            rewiring_coefficient: 5.0,
            rewire: true,
            threads,
        };
        let (crawl, mut rng) = fixed_crawl();
        let uninterrupted = restore(&crawl, &cfg, &mut rng).unwrap();

        // Crash after the fifth checkpoint: the three stage boundaries,
        // then two mid-rewire points.
        let killed = CheckpointPolicy {
            dir: ckpt_dir(&format!("killed-{threads}")),
            every: EVERY,
            abort_after: Some(5),
        };
        let (crawl, mut rng) = fixed_crawl();
        let mut first = Recorder::default();
        let checkpoint = match sgr_core::run(&crawl, &cfg, &mut rng, Some(&killed), &mut first) {
            Err(RestoreError::Interrupted { checkpoint }) => checkpoint,
            other => panic!("expected the injected crash, got {:?}", other.err()),
        };
        assert!(
            checkpoint.to_string_lossy().ends_with("rewiring.sgrsnap"),
            "expected a mid-rewire checkpoint, got {}",
            checkpoint.display()
        );
        let cursor = *first.checkpoint_attempts.last().unwrap();
        assert!(cursor > 0);

        let policy = CheckpointPolicy {
            dir: ckpt_dir(&format!("resumed-{threads}")),
            every: EVERY,
            abort_after: None,
        };
        let mut rec = Recorder::default();
        let observed = sgr_core::resume(&checkpoint, None, Some(&policy), &mut rec).unwrap();
        let plain = sgr_core::resume(&checkpoint, None, None, &mut NoopObserver).unwrap();

        let want = edge_multiset_hash(&uninterrupted.graph);
        assert_eq!(edge_multiset_hash(&observed.graph), want);
        assert_eq!(edge_multiset_hash(&plain.graph), want);
        assert_eq!(rec.stages.first(), Some(&"rewire"));
        let (done, total) = rec.progress[0];
        assert_eq!(total, uninterrupted.stats.rewire_stats.attempts);
        assert_eq!(done, (cursor + EVERY).min(total));
        assert_eq!(rec.progress.last().unwrap().0, total);

        for dir in [&killed.dir, &policy.dir] {
            std::fs::remove_dir_all(dir).ok();
        }
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
    sgr_core::run(&crawl, &cfg, &mut rng, Some(&policy), &mut clock).unwrap();
    std::fs::remove_dir_all(&policy.dir).ok();
    let (interval, rewire_secs) = clock.first_progress.expect("rewiring ran");
    assert!(
        rewire_secs >= 0.9 * interval.as_secs_f64(),
        "rewire_secs {rewire_secs:.6} s covers too little of the {:.6} s \
         between the construct checkpoint and the first progress report",
        interval.as_secs_f64()
    );
}
