//! Fault-injection harness: kill the staged restoration pipeline at every
//! checkpoint — each stage boundary and every mid-rewire point — resume
//! from the file alone, and require the final edge multiset to be
//! **bitwise identical** to the uninterrupted run (pinned by the same
//! committed golden as `pipeline_golden.rs`).
//!
//! The `Interrupted` abort drops all in-memory pipeline state, so these
//! tests prove the checkpoint payload is *complete*: the graph, the RNG
//! stream position and the degree-bucket order all survive the round
//! trip, and a resumed run ends on the same neighbour lists, in order.

use std::path::PathBuf;

use proptest::prelude::*;
use sgr_core::{
    restore, restore_with_checkpoints, resume, CheckpointPolicy, NoopObserver, RestoreConfig,
    RestoreError,
};
use sgr_graph::snapshot::{read_section, write_section, KIND_RESTORE_CHECKPOINT};
use sgr_graph::{Graph, NodeId, SnapshotError};
use sgr_sample::random_walk_until_fraction;
use sgr_util::rng::SplitMix64;
use sgr_util::Xoshiro256pp;

/// The `pipeline_golden.rs` constant for `fixed_crawl(400, 31)` at
/// `R_C = 10`: every resumed run below must land exactly here.
const GOLDEN: u64 = 0xf668_2154_0c29_d43d;

/// Mid-rewire checkpoint cadence used by the exhaustive kill matrix.
const EVERY: u64 = 1_000;

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
    let g = sgr_gen::holme_kim(400, 4, 0.5, &mut rng).unwrap();
    let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
    (crawl, rng)
}

fn cfg(threads: usize) -> RestoreConfig {
    RestoreConfig {
        rewiring_coefficient: 10.0,
        rewire: true,
        threads,
    }
}

/// A fresh, unique checkpoint directory.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgr-ckpt-resume-{}-{}", std::process::id(), tag));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the pipeline with fault injection after checkpoint `n`, returning
/// the checkpoint the simulated crash left behind.
fn run_until_crash(threads: usize, every: u64, n: u64, dir: PathBuf) -> PathBuf {
    let (crawl, mut rng) = fixed_crawl();
    let policy = CheckpointPolicy {
        dir,
        every,
        abort_after: Some(n),
    };
    let mut scratch = sgr_dk::ConstructScratch::new();
    match restore_with_checkpoints(&crawl, &cfg(threads), &mut rng, &mut scratch, &policy) {
        Err(RestoreError::Interrupted { checkpoint }) => checkpoint,
        Ok(_) => panic!("abort_after {n} never fired (too few checkpoints)"),
        Err(other) => panic!("unexpected pipeline error: {other}"),
    }
}

/// Checkpointing must be observation-only: a fully checkpointed run lands
/// on the same golden hash as the plain run.
#[test]
fn checkpointed_run_is_bitwise_identical_to_plain_run() {
    let (crawl, mut rng) = fixed_crawl();
    let plain = restore(&crawl, &cfg(1), &mut rng).unwrap();
    assert_eq!(edge_multiset_hash(&plain.graph), GOLDEN);

    let dir = ckpt_dir("observe");
    let (crawl, mut rng) = fixed_crawl();
    let policy = CheckpointPolicy {
        dir: dir.clone(),
        every: EVERY,
        abort_after: None,
    };
    let mut scratch = sgr_dk::ConstructScratch::new();
    let ckpt = restore_with_checkpoints(&crawl, &cfg(1), &mut rng, &mut scratch, &policy).unwrap();
    assert_eq!(
        edge_multiset_hash(&ckpt.graph),
        GOLDEN,
        "checkpoint writes perturbed the stream"
    );
    // Three stage boundaries plus at least three mid-rewire points — the
    // cadence the kill matrix below relies on.
    assert!(
        ckpt.stats.checkpoints_written >= 6,
        "expected >= 6 checkpoints, wrote {}",
        ckpt.stats.checkpoints_written
    );
    assert_eq!(
        ckpt.stats.rewire_stats.accepted,
        plain.stats.rewire_stats.accepted
    );
    assert_eq!(
        ckpt.stats.rewire_stats.final_distance.to_bits(),
        plain.stats.rewire_stats.final_distance.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The exhaustive kill matrix: crash after *every* checkpoint the run
/// writes — estimated, targeted, constructed, and each mid-rewire point —
/// and resume from the orphaned file. Every resumed run must reproduce
/// the golden hash and the uninterrupted run's rewiring counters.
#[test]
fn kill_and_resume_at_every_checkpoint_matches_golden() {
    // Learn the checkpoint count from one uninterrupted run.
    let dir = ckpt_dir("census");
    let (crawl, mut rng) = fixed_crawl();
    let policy = CheckpointPolicy {
        dir: dir.clone(),
        every: EVERY,
        abort_after: None,
    };
    let mut scratch = sgr_dk::ConstructScratch::new();
    let baseline =
        restore_with_checkpoints(&crawl, &cfg(1), &mut rng, &mut scratch, &policy).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let total_checkpoints = baseline.stats.checkpoints_written;

    for n in 1..=total_checkpoints {
        let dir = ckpt_dir(&format!("kill-{n}"));
        let checkpoint = run_until_crash(1, EVERY, n, dir.clone());
        let resumed = resume(&checkpoint, None, &mut NoopObserver)
            .unwrap_or_else(|e| panic!("resume from checkpoint {n} failed: {e}"));
        assert_eq!(
            edge_multiset_hash(&resumed.graph),
            GOLDEN,
            "kill after checkpoint {n}/{total_checkpoints} diverged on resume"
        );
        // Not only the multiset: the same neighbour lists, in order.
        assert_eq!(resumed.graph.num_nodes(), baseline.graph.num_nodes());
        for u in baseline.graph.nodes() {
            assert_eq!(
                resumed.graph.neighbors(u),
                baseline.graph.neighbors(u),
                "kill after checkpoint {n}: node {u}'s neighbours"
            );
        }
        assert_eq!(
            resumed.stats.rewire_stats.attempts,
            baseline.stats.rewire_stats.attempts
        );
        assert_eq!(
            resumed.stats.rewire_stats.accepted,
            baseline.stats.rewire_stats.accepted
        );
        assert_eq!(
            resumed.stats.rewire_stats.final_distance.to_bits(),
            baseline.stats.rewire_stats.final_distance.to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `RestoreConfig::threads` is ignored but still checkpointed, so files
/// written under any value must resume to the same golden.
#[test]
fn checkpoint_resumes_across_engines() {
    for threads in [0, 4, usize::MAX] {
        // Checkpoint 5 is deep inside rewiring (after 1 estimated +
        // 1 targeted + 1 constructed + 2 mid-rewire writes).
        let dir = ckpt_dir(&format!("cross-{threads}"));
        let checkpoint = run_until_crash(threads, EVERY, 5, dir.clone());
        assert!(
            checkpoint.to_string_lossy().contains("rewiring"),
            "expected a mid-rewire checkpoint, got {}",
            checkpoint.display()
        );
        let resumed = resume(&checkpoint, None, &mut NoopObserver).unwrap();
        assert_eq!(
            edge_multiset_hash(&resumed.graph),
            GOLDEN,
            "checkpoint written with threads = {threads} diverged on resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A resumed run under a fresh policy keeps checkpointing — and a resume
/// of *that* run still lands on the golden (checkpoint-of-checkpoint).
#[test]
fn resumed_run_can_itself_be_killed_and_resumed() {
    let dir = ckpt_dir("chain-a");
    let first = run_until_crash(1, EVERY, 4, dir.clone());
    let dir_b = ckpt_dir("chain-b");
    let policy = CheckpointPolicy {
        dir: dir_b.clone(),
        every: EVERY,
        // The first resume gets two checkpoints in and crashes again.
        abort_after: Some(first_checkpoint_count(&first) + 2),
    };
    let second = match resume(&first, Some(&policy), &mut NoopObserver) {
        Err(RestoreError::Interrupted { checkpoint }) => checkpoint,
        Ok(_) => panic!("second crash never fired"),
        Err(other) => panic!("unexpected error: {other}"),
    };
    let resumed = resume(&second, None, &mut NoopObserver).unwrap();
    assert_eq!(edge_multiset_hash(&resumed.graph), GOLDEN);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Number of checkpoints already recorded inside a checkpoint file,
/// recovered from its sequence-numbered file name.
fn first_checkpoint_count(path: &std::path::Path) -> u64 {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    name.strip_prefix("ckpt-")
        .and_then(|s| s.split('-').next())
        .and_then(|s| s.parse().ok())
        .expect("checkpoint file names carry their sequence number")
}

/// Corruption must surface as the container's typed errors through the
/// pipeline API — never a panic, never silent garbage.
#[test]
fn corrupted_checkpoints_fail_with_typed_errors() {
    let dir = ckpt_dir("corrupt");
    let checkpoint = run_until_crash(1, EVERY, 3, dir.clone());
    let bytes = std::fs::read(&checkpoint).unwrap();

    // Payload bit flip → checksum mismatch.
    let mut flipped = bytes.clone();
    let mid = 32 + (flipped.len() - 32) / 2;
    flipped[mid] ^= 0x01;
    let path = dir.join("flipped.sgrsnap");
    std::fs::write(&path, &flipped).unwrap();
    match resume(&path, None, &mut NoopObserver) {
        Err(RestoreError::Snapshot(SnapshotError::ChecksumMismatch)) => {}
        other => panic!("expected ChecksumMismatch, got {:?}", other.err()),
    }

    // Truncation → Truncated.
    let path = dir.join("truncated.sgrsnap");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    match resume(&path, None, &mut NoopObserver) {
        Err(RestoreError::Snapshot(SnapshotError::Truncated)) => {}
        other => panic!("expected Truncated, got {:?}", other.err()),
    }

    // Future format version → UnsupportedVersion.
    let mut versioned = bytes.clone();
    versioned[8] = versioned[8].wrapping_add(1);
    let path = dir.join("versioned.sgrsnap");
    std::fs::write(&path, &versioned).unwrap();
    match resume(&path, None, &mut NoopObserver) {
        Err(RestoreError::Snapshot(SnapshotError::UnsupportedVersion(_))) => {}
        other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
    }

    // Missing file → Io.
    match resume(&dir.join("nope.sgrsnap"), None, &mut NoopObserver) {
        Err(RestoreError::Snapshot(SnapshotError::Io(_))) => {}
        other => panic!("expected Io, got {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A mid-rewire checkpoint under the retired stage tag 4, whose engine
/// state carried running float sums, is refused with a typed error and
/// never decoded — even when the bytes after the tag would decode.
#[test]
fn retired_rewiring_stage_tag_is_refused() {
    let dir = ckpt_dir("retired-tag");
    let checkpoint = run_until_crash(1, EVERY, 4, dir.clone());
    assert!(checkpoint.to_string_lossy().contains("rewiring"));
    let mut payload = read_section(&checkpoint, KIND_RESTORE_CHECKPOINT).unwrap();
    assert_eq!(payload[..4], 5u32.to_le_bytes(), "rewiring stage tag");
    payload[..4].copy_from_slice(&4u32.to_le_bytes());
    let path = dir.join("retired.sgrsnap");
    write_section(&path, KIND_RESTORE_CHECKPOINT, &payload).unwrap();
    match resume(&path, None, &mut NoopObserver) {
        Err(RestoreError::Snapshot(SnapshotError::Corrupt(msg))) => {
            assert!(msg.contains("stage tag 4"), "{msg}")
        }
        other => panic!(
            "expected Corrupt, got {:?}",
            other.map(|r| r.stats.rewire_stats.attempts)
        ),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint's configuration is validated like a caller's: an `R_C`
/// patched to NaN or −1 must not resume into a silently unrewired graph,
/// and +∞ must not resume into a run that never finishes.
#[test]
fn resumed_config_is_validated() {
    let dir = ckpt_dir("invalid-rc");
    let checkpoint = run_until_crash(1, EVERY, 1, dir.clone());
    let payload = read_section(&checkpoint, KIND_RESTORE_CHECKPOINT).unwrap();
    // NaN and −1 first: unvalidated, they finish (with zero attempts)
    // instead of hanging like +∞.
    for rc in [f64::NAN, -1.0, f64::INFINITY] {
        let mut patched = payload.clone();
        // R_C follows the u32 stage tag and the four u64 RNG words.
        patched[36..44].copy_from_slice(&rc.to_bits().to_le_bytes());
        let path = dir.join("patched.sgrsnap");
        write_section(&path, KIND_RESTORE_CHECKPOINT, &patched).unwrap();
        match resume(&path, None, &mut NoopObserver) {
            Err(RestoreError::InvalidRewiringCoefficient(got)) => {
                assert_eq!(got.to_bits(), rc.to_bits())
            }
            other => panic!(
                "R_C = {rc}: expected InvalidRewiringCoefficient, got {:?}",
                other.map(|r| r.stats.rewire_stats.attempts)
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized mid-rewire kill points: whatever cadence the checkpoint
    /// lands on, resumption reproduces the golden hash exactly.
    #[test]
    fn resume_from_proptest_chosen_rewire_point_matches_golden(
        every in 200u64..800,
        extra in 0u64..3,
    ) {
        let dir = ckpt_dir(&format!("prop-{every}-{extra}"));
        // 4 + extra: past the three boundary checkpoints, somewhere in
        // the mid-rewire sequence (cadence `every` keeps it in range).
        let checkpoint = run_until_crash(1, every, 4 + extra, dir.clone());
        prop_assert!(checkpoint.to_string_lossy().contains("rewiring"));
        let resumed = resume(&checkpoint, None, &mut NoopObserver).unwrap();
        prop_assert_eq!(edge_multiset_hash(&resumed.graph), GOLDEN);
        std::fs::remove_dir_all(&dir).ok();
    }
}
