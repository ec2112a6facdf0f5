//! Serialization of the restoration pipeline's intermediate state.
//!
//! Each checkpoint is one [`sgr_graph::snapshot`] section of kind
//! [`KIND_RESTORE_CHECKPOINT`]: the container supplies the magic, version,
//! checksum, and atomic-replace discipline (see the "Checkpoint format"
//! spec in that module); this module defines the payload.
//!
//! ## Payload layout (within one `FORMAT_VERSION`)
//!
//! All integers little-endian, floats as IEEE-754 bit patterns, slices
//! length-prefixed — the [`PayloadWriter`] conventions. In order:
//!
//! 1. **stage tag** (`u32`): 1 = estimated, 2 = targeted, 3 = constructed,
//!    5 = rewiring. Tag 4 was the rewiring stage of builds whose engine
//!    carried running float sums in its state; such a checkpoint is
//!    refused as [`SnapshotError::Corrupt`] before anything after the tag
//!    is decoded;
//! 2. **RNG state**: the four `u64` words of the sequential
//!    `Xoshiro256++` stream at the checkpoint instant;
//! 3. **config**: rewiring coefficient (`f64`), rewire flag, thread count;
//! 4. **stats so far**: phase wall times, checkpoint overhead, and the
//!    cumulative rewiring counters;
//! 5. **subgraph** `G'`: adjacency (degree slice + flat neighbor slice,
//!    order-preserving), `orig_id`, `queried` flags;
//! 6. **estimates**: `n̂`, `k̄̂`, `P̂(k)`, `ĉ̄(k)`, and the upper triangle
//!    of `P̂(k,k')` as sorted `(k, k', value)` triples (the symmetric half
//!    is re-mirrored on load — targeting reads cells point-wise, so map
//!    iteration order never matters);
//! 7. **stage-specific state** (see [`StageData`]). Every stage after
//!    estimation opens with `k*_max`. A mid-rewire checkpoint then
//!    stores the rewiring engine's own encoding of its resumable state
//!    ([`RewireState`], written by [`RewireEngine::encode_state`]: the
//!    graph, the candidate slots and the degree-bucket order — integers
//!    only), then the attempt budget; this module never looks inside the
//!    engine's part.
//!
//! Every slice length and `k*_max` are cross-validated on load; any
//! inconsistency is a typed [`SnapshotError::Corrupt`], never a panic.
//!
//! ## Durability contract
//!
//! The fault-injection suite (`checkpoint_resume.rs`) simulates a crash
//! *after* a checkpoint write returns; the container guarantees make that
//! simulation honest. Precisely: when `write_section` returns `Ok`,
//!
//! 1. **the checkpoint's bytes are on stable storage** — the temp file is
//!    fsynced before the rename, so the content cannot be lost to a
//!    subsequent power failure;
//! 2. **the checkpoint's *name* is on stable storage** — the parent
//!    directory is fsynced after the rename, so the file cannot vanish
//!    from the directory on power loss (a bare atomic rename only
//!    guarantees readers never observe a half-written file; without the
//!    directory fsync the rename itself may still be undone by a crash);
//! 3. **the previous checkpoint was never at risk** — the rename replaces
//!    it atomically, so at every instant at least one complete, valid
//!    checkpoint exists under a deterministic name.
//!
//! A crash at any point therefore leaves either the old file, the new
//! file, or both (new under its final name, stale `.tmp` sibling) — never
//! nothing and never a torn file. Resumption needs only the newest
//! complete checkpoint; the `sgr serve` job server's adoption scan relies
//! on the same contract for its job-state records.

use std::path::Path;

use crate::target_dv::{self, TargetDv};
use crate::target_jdm::TargetJdm;
use crate::{RestoreConfig, RestoreStats};
use sgr_dk::rewire::{RewireEngine, RewireState, RewireStats};
use sgr_estimate::Estimates;
use sgr_graph::snapshot::{
    read_section, write_section, PayloadReader, PayloadWriter, KIND_RESTORE_CHECKPOINT,
};
use sgr_graph::{Graph, NodeId, SnapshotError};
use sgr_sample::Subgraph;
use sgr_util::FxHashMap;

/// Stage tags (payload field 1).
const STAGE_ESTIMATED: u32 = 1;
const STAGE_TARGETED: u32 = 2;
const STAGE_CONSTRUCTED: u32 = 3;
/// The retired rewiring tag, whose engine state carried running float
/// sums; refused, never decoded.
const STAGE_REWIRING_FLOAT_SUMS: u32 = 4;
const STAGE_REWIRING: u32 = 5;

/// Borrowed view of the stage-specific state, for writing without
/// cloning the (possibly large) arenas out of a live engine.
pub(crate) enum StageRef<'a> {
    /// After Phase 0 (estimation + subgraph induction).
    Estimated,
    /// After Phases 1–2 (target degree vector + joint degree matrix).
    Targeted {
        dv: &'a TargetDv,
        jdm: &'a TargetJdm,
    },
    /// After Phase 3 (construction); `k_max` is the target `k*_max`
    /// needed to rebuild the clustering target vector.
    Constructed {
        k_max: usize,
        graph: &'a Graph,
        added_edges: &'a [(NodeId, NodeId)],
    },
    /// Mid-Phase-4: the live rewiring engine, which encodes its own
    /// resumable state.
    Rewiring {
        k_max: usize,
        engine: &'a RewireEngine,
        total_attempts: u64,
    },
}

impl StageRef<'_> {
    /// Stable name used in checkpoint file names and diagnostics.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            StageRef::Estimated => "estimated",
            StageRef::Targeted { .. } => "targeted",
            StageRef::Constructed { .. } => "constructed",
            StageRef::Rewiring { .. } => "rewiring",
        }
    }

    fn tag(&self) -> u32 {
        match self {
            StageRef::Estimated => STAGE_ESTIMATED,
            StageRef::Targeted { .. } => STAGE_TARGETED,
            StageRef::Constructed { .. } => STAGE_CONSTRUCTED,
            StageRef::Rewiring { .. } => STAGE_REWIRING,
        }
    }
}

/// Owned stage-specific state: what a checkpoint loads, and what the
/// stage loop carries from one stage to the next.
pub(crate) enum StageData {
    Estimated,
    Targeted {
        dv: TargetDv,
        jdm: TargetJdm,
    },
    Constructed {
        k_max: usize,
        graph: Graph,
        added_edges: Vec<(NodeId, NodeId)>,
    },
    Rewiring {
        k_max: usize,
        state: RewireState,
        total_attempts: u64,
    },
}

/// A fully decoded checkpoint: everything the pipeline driver needs to
/// continue as if the original process had never died.
pub(crate) struct Checkpoint {
    pub cfg: RestoreConfig,
    pub rng_state: [u64; 4],
    pub stats: RestoreStats,
    pub subgraph: Subgraph,
    pub estimates: Estimates,
    pub stage: StageData,
}

fn put_subgraph(w: &mut PayloadWriter, sg: &Subgraph) {
    w.put_graph(&sg.graph);
    w.put_u32_slice(&sg.orig_id);
    let flags: Vec<u32> = sg.queried.iter().map(|&q| q as u32).collect();
    w.put_u32_slice(&flags);
}

fn get_subgraph(r: &mut PayloadReader) -> Result<Subgraph, SnapshotError> {
    let graph = r.get_graph()?;
    let orig_id = r.get_u32_slice()?;
    let flags = r.get_u32_slice()?;
    if orig_id.len() != graph.num_nodes() || flags.len() != graph.num_nodes() {
        return Err(SnapshotError::Corrupt(format!(
            "subgraph side arrays ({} ids, {} flags) disagree with {} nodes",
            orig_id.len(),
            flags.len(),
            graph.num_nodes()
        )));
    }
    let mut queried = Vec::with_capacity(flags.len());
    for f in flags {
        match f {
            0 => queried.push(false),
            1 => queried.push(true),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "queried flag must be 0 or 1, found {other}"
                )))
            }
        }
    }
    Ok(Subgraph {
        graph,
        orig_id,
        queried,
    })
}

fn put_estimates(w: &mut PayloadWriter, est: &Estimates) {
    w.put_f64(est.n_hat);
    w.put_f64(est.avg_degree_hat);
    w.put_f64_slice(&est.degree_dist);
    w.put_f64_slice(&est.clustering);
    // Upper triangle only, sorted: the on-disk form is canonical even
    // though the in-memory map is hash-ordered.
    let mut cells: Vec<(u32, u32, f64)> = est
        .jdd
        .iter()
        .filter(|&(&(k, k2), _)| k <= k2)
        .map(|(&(k, k2), &v)| (k, k2, v))
        .collect();
    cells.sort_unstable_by_key(|&(k, k2, _)| (k, k2));
    let ks: Vec<u32> = cells.iter().map(|c| c.0).collect();
    let k2s: Vec<u32> = cells.iter().map(|c| c.1).collect();
    let vals: Vec<f64> = cells.iter().map(|c| c.2).collect();
    w.put_u32_slice(&ks);
    w.put_u32_slice(&k2s);
    w.put_f64_slice(&vals);
}

fn get_estimates(r: &mut PayloadReader) -> Result<Estimates, SnapshotError> {
    let n_hat = r.get_f64()?;
    let avg_degree_hat = r.get_f64()?;
    let degree_dist = r.get_f64_slice()?;
    let clustering = r.get_f64_slice()?;
    let ks = r.get_u32_slice()?;
    let k2s = r.get_u32_slice()?;
    let vals = r.get_f64_slice()?;
    if ks.len() != k2s.len() || ks.len() != vals.len() {
        return Err(SnapshotError::Corrupt(format!(
            "JDD triple arrays disagree: {} / {} / {}",
            ks.len(),
            k2s.len(),
            vals.len()
        )));
    }
    let mut jdd: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    for i in 0..ks.len() {
        let (k, k2, v) = (ks[i], k2s[i], vals[i]);
        if k > k2 {
            return Err(SnapshotError::Corrupt(format!(
                "JDD triple ({k},{k2}) not in upper-triangle order"
            )));
        }
        jdd.insert((k, k2), v);
        jdd.insert((k2, k), v);
    }
    Ok(Estimates {
        n_hat,
        avg_degree_hat,
        degree_dist,
        jdd,
        clustering,
    })
}

fn put_stats(w: &mut PayloadWriter, st: &RestoreStats) {
    w.put_f64(st.estimate_secs);
    w.put_f64(st.target_secs);
    w.put_f64(st.construct_secs);
    w.put_f64(st.stub_matching_secs);
    w.put_f64(st.rewire_secs);
    w.put_f64(st.checkpoint_secs);
    w.put_u64(st.checkpoints_written);
    w.put_u64(st.rewire_stats.attempts);
    w.put_u64(st.rewire_stats.accepted);
    w.put_u64(st.rewire_stats.skipped);
    w.put_f64(st.rewire_stats.initial_distance);
    w.put_f64(st.rewire_stats.final_distance);
    w.put_u64(st.candidate_edges as u64);
}

fn get_stats(r: &mut PayloadReader) -> Result<RestoreStats, SnapshotError> {
    Ok(RestoreStats {
        estimate_secs: r.get_f64()?,
        target_secs: r.get_f64()?,
        construct_secs: r.get_f64()?,
        stub_matching_secs: r.get_f64()?,
        rewire_secs: r.get_f64()?,
        checkpoint_secs: r.get_f64()?,
        checkpoints_written: r.get_u64()?,
        rewire_stats: RewireStats {
            attempts: r.get_u64()?,
            accepted: r.get_u64()?,
            skipped: r.get_u64()?,
            // Not checkpointed (see the field): counts restart at resume.
            filtered: 0,
            initial_distance: r.get_f64()?,
            final_distance: r.get_f64()?,
        },
        candidate_edges: r.get_u64()? as usize,
        nodes: 0,
        edges: 0,
    })
}

/// Serializes one checkpoint atomically (write-temp + rename; see the
/// container spec in [`sgr_graph::snapshot`]).
pub(crate) fn write_checkpoint(
    path: &Path,
    cfg: &RestoreConfig,
    rng_state: [u64; 4],
    stats: &RestoreStats,
    subgraph: &Subgraph,
    estimates: &Estimates,
    stage: &StageRef<'_>,
) -> Result<(), SnapshotError> {
    let mut w = PayloadWriter::new();
    w.put_u32(stage.tag());
    for word in rng_state {
        w.put_u64(word);
    }
    w.put_f64(cfg.rewiring_coefficient);
    w.put_bool(cfg.rewire);
    w.put_u64(cfg.threads as u64);
    put_stats(&mut w, stats);
    put_subgraph(&mut w, subgraph);
    put_estimates(&mut w, estimates);
    match stage {
        StageRef::Estimated => {}
        StageRef::Targeted { dv, jdm } => {
            w.put_u64(dv.k_max as u64);
            w.put_u64_slice(&dv.n_star);
            w.put_u64_slice(&dv.n_prime);
            w.put_u32_slice(&dv.d_star);
            w.put_f64_slice(&dv.n_hat_k);
            let (jk_max, m_star, m_hat, m_prime) = jdm.raw_parts();
            w.put_u64(jk_max as u64);
            w.put_u64_slice(m_star);
            w.put_f64_slice(m_hat);
            w.put_u64_slice(m_prime);
        }
        StageRef::Constructed {
            k_max,
            graph,
            added_edges,
        } => {
            w.put_u64(*k_max as u64);
            w.put_graph(graph);
            w.put_pairs(added_edges);
        }
        StageRef::Rewiring {
            k_max,
            engine,
            total_attempts,
        } => {
            w.put_u64(*k_max as u64);
            engine.encode_state(&mut w);
            w.put_u64(*total_attempts);
        }
    }
    write_section(path, KIND_RESTORE_CHECKPOINT, &w.into_bytes())
}

/// Loads and fully validates a checkpoint.
pub(crate) fn read_checkpoint(path: &Path) -> Result<Checkpoint, SnapshotError> {
    decode_checkpoint(&read_section(path, KIND_RESTORE_CHECKPOINT)?)
}

/// Decodes and fully validates a checkpoint payload.
fn decode_checkpoint(payload: &[u8]) -> Result<Checkpoint, SnapshotError> {
    let mut r = PayloadReader::new(payload);
    let tag = r.get_u32()?;
    if tag == STAGE_REWIRING_FLOAT_SUMS {
        return Err(SnapshotError::Corrupt(format!(
            "stage tag {tag}: a mid-rewire checkpoint of an older build, whose rewiring \
             state this build cannot resume; restart from an earlier stage"
        )));
    }
    if !matches!(tag, STAGE_ESTIMATED..=STAGE_CONSTRUCTED | STAGE_REWIRING) {
        return Err(SnapshotError::Corrupt(format!(
            "unknown pipeline stage tag {tag}"
        )));
    }
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.get_u64()?;
    }
    let cfg = RestoreConfig {
        rewiring_coefficient: r.get_f64()?,
        rewire: r.get_bool()?,
        threads: r.get_u64()? as usize,
    };
    let stats = get_stats(&mut r)?;
    let subgraph = get_subgraph(&mut r)?;
    let estimates = get_estimates(&mut r)?;
    // Later stages size per-degree vectors by k*_max, so the stored word
    // must be the one targeting derives from the estimates and subgraph.
    let k_max = target_dv::k_max(&subgraph, &estimates);
    if tag != STAGE_ESTIMATED {
        let stored = r.get_u64()?;
        if stored != k_max as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "k*_max {stored} disagrees with the {k_max} of the estimates and subgraph"
            )));
        }
    }
    let stage = match tag {
        STAGE_ESTIMATED => StageData::Estimated,
        STAGE_TARGETED => {
            let n_star = r.get_u64_slice()?;
            let n_prime = r.get_u64_slice()?;
            let d_star = r.get_u32_slice()?;
            let n_hat_k = r.get_f64_slice()?;
            if n_star.len() != k_max + 1 || n_prime.len() != k_max + 1 {
                return Err(SnapshotError::Corrupt(format!(
                    "DV arrays ({} / {}) disagree with k_max {k_max}",
                    n_star.len(),
                    n_prime.len()
                )));
            }
            let dv = TargetDv {
                n_star,
                n_prime,
                d_star,
                k_max,
                n_hat_k,
            };
            if r.get_u64()? != k_max as u64 {
                return Err(SnapshotError::Corrupt(
                    "JDM k_max disagrees with k*_max".into(),
                ));
            }
            let m_star = r.get_u64_slice()?;
            let m_hat = r.get_f64_slice()?;
            let m_prime = r.get_u64_slice()?;
            let jdm = TargetJdm::from_raw_parts(k_max, m_star, m_hat, m_prime)
                .map_err(SnapshotError::Corrupt)?;
            StageData::Targeted { dv, jdm }
        }
        STAGE_CONSTRUCTED => {
            let graph = r.get_graph()?;
            let added_edges = r.get_pairs()?;
            StageData::Constructed {
                k_max,
                graph,
                added_edges,
            }
        }
        STAGE_REWIRING => {
            let state = RewireState::decode(&mut r)?;
            let total_attempts = r.get_u64()?;
            if stats.rewire_stats.attempts > total_attempts {
                return Err(SnapshotError::Corrupt(format!(
                    "completed attempts {} exceed total {total_attempts}",
                    stats.rewire_stats.attempts
                )));
            }
            StageData::Rewiring {
                k_max,
                state,
                total_attempts,
            }
        }
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown pipeline stage tag {other}"
            )))
        }
    };
    r.finish()?;
    Ok(Checkpoint {
        cfg,
        rng_state,
        stats,
        subgraph,
        estimates,
        stage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointPolicy, NoopObserver, RestoreError};
    use sgr_graph::snapshot::{decode_section, encode_section, write_section};
    use sgr_util::Xoshiro256pp;
    use std::path::PathBuf;

    /// Runs a small checkpointed restore and returns checkpoint `n`, the
    /// file a crash right after it would leave in `dir`.
    fn checkpoint_after(n: u64, dir: &Path) -> PathBuf {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let g = sgr_gen::holme_kim(400, 4, 0.5, &mut rng).unwrap();
        let crawl = sgr_sample::random_walk_until_fraction(&g, 0.1, &mut rng);
        let cfg = RestoreConfig {
            rewiring_coefficient: 10.0,
            rewire: true,
            threads: 1,
        };
        let policy = CheckpointPolicy {
            dir: dir.to_path_buf(),
            every: 1_000,
            abort_after: Some(n),
        };
        let mut scratch = sgr_dk::ConstructScratch::new();
        match crate::restore_with_checkpoints(&crawl, &cfg, &mut rng, &mut scratch, &policy) {
            Err(RestoreError::Interrupted { checkpoint }) => checkpoint,
            Ok(_) => panic!("checkpoint {n} never written"),
            Err(other) => panic!("unexpected pipeline error: {other}"),
        }
    }

    /// A false `k*_max` word is refused as `Corrupt` before it sizes the
    /// clustering target, in the constructed and the rewiring stage alike:
    /// a huge one must not abort on allocation, nor an off-by-one one
    /// resume.
    #[test]
    fn checkpoint_with_a_false_k_max_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("sgr-ckpt-k-max-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (n, stage) in [(3, "constructed"), (4, "rewiring")] {
            let path = checkpoint_after(n, &dir);
            assert!(path.to_string_lossy().contains(stage), "{path:?}");
            let payload = read_section(&path, KIND_RESTORE_CHECKPOINT).unwrap();
            let ck = read_checkpoint(&path).unwrap();
            // The k*_max word follows the fields every stage shares.
            let mut w = PayloadWriter::new();
            w.put_u32(STAGE_CONSTRUCTED);
            for word in ck.rng_state {
                w.put_u64(word);
            }
            w.put_f64(ck.cfg.rewiring_coefficient);
            w.put_bool(ck.cfg.rewire);
            w.put_u64(ck.cfg.threads as u64);
            put_stats(&mut w, &ck.stats);
            put_subgraph(&mut w, &ck.subgraph);
            put_estimates(&mut w, &ck.estimates);
            let at = w.into_bytes().len();
            let k_max = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            assert_eq!(k_max, target_dv::k_max(&ck.subgraph, &ck.estimates) as u64);
            for false_k_max in [1 << 40, k_max + 1] {
                let mut patched = payload.clone();
                patched[at..at + 8].copy_from_slice(&false_k_max.to_le_bytes());
                let bad = dir.join("false-k-max.sgrsnap");
                write_section(&bad, KIND_RESTORE_CHECKPOINT, &patched).unwrap();
                match crate::resume(&bad, None, &mut NoopObserver) {
                    Err(RestoreError::Snapshot(SnapshotError::Corrupt(msg))) => {
                        assert!(msg.contains("k*_max"), "{msg}")
                    }
                    other => panic!(
                        "{stage}, k*_max {false_k_max}: expected Corrupt, got {:?}",
                        other.map(|r| r.stats.rewire_stats.attempts)
                    ),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncations and single-bit flips of a real checkpoint's payload at
    /// each stage, resealed in a valid section so that they get past the
    /// checksum. Decoding returns a checkpoint or a typed error and never
    /// panics, and every truncation is refused. A decoded mid-rewire state
    /// also goes through `RewireEngine::resume` with its clustering target.
    /// (`crate::resume` is left out: a flipped `total_attempts` word can
    /// ask it for an unbounded run.) A full decode takes milliseconds in a
    /// debug build, so the cases are a fixed-seed sample of each payload's
    /// prefixes and bits, plus every prefix and bit of its first 64 bytes.
    #[test]
    fn resealed_truncations_and_bit_flips_never_panic() {
        const SAMPLES: usize = 600;
        let dir = std::env::temp_dir().join(format!("sgr-ckpt-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let decode = |payload: &[u8]| {
            let section = encode_section(KIND_RESTORE_CHECKPOINT, payload);
            let ck = decode_checkpoint(decode_section(&section, KIND_RESTORE_CHECKPOINT)?)?;
            if let StageData::Rewiring { k_max, state, .. } = ck.stage {
                RewireEngine::resume(state, &crate::clustering_target(&ck.estimates, k_max))?;
            }
            Ok::<(), SnapshotError>(())
        };
        let mut rng = Xoshiro256pp::seed_from_u64(27);
        for (n, stage) in [
            (1, "estimated"),
            (2, "targeted"),
            (3, "constructed"),
            (4, "rewiring"),
        ] {
            let path = checkpoint_after(n, &dir);
            assert!(path.to_string_lossy().contains(stage), "{path:?}");
            let payload = read_section(&path, KIND_RESTORE_CHECKPOINT).unwrap();
            decode(&payload).unwrap();
            let lens = (0..64).chain((0..SAMPLES).map(|_| rng.gen_range(payload.len())));
            for len in lens {
                assert!(
                    decode(&payload[..len]).is_err(),
                    "{stage}: {len}-byte prefix"
                );
            }
            let bits = (0..64 * 8).chain((0..SAMPLES).map(|_| rng.gen_range(payload.len() * 8)));
            let mut flipped = payload.clone();
            for bit in bits {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A payload that passes the container's checksum but decodes to
    /// garbage must surface as `Corrupt`, never panic.
    #[test]
    fn well_formed_container_with_garbage_payload_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("sgr-ckpt-garbage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.sgrsnap");
        // Stage tag 9 does not exist.
        let mut w = PayloadWriter::new();
        w.put_u32(9);
        write_section(&path, KIND_RESTORE_CHECKPOINT, &w.into_bytes()).unwrap();
        match read_checkpoint(&path) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("stage tag")),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got a decoded checkpoint"),
        }
        // Truncated payload (valid container, not enough bytes for the
        // fixed header fields).
        let mut w = PayloadWriter::new();
        w.put_u32(STAGE_ESTIMATED);
        w.put_u64(1);
        write_section(&path, KIND_RESTORE_CHECKPOINT, &w.into_bytes()).unwrap();
        assert!(read_checkpoint(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
