//! On-disk job state: specs, terminal statuses, and the restart scan.
//!
//! Each job owns one directory under the server's state root:
//!
//! ```text
//! <root>/job-<id>/
//!   spec.sgrjob      KIND_JOB_SPEC     the full submission, durable
//!                                      before the client sees an id
//!   ckpt/            restoration checkpoints (ckpt-%04d-<stage>.sgrsnap)
//!   result.sgrsnap   KIND_CSR_GRAPH    the restored graph, on success
//!   status.sgrjob    KIND_JOB_STATE    terminal outcome only
//! ```
//!
//! All files go through [`sgr_graph::snapshot::write_section`]
//! (checksummed, tmp + rename + parent-dir fsync), so a crash at any
//! point leaves each file either absent or complete — never torn. The
//! absence of `status.sgrjob` is itself information: the job never
//! reached a terminal state, so a restarting server re-adopts it (from
//! its newest checkpoint when one exists, from the spec otherwise).

use std::io;
use std::path::{Path, PathBuf};

use sgr_core::RestoreConfig;
use sgr_graph::snapshot::{
    read_section, write_section, PayloadReader, PayloadWriter, KIND_JOB_SPEC, KIND_JOB_STATE,
};
use sgr_graph::SnapshotError;
use sgr_sample::{CrawlSpec, WalkKind};

use crate::protocol::{JobState, SubmitRequest};

/// A validated, persisted job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Tenant label for fair scheduling.
    pub tenant: String,
    /// The crawler family.
    pub walk: WalkKind,
    /// Fraction of nodes to crawl.
    pub fraction: f64,
    /// Snowball fan-out cap.
    pub snowball_k: usize,
    /// Forest-fire burn parameter.
    pub burn_prob: f64,
    /// `R_C`, the rewiring-attempts coefficient.
    pub rewiring_coefficient: f64,
    /// Whether to run the rewiring phase.
    pub rewire: bool,
    /// `SubmitRequest::threads`, carried into `RestoreConfig::threads`
    /// (both ignored) so the spec encoding is unchanged.
    pub threads: usize,
    /// The RNG seed.
    pub seed: u64,
    /// Mid-rewire checkpoint cadence.
    pub checkpoint_every: u64,
    /// Fault-injection hook (first run only; 0 = never).
    pub abort_after: u64,
    /// The hidden graph's edge-list bytes.
    pub edges: Vec<u8>,
}

impl JobSpec {
    /// Validates and converts a wire submission. `default_every` fills
    /// `checkpoint_every == 0`.
    pub fn from_request(req: SubmitRequest, default_every: u64) -> Result<Self, String> {
        let walk = WalkKind::from_code(req.walk_code)
            .ok_or_else(|| format!("unknown walk code {}", req.walk_code))?;
        let spec = JobSpec {
            tenant: req.tenant,
            walk,
            fraction: req.fraction,
            snowball_k: usize::try_from(req.snowball_k)
                .map_err(|_| "snowball k overflows usize".to_string())?,
            burn_prob: req.burn_prob,
            rewiring_coefficient: req.rewiring_coefficient,
            rewire: req.rewire,
            threads: usize::try_from(req.threads)
                .map_err(|_| "thread count overflows usize".to_string())?,
            seed: req.seed,
            checkpoint_every: if req.checkpoint_every == 0 {
                default_every
            } else {
                req.checkpoint_every
            },
            abort_after: req.abort_after,
            edges: req.edges,
        };
        spec.crawl_spec().validate()?;
        spec.restore_config()
            .validate()
            .map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// The crawl half of the spec.
    pub fn crawl_spec(&self) -> CrawlSpec {
        CrawlSpec {
            walk: self.walk,
            fraction: self.fraction,
            snowball_k: self.snowball_k,
            burn_prob: self.burn_prob,
        }
    }

    /// The restore half of the spec.
    pub fn restore_config(&self) -> RestoreConfig {
        RestoreConfig {
            rewiring_coefficient: self.rewiring_coefficient,
            rewire: self.rewire,
            threads: self.threads,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_str(&self.tenant);
        w.put_u32(self.walk.code());
        w.put_f64(self.fraction);
        w.put_u64(self.snowball_k as u64);
        w.put_f64(self.burn_prob);
        w.put_f64(self.rewiring_coefficient);
        w.put_bool(self.rewire);
        w.put_u64(self.threads as u64);
        w.put_u64(self.seed);
        w.put_u64(self.checkpoint_every);
        w.put_u64(self.abort_after);
        w.put_byte_slice(&self.edges);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = PayloadReader::new(bytes);
        let tenant = r.get_str()?;
        let walk_code = r.get_u32()?;
        let walk = WalkKind::from_code(walk_code)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown walk code {walk_code}")))?;
        let spec = JobSpec {
            tenant,
            walk,
            fraction: r.get_f64()?,
            snowball_k: usize::try_from(r.get_u64()?)
                .map_err(|_| SnapshotError::Corrupt("snowball k overflows usize".into()))?,
            burn_prob: r.get_f64()?,
            rewiring_coefficient: r.get_f64()?,
            rewire: r.get_bool()?,
            threads: usize::try_from(r.get_u64()?)
                .map_err(|_| SnapshotError::Corrupt("thread count overflows usize".into()))?,
            seed: r.get_u64()?,
            checkpoint_every: r.get_u64()?,
            abort_after: r.get_u64()?,
            edges: r.get_byte_slice()?,
        };
        r.finish()?;
        Ok(spec)
    }

    /// Durably persists the spec (the admission barrier: only after this
    /// returns may the server acknowledge the submission).
    pub fn persist(&self, dir: &Path) -> Result<(), SnapshotError> {
        write_section(spec_path(dir), KIND_JOB_SPEC, &self.encode())
    }

    /// Loads a persisted spec.
    pub fn load(dir: &Path) -> Result<Self, SnapshotError> {
        Self::decode(&read_section(spec_path(dir), KIND_JOB_SPEC)?)
    }
}

/// A job's persisted terminal outcome. Only terminal states are ever
/// written: a missing status file marks a job as in flight (and thus
/// adoptable after a restart).
#[derive(Clone, Debug)]
pub struct TerminalStatus {
    /// [`JobState::Completed`] or [`JobState::Failed`].
    pub state: JobState,
    /// Failure detail (empty on success).
    pub message: String,
    /// Restored node count.
    pub nodes: u64,
    /// Restored edge count.
    pub edges: u64,
    /// Total committed rewiring attempts.
    pub attempts: u64,
    /// Checkpoints written over the job's lifetime.
    pub checkpoints: u64,
}

impl TerminalStatus {
    fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u32(self.state.code());
        w.put_str(&self.message);
        w.put_u64(self.nodes);
        w.put_u64(self.edges);
        w.put_u64(self.attempts);
        w.put_u64(self.checkpoints);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = PayloadReader::new(bytes);
        let code = r.get_u32()?;
        let state = JobState::from_code(code)
            .filter(|s| matches!(s, JobState::Completed | JobState::Failed))
            .ok_or_else(|| SnapshotError::Corrupt(format!("non-terminal state code {code}")))?;
        let s = TerminalStatus {
            state,
            message: r.get_str()?,
            nodes: r.get_u64()?,
            edges: r.get_u64()?,
            attempts: r.get_u64()?,
            checkpoints: r.get_u64()?,
        };
        r.finish()?;
        Ok(s)
    }

    /// Durably persists the terminal outcome (written *after* the result
    /// snapshot, so `Completed` always implies a fetchable result).
    pub fn persist(&self, dir: &Path) -> Result<(), SnapshotError> {
        write_section(status_path(dir), KIND_JOB_STATE, &self.encode())
    }

    /// Loads a persisted terminal outcome, or `None` when the job never
    /// reached one.
    pub fn load(dir: &Path) -> Result<Option<Self>, SnapshotError> {
        let path = status_path(dir);
        if !path.exists() {
            return Ok(None);
        }
        Ok(Some(Self::decode(&read_section(path, KIND_JOB_STATE)?)?))
    }
}

/// `<root>/job-<id>`.
pub fn job_dir(root: &Path, id: u64) -> PathBuf {
    root.join(format!("job-{id}"))
}

/// The job's persisted spec.
pub fn spec_path(dir: &Path) -> PathBuf {
    dir.join("spec.sgrjob")
}

/// The job's checkpoint directory (a `CheckpointPolicy::dir`).
pub fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join("ckpt")
}

/// The job's result snapshot.
pub fn result_path(dir: &Path) -> PathBuf {
    dir.join("result.sgrsnap")
}

/// The job's terminal status file.
pub fn status_path(dir: &Path) -> PathBuf {
    dir.join("status.sgrjob")
}

/// How a restart picks a job back up.
#[derive(Clone, Debug)]
pub enum Adoption {
    /// The job already holds a terminal status; nothing to run.
    Terminal(TerminalStatus),
    /// In flight with durable progress: resume from this checkpoint.
    Resume(PathBuf),
    /// In flight with no checkpoint yet: rerun from the spec (identical
    /// output — the pipeline is a function of the seed).
    Fresh,
}

/// One directory's worth of restart evidence.
#[derive(Debug)]
pub struct ScannedJob {
    /// The job id parsed from the directory name.
    pub id: u64,
    /// The persisted spec.
    pub spec: JobSpec,
    /// What to do with it.
    pub adoption: Adoption,
}

/// The newest checkpoint in `dir`, by the zero-padded sequence number in
/// the `ckpt-%04d-<stage>.sgrsnap` name (lexicographic max).
pub fn latest_checkpoint(dir: &Path) -> io::Result<Option<PathBuf>> {
    if !dir.exists() {
        return Ok(None);
    }
    let mut best: Option<PathBuf> = None;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("ckpt-") && name.ends_with(".sgrsnap")) {
            continue;
        }
        if best.as_deref().and_then(Path::file_name) < path.file_name() {
            best = Some(path);
        }
    }
    Ok(best)
}

/// A job directory `scan_jobs` could not read, with the reason.
pub type SkippedJob = (PathBuf, String);

/// Scans a state root for jobs to adopt, in id order. Directories whose
/// spec is unreadable are skipped (reported via the returned `skipped`
/// list) rather than aborting the whole startup.
pub fn scan_jobs(root: &Path) -> io::Result<(Vec<ScannedJob>, Vec<SkippedJob>)> {
    let mut jobs = Vec::new();
    let mut skipped = Vec::new();
    if !root.exists() {
        return Ok((jobs, skipped));
    }
    for entry in std::fs::read_dir(root)? {
        let dir = entry?.path();
        let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(id) = name
            .strip_prefix("job-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let spec = match JobSpec::load(&dir) {
            Ok(s) => s,
            Err(e) => {
                skipped.push((dir, e.to_string()));
                continue;
            }
        };
        let adoption = match TerminalStatus::load(&dir) {
            Ok(Some(t)) => Adoption::Terminal(t),
            Ok(None) => match latest_checkpoint(&ckpt_dir(&dir))? {
                Some(ckpt) => Adoption::Resume(ckpt),
                None => Adoption::Fresh,
            },
            Err(e) => {
                skipped.push((dir, e.to_string()));
                continue;
            }
        };
        jobs.push(ScannedJob { id, spec, adoption });
    }
    jobs.sort_by_key(|j| j.id);
    Ok((jobs, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgr-job-{}-{}", std::process::id(), tag));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            walk: WalkKind::RandomWalk,
            fraction: 0.1,
            snowball_k: 50,
            burn_prob: 0.7,
            rewiring_coefficient: 10.0,
            rewire: true,
            threads: 1,
            seed: 42,
            checkpoint_every: 1000,
            abort_after: 0,
            edges: b"0 1\n1 2\n2 0\n".to_vec(),
        }
    }

    #[test]
    fn spec_roundtrips_through_disk() {
        let root = tmp_root("spec");
        let dir = job_dir(&root, 3);
        std::fs::create_dir_all(&dir).unwrap();
        spec().persist(&dir).unwrap();
        let back = JobSpec::load(&dir).unwrap();
        assert_eq!(back.seed, 42);
        assert_eq!(back.edges, spec().edges);
        assert_eq!(back.walk, WalkKind::RandomWalk);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn from_request_fills_default_cadence_and_validates() {
        let req = SubmitRequest {
            tenant: String::new(),
            walk_code: 1,
            fraction: 0.1,
            snowball_k: 50,
            burn_prob: 0.7,
            rewiring_coefficient: 500.0,
            rewire: true,
            threads: 1,
            seed: 1,
            checkpoint_every: 0,
            abort_after: 0,
            edges: Vec::new(),
        };
        let s = JobSpec::from_request(req.clone(), 9000).unwrap();
        assert_eq!(s.checkpoint_every, 9000);
        let bad_walk = SubmitRequest {
            walk_code: 99,
            ..req.clone()
        };
        assert!(JobSpec::from_request(bad_walk, 1).is_err());
        let bad_fraction = SubmitRequest {
            fraction: 2.0,
            ..req.clone()
        };
        assert!(JobSpec::from_request(bad_fraction, 1).is_err());
        let nan_rc = SubmitRequest {
            rewiring_coefficient: f64::NAN,
            ..req
        };
        assert!(JobSpec::from_request(nan_rc, 1).is_err());
    }

    #[test]
    fn scan_classifies_terminal_resumable_and_fresh() {
        let root = tmp_root("scan");
        // job-1: terminal.
        let d1 = job_dir(&root, 1);
        std::fs::create_dir_all(&d1).unwrap();
        spec().persist(&d1).unwrap();
        TerminalStatus {
            state: JobState::Completed,
            message: String::new(),
            nodes: 10,
            edges: 20,
            attempts: 100,
            checkpoints: 5,
        }
        .persist(&d1)
        .unwrap();
        // job-2: in flight with checkpoints.
        let d2 = job_dir(&root, 2);
        std::fs::create_dir_all(ckpt_dir(&d2)).unwrap();
        spec().persist(&d2).unwrap();
        for name in ["ckpt-0001-estimated.sgrsnap", "ckpt-0002-rewiring.sgrsnap"] {
            std::fs::write(ckpt_dir(&d2).join(name), b"x").unwrap();
        }
        // job-3: in flight, never checkpointed.
        let d3 = job_dir(&root, 3);
        std::fs::create_dir_all(&d3).unwrap();
        spec().persist(&d3).unwrap();
        // job-4: torn spec — skipped, not fatal.
        let d4 = job_dir(&root, 4);
        std::fs::create_dir_all(&d4).unwrap();
        std::fs::write(spec_path(&d4), b"garbage").unwrap();

        let (jobs, skipped) = scan_jobs(&root).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].id, 1);
        assert!(matches!(jobs[0].adoption, Adoption::Terminal(ref t)
            if t.state == JobState::Completed && t.nodes == 10));
        assert!(matches!(jobs[1].adoption, Adoption::Resume(ref p)
            if p.file_name().unwrap() == "ckpt-0002-rewiring.sgrsnap"));
        assert!(matches!(jobs[2].adoption, Adoption::Fresh));
        assert_eq!(skipped.len(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn terminal_status_rejects_non_terminal_codes() {
        let root = tmp_root("term");
        let dir = job_dir(&root, 1);
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = PayloadWriter::new();
        w.put_u32(JobState::Running.code());
        w.put_str("");
        for _ in 0..4 {
            w.put_u64(0);
        }
        write_section(status_path(&dir), KIND_JOB_STATE, &w.into_bytes()).unwrap();
        assert!(TerminalStatus::load(&dir).is_err());
        std::fs::remove_dir_all(&root).ok();
    }
}
