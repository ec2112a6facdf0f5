//! # sgr-core
//!
//! The paper's primary contribution: **social graph restoration from a
//! random-walk sample** (§IV), plus the reproducible version of Gjoka et
//! al.'s 2.5K baseline (Appendix B).
//!
//! Given a [`Crawl`] produced by a simple random walk, [`run`] executes
//! the four phases of the proposed method:
//!
//! 1. **Target degree vector** `{n*(k)}` ([`target_dv`]) — initialize
//!    from `n̂ P̂(k)`, adjust to an even degree sum (Algorithm 1), and
//!    modify so every subgraph node can keep (queried) or grow to
//!    (visible) its target degree (Algorithm 2);
//! 2. **Target joint degree matrix** `{m*(k,k')}` ([`target_jdm`]) —
//!    initialize from `n̂ k̄̂ P̂(k,k')/µ`, adjust the per-degree marginals
//!    to `k·n*(k)` (Algorithm 3), modify to dominate the subgraph's JDM
//!    (Algorithm 4), and re-adjust with the subgraph as a lower bound;
//! 3. **Construction** ([`construct`]) — extend `G'` with new nodes and
//!    stub-matched edges so the result preserves `{n*(k)}` and
//!    `{m*(k,k')}` exactly (Algorithm 5);
//! 4. **Rewiring** ([`sgr_dk::rewire`]) — equal-degree edge swaps over
//!    the *added* edges only (`Ẽ_rew = Ẽ \ E'`), greedily minimizing the
//!    L1 distance to `{ĉ̄(k)}` (Algorithm 6).
//!
//! [`gjoka::generate`] is the baseline: the same stages on an empty
//! subgraph. Appendix B is the proposed method without `G'`, and with
//! `V' = ∅` every subgraph step is a no-op and every edge is rewirable.
//!
//! # Entry points
//!
//! There are two general ones. [`run`] restores from a crawl, and
//! [`resume`] continues from a checkpoint file; both take an optional
//! [`CheckpointPolicy`] and a [`PipelineObserver`]. Both drive one stage
//! loop over the owned stage state: a fresh run enters it after
//! estimation, a resumed run at the stage its checkpoint stores, and each
//! stage consumes its inputs and yields the next. [`restore`] and
//! [`restore_with_checkpoints`] are shorthands for [`run`].

pub mod construct;
pub mod gjoka;
pub mod target_dv;
pub mod target_jdm;

mod checkpoint;

/// Re-exported for callers of [`construct::extend_subgraph_with`], and of
/// [`restore_with_checkpoints`] (whose signature still takes one), so
/// they need not depend on `sgr_dk` directly.
pub use sgr_dk::ConstructScratch;

use std::path::{Path, PathBuf};
use std::time::Instant;

use checkpoint::{StageData, StageRef};
use sgr_dk::rewire::{RewireEngine, RewireStats};
use sgr_estimate::{estimate_all, EstimateError, Estimates};
use sgr_graph::{CsrGraph, Graph, SnapshotError};
use sgr_sample::{Crawl, Subgraph};
use sgr_util::Xoshiro256pp;
use target_dv::TargetDv;
use target_jdm::TargetJdm;

/// Configuration of the restoration pipeline.
#[derive(Clone, Copy, Debug)]
pub struct RestoreConfig {
    /// `R_C` — the rewiring-attempts coefficient (`R = R_C · |Ẽ_rew|`).
    /// The paper uses 500 (§V-E).
    pub rewiring_coefficient: f64,
    /// Set false to stop after Phase 3 (used by ablations).
    pub rewire: bool,
    /// Ignored; retire at the next benchmark change. Algorithm 6 runs on
    /// the one sequential [`RewireEngine`] whatever this holds. The field
    /// stays because the benchmark harness builds this struct from a
    /// literal, and checkpoints still record it so their encoding is
    /// unchanged.
    pub threads: usize,
}

impl Default for RestoreConfig {
    fn default() -> Self {
        Self {
            rewiring_coefficient: 500.0,
            rewire: true,
            threads: 1,
        }
    }
}

impl RestoreConfig {
    /// Requires a finite, non-negative `R_C`: NaN or negative would
    /// silently skip rewiring, infinity would never finish.
    pub fn validate(&self) -> Result<(), RestoreError> {
        let rc = self.rewiring_coefficient;
        if rc.is_finite() && rc >= 0.0 {
            Ok(())
        } else {
            Err(RestoreError::InvalidRewiringCoefficient(rc))
        }
    }
}

/// Errors from the restoration pipeline.
#[derive(Debug)]
pub enum RestoreError {
    /// `R_C` is NaN, infinite or negative.
    InvalidRewiringCoefficient(f64),
    /// The walk was too short for the estimators.
    Estimate(EstimateError),
    /// Target construction failed (Algorithm 3 non-convergence —
    /// indicates corrupted inputs, surfaced instead of panicking).
    Target(target_jdm::TargetError),
    /// Internal construction failure (violated realizability conditions —
    /// indicates a bug, surfaced instead of panicking).
    Construct(sgr_dk::DkError),
    /// The crawl contains no queried nodes.
    EmptyCrawl,
    /// A checkpoint could not be written, or a checkpoint being resumed
    /// was missing, corrupted, truncated, or version-mismatched (see
    /// [`sgr_graph::snapshot`] for the per-failure variants).
    Snapshot(SnapshotError),
    /// The fault injector stopped the pipeline right after persisting
    /// the named checkpoint (test harness: a simulated crash — all
    /// in-memory state is dropped; only the file survives).
    Interrupted {
        /// The last checkpoint written before the simulated crash.
        checkpoint: PathBuf,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::InvalidRewiringCoefficient(rc) => write!(
                f,
                "rewiring coefficient must be finite and non-negative, got {rc}"
            ),
            RestoreError::Estimate(e) => write!(f, "estimation failed: {e}"),
            RestoreError::Target(e) => write!(f, "target construction failed: {e}"),
            RestoreError::Construct(e) => write!(f, "construction failed: {e}"),
            RestoreError::EmptyCrawl => write!(f, "crawl contains no queried node"),
            RestoreError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            RestoreError::Interrupted { checkpoint } => write!(
                f,
                "pipeline interrupted by fault injection after writing {}",
                checkpoint.display()
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

impl From<EstimateError> for RestoreError {
    fn from(e: EstimateError) -> Self {
        RestoreError::Estimate(e)
    }
}

impl From<target_jdm::TargetError> for RestoreError {
    fn from(e: target_jdm::TargetError) -> Self {
        RestoreError::Target(e)
    }
}

impl From<sgr_dk::DkError> for RestoreError {
    fn from(e: sgr_dk::DkError) -> Self {
        RestoreError::Construct(e)
    }
}

/// Timings and counters from one restoration run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreStats {
    /// Wall time of the estimation stage (estimators + subgraph
    /// induction). Zero for runs resumed past that stage in a prior
    /// process — resumed runs restore the timings recorded in the
    /// checkpoint, so the sum still covers the whole pipeline.
    pub estimate_secs: f64,
    /// Wall time of the target-construction stage (Algorithms 1–4).
    pub target_secs: f64,
    /// Wall time of Phase 3 (adding nodes and edges).
    pub construct_secs: f64,
    /// Wall time of stub matching proper within Phase 3 (wiring free
    /// half-edges class by class), excluding node addition and
    /// degree-sequence shuffling.
    pub stub_matching_secs: f64,
    /// Wall time of Phase 4 (rewiring), including the engine set-up —
    /// the multiplicity index and triangle counts of a fresh engine, or
    /// the restore of a checkpointed one.
    pub rewire_secs: f64,
    /// Rewiring detail.
    pub rewire_stats: RewireStats,
    /// Number of nodes in the generated graph.
    pub nodes: usize,
    /// Number of edges in the generated graph.
    pub edges: usize,
    /// Number of rewirable (added) edges `|Ẽ_rew|`.
    pub candidate_edges: usize,
    /// Wall time spent serializing checkpoints (crash-safety overhead;
    /// excluded from [`RestoreStats::total_secs`] so checkpointed and
    /// plain runs report comparable generation times).
    pub checkpoint_secs: f64,
    /// Number of checkpoints persisted, including any restored run's
    /// earlier ones.
    pub checkpoints_written: u64,
}

impl RestoreStats {
    /// Total generation time (the paper's Table IV "Total"); checkpoint
    /// I/O is tracked separately in `checkpoint_secs`.
    pub fn total_secs(&self) -> f64 {
        self.estimate_secs + self.target_secs + self.construct_secs + self.rewire_secs
    }
}

/// The outcome of a restoration.
#[derive(Debug)]
pub struct Restored {
    /// The generated graph `G̃` (contains `G'` as node ids `0..|V'|`).
    pub graph: Graph,
    /// An order-preserving CSR snapshot of `graph`, frozen once after the
    /// last mutation (rewiring). Hand this — not `graph` — to the
    /// read-only consumers (property computation, dissimilarity, layout);
    /// it reads the same but traverses a flat arena.
    pub snapshot: CsrGraph,
    /// The subgraph `G'` the generation started from.
    pub subgraph: Subgraph,
    /// The re-weighted estimates used as targets.
    pub estimates: Estimates,
    /// Phase timings and counters.
    pub stats: RestoreStats,
}

/// When and where the staged pipeline persists checkpoints.
///
/// With a policy in place the pipeline writes one checkpoint after each
/// completed stage (estimate, target, construct) and — when `every > 0` —
/// one every `every` committed rewiring attempts. Files are named
/// `ckpt-<seq>-<stage>.sgrsnap` inside `dir` and written atomically
/// (temp + rename), so a crash mid-write never destroys the previous
/// checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory receiving the checkpoint files (must exist).
    pub dir: PathBuf,
    /// Mid-rewire checkpoint cadence in committed swap attempts;
    /// `0` checkpoints at stage boundaries only.
    pub every: u64,
    /// Fault-injection hook: simulate a crash by aborting with
    /// [`RestoreError::Interrupted`] immediately after the `n`-th
    /// checkpoint (1-based) has been persisted. All in-memory pipeline
    /// state is dropped; resumption must work from the file alone.
    pub abort_after: Option<u64>,
}

impl CheckpointPolicy {
    /// Checkpoints at stage boundaries only, no fault injection.
    pub fn at_boundaries(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 0,
            abort_after: None,
        }
    }
}

/// Observer of staged-pipeline progress, for long-running hosts (the
/// `sgr serve` job server) that report "stage, committed rewiring
/// attempts, stats so far" to remote clients while a restoration runs.
///
/// All methods have empty defaults; implementations must be cheap — they
/// run on the pipeline thread, between rewiring chunks. The observer
/// never influences results: it receives immutable views only, and the
/// pipeline consumes the identical RNG stream whether or not one is
/// attached (pinned by the server determinism suite).
pub trait PipelineObserver {
    /// A pipeline stage (`estimate`, `target`, `construct`, `rewire`) is
    /// about to run. On resume, fires for the stage being re-entered.
    fn stage_started(&mut self, _stage: &'static str) {}

    /// A rewiring chunk committed: `done` of `total` attempts are in,
    /// with the cumulative stats so far (including restored-from-
    /// checkpoint history).
    fn rewire_progress(&mut self, _done: u64, _total: u64, _stats: &RestoreStats) {}

    /// A checkpoint was persisted durably at `path`.
    fn checkpoint_written(&mut self, _path: &Path, _stats: &RestoreStats) {}
}

/// The do-nothing observer, for callers of [`run`] and [`resume`] that
/// want no progress reports; [`restore`] and [`restore_with_checkpoints`]
/// pass it.
pub struct NoopObserver;

impl PipelineObserver for NoopObserver {}

/// The pipeline driver: configuration, checkpoint policy, progress
/// observer, and the stats accumulated across stages (and, on resume,
/// across processes).
struct Driver<'a> {
    cfg: RestoreConfig,
    policy: Option<&'a CheckpointPolicy>,
    stats: RestoreStats,
    observer: &'a mut dyn PipelineObserver,
}

impl<'a> Driver<'a> {
    /// Validates `cfg` before any stage runs. Fresh and resumed runs
    /// both come through here, so a checkpoint's configuration is held
    /// to the same rules as a caller's.
    fn new(
        cfg: RestoreConfig,
        policy: Option<&'a CheckpointPolicy>,
        stats: RestoreStats,
        observer: &'a mut dyn PipelineObserver,
    ) -> Result<Self, RestoreError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            policy,
            stats,
            observer,
        })
    }

    /// Persists a checkpoint if a policy is active; returns the
    /// fault-injected `Interrupted` error when this write is the
    /// configured crash point.
    fn checkpoint(
        &mut self,
        rng: &Xoshiro256pp,
        subgraph: &Subgraph,
        estimates: &Estimates,
        stage: StageRef<'_>,
    ) -> Result<(), RestoreError> {
        let Some(policy) = self.policy else {
            return Ok(());
        };
        let t = Instant::now();
        // The count includes the checkpoint being written, so a resumed
        // run continues the file numbering instead of overwriting.
        self.stats.checkpoints_written += 1;
        let path = policy.dir.join(format!(
            "ckpt-{:04}-{}.sgrsnap",
            self.stats.checkpoints_written,
            stage.name()
        ));
        checkpoint::write_checkpoint(
            &path,
            &self.cfg,
            rng.state(),
            &self.stats,
            subgraph,
            estimates,
            &stage,
        )?;
        self.stats.checkpoint_secs += t.elapsed().as_secs_f64();
        self.observer.checkpoint_written(&path, &self.stats);
        if policy.abort_after == Some(self.stats.checkpoints_written) {
            return Err(RestoreError::Interrupted { checkpoint: path });
        }
        Ok(())
    }
}

/// `{ĉ̄(k)}` resized to the target degree range — the rewiring phase's
/// objective vector. Derived (not checkpointed): it is a pure function
/// of the estimates and `k*_max`.
fn clustering_target(estimates: &Estimates, k_max: usize) -> Vec<f64> {
    let mut target_c = estimates.clustering.clone();
    target_c.resize(k_max + 1, 0.0);
    target_c
}

/// The stage loop: runs the pipeline from `stage` — `Estimated` for a
/// fresh run, the checkpointed stage for a resumed one — to the end.
/// Each arm consumes its stage's state and yields the next stage, so the
/// targets and the stub-matching scratch are freed before the rewiring
/// engine is built.
fn run_stages(
    mut driver: Driver<'_>,
    subgraph: Subgraph,
    estimates: Estimates,
    mut stage: StageData,
    rng: &mut Xoshiro256pp,
) -> Result<Restored, RestoreError> {
    loop {
        stage = match stage {
            StageData::Estimated => stage_target(&mut driver, &subgraph, &estimates, rng)?,
            StageData::Targeted { dv, jdm } => {
                stage_construct(&mut driver, &subgraph, &estimates, dv, jdm, rng)?
            }
            StageData::Constructed {
                k_max,
                graph,
                added_edges,
            } => {
                let candidates = added_edges.len();
                driver.stats.candidate_edges = candidates;
                if !driver.cfg.rewire || candidates == 0 {
                    return Ok(finish(driver.stats, subgraph, estimates, graph));
                }
                let total = (driver.cfg.rewiring_coefficient * candidates as f64).ceil() as u64;
                let fresh = |c: &[f64]| Ok(RewireEngine::new(graph, added_edges, c));
                return stage_rewire(driver, subgraph, estimates, k_max, total, rng, fresh);
            }
            StageData::Rewiring {
                k_max,
                state,
                total_attempts: total,
            } => {
                let resumed = |c: &[f64]| RewireEngine::resume(state, c);
                return stage_rewire(driver, subgraph, estimates, k_max, total, rng, resumed);
            }
        };
    }
}

/// Stage 1 → 2: target degree vector + joint degree matrix
/// (Algorithms 1–4).
fn stage_target(
    driver: &mut Driver<'_>,
    subgraph: &Subgraph,
    estimates: &Estimates,
    rng: &mut Xoshiro256pp,
) -> Result<StageData, RestoreError> {
    driver.observer.stage_started("target");
    let t = Instant::now();
    let mut dv = target_dv::build(subgraph, estimates, rng);
    let jdm = target_jdm::build(subgraph, estimates, &mut dv)?;
    driver.stats.target_secs += t.elapsed().as_secs_f64();
    driver.checkpoint(
        rng,
        subgraph,
        estimates,
        StageRef::Targeted { dv: &dv, jdm: &jdm },
    )?;
    Ok(StageData::Targeted { dv, jdm })
}

/// Stage 2 → 3: node addition + stub matching (Algorithm 5). The
/// targets and the stub-matching scratch die here, before the
/// checkpoint write.
fn stage_construct(
    driver: &mut Driver<'_>,
    subgraph: &Subgraph,
    estimates: &Estimates,
    dv: TargetDv,
    jdm: TargetJdm,
    rng: &mut Xoshiro256pp,
) -> Result<StageData, RestoreError> {
    driver.observer.stage_started("construct");
    let t = Instant::now();
    let built =
        construct::extend_subgraph_with(subgraph, &dv, &jdm, rng, &mut ConstructScratch::new())?;
    driver.stats.construct_secs += t.elapsed().as_secs_f64();
    driver.stats.stub_matching_secs += built.stub_matching_secs;
    let k_max = dv.k_max;
    drop((dv, jdm));
    driver.checkpoint(
        rng,
        subgraph,
        estimates,
        StageRef::Constructed {
            k_max,
            graph: &built.graph,
            added_edges: &built.added_edges,
        },
    )?;
    Ok(StageData::Constructed {
        k_max,
        graph: built.graph,
        added_edges: built.added_edges,
    })
}

/// Stage 4 (rewiring over the added edges only, Algorithm 6) and
/// completion. `engine` is how the engine is obtained — built fresh
/// after construction or resumed from a mid-rewire checkpoint — and its
/// set-up counts toward `rewire_secs` either way.
///
/// The `total` attempts run in checkpoint-sized chunks. Chunking is
/// bitwise-neutral (`run_attempts` in pieces reproduces one big run
/// exactly — the engines' own equivalence tests pin this), so
/// checkpointed, resumed, and straight-through runs all land on the same
/// graph. `driver.stats.rewire_stats.attempts` is the committed-attempt
/// cursor, carried across processes by the checkpoint.
fn stage_rewire(
    mut driver: Driver<'_>,
    subgraph: Subgraph,
    estimates: Estimates,
    k_max: usize,
    total: u64,
    rng: &mut Xoshiro256pp,
    engine: impl FnOnce(&[f64]) -> Result<RewireEngine, SnapshotError>,
) -> Result<Restored, RestoreError> {
    let t = Instant::now();
    let mut engine = engine(&clustering_target(&estimates, k_max))?;
    driver.stats.rewire_secs += t.elapsed().as_secs_f64();
    driver.observer.stage_started("rewire");
    loop {
        let done = driver.stats.rewire_stats.attempts;
        let remaining = total - done;
        let chunk = match driver.policy {
            Some(p) if p.every > 0 => remaining.min(p.every),
            _ => remaining,
        };
        let t = Instant::now();
        let s = engine.run_attempts(chunk, rng);
        driver.stats.rewire_secs += t.elapsed().as_secs_f64();
        if done == 0 {
            driver.stats.rewire_stats.initial_distance = s.initial_distance;
        }
        driver.stats.rewire_stats.attempts = done + chunk;
        driver.stats.rewire_stats.accepted += s.accepted;
        driver.stats.rewire_stats.skipped += s.skipped;
        driver.stats.rewire_stats.filtered += s.filtered;
        driver.stats.rewire_stats.final_distance = s.final_distance;
        driver
            .observer
            .rewire_progress(driver.stats.rewire_stats.attempts, total, &driver.stats);
        if driver.stats.rewire_stats.attempts >= total {
            return Ok(finish(
                driver.stats,
                subgraph,
                estimates,
                engine.into_graph(),
            ));
        }
        driver.checkpoint(
            rng,
            &subgraph,
            &estimates,
            StageRef::Rewiring {
                k_max,
                engine: &engine,
                total_attempts: total,
            },
        )?;
    }
}

/// Seals the run: final counters, the one-and-only CSR freeze, and the
/// `Restored` bundle.
fn finish(
    mut stats: RestoreStats,
    subgraph: Subgraph,
    estimates: Estimates,
    graph: Graph,
) -> Restored {
    stats.nodes = graph.num_nodes();
    stats.edges = graph.num_edges();
    // Freeze once: construction and rewiring are done, so every consumer
    // from here on is read-only and gets the CSR arena.
    let snapshot = graph.freeze();
    Restored {
        graph,
        snapshot,
        subgraph,
        estimates,
        stats,
    }
}

/// A fresh run: validation, stage 1 (estimation and subgraph
/// induction, which consume no RNG), then the stage loop from
/// `Estimated`. `induce` is the method choice: the proposed method
/// induces `G'` from the crawl ([`Crawl::subgraph`]), the Gjoka baseline
/// passes an empty subgraph ([`gjoka::generate`]).
pub(crate) fn start(
    crawl: &Crawl,
    induce: fn(&Crawl) -> Subgraph,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
    policy: Option<&CheckpointPolicy>,
    observer: &mut dyn PipelineObserver,
) -> Result<Restored, RestoreError> {
    let mut driver = Driver::new(*cfg, policy, RestoreStats::default(), observer)?;
    if crawl.num_queried() == 0 {
        return Err(RestoreError::EmptyCrawl);
    }
    driver.observer.stage_started("estimate");
    let t = Instant::now();
    let estimates = estimate_all(crawl)?;
    let subgraph = induce(crawl);
    driver.stats.estimate_secs += t.elapsed().as_secs_f64();
    driver.checkpoint(rng, &subgraph, &estimates, StageRef::Estimated)?;
    run_stages(driver, subgraph, estimates, StageData::Estimated, rng)
}

/// Runs the proposed method (§IV) on a random-walk crawl: the general
/// fresh entry point. A `policy` persists a checkpoint after each stage
/// (and every `policy.every` rewiring attempts) for [`resume`]; the
/// `observer` receives live stage and progress reports. Neither changes
/// the result: the output is a function of `crawl`, `cfg` and the RNG
/// alone.
pub fn run(
    crawl: &Crawl,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
    policy: Option<&CheckpointPolicy>,
    observer: &mut dyn PipelineObserver,
) -> Result<Restored, RestoreError> {
    start(crawl, Crawl::subgraph, cfg, rng, policy, observer)
}

/// [`run`] with no checkpoints and no observer.
pub fn restore(
    crawl: &Crawl,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
) -> Result<Restored, RestoreError> {
    run(crawl, cfg, rng, None, &mut NoopObserver)
}

/// [`run`] under a [`CheckpointPolicy`], with no observer. `_scratch` is
/// unused — the construct stage owns its stub-matching scratch — and is
/// kept only so existing callers of this signature still compile.
pub fn restore_with_checkpoints(
    crawl: &Crawl,
    cfg: &RestoreConfig,
    rng: &mut Xoshiro256pp,
    _scratch: &mut ConstructScratch,
    policy: &CheckpointPolicy,
) -> Result<Restored, RestoreError> {
    run(crawl, cfg, rng, Some(policy), &mut NoopObserver)
}

/// Continues an interrupted restoration from a checkpoint file, producing
/// a result bitwise-identical to the run that was interrupted (same final
/// edge multiset, same RNG stream, same stats counters): the general
/// resume entry point. The run re-enters the stage loop at the stage the
/// checkpoint stores.
///
/// The checkpointed configuration is validated like a fresh one. A `policy`
/// makes the resumed run itself checkpointable (file numbering continues
/// where the interrupted run stopped); the `observer` sees the resumed
/// stages only.
pub fn resume(
    path: &Path,
    policy: Option<&CheckpointPolicy>,
    observer: &mut dyn PipelineObserver,
) -> Result<Restored, RestoreError> {
    let ckpt = checkpoint::read_checkpoint(path)?;
    let driver = Driver::new(ckpt.cfg, policy, ckpt.stats, observer)?;
    let mut rng = Xoshiro256pp::from_state(ckpt.rng_state);
    run_stages(driver, ckpt.subgraph, ckpt.estimates, ckpt.stage, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_graph::index::MultiplicityIndex;
    use sgr_sample::random_walk_until_fraction;

    fn pipeline(n: usize, frac: f64, seed: u64, rc: f64) -> (Graph, Restored) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = sgr_gen::holme_kim(n, 4, 0.5, &mut rng).unwrap();
        let crawl = random_walk_until_fraction(&g, frac, &mut rng);
        let cfg = RestoreConfig {
            rewiring_coefficient: rc,
            rewire: true,
            threads: 1,
        };
        let restored = restore(&crawl, &cfg, &mut rng).unwrap();
        (g, restored)
    }

    #[test]
    fn restored_graph_contains_subgraph() {
        let (_, r) = pipeline(600, 0.10, 1, 20.0);
        let idx = MultiplicityIndex::build(&r.graph);
        for (u, v) in r.subgraph.graph.edges() {
            assert!(
                idx.get(u, v) >= 1,
                "subgraph edge ({u},{v}) missing from restored graph"
            );
        }
        // Queried nodes keep their exact degree.
        for d in r.subgraph.queried_nodes() {
            assert_eq!(
                r.graph.degree(d),
                r.subgraph.graph.degree(d),
                "queried node {d} degree changed"
            );
        }
        // Visible nodes have at least their subgraph degree.
        for d in r.subgraph.visible_nodes() {
            assert!(r.graph.degree(d) >= r.subgraph.graph.degree(d));
        }
    }

    #[test]
    fn restored_size_tracks_estimates() {
        let (g, r) = pipeline(800, 0.10, 2, 10.0);
        let n_gen = r.graph.num_nodes() as f64;
        // Generated node count within 40% of truth (estimator noise).
        assert!(
            (n_gen - g.num_nodes() as f64).abs() / (g.num_nodes() as f64) < 0.4,
            "generated n = {n_gen} vs true {}",
            g.num_nodes()
        );
        let k_gen = r.graph.average_degree();
        assert!(
            (k_gen - g.average_degree()).abs() / g.average_degree() < 0.4,
            "generated k̄ = {k_gen} vs true {}",
            g.average_degree()
        );
    }

    #[test]
    fn rewiring_improves_clustering_distance() {
        let (_, r) = pipeline(600, 0.12, 3, 30.0);
        let s = r.stats.rewire_stats;
        assert!(s.accepted > 0);
        assert!(
            s.final_distance <= s.initial_distance,
            "rewiring worsened D: {} -> {}",
            s.initial_distance,
            s.final_distance
        );
    }

    #[test]
    fn empty_crawl_errors() {
        let crawl = Crawl::default();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        assert!(matches!(
            restore(&crawl, &RestoreConfig::default(), &mut rng),
            Err(RestoreError::EmptyCrawl)
        ));
    }

    #[test]
    fn invalid_rewiring_coefficients_are_rejected() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let g = sgr_gen::holme_kim(300, 3, 0.5, &mut rng).unwrap();
        let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
        // NaN and negative come first: without the check they finish
        // (zero attempts), while infinity would run u64::MAX attempts.
        for rc in [f64::NAN, -1.0, f64::INFINITY] {
            let cfg = RestoreConfig {
                rewiring_coefficient: rc,
                ..RestoreConfig::default()
            };
            assert!(cfg.validate().is_err(), "R_C = {rc} validated");
            for result in [
                restore(&crawl, &cfg, &mut rng.clone()),
                gjoka::generate(&crawl, &cfg, &mut rng.clone()),
            ] {
                assert!(
                    matches!(result, Err(RestoreError::InvalidRewiringCoefficient(_))),
                    "R_C = {rc} was not rejected"
                );
            }
        }
        for rc in [0.0, 500.0] {
            let cfg = RestoreConfig {
                rewiring_coefficient: rc,
                ..RestoreConfig::default()
            };
            assert!(cfg.validate().is_ok(), "R_C = {rc} rejected");
        }
    }

    #[test]
    fn no_rewire_config_skips_phase4() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let g = sgr_gen::holme_kim(400, 3, 0.5, &mut rng).unwrap();
        let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
        let cfg = RestoreConfig {
            rewiring_coefficient: 500.0,
            rewire: false,
            threads: 1,
        };
        let r = restore(&crawl, &cfg, &mut rng).unwrap();
        assert_eq!(r.stats.rewire_stats.attempts, 0);
        assert_eq!(r.stats.rewire_stats.accepted, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = pipeline(400, 0.1, 6, 5.0);
        let (_, b) = pipeline(400, 0.1, 6, 5.0);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn threads_knob_never_changes_results() {
        // `threads` is ignored: the pipeline output is a function of the
        // seed alone.
        let run_with = |threads: usize| {
            let mut rng = Xoshiro256pp::seed_from_u64(8);
            let g = sgr_gen::holme_kim(500, 4, 0.5, &mut rng).unwrap();
            let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
            let cfg = RestoreConfig {
                rewiring_coefficient: 10.0,
                rewire: true,
                threads,
            };
            restore(&crawl, &cfg, &mut rng).unwrap()
        };
        let base = run_with(1);
        for threads in [0, 2, 4] {
            let r = run_with(threads);
            assert_eq!(
                base.graph.edges().collect::<Vec<_>>(),
                r.graph.edges().collect::<Vec<_>>(),
                "threads = {threads} changed the restored graph"
            );
            assert_eq!(
                base.stats.rewire_stats.accepted, r.stats.rewire_stats.accepted,
                "threads = {threads} changed the accepted count"
            );
            assert_eq!(
                base.stats.rewire_stats.final_distance.to_bits(),
                r.stats.rewire_stats.final_distance.to_bits(),
                "threads = {threads} changed the final distance"
            );
        }
    }

    #[test]
    fn stats_totals_are_consistent() {
        let (_, r) = pipeline(400, 0.1, 7, 5.0);
        assert!(r.stats.total_secs() >= r.stats.rewire_secs);
        assert_eq!(r.stats.nodes, r.graph.num_nodes());
        assert_eq!(r.stats.edges, r.graph.num_edges());
        assert!(r.stats.candidate_edges <= r.stats.edges);
    }
}
