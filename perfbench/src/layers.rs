//! Layer-by-layer measurements, taken from outside by timing calls into
//! the public functions of each crate.
//!
//! [`staged_restore`] replays `sgr_core::restore` stage by stage in the
//! pipeline's exact order, so its output must be bitwise-identical to the
//! plain call; [`staged_props`] does the same for
//! `StructuralProperties::compute`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sgr_core::{
    construct, target_dv, target_jdm, CheckpointPolicy, ConstructScratch, RestoreConfig,
};
use sgr_dk::rewire::parallel::ParallelRewireEngine;
use sgr_dk::{joint_degree_matrix, RewireEngine};
use sgr_estimate::estimate_all;
use sgr_graph::components::largest_component_csr;
use sgr_graph::snapshot::{checksum, decode_section, KIND_CSR_GRAPH};
use sgr_graph::{CsrGraph, Graph, GraphView, NodeId};
use sgr_props::{betweenness, local, paths, spectral, PropsConfig, StructuralProperties};
use sgr_sample::{Crawl, WalkKind};
use sgr_serve::{start, Client, JobState, ServeConfig, ServerHandle, SubmitRequest};
use sgr_util::Xoshiro256pp;

use crate::inputs::{dir_bytes, fresh_dir, graph_hash, mib, props_bits, HeapProbe};
use crate::json;
use crate::trace::Tracer;

/// Cursor points of the rewiring convergence series.
const TRACE_POINTS: u64 = 20;

/// Attempts the parallel-engine probe runs on each engine.
const PROBE_ATTEMPTS: u64 = 1_000_000;

/// Status polling interval of a waiting client.
const POLL: Duration = Duration::from_millis(1);

/// Named metric values in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

pub fn restore_config(rc: f64) -> RestoreConfig {
    RestoreConfig {
        rewiring_coefficient: rc,
        rewire: true,
        threads: 1,
    }
}

/// One point of the convergence series.
pub struct TracePoint {
    pub attempts: u64,
    pub accepted: u64,
    pub distance: f64,
    pub secs: f64,
}

/// The state rewiring starts from, kept for the parallel-engine probe.
pub struct RewireStart {
    graph: Graph,
    added: Vec<(NodeId, NodeId)>,
    target_c: Vec<f64>,
    rng: Xoshiro256pp,
    total: u64,
}

pub struct Staged {
    pub snapshot: CsrGraph,
    /// Wall time of the replay without its checking work.
    pub restore_s: f64,
    /// Time inside the stage spans (the replay minus its own glue).
    pub stages_s: f64,
    pub series: Vec<TracePoint>,
    pub rewire_start: Option<RewireStart>,
}

/// Replays the four restoration stages plus the final freeze through the
/// public layer calls, recording one span per call. Between construction
/// and rewiring it records the degree vector and joint degree matrix,
/// and fails unless rewiring leaves both unchanged.
pub fn staged_restore(
    crawl: &Crawl,
    rc: f64,
    rng: &mut Xoshiro256pp,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<Staged, String> {
    let mut scratch = ConstructScratch::new();
    let root = t.enter("restore");
    if crawl.num_queried() == 0 {
        t.exit(root);
        return Err("crawl contains no queried node".into());
    }
    let estimates = t
        .time("estimate", || estimate_all(crawl))
        .map_err(|e| format!("estimation failed: {e}"));
    let estimates = close_on_err(t, root, estimates)?;
    let subgraph = t.time("subgraph", || crawl.subgraph());
    let target = t.enter("target");
    let mut dv = t.time("target.dv", || target_dv::build(&subgraph, &estimates, rng));
    let jdm = t
        .time("target.jdm", || {
            target_jdm::build_with_stats(&subgraph, &estimates, &mut dv)
        })
        .map_err(|e| format!("target construction failed: {e}"));
    let (jdm, jdm_stats) = close_on_err(t, root, jdm)?;
    t.exit(target);
    let heap = HeapProbe::start();
    let built = t
        .time("construct", || {
            construct::extend_subgraph_with(&subgraph, &dv, &jdm, rng, &mut scratch)
        })
        .map_err(|e| format!("construction failed: {e}"));
    let built = close_on_err(t, root, built)?;
    let construct_heap = heap.peak_mib();

    let check = t.enter("check");
    let degrees = built.graph.degree_vector();
    let jdm_built = joint_degree_matrix(&built.graph);
    let total = (rc * built.added_edges.len() as f64).ceil() as u64;
    let mut target_c = estimates.clustering.clone();
    target_c.resize(dv.k_max + 1, 0.0);
    let rewire_start = (!built.added_edges.is_empty()).then(|| RewireStart {
        graph: built.graph.clone(),
        added: built.added_edges.clone(),
        target_c: target_c.clone(),
        rng: rng.clone(),
        total,
    });
    let mut check_s = t.exit(check);

    m.push("estimate.s", t.total("estimate"), "s");
    m.push("subgraph.s", t.total("subgraph"), "s");
    m.push("target.dv_s", t.total("target.dv"), "s");
    m.push("target.jdm_init_s", jdm_stats.init_secs, "s");
    m.push("target.jdm_adjust_s", jdm_stats.adjust_secs, "s");
    m.push("target.jdm_modify_s", jdm_stats.modify_secs, "s");
    m.push("target.jdm_readjust_s", jdm_stats.readjust_secs, "s");
    m.push("construct.s", t.total("construct"), "s");
    m.push("construct.stub_matching_s", built.stub_matching_secs, "s");
    m.push(
        "construct.added_edges",
        built.added_edges.len() as f64,
        "count",
    );
    m.push("construct.peak_heap_mib", construct_heap, "MiB");

    let mut series = Vec::new();
    let graph = if built.added_edges.is_empty() {
        built.graph
    } else {
        let heap = HeapProbe::start();
        let mut engine = t.time("rewire.setup", || {
            RewireEngine::new(built.graph, built.added_edges, &target_c)
        });
        m.push("rewire.setup_s", t.total("rewire.setup"), "s");
        m.push("rewire.setup_heap_mib", heap.peak_mib(), "MiB");
        let rewire = t.enter("rewire");
        let started = Instant::now();
        let initial = engine.distance();
        let (mut done, mut accepted) = (0u64, 0u64);
        for i in 1..=TRACE_POINTS {
            let upto = total * i / TRACE_POINTS;
            let s = t.time("rewire.chunk", || engine.run_attempts(upto - done, rng));
            done = upto;
            accepted += s.accepted;
            series.push(TracePoint {
                attempts: done,
                accepted,
                distance: s.final_distance,
                secs: started.elapsed().as_secs_f64(),
            });
        }
        let graph = engine.into_graph();
        let rewire_s = t.exit(rewire);
        m.push("rewire.s", rewire_s, "s");
        m.push("rewire.attempts", total as f64, "count");
        m.push("rewire.accepted", accepted as f64, "count");
        m.push(
            "rewire.accept_ratio",
            accepted as f64 / total.max(1) as f64,
            "ratio",
        );
        m.push("rewire.attempts_per_s", total as f64 / rewire_s, "1/s");
        m.push("rewire.initial_d", initial, "ratio");
        m.push("rewire.final_d", engine_final(&series, initial), "ratio");
        m.push("rewire.trace_t90_s", time_to_90pct(&series, initial), "s");
        graph
    };
    let snapshot = t.time("graph.freeze", || graph.freeze());
    m.push("graph.freeze_s", t.total("graph.freeze"), "s");

    let check = t.enter("check");
    let unchanged = graph.degree_vector() == degrees && joint_degree_matrix(&graph) == jdm_built;
    check_s += t.exit(check);
    let root_s = t.exit(root);
    let self_s = t.self_time(root);
    m.push("trace.restore_self_s", self_s, "s");
    if !unchanged {
        return Err("rewiring changed the degree vector or the joint degree matrix".into());
    }
    Ok(Staged {
        snapshot,
        restore_s: root_s - check_s,
        stages_s: root_s - check_s - self_s,
        series,
        rewire_start,
    })
}

/// Pushes the tracing overhead and span coverage against the untraced
/// restore time; returns the convergence series as JSON rows of
/// `[attempts, accepted, D, seconds]`.
pub fn trace_summary(st: &Staged, untraced_s: f64, m: &mut Metrics) -> String {
    m.push("trace.overhead_s", st.restore_s - untraced_s, "s");
    m.push("trace.coverage", st.stages_s / untraced_s, "ratio");
    let rows: Vec<String> = st
        .series
        .iter()
        .map(|p| {
            format!(
                "[{}, {}, {}, {}]",
                p.attempts,
                p.accepted,
                json::num(p.distance),
                json::num(p.secs)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Closes the spans still open down to `root` when a stage fails.
fn close_on_err<T>(t: &mut Tracer, root: usize, r: Result<T, String>) -> Result<T, String> {
    if r.is_err() {
        t.close_to(root);
    }
    r
}

fn engine_final(series: &[TracePoint], initial: f64) -> f64 {
    series.last().map_or(initial, |p| p.distance)
}

/// Seconds into rewiring at which `D` first made 90% of its total drop.
fn time_to_90pct(series: &[TracePoint], initial: f64) -> f64 {
    let last = engine_final(series, initial);
    let goal = last + 0.1 * (initial - last);
    series
        .iter()
        .find(|p| p.distance <= goal)
        .map_or(0.0, |p| p.secs)
}

/// Mirrors `StructuralProperties::compute`, one span per kernel.
pub fn staged_props(g: &CsrGraph, cfg: &PropsConfig, t: &mut Tracer) -> StructuralProperties {
    let root = t.enter("analyze");
    let local = t.time("props.local", || local::LocalProperties::compute(g));
    let (lcc, _) = t.time("props.lcc", || largest_component_csr(g));
    let sp = t.time("props.paths", || paths::shortest_path_properties(&lcc, cfg));
    let btw = t.time("props.betweenness", || {
        betweenness::betweenness_by_degree(&lcc, cfg)
    });
    let lambda1 = t.time("props.spectral", || {
        spectral::largest_eigenvalue(g, 1e-10, 1000)
    });
    t.exit(root);
    StructuralProperties {
        num_nodes: g.num_nodes() as f64,
        avg_degree: g.average_degree(),
        degree_dist: local.degree_dist,
        knn: local.knn,
        mean_clustering: local.mean_clustering,
        clustering_by_degree: local.clustering_by_degree,
        shared_partner_dist: local.shared_partner_dist,
        avg_path_length: sp.average_length,
        path_length_dist: sp.length_dist,
        diameter: sp.diameter as f64,
        betweenness_by_degree: btw,
        lambda1,
    }
}

/// Analyzes `g` with `StructuralProperties::compute` at least once and
/// again while another analysis fits into `budget_s` seconds (at most
/// seven times). Returns the properties and the median time; fails when
/// two analyses of the same graph disagree.
pub fn analyze(
    g: &CsrGraph,
    cfg: &PropsConfig,
    budget_s: f64,
    t: &mut Tracer,
) -> Result<(StructuralProperties, f64), String> {
    let mut secs = Vec::new();
    let mut first: Option<(StructuralProperties, Vec<u64>)> = None;
    while secs.is_empty()
        || (secs.len() < 7
            && secs.iter().sum::<f64>() * (1.0 + 1.0 / secs.len() as f64) <= budget_s)
    {
        let id = t.enter("analyze.call");
        let props = StructuralProperties::compute(g, cfg);
        secs.push(t.exit(id));
        let bits = props_bits(&props);
        match &first {
            Some((_, b)) if *b != bits => {
                return Err("two analyses of one graph differ".into());
            }
            Some(_) => {}
            None => first = Some((props, bits)),
        }
    }
    let (props, _) = first.expect("at least one analysis");
    Ok((props, crate::stats::median(&secs)))
}

pub fn push_props_metrics(t: &Tracer, m: &mut Metrics) {
    for (metric, span) in [
        ("props.local_s", "props.local"),
        ("props.lcc_s", "props.lcc"),
        ("props.paths_s", "props.paths"),
        ("props.betweenness_s", "props.betweenness"),
        ("props.spectral_s", "props.spectral"),
    ] {
        m.push(metric, t.total(span), "s");
    }
}

/// Runs the first attempts of the rewiring on the sequential engine and
/// on `ParallelRewireEngine` with one worker per CPU from the same state,
/// and fails unless both end bitwise-identical.
pub fn parallel_probe(start: RewireStart, m: &mut Metrics) -> Result<(), String> {
    let attempts = start.total.min(PROBE_ATTEMPTS);
    let threads = host_cpus();
    let mut seq = RewireEngine::new(start.graph.clone(), start.added.clone(), &start.target_c);
    let t0 = Instant::now();
    let a = seq.run_attempts(attempts, &mut start.rng.clone());
    let seq_s = t0.elapsed().as_secs_f64();
    let mut par = ParallelRewireEngine::new(start.graph, start.added, &start.target_c, threads);
    let t0 = Instant::now();
    let b = par.run_attempts(attempts, &mut start.rng.clone());
    let par_s = t0.elapsed().as_secs_f64();
    if a.accepted != b.accepted
        || a.final_distance.to_bits() != b.final_distance.to_bits()
        || graph_hash(&seq.into_graph().freeze()) != graph_hash(&par.into_graph().freeze())
    {
        return Err(format!(
            "parallel engine ({threads} threads) diverged from the sequential engine"
        ));
    }
    m.push("rewire.parallel_speedup", seq_s / par_s, "x");
    m.push("rewire.parallel_threads", threads as f64, "count");
    Ok(())
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `restore_with_checkpoints` at the job server's default cadence into a
/// temporary directory; returns the output hash.
pub fn checkpointed_restore(
    crawl: &Crawl,
    rc: f64,
    mut rng: Xoshiro256pp,
    m: &mut Metrics,
) -> Result<u64, String> {
    let dir = fresh_dir("ckpt");
    let policy = CheckpointPolicy {
        dir: dir.clone(),
        every: ServeConfig::default().default_checkpoint_every,
        abort_after: None,
    };
    let restored = sgr_core::restore_with_checkpoints(
        crawl,
        &restore_config(rc),
        &mut rng,
        &mut ConstructScratch::new(),
        &policy,
    );
    let bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let r = restored.map_err(|e| format!("checkpointed restore failed: {e}"))?;
    m.push("checkpoint.s", r.stats.checkpoint_secs, "s");
    m.push(
        "checkpoint.count",
        r.stats.checkpoints_written as f64,
        "count",
    );
    m.push("checkpoint.mib", mib(bytes), "MiB");
    Ok(graph_hash(&r.snapshot))
}

/// An in-process job server on an ephemeral port with a fresh state
/// directory.
pub struct Server {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Server {
    pub fn start(workers: usize) -> Result<Self, String> {
        let dir = fresh_dir("serve");
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            dir: dir.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start failed: {e}"))?;
        Ok(Self { handle, dir })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Shuts the server down, waits for its threads, and removes its
    /// state directory.
    pub fn stop(self) -> Result<(), String> {
        let stopped = Client::connect(self.handle.addr())
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("server shutdown failed: {e}"));
        if stopped.is_ok() {
            self.handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        stopped
    }
}

pub fn submit_request(
    tenant: &str,
    edges: Vec<u8>,
    fraction: f64,
    rc: f64,
    seed: u64,
) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.into(),
        walk_code: WalkKind::RandomWalk.code(),
        fraction,
        snowball_k: 50,
        burn_prob: 0.7,
        rewiring_coefficient: rc,
        rewire: true,
        threads: 1,
        seed,
        checkpoint_every: 0,
        abort_after: 0,
        edges,
    }
}

/// Submits one job, polls it to completion, fetches the result, and
/// returns the hash of the fetched graph payload. Spans: `job` with
/// children `serve.submit`, `serve.wait` (queued), `serve.run` and
/// `serve.fetch`.
pub fn served_job(
    client: &mut Client,
    req: &SubmitRequest,
    t: &mut Tracer,
) -> Result<(u64, usize), String> {
    let job = t.enter("job");
    let r = drive_job(client, req, t);
    t.close_to(job);
    r
}

fn drive_job(
    client: &mut Client,
    req: &SubmitRequest,
    t: &mut Tracer,
) -> Result<(u64, usize), String> {
    let err = |e: sgr_serve::ClientError| e.to_string();
    let id = t.time("serve.submit", || client.submit(req)).map_err(err)?;
    let wait = t.enter("serve.wait");
    let mut state = JobState::Queued;
    while state == JobState::Queued {
        std::thread::sleep(POLL);
        state = client.status(id).map_err(err)?.state;
    }
    t.exit(wait);
    let run = t.enter("serve.run");
    while state == JobState::Running {
        std::thread::sleep(POLL);
        state = client.status(id).map_err(err)?.state;
    }
    t.exit(run);
    if state != JobState::Completed {
        return Err(format!("job {id} ended {}", state.name()));
    }
    let bytes = t.time("serve.fetch", || client.fetch(id)).map_err(err)?;
    let payload = decode_section(&bytes, KIND_CSR_GRAPH).map_err(|e| e.to_string())?;
    Ok((checksum(payload), bytes.len()))
}

pub fn push_serve_metrics(t: &Tracer, fetched_bytes: &[usize], m: &mut Metrics) {
    use crate::stats::median;
    for (metric, span) in [
        ("serve.submit_s", "serve.submit"),
        ("serve.wait_s", "serve.wait"),
        ("serve.run_s", "serve.run"),
        ("serve.fetch_s", "serve.fetch"),
    ] {
        m.push(metric, median(&t.durations(span)), "s");
    }
    let sizes: Vec<f64> = fetched_bytes.iter().map(|&b| mib(b as u64)).collect();
    m.push("serve.fetch_mib", median(&sizes), "MiB");
}
