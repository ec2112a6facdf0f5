//! The restore workloads: crawl a hidden graph, restore it in process
//! with `sgr_core::restore`, check and analyze the result.

use std::time::Instant;

use sgr_core::{restore, Restored};
use sgr_serve::Client;
use sgr_util::Xoshiro256pp;

use crate::inputs::{
    check_embedding, graph_hash, mean_l1, props_bits, props_cfg, HeapProbe, Hidden, CRAWL_SEED,
};
use crate::layers::{
    analyze, checkpointed_restore, push_serve_metrics, restore_config, served_job, submit_request,
    Server,
};
use crate::report::{check_repeatable, setup, Args, Report, Setup};
use crate::stats::{median, tail};
use crate::traced::{parse_upload, replay, Untraced};

/// Seconds of repeated analysis of a run's output (at least one).
const ANALYZE_BUDGET_S: f64 = 6.0;

/// `R_C` cap of the job the traced run sends through the checkpointing
/// and serving layers. It is the workload's own job, with the rewiring
/// cut short: the point is those layers at this size, not the rewiring
/// again.
const LAYER_JOB_MAX_RC: f64 = 1.0;

pub struct RestoreWorkload {
    pub hidden: Hidden,
    pub fraction: f64,
    pub rc: f64,
    /// Sampled sources of the path and betweenness kernels.
    pub pivots: usize,
    /// Restores per run at least.
    pub restores: usize,
}

/// What every restore of one run must reproduce.
struct Reference {
    hash: u64,
    props: Vec<u64>,
    mean_l1: f64,
    analyze_s: f64,
}

pub fn run(w: &RestoreWorkload, a: &Args, r: &mut Report) {
    let s = setup(w.hidden, w.fraction, w.pivots, r);
    let cfg = restore_config(w.rc);
    let (mut restore_s, mut heap_mib) = (Vec::new(), Vec::new());
    let mut reference: Option<Reference> = None;
    // At least `w.restores` restores, then more while another fits into
    // the run's seconds.
    let started = Instant::now();
    let (mut n, mut last) = (0, 0.0);
    while n < w.restores || started.elapsed().as_secs_f64() + last <= a.seconds {
        n += 1;
        let begun = Instant::now();
        let mut rng = Xoshiro256pp::seed_from_u64(a.seed);
        let heap = HeapProbe::start();
        let id = r.tracer.enter("restore.call");
        let restored = restore(&s.crawl.crawl, &cfg, &mut rng);
        let secs = r.tracer.exit(id);
        let peak = heap.peak_mib();
        let checked = restored
            .map_err(|e| format!("restore error: {e}"))
            .and_then(|mut out| {
                if a.corrupt && n == 1 {
                    corrupt(&mut out);
                }
                check_embedding(&out.subgraph, &out.snapshot)?;
                let hash = graph_hash(&out.snapshot);
                match &reference {
                    Some(first) if first.hash != hash => {
                        Err("output differs between restores of one seed".to_string())
                    }
                    Some(_) => Ok(()),
                    None => {
                        if !a.corrupt {
                            check_repeatable(
                                &format!("{}-{}-{}", a.workload, a.seed, a.toy),
                                hash,
                            )?;
                        }
                        // Every restore of the run yields this graph, so
                        // only the first one is analyzed.
                        let (props, analyze_s) = analyze(
                            &out.snapshot,
                            &props_cfg(w.pivots),
                            ANALYZE_BUDGET_S,
                            &mut r.tracer,
                        )?;
                        reference = Some(Reference {
                            hash,
                            mean_l1: mean_l1(&s.hidden_props, &props),
                            props: props_bits(&props),
                            analyze_s,
                        });
                        Ok(())
                    }
                }
            });
        if r.check("restore", checked).is_some() {
            restore_s.push(secs);
            heap_mib.push(peak);
        }
        last = begun.elapsed().as_secs_f64();
    }
    if let (Some(first), false) = (&reference, restore_s.is_empty()) {
        let m = &mut r.end_to_end;
        m.push("restore_s", median(&restore_s), "s");
        m.push("peak_heap_mib", median(&heap_mib), "MiB");
        m.push("analyze_s", first.analyze_s, "s");
        m.push("mean_l1", first.mean_l1, "ratio");
        // A job here is one restore call.
        let (tail_s, pct) = tail(&restore_s);
        m.push("job_p50_s", median(&restore_s), "s");
        m.push("job_tail_s", tail_s, "s");
        m.push(
            "jobs_per_s",
            restore_s.len() as f64 / restore_s.iter().sum::<f64>(),
            "1/s",
        );
        r.info.push(("job_tail_percentile", pct.to_string()));
        r.info.push(("restores", restore_s.len().to_string()));
    }
    if a.trace {
        match reference {
            Some(first) => {
                let untraced = Untraced {
                    hash: first.hash,
                    props: first.props,
                    restore_s: median(&restore_s),
                };
                traced(w, &s, &untraced, a.seed, r);
            }
            None => {
                r.check::<()>(
                    "traced run",
                    Err("no untraced restore to compare with".into()),
                );
            }
        }
    }
}

/// Removes one edge of `G'` from the output, as a self-test of the checks.
fn corrupt(out: &mut Restored) {
    if let Some((u, v)) = out.subgraph.graph.edges().next() {
        out.graph.remove_edge(u, v);
        out.snapshot = out.graph.freeze();
    }
}

/// The traced run: the shared replay, then the crawl's job as `sgr
/// restore` and the job server run it (one generator for crawl and
/// restoration), once locally with checkpoints and once through a
/// one-worker server, checked against each other.
fn traced(w: &RestoreWorkload, s: &Setup, untraced: &Untraced, seed: u64, r: &mut Report) {
    replay(
        &s.crawl.crawl,
        w.rc,
        Xoshiro256pp::seed_from_u64(seed),
        w.pivots,
        untraced,
        r,
    );
    let blob = w.hidden.edge_list();
    parse_upload(&blob, &s.graph, r);
    let rc = w.rc.min(LAYER_JOB_MAX_RC);
    let ckpt = checkpointed_restore(&s.crawl.crawl, rc, s.rng.clone(), &mut r.per_layer);
    if let Some(expected) = r.check("checkpointed restore", ckpt) {
        let served = served_replay(blob, w.fraction, rc, expected, r);
        r.check("served replay", served);
    }
}

fn served_replay(
    blob: Vec<u8>,
    fraction: f64,
    rc: f64,
    expected: u64,
    r: &mut Report,
) -> Result<(), String> {
    let server = Server::start(1)?;
    let req = submit_request("replay", blob, fraction, rc, CRAWL_SEED);
    let fetched = Client::connect(server.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut client| served_job(&mut client, &req, &mut r.tracer));
    server.stop()?;
    let (hash, bytes) = fetched?;
    push_serve_metrics(&r.tracer, &[bytes], &mut r.per_layer);
    if hash != expected {
        return Err("served result differs from the local restore".into());
    }
    Ok(())
}
