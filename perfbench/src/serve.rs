//! The served workload: a closed loop of two client connections, one per
//! tenant, against an in-process two-worker job server. Each client
//! submits a job, polls it to completion, fetches the result and checks
//! it against a local restore of the same spec made before the loop.

use std::time::{Duration, Instant};

use sgr_core::restore;
use sgr_serve::Client;

use crate::inputs::{
    check_embedding, crawl, graph_hash, mean_l1, props_bits, props_cfg, HeapProbe, Hidden,
    CRAWL_SEED,
};
use crate::layers::{
    analyze, checkpointed_restore, push_serve_metrics, restore_config, served_job, submit_request,
    Server,
};
use crate::report::{setup, Args, Report, Setup};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::traced::{parse_upload, replay, Untraced};

pub struct ServeWorkload {
    pub hidden: Hidden,
    pub fraction: f64,
    pub rc: f64,
    /// Sampled sources of the path and betweenness kernels.
    pub pivots: usize,
    /// Distinct job specs, dealt out alternately to the two tenants.
    pub specs: usize,
}

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Seconds of repeated analysis of each spec's reference output (at
/// least one).
const ANALYZE_BUDGET_S: f64 = 1.0;

/// Local restores of each spec before the loop; `restore_s` is their
/// median.
const REFERENCE_RESTORES: usize = 3;

/// Seed of job spec `j`. The specs are fixed, like every workload's
/// crawl, and spec 0 crawls with [`CRAWL_SEED`], so the set-up crawl is
/// its crawl. The workload seed sets the order in which each client
/// submits its specs.
fn job_seed(j: usize) -> u64 {
    CRAWL_SEED.wrapping_add((j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One client's share of the closed loop.
#[derive(Default)]
struct ClientLoop {
    latencies: Vec<f64>,
    fetched: Vec<usize>,
    attempted: u64,
    failed: u64,
}

pub fn run(w: &ServeWorkload, a: &Args, r: &mut Report) {
    let s = setup(w.hidden, w.fraction, w.pivots, r);
    let blob = w.hidden.edge_list();

    // The local reference restores, REFERENCE_RESTORES of every spec.
    let mut expected: Vec<Option<u64>> = Vec::new();
    let (mut restore_s, mut heap_mib, mut analyze_s, mut l1) = (vec![], vec![], vec![], vec![]);
    let mut spec0: Option<Untraced> = None;
    for j in 0..w.specs {
        let mut first: Option<u64> = None;
        for _ in 0..REFERENCE_RESTORES {
            let (outcome, mut rng) = crawl(&s.graph, w.fraction, job_seed(j));
            let heap = HeapProbe::start();
            let id = r.tracer.enter("restore.call");
            let restored = restore(&outcome.crawl, &restore_config(w.rc), &mut rng);
            let secs = r.tracer.exit(id);
            let peak = heap.peak_mib();
            let checked = restored
                .map_err(|e| format!("restore error: {e}"))
                .and_then(|out| {
                    check_embedding(&out.subgraph, &out.snapshot)?;
                    let hash = graph_hash(&out.snapshot);
                    match first {
                        Some(h) if h != hash => Err("two restores of one spec differ".to_string()),
                        Some(_) => Ok(None),
                        None => {
                            let cfg = props_cfg(w.pivots);
                            let (props, analyzed) =
                                analyze(&out.snapshot, &cfg, ANALYZE_BUDGET_S, &mut r.tracer)?;
                            Ok(Some((hash, props, analyzed)))
                        }
                    }
                });
            let Some(analysis) = r.check("reference restore", checked) else {
                continue;
            };
            restore_s.push(secs);
            heap_mib.push(peak);
            if let Some((hash, props, analyzed)) = analysis {
                first = Some(hash);
                analyze_s.push(analyzed);
                l1.push(mean_l1(&s.hidden_props, &props));
                if j == 0 {
                    spec0 = Some(Untraced {
                        hash,
                        props: props_bits(&props),
                        restore_s: secs,
                    });
                }
            }
        }
        expected.push(first);
    }
    if !restore_s.is_empty() {
        let m = &mut r.end_to_end;
        m.push("restore_s", median(&restore_s), "s");
        m.push("peak_heap_mib", median(&heap_mib), "MiB");
        m.push("analyze_s", median(&analyze_s), "s");
        m.push("mean_l1", median(&l1), "ratio");
    }
    if a.trace {
        traced(w, &s, &blob, spec0.as_ref(), r);
    }

    let server = match Server::start(2) {
        Ok(server) => server,
        Err(e) => {
            r.check::<()>("server start", Err(e));
            return;
        }
    };
    let addr = server.addr();
    let origin = r.tracer.origin();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(a.seconds);
    let loops: Vec<(ClientLoop, Tracer)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|c| {
                let (blob, expected) = (&blob, &expected);
                sc.spawn(move || {
                    let mut t = Tracer::new(origin);
                    let mut out = ClientLoop::default();
                    match Client::connect(addr) {
                        Ok(mut client) => {
                            let specs: Vec<usize> = (c..expected.len()).step_by(TENANTS.len()).collect();
                            let mut n = a.seed as usize % specs.len();
                            while Instant::now() < deadline {
                                let j = specs[n % specs.len()];
                                n += 1;
                                out.attempted += 1;
                                t.trace_id = ((c as u64) << 32) | out.attempted;
                                let req = submit_request(TENANTS[c], blob.clone(), w.fraction, w.rc, job_seed(j));
                                let first = out.attempted == 1;
                                let fetched = served_job(&mut client, &req, &mut t).and_then(|(hash, bytes)| {
                                    let hash = if a.corrupt && first { hash ^ 1 } else { hash };
                                    if Some(hash) == expected[j] {
                                        Ok(bytes)
                                    } else {
                                        Err(format!("job of spec {j} fetched a graph unlike the local restore"))
                                    }
                                });
                                match fetched {
                                    Ok(bytes) => {
                                        out.latencies.push(*t.durations("job").last().expect("job span"));
                                        out.fetched.push(bytes);
                                    }
                                    Err(e) => {
                                        out.failed += 1;
                                        eprintln!("perfbench: served job failed: {e}");
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            out.attempted += 1;
                            out.failed += 1;
                            eprintln!("perfbench: client connect failed: {e}");
                        }
                    }
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = started.elapsed().as_secs_f64();
    let stopped = server.stop();
    r.check("server stop", stopped);

    let (mut latencies, mut fetched) = (Vec::new(), Vec::new());
    for (out, t) in loops {
        r.attempted += out.attempted;
        r.failed += out.failed;
        latencies.extend(out.latencies);
        fetched.extend(out.fetched);
        r.tracer.absorb(t);
    }
    r.info.push(("jobs_completed", latencies.len().to_string()));
    if !latencies.is_empty() {
        let (tail_s, pct) = tail(&latencies);
        let m = &mut r.end_to_end;
        m.push("job_p50_s", median(&latencies), "s");
        m.push("job_tail_s", tail_s, "s");
        m.push("jobs_per_s", latencies.len() as f64 / loop_s, "1/s");
        r.info.push(("job_tail_percentile", pct.to_string()));
        if a.trace {
            push_serve_metrics(&r.tracer, &fetched, &mut r.per_layer);
        }
    }
}

/// The traced part: the shared replay of spec 0 and spec 0 restored
/// locally with checkpoints, both checked against its reference restore,
/// and the upload parse.
fn traced(w: &ServeWorkload, s: &Setup, blob: &[u8], spec0: Option<&Untraced>, r: &mut Report) {
    parse_upload(blob, &s.graph, r);
    let Some(untraced) = spec0 else {
        r.check::<()>("traced run", Err("spec 0 has no reference restore".into()));
        return;
    };
    replay(&s.crawl.crawl, w.rc, s.rng.clone(), w.pivots, untraced, r);
    let ckpt = checkpointed_restore(&s.crawl.crawl, w.rc, s.rng.clone(), &mut r.per_layer)
        .and_then(|hash| match hash == untraced.hash {
            true => Ok(()),
            false => Err("checkpointed restore differs from the reference restore".into()),
        });
    r.check("checkpointed restore", ckpt);
}
