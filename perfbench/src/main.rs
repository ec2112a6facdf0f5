//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1 [--toy] [--corrupt]
//! ```
//!
//! Runs one workload from its seed, checks every output, writes a results
//! file under `.bench_build/perfbench-data/results/`, and prints one JSON
//! line last: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Workloads and metrics are described in `README.md`
//! next to this package.

mod inputs;
mod json;
mod layers;
mod report;
mod restore;
mod serve;
mod stats;
mod trace;
mod traced;

use std::time::Instant;

use inputs::{data_dir, Hidden};
use layers::host_cpus;
use report::{Args, Report};
use restore::RestoreWorkload;
use serve::ServeWorkload;

#[global_allocator]
static ALLOC: sgr_util::alloc::TrackingAlloc = sgr_util::alloc::TrackingAlloc;

/// Printed with `--trace 0`, in this order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "restore_s",
    "peak_heap_mib",
    "analyze_s",
    "mean_l1",
    "job_p50_s",
    "job_tail_s",
    "jobs_per_s",
];

/// Printed with `--trace 1`, in this order.
const PER_LAYER: [&str; 43] = [
    "sample.crawl_s",
    "sample.queried",
    "estimate.s",
    "subgraph.s",
    "target.dv_s",
    "target.jdm_init_s",
    "target.jdm_adjust_s",
    "target.jdm_modify_s",
    "target.jdm_readjust_s",
    "construct.s",
    "construct.stub_matching_s",
    "construct.added_edges",
    "construct.peak_heap_mib",
    "rewire.setup_s",
    "rewire.setup_heap_mib",
    "rewire.s",
    "rewire.attempts",
    "rewire.accepted",
    "rewire.accept_ratio",
    "rewire.attempts_per_s",
    "rewire.initial_d",
    "rewire.final_d",
    "rewire.trace_t90_s",
    "rewire.parallel_speedup",
    "rewire.parallel_threads",
    "graph.freeze_s",
    "props.local_s",
    "props.lcc_s",
    "props.paths_s",
    "props.betweenness_s",
    "props.spectral_s",
    "io.parse_s",
    "checkpoint.s",
    "checkpoint.count",
    "checkpoint.mib",
    "serve.submit_s",
    "serve.wait_s",
    "serve.run_s",
    "serve.fetch_s",
    "serve.fetch_mib",
    "trace.overhead_s",
    "trace.coverage",
    "trace.restore_self_s",
];

enum Workload {
    Restore(RestoreWorkload),
    Serve(ServeWorkload),
}

fn workload(name: &str, toy: bool) -> Option<Workload> {
    let pick = |full: usize, small: usize| if toy { small } else { full };
    let pick_f = |full: f64, small: f64| if toy { small } else { full };
    Some(match name {
        // Rewiring whose working set outgrows the caches.
        "hk100k-rc20" => Workload::Restore(RestoreWorkload {
            hidden: Hidden {
                n: pick(100_000, 3_000),
            },
            fraction: 0.1,
            rc: pick_f(20.0, 5.0),
            pivots: 64,
            restores: 1,
        }),
        // Everything but the rewiring loop: estimate, target, construct,
        // engine set-up and freeze at a million nodes.
        "hk1m-rc0.1" => Workload::Restore(RestoreWorkload {
            hidden: Hidden {
                n: pick(1_000_000, 5_000),
            },
            fraction: 0.1,
            rc: 0.1,
            pivots: 4,
            restores: 2,
        }),
        // Two tenants' jobs through the job server.
        "serve-2tenant" => Workload::Serve(ServeWorkload {
            hidden: Hidden {
                n: pick(20_000, 2_000),
            },
            fraction: 0.1,
            rc: pick_f(10.0, 2.0),
            pivots: 128,
            specs: 4,
        }),
        _ => return None,
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds N --trace 0|1 [--toy] [--corrupt]"
    );
    std::process::exit(2)
}

fn bad(key: &str, val: &str) -> ! {
    usage(&format!("bad value for {key}: {val}"))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::NAN,
        trace: false,
        toy: false,
        corrupt: false,
    };
    let mut seen = [false; 4];
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        match key {
            "--toy" => args.toy = true,
            "--corrupt" => args.corrupt = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let Some(val) = argv.get(i + 1) else {
                    usage(&format!("missing value for {key}"))
                };
                match key {
                    "--workload" => {
                        args.workload = val.clone();
                        seen[0] = true;
                    }
                    "--seed" => {
                        args.seed = val.parse().unwrap_or_else(|_| bad(key, val));
                        seen[1] = true;
                    }
                    "--seconds" => {
                        args.seconds = val
                            .parse()
                            .ok()
                            .filter(|s: &f64| *s > 0.0)
                            .unwrap_or_else(|| bad(key, val));
                        seen[2] = true;
                    }
                    _ => {
                        args.trace = match val.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => bad(key, val),
                        };
                        seen[3] = true;
                    }
                }
                i += 1;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if seen.contains(&false) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(w) = workload(&args.workload, args.toy) else {
        usage(&format!("unknown workload {}", args.workload))
    };
    std::env::set_var("SGR_BENCH_CACHE", data_dir("cache"));
    let origin = Instant::now();
    let mut r = Report::new(origin);
    match &w {
        Workload::Restore(w) => restore::run(w, &args, &mut r),
        Workload::Serve(w) => serve::run(w, &args, &mut r),
    }
    let wall_s = origin.elapsed().as_secs_f64();

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let all: Vec<&(&str, f64, &str)> = r.end_to_end.0.iter().chain(r.per_layer.0.iter()).collect();
    let mut printed = Vec::new();
    let mut missing = Vec::new();
    for name in wanted {
        match all.iter().find(|(n, _, _)| n == name) {
            Some((_, value, unit)) => printed.push((
                *name,
                json::object(&[("value", json::num(*value)), ("unit", json::string(unit))]),
            )),
            None => missing.push(*name),
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {}", missing.join(", "));
    }
    let correct = r.failed == 0 && missing.is_empty();

    let all_metrics: Vec<(&str, String)> = all
        .iter()
        .map(|(n, v, u)| {
            (
                *n,
                json::object(&[("value", json::num(*v)), ("unit", json::string(u))]),
            )
        })
        .collect();
    let info: Vec<(&str, String)> = r.info.iter().map(|(k, v)| (*k, v.clone())).collect();
    let results = json::object(&[
        ("benchmark", json::string("perfbench")),
        ("workload", json::string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json::num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("toy", args.toy.to_string()),
        (
            "commit",
            json::string(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("host_cpus", host_cpus().to_string()),
        ("restore_threads", "1".into()),
        ("props_threads", "1".into()),
        ("scaling_valid", (host_cpus() >= 2).to_string()),
        ("wall_s", json::num(wall_s)),
        ("correct", correct.to_string()),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        (
            "error_rate",
            json::num(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        ("metrics", json::object(&all_metrics)),
        ("info", json::object(&info)),
        ("spans", r.tracer.to_json()),
    ]);
    let dir = data_dir("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.toy { "-toy" } else { "" }
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, results + "\n")) {
        Ok(()) => eprintln!("perfbench: results in {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }

    println!(
        "{}",
        json::object(&[
            ("correct", correct.to_string()),
            ("attempted", r.attempted.to_string()),
            ("failed", r.failed.to_string()),
            ("metrics", json::object(&printed)),
        ])
    );
}
