//! Rewiring-throughput harness: measures swap attempts/sec for the
//! evaluate-then-commit engine against the apply-rollback reference, plus
//! a thread-scaling section for the parallel engine (the sequential
//! engine driven by a round-robin worker pool), on the
//! same graph, target, and RNG seed. Writes `BENCH_rewire.json` so future
//! PRs have a perf trajectory to defend.
//!
//! Every engine and thread count is asserted to produce the **same
//! accepted count and bitwise-identical final distance** before any
//! number is reported — a perf number for a wrong engine is worthless.
//!
//! Usage: `bench_rewire [nodes] [attempts] [out.json] [threads_csv]`
//! (defaults: 2000 nodes, 200_000 attempts, `BENCH_rewire.json`,
//! threads `1,2,4,8`; pass `none` to skip the scaling section).
//! The committed JSON is regenerated by the CI workflow on its 4-vCPU
//! runner, where the thread-scaling section means something. `host_cpus`
//! records the cores the measuring host actually had, and the JSON
//! carries `"scaling_valid": false` whenever `host_cpus == 1`: scaling
//! numbers from a 1-core container show thread overhead, not speedup,
//! and say nothing about multi-core behavior.

use sgr_dk::rewire::parallel::ParallelRewireEngine;
use sgr_dk::rewire::reference::ApplyRollbackEngine;
use sgr_dk::rewire::{RewireEngine, RewireStats};
use sgr_graph::Graph;
use sgr_props::local::LocalProperties;
use sgr_util::Xoshiro256pp;
use std::time::Instant;

const GRAPH_SEED: u64 = 6;
const RNG_SEED: u64 = 10;

/// Pinned speculation block size for the scaling entries: the engine's
/// adaptive sizing reacts to the accept trajectory, so pinning keeps the
/// measured work identical across thread counts and across runs. (A
/// single-worker engine runs its wrapped sequential engine directly and
/// ignores the block size, so `parallel1` measures the wrapper's
/// dispatch alone.)
const BENCH_BLOCK: usize = 4096;

struct Measurement {
    name: String,
    secs: f64,
    attempts_per_sec: f64,
    stats: RewireStats,
}

fn measure(
    name: String,
    attempts: u64,
    run: impl FnOnce(u64, &mut Xoshiro256pp) -> RewireStats,
) -> Measurement {
    let mut rng = Xoshiro256pp::seed_from_u64(RNG_SEED);
    let t = Instant::now();
    let stats = run(attempts, &mut rng);
    let secs = t.elapsed().as_secs_f64();
    Measurement {
        name,
        secs,
        attempts_per_sec: attempts as f64 / secs,
        stats,
    }
}

fn json_entry(m: &Measurement, extra: &str) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"seconds\": {:.6},\n",
            "      \"attempts_per_sec\": {:.1},\n",
            "      \"accepted\": {},\n",
            "      \"skipped\": {},\n",
            "      \"initial_distance\": {:.12},\n",
            "      \"final_distance\": {:.12}{}\n",
            "    }}"
        ),
        m.name,
        m.secs,
        m.attempts_per_sec,
        m.stats.accepted,
        m.stats.skipped,
        m.stats.initial_distance,
        m.stats.final_distance,
        extra,
    )
}

/// Engines must agree exactly before their numbers mean anything.
fn assert_equivalent(reference: &Measurement, other: &Measurement) {
    assert_eq!(
        reference.stats.accepted, other.stats.accepted,
        "{} diverged from {} in accepted count",
        other.name, reference.name
    );
    assert_eq!(
        reference.stats.final_distance.to_bits(),
        other.stats.final_distance.to_bits(),
        "{} diverged from {} in final distance",
        other.name,
        reference.name
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("nodes must be an integer"))
        .unwrap_or(2_000);
    let attempts: u64 = args
        .next()
        .map(|a| a.parse().expect("attempts must be an integer"))
        .unwrap_or(200_000);
    let out = args.next().unwrap_or_else(|| "BENCH_rewire.json".into());
    // `none` (or an empty list) skips the scaling section entirely —
    // the evaluate-vs-rollback CI gate reads only `speedup` and should
    // not pay for parallel measurements it discards.
    let thread_counts: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "1,2,4,8".into())
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty() && *t != "none")
        .map(|t| t.parse().expect("threads must be integers"))
        .collect();
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let scaling_valid = host_cpus > 1;

    // Fixed workload: a clustered social-ish graph, every edge rewirable,
    // target = half the current clustering (accepts early, a reject-heavy
    // tail later — the production mix). The generator runs on its own
    // seed, so the snapshot cache can satisfy repeat runs without
    // touching the measurement RNG stream.
    let (g, regenerated): (Graph, bool) = sgr_bench::harness::load_or_generate_hidden(
        &format!("holme_kim_n{n}_m4_pt0.5_seed{GRAPH_SEED}"),
        || sgr_gen::holme_kim(n, 4, 0.5, &mut Xoshiro256pp::seed_from_u64(GRAPH_SEED)).unwrap(),
    );
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    let edges: Vec<_> = g.edges().collect();

    eprintln!(
        "bench_rewire: n={} m={} attempts={} host_cpus={} (graph seed {GRAPH_SEED}, rng seed {RNG_SEED})",
        g.num_nodes(),
        g.num_edges(),
        attempts,
        host_cpus,
    );
    if !scaling_valid && !thread_counts.is_empty() {
        eprintln!(
            "bench_rewire: WARNING: host has 1 CPU — thread-scaling numbers below measure \
             coordination overhead, not speedup; JSON will carry \"scaling_valid\": false"
        );
    }

    let fast = {
        let mut eng = RewireEngine::new(g.clone(), edges.clone(), &target);
        measure("evaluate_commit".into(), attempts, |a, rng| {
            eng.run_attempts(a, rng)
        })
    };
    let slow = {
        let mut eng = ApplyRollbackEngine::new(g.clone(), edges.clone(), &target);
        measure("apply_rollback".into(), attempts, |a, rng| {
            eng.run_attempts(a, rng)
        })
    };
    assert_equivalent(&fast, &slow);

    // Thread scaling of the parallel engine, normalized to the
    // sequential evaluate-then-commit engine.
    let scaling: Vec<Measurement> = thread_counts
        .iter()
        .map(|&t| {
            let mut eng = ParallelRewireEngine::new(g.clone(), edges.clone(), &target, t)
                .with_block_size(BENCH_BLOCK);
            let m = measure(format!("parallel{t}"), attempts, |a, rng| {
                eng.run_attempts(a, rng)
            });
            assert_equivalent(&fast, &m);
            m
        })
        .collect();

    let speedup = fast.attempts_per_sec / slow.attempts_per_sec;
    for m in [&fast, &slow].into_iter().chain(scaling.iter()) {
        eprintln!(
            "  {:>16}: {:>10.0} attempts/s ({:.3}s, {} accepted, {:.2}x vs sequential)",
            m.name,
            m.attempts_per_sec,
            m.secs,
            m.stats.accepted,
            m.attempts_per_sec / fast.attempts_per_sec,
        );
    }
    eprintln!("  evaluate_commit vs apply_rollback: {speedup:.2}x");

    let scaling_entries: Vec<String> = scaling
        .iter()
        .map(|m| {
            let extra = format!(
                ",\n      \"speedup_vs_sequential\": {:.3}",
                m.attempts_per_sec / fast.attempts_per_sec
            );
            json_entry(m, &extra)
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"rewire_attempts_per_sec\",\n",
            "  \"graph\": {{\"generator\": \"holme_kim\", \"nodes\": {}, \"edges\": {}, ",
            "\"seed\": {}}},\n",
            "  \"attempts\": {},\n",
            "  \"rng_seed\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"scaling_valid\": {},\n",
            "  \"regenerated\": {},\n",
            "  \"block_size\": {},\n",
            "  \"engines\": {{\n{},\n{}\n  }},\n",
            "  \"scaling\": {{\n{}\n  }},\n",
            "  \"speedup\": {:.3}\n",
            "}}\n"
        ),
        g.num_nodes(),
        g.num_edges(),
        GRAPH_SEED,
        attempts,
        RNG_SEED,
        host_cpus,
        scaling_valid,
        regenerated,
        BENCH_BLOCK,
        json_entry(&fast, ""),
        json_entry(&slow, ""),
        scaling_entries.join(",\n"),
        speedup,
    );
    std::fs::write(&out, json).expect("writing benchmark JSON");
    eprintln!("  wrote {out}");
}
