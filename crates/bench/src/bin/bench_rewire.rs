//! Rewiring-throughput harness: measures swap attempts/sec for the
//! evaluate-then-commit engine against the apply-rollback reference on
//! the same graph, target, and RNG seed. Writes `BENCH_rewire.json` so
//! future changes have a perf trajectory to defend.
//!
//! Both engines are asserted to produce the **same accepted count and
//! bitwise-identical final distance** before any number is reported — a
//! perf number for a wrong engine is worthless.
//!
//! Usage: `bench_rewire [nodes] [attempts] [out.json]` (defaults: 2000
//! nodes, 200_000 attempts, `BENCH_rewire.json`). `host_cpus` records
//! the cores the measuring host had; both engines run on one of them.
//! Each engine's row also counts `filtered`: the picks the disjointness
//! filter rejected without evaluating them (0 for the reference, which
//! has none).

use sgr_dk::rewire::reference::ApplyRollbackEngine;
use sgr_dk::rewire::{RewireEngine, RewireStats};
use sgr_graph::Graph;
use sgr_props::local::LocalProperties;
use sgr_util::Xoshiro256pp;
use std::time::Instant;

const GRAPH_SEED: u64 = 6;
const RNG_SEED: u64 = 10;

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

fn json_entry(m: &Measurement) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"seconds\": {:.6},\n",
            "      \"attempts_per_sec\": {:.1},\n",
            "      \"accepted\": {},\n",
            "      \"skipped\": {},\n",
            "      \"filtered\": {},\n",
            "      \"initial_distance\": {:.12},\n",
            "      \"final_distance\": {:.12}\n",
            "    }}"
        ),
        m.name,
        m.secs,
        m.attempts_per_sec,
        m.stats.accepted,
        m.stats.skipped,
        m.stats.filtered,
        m.stats.initial_distance,
        m.stats.final_distance,
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
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

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

    let speedup = fast.attempts_per_sec / slow.attempts_per_sec;
    for m in [&fast, &slow] {
        eprintln!(
            "  {:>16}: {:>10.0} attempts/s ({:.3}s, {} accepted)",
            m.name, m.attempts_per_sec, m.secs, m.stats.accepted,
        );
    }
    eprintln!("  evaluate_commit vs apply_rollback: {speedup:.2}x");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"rewire_attempts_per_sec\",\n",
            "  \"graph\": {{\"generator\": \"holme_kim\", \"nodes\": {}, \"edges\": {}, ",
            "\"seed\": {}}},\n",
            "  \"attempts\": {},\n",
            "  \"rng_seed\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"regenerated\": {},\n",
            "  \"engines\": {{\n{},\n{}\n  }},\n",
            "  \"speedup\": {:.3}\n",
            "}}\n"
        ),
        g.num_nodes(),
        g.num_edges(),
        GRAPH_SEED,
        attempts,
        RNG_SEED,
        host_cpus,
        regenerated,
        json_entry(&fast),
        json_entry(&slow),
        speedup,
    );
    std::fs::write(&out, json).expect("writing benchmark JSON");
    eprintln!("  wrote {out}");
}
