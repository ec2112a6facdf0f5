//! Construction-throughput harness: times the pre-rewiring half of the
//! restoration pipeline — estimation, target setup (Algorithms 1–4), and
//! stub-matching construction (Algorithm 5) — at 100k and 1M hidden-graph
//! nodes, writing `BENCH_construct.json`. Closes the "construction is
//! still unbenchmarked" gap next to `BENCH_rewire.json` (rewiring) and
//! `BENCH_props.json` (read-only kernels).
//!
//! Phases per size (each on the same fixed crawl):
//! * `subgraph` — inducing `G'` from the crawl (§III-D) via
//!   [`Crawl::subgraph`](sgr_sample::Crawl::subgraph);
//! * `estimate` — the five §III estimators via [`estimate_all`];
//! * `targeting` — target degree vector + joint degree matrix
//!   (Algorithms 1–4 with the subgraph modification steps), reported
//!   both as a total and as a per-phase split: `dv` (Algorithms 1–2),
//!   `jdm_init` (arena allocation + subgraph JDM), `jdm_adjust`
//!   (Algorithm 3, first pass), `jdm_modify` (Algorithm 4), and
//!   `jdm_readjust` (Algorithm 3 with subgraph lower limits). The split
//!   is what made the dense-matrix initialization cost visible in the
//!   first place — keep it so regressions name their phase;
//! * `construct` — node addition + stub matching
//!   ([`extend_subgraph_with`](sgr_core::construct::extend_subgraph_with)),
//!   with built-edges/sec as the headline rate and the stub-matching
//!   wall time split out (`stub_matching_seconds`) so the wiring loop's
//!   cost is visible next to node addition / degree shuffling. The
//!   timed run is cold (fresh scratch — comparable with earlier PRs'
//!   committed numbers); a second run on the warmed
//!   [`ConstructScratch`] with a cloned RNG reports the allocation-free
//!   steady state (`warm_stub_matching_seconds`) a restore loop sees;
//! * `checkpoint` — one round trip of the constructed graph through the
//!   on-disk snapshot container (the container the resumable-restore
//!   checkpoints are built on): write and load wall time plus file size,
//!   gated on bitwise fidelity by
//!   [`sgr_bench::harness::checkpoint_round_trip`];
//! * `rewire_setup` — [`RewireEngine::new`] on the constructed graph and
//!   its added edges: the multiplicity index, the degree-ordered triangle
//!   pass and the degree buckets, the fixed cost a restore pays before
//!   its first rewiring attempt. The index build
//!   ([`MultiplicityIndex::build`]) and the triangle pass
//!   ([`triangle_counts_with_index`]) are also timed on their own on the
//!   same graph, and `rewire_setup_rest_seconds` is what the engine spends
//!   beyond them (degrees, `T_k`, buckets). Each of the three is the best
//!   of three runs.
//!
//! The top-level `host_cpus` records the host the numbers came from.
//!
//! Memory is **measured, not asserted**, through the tracking global
//! allocator ([`sgr_util::alloc`]): `graph_bytes` is the modeled heap
//! footprint of the constructed arena-backed graph,
//! `reference_graph_bytes` that of a [`ReferenceGraph`] replica (the
//! retired one-`Vec`-per-node representation with exact-fit buffers),
//! `graph_bytes_ratio` their quotient (CI gates the 1M row at ≤ 0.60),
//! and `peak_construct_bytes` the construction phase's high-water mark
//! (graph + stub-matching scratch). The hidden graph is pulled from the
//! snapshot cache when present ([`load_or_generate_hidden`]) and the
//! `regenerated` field records which happened; the crawl runs off its
//! own seed so cached and regenerated runs drive the identical pipeline.
//!
//! CI gates `targeting_seconds ≤ 2 × construct_seconds` and the split
//! sanity `stub_matching_seconds ≤ construct_seconds` at 100k (see
//! `.github/workflows/ci.yml`): targeting must stay cheaper than the
//! stub matching it feeds, which the batched engine satisfies with
//! headroom while the per-unit one did not.
//!
//! Usage: `bench_construct [out.json] [sizes_csv]`
//! (defaults: `BENCH_construct.json`, sizes `100000,1000000`).

use sgr_bench::harness::load_or_generate_hidden;
use sgr_core::{construct, target_dv, target_jdm};
use sgr_dk::rewire::RewireEngine;
use sgr_dk::ConstructScratch;
use sgr_estimate::estimate_all;
use sgr_graph::index::MultiplicityIndex;
use sgr_graph::reference::ReferenceGraph;
use sgr_props::triangles::triangle_counts_with_index;
use sgr_sample::random_walk_until_fraction;
use sgr_util::{alloc, Xoshiro256pp};
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

const GRAPH_SEED: u64 = 14;
/// The crawl draws from its own stream (it used to continue the
/// generator's) so a cache-loaded hidden graph leaves the pipeline's RNG
/// state — and with it every downstream number — identical to a
/// regenerated run's.
const CRAWL_SEED: u64 = 15;
const CRAWL_FRACTION: f64 = 0.1;
/// Repetitions of the rewire-engine set-up and of its two large phases.
const SETUP_REPS: usize = 3;

struct SizeResult {
    hidden_nodes: usize,
    hidden_edges: usize,
    queried: usize,
    built_nodes: usize,
    built_edges: usize,
    added_edges: usize,
    subgraph_secs: f64,
    estimate_secs: f64,
    dv_secs: f64,
    jdm_stats: target_jdm::JdmBuildStats,
    targeting_secs: f64,
    construct_secs: f64,
    stub_matching_secs: f64,
    warm_stub_matching_secs: f64,
    checkpoint_bytes: u64,
    checkpoint_write_secs: f64,
    checkpoint_load_secs: f64,
    rewire_setup_secs: f64,
    rewire_index_secs: f64,
    rewire_triangle_secs: f64,
    regenerated: bool,
    graph_bytes: u64,
    reference_graph_bytes: u64,
    peak_construct_bytes: u64,
}

fn run_size(n: usize) -> SizeResult {
    let (g, regenerated) =
        load_or_generate_hidden(&format!("holme_kim_n{n}_m4_pt0.5_seed{GRAPH_SEED}"), || {
            sgr_gen::holme_kim(n, 4, 0.5, &mut Xoshiro256pp::seed_from_u64(GRAPH_SEED)).unwrap()
        });
    let mut rng = Xoshiro256pp::seed_from_u64(CRAWL_SEED);
    let crawl = random_walk_until_fraction(&g, CRAWL_FRACTION, &mut rng);
    let t = Instant::now();
    let subgraph = crawl.subgraph();
    let subgraph_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let estimates = estimate_all(&crawl).expect("estimation failed");
    let estimate_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut dv = target_dv::build(&subgraph, &estimates, &mut rng);
    let dv_secs = t.elapsed().as_secs_f64();
    let (jdm, jdm_stats) =
        target_jdm::build_with_stats(&subgraph, &estimates, &mut dv).expect("targeting failed");
    let targeting_secs = t.elapsed().as_secs_f64();

    // Cold timed run on a per-size fresh scratch (fresh alloc state is
    // part of what earlier PRs measured — a scratch shared across sizes
    // would arrive pre-warmed); clone the RNG first so the warm repeat
    // below replays the identical draw stream.
    let mut cs = ConstructScratch::new();
    let rng_replay = rng.clone();
    alloc::reset_peak();
    let live_at_reset = alloc::live_model_bytes();
    let t = Instant::now();
    let built = construct::extend_subgraph_with(&subgraph, &dv, &jdm, &mut rng, &mut cs)
        .expect("construction failed");
    let construct_secs = t.elapsed().as_secs_f64();
    // High-water mark of the cold construction alone: graph arena plus
    // stub-matching scratch, above whatever was already resident.
    let peak_construct_bytes = alloc::peak_model_bytes().saturating_sub(live_at_reset);
    let built_nodes = built.graph.num_nodes();
    let built_edges = built.graph.num_edges();
    let stub_matching_secs = built.stub_matching_secs;
    let added_edges = built.added_edges;
    // Free the cold run's graph before the warm repeat so the two 1M-node
    // graphs are never resident together (the doubled footprint skews the
    // warm timing on small hosts).
    drop(built.graph);

    // Warm repeat: same inputs, same draws, scratch now at its
    // high-water mark — the matcher's allocation-free steady state.
    let mut rng2 = rng_replay;
    let rebuilt = construct::extend_subgraph_with(&subgraph, &dv, &jdm, &mut rng2, &mut cs)
        .expect("warm construction failed");
    assert_eq!(
        rebuilt.added_edges, added_edges,
        "scratch reuse changed the construction output"
    );

    // Measured graph footprints: live-byte delta while one extra copy of
    // the constructed graph is resident — once in the arena
    // representation, once as a ReferenceGraph replica (the retired
    // one-`Vec`-per-node layout, exact-fit buffers, i.e. its floor).
    let live0 = alloc::live_model_bytes();
    let arena_copy = rebuilt.graph.clone();
    let graph_bytes = alloc::live_model_bytes().saturating_sub(live0);
    drop(arena_copy);
    let live0 = alloc::live_model_bytes();
    let replica = ReferenceGraph::replica_of(&rebuilt.graph);
    let reference_graph_bytes = alloc::live_model_bytes().saturating_sub(live0);
    drop(replica);

    // Checkpoint round trip of the constructed graph through the snapshot
    // container, gated on bitwise fidelity.
    let ckpt_path = std::env::temp_dir().join(format!(
        "sgr_bench_construct_ckpt_{}_{n}.sgrsnap",
        std::process::id()
    ));
    let (checkpoint_write_secs, checkpoint_load_secs, checkpoint_bytes) =
        sgr_bench::harness::checkpoint_round_trip(&rebuilt.graph.freeze(), &ckpt_path);
    let _ = std::fs::remove_file(&ckpt_path);

    // Rewire-engine set-up on the constructed graph, as a restore builds
    // it after construction (the graph and candidates move in), and its
    // two large phases on their own on the same graph. Each is the best
    // of `SETUP_REPS`, so the split is not one noisy sample less another.
    let (mut rewire_setup_secs, mut rewire_index_secs, mut rewire_triangle_secs) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let idx = MultiplicityIndex::build(&rebuilt.graph);
        rewire_index_secs = rewire_index_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let triangles = triangle_counts_with_index(&idx);
        rewire_triangle_secs = rewire_triangle_secs.min(t.elapsed().as_secs_f64());
        drop((idx, triangles));
        let (graph, candidates) = (rebuilt.graph.clone(), rebuilt.added_edges.clone());
        let t = Instant::now();
        let engine = RewireEngine::new(graph, candidates, &estimates.clustering);
        rewire_setup_secs = rewire_setup_secs.min(t.elapsed().as_secs_f64());
        drop(engine);
    }

    SizeResult {
        hidden_nodes: g.num_nodes(),
        hidden_edges: g.num_edges(),
        queried: crawl.num_queried(),
        built_nodes,
        built_edges,
        added_edges: added_edges.len(),
        subgraph_secs,
        estimate_secs,
        dv_secs,
        jdm_stats,
        targeting_secs,
        construct_secs,
        stub_matching_secs,
        warm_stub_matching_secs: rebuilt.stub_matching_secs,
        checkpoint_bytes,
        checkpoint_write_secs,
        checkpoint_load_secs,
        rewire_setup_secs,
        rewire_index_secs,
        rewire_triangle_secs,
        regenerated,
        graph_bytes,
        reference_graph_bytes,
        peak_construct_bytes,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out = args.next().unwrap_or_else(|| "BENCH_construct.json".into());
    let sizes: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "100000,1000000".into())
        .split(',')
        .map(|t| t.trim().parse().expect("sizes must be integers"))
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries: Vec<String> = Vec::new();
    for &n in &sizes {
        eprintln!(
            "bench_construct: hidden n={n} (graph seed {GRAPH_SEED}, crawl fraction {CRAWL_FRACTION})"
        );
        let r = run_size(n);
        let total = r.estimate_secs + r.targeting_secs + r.construct_secs;
        let edges_per_sec = r.built_edges as f64 / r.construct_secs;
        let stub_rate = r.added_edges as f64 / r.stub_matching_secs;
        let warm_stub_rate = r.added_edges as f64 / r.warm_stub_matching_secs;
        let rewire_rest_secs =
            (r.rewire_setup_secs - r.rewire_index_secs - r.rewire_triangle_secs).max(0.0);
        eprintln!(
            "  subgraph {:.3}s · rewire set-up {:.3}s (index {:.3} · triangles {:.3} · rest {:.3})",
            r.subgraph_secs,
            r.rewire_setup_secs,
            r.rewire_index_secs,
            r.rewire_triangle_secs,
            rewire_rest_secs,
        );
        eprintln!(
            "  estimate {:.3}s · targeting {:.3}s (dv {:.3} · init {:.3} · adjust {:.3} · modify {:.3} · readjust {:.3}) · construct {:.3}s ({} nodes, {} edges, {:.0} edges/s)",
            r.estimate_secs, r.targeting_secs, r.dv_secs,
            r.jdm_stats.init_secs, r.jdm_stats.adjust_secs,
            r.jdm_stats.modify_secs, r.jdm_stats.readjust_secs,
            r.construct_secs, r.built_nodes, r.built_edges, edges_per_sec,
        );
        eprintln!(
            "  stub matching {:.3}s ({:.0} added edges/s) · warm {:.3}s ({:.0} added edges/s)",
            r.stub_matching_secs, stub_rate, r.warm_stub_matching_secs, warm_stub_rate,
        );
        let mb = r.checkpoint_bytes as f64 / (1024.0 * 1024.0);
        let ckpt_write_mb_s = mb / r.checkpoint_write_secs;
        let ckpt_load_mb_s = mb / r.checkpoint_load_secs;
        eprintln!(
            "  checkpoint {:.2} MiB · write {:.3}s ({:.0} MiB/s) · load {:.3}s ({:.0} MiB/s)",
            mb, r.checkpoint_write_secs, ckpt_write_mb_s, r.checkpoint_load_secs, ckpt_load_mb_s,
        );
        let graph_bytes_ratio = r.graph_bytes as f64 / r.reference_graph_bytes as f64;
        eprintln!(
            "  memory: graph {:.2} MiB (arena) vs {:.2} MiB (reference) → ratio {:.3} · construct peak {:.2} MiB · hidden graph {}",
            r.graph_bytes as f64 / (1024.0 * 1024.0),
            r.reference_graph_bytes as f64 / (1024.0 * 1024.0),
            graph_bytes_ratio,
            r.peak_construct_bytes as f64 / (1024.0 * 1024.0),
            if r.regenerated { "regenerated" } else { "cached" },
        );
        entries.push(format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"hidden_nodes\": {},\n",
                "      \"hidden_edges\": {},\n",
                "      \"queried_nodes\": {},\n",
                "      \"built_nodes\": {},\n",
                "      \"built_edges\": {},\n",
                "      \"added_edges\": {},\n",
                "      \"subgraph_seconds\": {:.6},\n",
                "      \"estimate_seconds\": {:.6},\n",
                "      \"dv_seconds\": {:.6},\n",
                "      \"jdm_init_seconds\": {:.6},\n",
                "      \"jdm_adjust_seconds\": {:.6},\n",
                "      \"jdm_modify_seconds\": {:.6},\n",
                "      \"jdm_readjust_seconds\": {:.6},\n",
                "      \"targeting_seconds\": {:.6},\n",
                "      \"construct_seconds\": {:.6},\n",
                "      \"stub_matching_seconds\": {:.6},\n",
                "      \"warm_stub_matching_seconds\": {:.6},\n",
                "      \"total_seconds\": {:.6},\n",
                "      \"construct_edges_per_sec\": {:.1},\n",
                "      \"stub_matching_edges_per_sec\": {:.1},\n",
                "      \"warm_stub_matching_edges_per_sec\": {:.1},\n",
                "      \"checkpoint_bytes\": {},\n",
                "      \"checkpoint_write_seconds\": {:.6},\n",
                "      \"checkpoint_load_seconds\": {:.6},\n",
                "      \"checkpoint_write_mb_per_sec\": {:.1},\n",
                "      \"checkpoint_load_mb_per_sec\": {:.1},\n",
                "      \"rewire_setup_seconds\": {:.6},\n",
                "      \"rewire_setup_index_seconds\": {:.6},\n",
                "      \"rewire_setup_triangle_seconds\": {:.6},\n",
                "      \"rewire_setup_rest_seconds\": {:.6},\n",
                "      \"regenerated\": {},\n",
                "      \"graph_bytes\": {},\n",
                "      \"reference_graph_bytes\": {},\n",
                "      \"graph_bytes_ratio\": {:.6},\n",
                "      \"peak_construct_bytes\": {}\n",
                "    }}"
            ),
            n,
            r.hidden_nodes,
            r.hidden_edges,
            r.queried,
            r.built_nodes,
            r.built_edges,
            r.added_edges,
            r.subgraph_secs,
            r.estimate_secs,
            r.dv_secs,
            r.jdm_stats.init_secs,
            r.jdm_stats.adjust_secs,
            r.jdm_stats.modify_secs,
            r.jdm_stats.readjust_secs,
            r.targeting_secs,
            r.construct_secs,
            r.stub_matching_secs,
            r.warm_stub_matching_secs,
            total,
            edges_per_sec,
            stub_rate,
            warm_stub_rate,
            r.checkpoint_bytes,
            r.checkpoint_write_secs,
            r.checkpoint_load_secs,
            ckpt_write_mb_s,
            ckpt_load_mb_s,
            r.rewire_setup_secs,
            r.rewire_index_secs,
            r.rewire_triangle_secs,
            rewire_rest_secs,
            r.regenerated,
            r.graph_bytes,
            r.reference_graph_bytes,
            graph_bytes_ratio,
            r.peak_construct_bytes,
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"construct_and_targeting\",\n",
            "  \"graph\": {{\"generator\": \"holme_kim\", \"m\": 4, \"pt\": 0.5, \"seed\": {}}},\n",
            "  \"crawl_fraction\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"sizes\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        GRAPH_SEED,
        CRAWL_FRACTION,
        host_cpus,
        entries.join(",\n"),
    );
    std::fs::write(&out, json).expect("writing benchmark JSON");
    eprintln!("  wrote {out}");
}
