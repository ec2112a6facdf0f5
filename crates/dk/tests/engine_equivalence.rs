//! Equivalence and invariant tests for the evaluate-then-commit rewiring
//! engine against the apply-rollback reference.
//!
//! The two implementations share swap picking (RNG-draw order) and the
//! decision fold (float-operation order), so for the same seed they must
//! agree **exactly**: same accept/reject sequence, same final edge
//! multiset, bitwise-identical final distance. These tests assert that,
//! plus the DV/JDM preservation invariant and the allocation-free /
//! mutation-free guarantees of the new engine's reject path.

use proptest::prelude::*;
use sgr_dk::extract::joint_degree_matrix;
use sgr_dk::rewire::parallel::ParallelRewireEngine;
use sgr_dk::rewire::reference::ApplyRollbackEngine;
use sgr_dk::rewire::RewireEngine;
use sgr_graph::{Graph, NodeId};
use sgr_props::local::LocalProperties;
use sgr_util::Xoshiro256pp;

mod common;
use common::count_allocs;

fn sorted_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (30usize..150, 2usize..4, 0.0f64..0.8, 0u64..1_000).prop_map(|(n, m, pt, seed)| {
        sgr_gen::holme_kim(n, m, pt, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    })
}

/// A graph with stub-matching artifacts (multi-edges and self-loops)
/// mixed in, as the construction phase produces.
fn messy_graph(seed: u64) -> Graph {
    let mut g = sgr_gen::holme_kim(200, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xabcd);
    for _ in 0..6 {
        let u = rng.gen_range(g.num_nodes()) as NodeId;
        g.add_edge(u, u);
    }
    for _ in 0..6 {
        let u = rng.gen_range(g.num_nodes()) as NodeId;
        let v = rng.gen_range(g.num_nodes()) as NodeId;
        g.add_edge(u, v);
    }
    g
}

/// Both engines, same seed: per-attempt decisions, final edges, final
/// distance must agree (distance bitwise).
fn assert_equivalent(g: Graph, target: &[f64], rng_seed: u64, attempts: u64) {
    let edges: Vec<_> = g.edges().collect();
    let mut fast = RewireEngine::new(g.clone(), edges.clone(), target);
    let mut slow = ApplyRollbackEngine::new(g, edges, target);

    let mut rng_f = Xoshiro256pp::seed_from_u64(rng_seed);
    let mut rng_s = Xoshiro256pp::seed_from_u64(rng_seed);
    for i in 0..attempts {
        let a = fast.attempt(&mut rng_f);
        let b = slow.attempt(&mut rng_s);
        assert_eq!(a, b, "decision diverged at attempt {i}");
        assert_eq!(
            fast.distance().to_bits(),
            slow.distance().to_bits(),
            "distance diverged at attempt {i}: {} vs {}",
            fast.distance(),
            slow.distance()
        );
    }
    fast.validate().unwrap();
    slow.validate().unwrap();
    let gf = fast.into_graph();
    let gs = slow.into_graph();
    assert_eq!(
        sorted_edges(&gf),
        sorted_edges(&gs),
        "edge multisets diverged"
    );
}

#[test]
fn engines_agree_toward_zero_clustering() {
    let g = messy_graph(1);
    let target = vec![0.0; g.max_degree() + 1];
    assert_equivalent(g, &target, 42, 8_000);
}

#[test]
fn engines_agree_toward_half_clustering() {
    let g = messy_graph(2);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    assert_equivalent(g, &target, 7, 8_000);
}

#[test]
fn engines_agree_toward_inflated_clustering() {
    // Triangle-building direction: most attempts reject, exercising the
    // hot path the optimization targets.
    let g = messy_graph(3);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| (c * 1.5).min(1.0))
        .collect();
    assert_equivalent(g, &target, 9, 8_000);
}

/// `RewireEngine::run_attempts` in chunks of varied sizes against the
/// reference stepped one attempt at a time. After every chunk the two
/// must agree on accepted and skipped counts, on the distance bitwise,
/// and on the RNG position: the lookahead ring draws picks ahead of the
/// one it decides, so this pins that it rewinds after every accept and
/// never draws past the chunk's budget. Returns the accepts in total.
fn assert_run_attempts_matches_oracle(g: Graph, target: &[f64], rng_seed: u64) -> u64 {
    const CHUNKS: [u64; 8] = [1, 2, 3, 7, 8, 9, 17, 500];
    let edges: Vec<_> = g.edges().collect();
    let mut ring = RewireEngine::new(g.clone(), edges.clone(), target);
    let mut oracle = ApplyRollbackEngine::new(g, edges, target);
    let mut rng_r = Xoshiro256pp::seed_from_u64(rng_seed);
    let mut rng_o = Xoshiro256pp::seed_from_u64(rng_seed);
    let mut total = 0u64;
    for round in 0..3 {
        for chunk in CHUNKS {
            let stats = ring.run_attempts(chunk, &mut rng_r);
            let mut accepted = 0u64;
            for _ in 0..chunk {
                accepted += u64::from(oracle.attempt(&mut rng_o));
            }
            let at = format!("round {round}, chunk {chunk}");
            assert_eq!(stats.attempts, chunk, "{at}");
            assert_eq!(stats.accepted, accepted, "accepted diverged at {at}");
            assert_eq!(stats.skipped, chunk - accepted, "skipped diverged at {at}");
            assert_eq!(
                ring.distance().to_bits(),
                oracle.distance().to_bits(),
                "distance diverged at {at}: {} vs {}",
                ring.distance(),
                oracle.distance()
            );
            assert_eq!(
                rng_r.state(),
                rng_o.state(),
                "RNG position diverged at {at}"
            );
            total += accepted;
        }
    }
    ring.validate().unwrap();
    assert_eq!(
        sorted_edges(&ring.into_graph()),
        sorted_edges(&oracle.into_graph()),
        "edge multisets diverged"
    );
    total
}

#[test]
fn run_attempts_matches_oracle_on_accept_heavy_target() {
    let g = messy_graph(7);
    let target = vec![0.0; g.max_degree() + 1];
    let accepted = assert_run_attempts_matches_oracle(g, &target, 43);
    assert!(accepted >= 100, "only {accepted} accepts: not accept-heavy");
}

#[test]
fn run_attempts_matches_oracle_on_reject_only_target() {
    // The graph's own clustering: D = 0 is the floor, every attempt
    // rejects, and the ring never rewinds.
    let g = messy_graph(8);
    let target = LocalProperties::compute(&g).clustering_by_degree;
    assert_eq!(assert_run_attempts_matches_oracle(g, &target, 47), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_arbitrary_graphs(
        g in arb_graph(),
        seed in 0u64..10_000,
        shrink in 0.0f64..1.0,
    ) {
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * shrink)
            .collect();
        assert_equivalent(g, &target, seed, 2_000);
    }

    #[test]
    fn dv_and_jdm_are_exactly_preserved_by_run(g in arb_graph(), seed in 0u64..10_000) {
        let dv = g.degree_vector();
        let jdm = joint_degree_matrix(&g);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        eng.run(4.0, &mut rng);
        eng.validate().unwrap();
        let g2 = eng.into_graph();
        prop_assert_eq!(g2.degree_vector(), dv);
        prop_assert_eq!(joint_degree_matrix(&g2), jdm);
    }
}

/// `ParallelRewireEngine` is the engine under its old constructor, kept
/// for the benchmark harness: at every `threads` value it must run
/// exactly as `RewireEngine` does, chunk for chunk.
fn assert_parallel_equivalent(g: Graph, target: &[f64], rng_seed: u64, chunk: u64, chunks: usize) {
    let edges: Vec<_> = g.edges().collect();
    let mut seq = RewireEngine::new(g.clone(), edges.clone(), target);
    let mut rng_s = Xoshiro256pp::seed_from_u64(rng_seed);
    let want: Vec<_> = (0..chunks)
        .map(|_| seq.run_attempts(chunk, &mut rng_s))
        .map(|s| (s.accepted, s.final_distance.to_bits()))
        .collect();
    seq.validate().unwrap();
    let want_edges = sorted_edges(&seq.into_graph());
    for threads in [0, 1, 2, 4, 8] {
        let mut par = ParallelRewireEngine::new(g.clone(), edges.clone(), target, threads);
        let mut rng_p = Xoshiro256pp::seed_from_u64(rng_seed);
        let got: Vec<_> = (0..chunks)
            .map(|_| par.run_attempts(chunk, &mut rng_p))
            .map(|s| (s.accepted, s.final_distance.to_bits()))
            .collect();
        assert_eq!(got, want, "threads = {threads} changed the run");
        assert_eq!(
            sorted_edges(&par.into_graph()),
            want_edges,
            "edge multisets diverged (threads {threads})"
        );
    }
}

#[test]
fn parallel_engine_is_seed_for_seed_equivalent_at_all_thread_counts() {
    let g = messy_graph(21);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    assert_parallel_equivalent(g, &target, 23, 1000, 6);
}

#[test]
fn parallel_engine_matches_on_reject_dominated_workload() {
    // Inflated target: triangle-creating swaps are rare, so nearly every
    // attempt rejects.
    let g = messy_graph(22);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| (c * 1.5).min(1.0))
        .collect();
    assert_parallel_equivalent(g, &target, 29, 2000, 3);
}

#[test]
fn conflict_replay_is_correct_under_high_acceptance() {
    // A zero-clustering target on a clustered graph accepts a large share
    // of early attempts, so the lookahead ring voids its drawn-ahead
    // picks, rewinds the RNG and redraws them after most commits.
    let g = messy_graph(23);
    let target = vec![0.0; g.max_degree() + 1];
    let accepted = assert_run_attempts_matches_oracle(g, &target, 31);
    assert!(
        accepted >= 150,
        "workload not acceptance-heavy enough to stress replay ({accepted} accepts)"
    );
}

#[test]
fn parallel_worker_evaluations_are_allocation_free_on_reject() {
    // Same guarantee as the sequential engine, through the name the
    // benchmark harness calls: a reject-only run performs zero heap
    // allocations once buffers are warm.
    let g = messy_graph(24);
    let props = LocalProperties::compute(&g);
    // The graph's own clustering as target: D = 0 is already the floor,
    // so no swap lowers it — every attempt rejects.
    let target = props.clustering_by_degree.clone();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = ParallelRewireEngine::new(g, edges, &target, 4);
    let mut rng = Xoshiro256pp::seed_from_u64(37);
    // Warm-up: let the pair buffer reach its steady-state capacity.
    let warm = eng.run_attempts(4_096, &mut rng);
    assert!(
        warm.initial_distance < 1e-9,
        "D = {}",
        warm.initial_distance
    );
    let (allocs, stats) = count_allocs(|| eng.run_attempts(4_096, &mut rng));
    assert_eq!(warm.accepted + stats.accepted, 0, "fixed point accepted?");
    assert_eq!(allocs, 0, "reject-only rewiring allocated {allocs} times");
    assert_eq!(stats.skipped, 4_096);
}

#[test]
fn rejected_attempts_perform_zero_heap_allocations() {
    // The acceptance-criterion guarantee: every attempt performs zero
    // heap allocations. A rejected attempt touches no shared state; an
    // accepted one rewrites the graph and the multiplicity index in
    // place, inside per-node extents fixed at engine construction.
    let g = messy_graph(4);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = RewireEngine::new(g, edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let (mut accepts, mut rejects) = (0u64, 0u64);
    for i in 0..20_000u64 {
        let (allocs, accepted) = count_allocs(|| eng.attempt(&mut rng));
        let verdict = if accepted { "accepted" } else { "rejected" };
        assert_eq!(allocs, 0, "{verdict} attempt {i} allocated {allocs} times");
        if accepted {
            accepts += 1;
        } else {
            rejects += 1;
        }
    }
    assert!(accepts > 0, "want a mix of accepts and rejects");
    assert!(rejects > 0, "want a mix of accepts and rejects");
    eng.validate().unwrap();
}

#[test]
fn run_attempts_performs_zero_heap_allocations() {
    // The same guarantee through the lookahead loop: its ring lives on
    // the stack, so a warmed-up run of mixed accepts and rejects
    // allocates nothing.
    let g = messy_graph(9);
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = RewireEngine::new(g, edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(19);
    eng.run_attempts(1_000, &mut rng);
    let (allocs, stats) = count_allocs(|| eng.run_attempts(20_000, &mut rng));
    assert_eq!(allocs, 0, "run_attempts allocated {allocs} times");
    assert!(stats.accepted > 0, "want a mix of accepts and rejects");
    assert!(stats.skipped > 0, "want a mix of accepts and rejects");
    eng.validate().unwrap();
}

#[test]
fn dense_multigraph_rewiring_allocates_nothing_without_warm_up() {
    // Every pair of 8 nodes joined once or twice, plus loops: two
    // extents hold up to 16 distinct neighbours, more than the graph has
    // nodes, and nearly every key is shared, so a gather can return more
    // keys than there are nodes. The engine's buffers must be sized for
    // that from the start: the very first attempts allocate nothing.
    let mut g = Graph::with_nodes(8);
    for u in 0..8 {
        g.add_edge(u, u);
        for v in u + 1..8 {
            g.add_edge(u, v);
            if (u * v) % 3 != 1 {
                g.add_edge(u, v);
            }
        }
    }
    let props = LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = RewireEngine::new(g, edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(29);
    let (allocs, stats) = count_allocs(|| eng.run_attempts(5_000, &mut rng));
    assert_eq!(allocs, 0, "run_attempts allocated {allocs} times");
    assert!(stats.accepted > 0, "{stats:?}");
    assert!(stats.skipped > stats.filtered, "{stats:?}");
    eng.validate().unwrap();
}

#[test]
fn reference_engine_does_allocate_per_attempt() {
    // Sanity-check the counter itself: the baseline must show the very
    // allocations the new engine eliminates.
    let g = messy_graph(5);
    let target = vec![0.0; g.max_degree() + 1];
    let edges: Vec<_> = g.edges().collect();
    let mut eng = ApplyRollbackEngine::new(g, edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let (allocs, _) = count_allocs(|| eng.run_attempts(1_000, &mut rng));
    assert!(allocs > 0, "baseline unexpectedly allocation-free");
}

#[test]
fn rejected_attempts_leave_graph_and_index_untouched() {
    let g = messy_graph(6);
    let props = LocalProperties::compute(&g);
    // Unreachable target far above current clustering: triangle-creating
    // swaps are rare, so nearly everything rejects.
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| (c * 3.0).min(1.0))
        .collect();
    let edges: Vec<_> = g.edges().collect();
    let mut eng = RewireEngine::new(g.clone(), edges, &target);
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let before = sorted_edges(&g);
    let mut rejected_streak = Vec::new();
    for _ in 0..500 {
        rejected_streak.push(eng.attempt(&mut rng));
    }
    if rejected_streak.iter().all(|&a| !a) {
        // Pure-reject run: the graph must be bit-for-bit unchanged.
        let after = sorted_edges(&eng.into_graph());
        assert_eq!(before, after);
    } else {
        // Some accepts happened; the engine must still validate.
        eng.validate().unwrap();
    }
}
