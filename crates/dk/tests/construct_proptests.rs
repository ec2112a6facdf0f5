//! Property-based tests of the stub-matching construction engines.
//!
//! The flat-arena engine ([`sgr_dk::construct::wire_stubs`]) must be
//! **bitwise-equivalent** to the kept per-class-pool implementation
//! ([`sgr_dk::construct::reference::wire_stubs`]): same RNG draw
//! sequence, same pair order, same added-edge list (order included), same
//! errors — the same oracle pattern the targeting engine uses
//! (`sgr_core::target_jdm::reference`). On top of equivalence, the suite
//! pins the matcher's documented contract: degree-sequence exactness,
//! edge-multiset accounting (multi-edges included), the no-self-loop
//! invariant for single-stub nodes, typed out-of-stub errors, the
//! zero-allocation warm path, and a committed golden hash of the draw
//! stream.

use proptest::prelude::*;
use sgr_dk::construct::{reference, wire_stubs, ConstructScratch};
use sgr_dk::extract::{joint_degree_matrix, JointDegreeMatrix};
use sgr_graph::{Graph, NodeId};
use sgr_util::rng::SplitMix64;
use sgr_util::{FxHashMap, Xoshiro256pp};

mod common;
use common::count_allocs;

/// A construction problem: an existing graph (possibly empty), the target
/// degree of every node, and the class-pair edge counts to wire.
#[derive(Clone, Debug)]
struct Problem {
    g0: Graph,
    target: Vec<u32>,
    add: JointDegreeMatrix,
}

/// From-empty problem: realize the degree vector and JDM of a Holme–Kim
/// graph from scratch (the 2K-generator / Gjoka workload).
fn from_empty_problem(n: usize, m: usize, pt: f64, seed: u64) -> Problem {
    let src = sgr_gen::holme_kim(n, m, pt, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap();
    let target: Vec<u32> = src.nodes().map(|u| src.degree(u) as u32).collect();
    Problem {
        g0: Graph::with_nodes(src.num_nodes()),
        target,
        add: joint_degree_matrix(&src),
    }
}

/// Extension problem: keep a pseudo-random subset of a Holme–Kim graph's
/// edges as the existing subgraph and request exactly the dropped edges
/// back, classed by the *target* (full-graph) degrees — the Algorithm-5
/// workload, valid by construction (JDM-3 holds: every free stub is one
/// endpoint of one dropped edge).
fn extend_problem(n: usize, m: usize, pt: f64, seed: u64) -> Problem {
    let src = sgr_gen::holme_kim(n, m, pt, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap();
    let target: Vec<u32> = src.nodes().map(|u| src.degree(u) as u32).collect();
    let mut keep: Vec<(NodeId, NodeId)> = Vec::new();
    let mut add: JointDegreeMatrix = FxHashMap::default();
    for (i, (u, v)) in src.edges().enumerate() {
        if SplitMix64::new(seed ^ 0x9e37 ^ i as u64).next_u64() & 1 == 0 {
            keep.push((u, v));
        } else {
            let (k, k2) = (target[u as usize], target[v as usize]);
            let key = if k <= k2 { (k, k2) } else { (k2, k) };
            *add.entry(key).or_insert(0) += 1;
        }
    }
    Problem {
        g0: Graph::from_edges(src.num_nodes(), &keep),
        target,
        add,
    }
}

fn arb_problem() -> impl Strategy<Value = Problem> {
    (30usize..150, 2usize..4, 0.0f64..0.8, 0u64..1_000, 0usize..2).prop_map(
        |(n, m, pt, seed, mode)| {
            if mode == 0 {
                from_empty_problem(n, m, pt, seed)
            } else {
                extend_problem(n, m, pt, seed)
            }
        },
    )
}

fn sorted_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}

/// Runs both engines on the same problem and seed and asserts bitwise
/// agreement: added list (order included), final graph, stats, errors,
/// and post-run RNG state.
fn assert_engines_bitwise_equal(p: &Problem, seed: u64, scratch: &mut ConstructScratch) {
    let mut g_flat = p.g0.clone();
    let mut g_ref = p.g0.clone();
    let mut rng_flat = Xoshiro256pp::seed_from_u64(seed);
    let mut rng_ref = Xoshiro256pp::seed_from_u64(seed);
    let flat = wire_stubs(&mut g_flat, &p.target, &p.add, &mut rng_flat, scratch);
    let refr = reference::wire_stubs(&mut g_ref, &p.target, &p.add, &mut rng_ref);
    match (flat, refr) {
        (Ok((fe, fs)), Ok((re, rs))) => {
            assert_eq!(fe, &re[..], "added edge lists diverged (seed {seed})");
            assert_eq!(fs, rs, "match stats diverged (seed {seed})");
            assert_eq!(
                g_flat.edges().collect::<Vec<_>>(),
                g_ref.edges().collect::<Vec<_>>(),
                "graphs diverged (seed {seed})"
            );
            assert_eq!(
                rng_flat.next_u64(),
                rng_ref.next_u64(),
                "RNG streams diverged (seed {seed})"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged (seed {seed})"),
        (a, b) => panic!("one engine failed, the other did not: {a:?} vs {b:?}"),
    }
}

#[test]
fn engines_agree_on_fixed_seeds() {
    let mut scratch = ConstructScratch::new();
    for seed in 0..8u64 {
        let p = from_empty_problem(200, 3, 0.5, seed);
        assert_engines_bitwise_equal(&p, seed ^ 0xabcd, &mut scratch);
        let p = extend_problem(200, 3, 0.5, seed);
        assert_engines_bitwise_equal(&p, seed ^ 0xbeef, &mut scratch);
    }
}

#[test]
fn engines_return_identical_out_of_stubs_errors() {
    // Corrupt the add map two ways: inflate a populated cell past the
    // available stubs, and request a class beyond the largest target
    // degree. Both engines must fail with the same typed error.
    let mut scratch = ConstructScratch::new();
    let base = from_empty_problem(120, 3, 0.4, 7);

    let mut inflated = base.clone();
    let (&key, _) = inflated.add.iter().next().expect("nonempty JDM");
    *inflated.add.get_mut(&key).unwrap() += 1_000_000;
    assert_engines_bitwise_equal(&inflated, 11, &mut scratch);

    let mut phantom = base.clone();
    let k_max = *phantom.target.iter().max().unwrap();
    phantom.add.insert((k_max + 3, k_max + 3), 1);
    assert_engines_bitwise_equal(&phantom, 13, &mut scratch);
}

#[test]
fn warm_stub_matching_performs_zero_heap_allocations() {
    // The acceptance-criterion guarantee: with a warm scratch and a graph
    // whose neighbor lists are pre-reserved to the target degrees, a
    // whole wire_stubs call allocates nothing.
    let p = from_empty_problem(400, 3, 0.5, 21);
    let run = |scratch: &mut ConstructScratch, armed: bool| {
        let mut g = Graph::with_nodes(p.target.len());
        g.reserve_neighbors(&p.target);
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        // Summarize the borrowed edge slice in place (the hash allocates
        // nothing) so the armed region contains the matcher alone.
        let mut work = || {
            let (e, s) = wire_stubs(&mut g, &p.target, &p.add, &mut rng, scratch).unwrap();
            (edge_list_hash(e), s)
        };
        if armed {
            count_allocs(work)
        } else {
            (0, work())
        }
    };
    let mut scratch = ConstructScratch::new();
    let (_, cold) = run(&mut scratch, false); // warm-up sizes every buffer
    let (allocs, warm) = run(&mut scratch, true);
    assert_eq!(warm, cold, "scratch reuse changed the output");
    assert_eq!(allocs, 0, "warm stub matching allocated {allocs} times");
}

/// Chained SplitMix64 over the in-order added-edge list: pins the exact
/// draw sequence, not just the resulting multiset.
fn edge_list_hash(edges: &[(NodeId, NodeId)]) -> u64 {
    let mut h = 0x5851_f42d_4c95_7f2du64;
    for &(u, v) in edges {
        h = SplitMix64::new(h ^ (((u as u64) << 32) | v as u64)).next_u64();
    }
    h
}

#[test]
fn fixed_seed_draw_stream_matches_committed_golden() {
    // Committed golden hash of the matcher's output for one fixed
    // problem and seed. If this changes, the RNG stream contract of
    // `sgr_dk::construct` changed — every downstream fixed-seed result
    // (rewiring input order included) changes with it. Regenerate
    // deliberately and document the break in the module's determinism
    // model; see also the end-to-end golden in
    // crates/core/tests/pipeline_golden.rs.
    let p = from_empty_problem(200, 3, 0.5, 42);
    let mut g = Graph::with_nodes(p.target.len());
    let mut rng = Xoshiro256pp::seed_from_u64(4242);
    let mut scratch = ConstructScratch::new();
    let (edges, _) = wire_stubs(&mut g, &p.target, &p.add, &mut rng, &mut scratch).unwrap();
    assert_eq!(
        edge_list_hash(edges),
        0x72b0_77d9_fa45_ea6d,
        "stub-matching draw stream changed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_bitwise_equivalent_on_generated_problems(
        p in arb_problem(),
        seed in 0u64..10_000,
    ) {
        let mut scratch = ConstructScratch::new();
        assert_engines_bitwise_equal(&p, seed, &mut scratch);
    }

    #[test]
    fn degree_sequence_is_exact(p in arb_problem(), seed in 0u64..10_000) {
        let mut g = p.g0.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut scratch = ConstructScratch::new();
        wire_stubs(&mut g, &p.target, &p.add, &mut rng, &mut scratch).unwrap();
        for u in g.nodes() {
            prop_assert_eq!(
                g.degree(u),
                p.target[u as usize] as usize,
                "node {} missed its target degree",
                u
            );
        }
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn edge_multiset_accounting_includes_every_multi_edge_copy(
        p in arb_problem(),
        seed in 0u64..10_000,
    ) {
        // Prior edges + the returned list = the final graph, as edge
        // MULTISETS: every parallel copy the matcher created must appear
        // in the returned list with its multiplicity, and self-loops
        // must reconcile with the reported count.
        let mut g = p.g0.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut scratch = ConstructScratch::new();
        let (edges, stats) =
            wire_stubs(&mut g, &p.target, &p.add, &mut rng, &mut scratch).unwrap();
        prop_assert_eq!(edges.len(), stats.edges);
        let mut expected = sorted_edges(&p.g0);
        expected.extend_from_slice(edges);
        expected.sort_unstable();
        prop_assert_eq!(expected, sorted_edges(&g));
        prop_assert_eq!(
            stats.self_loops,
            g.num_self_loops() - p.g0.num_self_loops(),
            "self-loop accounting off"
        );
    }

    #[test]
    fn single_stub_nodes_never_acquire_self_loops_matching(
        pairs in 1usize..40,
        seed in 0u64..10_000,
    ) {
        // The no-self-loop invariant: a diagonal draw always picks two
        // distinct SLOTS, so a class whose nodes hold one free stub each
        // can never produce a self-loop. Degree-1 stub matching is a
        // perfect matching, always.
        let n = 2 * pairs;
        let mut g = Graph::with_nodes(n);
        let target = vec![1u32; n];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((1, 1), pairs as u64);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut scratch = ConstructScratch::new();
        let (_, stats) =
            wire_stubs(&mut g, &target, &add, &mut rng, &mut scratch).unwrap();
        prop_assert_eq!(g.num_self_loops(), 0);
        prop_assert_eq!(stats.self_loops, 0);
        prop_assert!(g.nodes().all(|u| g.degree(u) == 1));
    }

    #[test]
    fn single_stub_nodes_never_acquire_self_loops_extension(
        half in 2usize..40,
        seed in 0u64..10_000,
    ) {
        // Same invariant on the extension workload: every node of a cycle
        // grows from degree 2 to 3 — one free stub per node, so the
        // (3,3) diagonal class is self-loop-free by construction.
        let n = 2 * half;
        let mut g = sgr_gen::classic::cycle(n);
        let target = vec![3u32; n];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((3, 3), half as u64);
        let before = g.num_edges();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut scratch = ConstructScratch::new();
        let (edges, stats) =
            wire_stubs(&mut g, &target, &add, &mut rng, &mut scratch).unwrap();
        prop_assert_eq!(edges.len(), half);
        prop_assert_eq!(g.num_edges(), before + half);
        prop_assert_eq!(g.num_self_loops(), 0);
        prop_assert_eq!(stats.self_loops, 0);
        prop_assert!(g.nodes().all(|u| g.degree(u) == 3));
    }
}
