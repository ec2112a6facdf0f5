//! The traversal-engine contract: the direction-optimizing multi-source
//! engine (`sgr_props::bfs`) must produce **bitwise** identical results
//! to the level-synchronous reference kernel (`sgr_props::bfs::reference`)
//! for every property built on it, at every thread count and batch
//! composition. This holds because every output is a function of the BFS
//! *level sets* alone — per-level counts, eccentricities, and the
//! lowest-id-in-deepest-level far node — and level sets are invariant
//! under traversal order, direction switching, and batching. The merge
//! across source chunks is performed in chunk order, so thread count
//! only changes who computes each chunk, never the reduction order.
//!
//! Two layers of evidence:
//! * proptest over random multigraphs (parallel edges, self-loops,
//!   disconnected pieces) comparing the raw batch and single-source
//!   kernels against the reference;
//! * end-to-end runs comparing `shortest_path_properties` and
//!   `distance_profile` at threads 1 and 4 against the oracle's
//!   `bfs::reference::shortest_path_properties` / `distance_profile`, on
//!   messy multigraphs and on a fixed-seed clustered heavy-tailed graph.

use proptest::prelude::*;
use sgr_graph::{CsrGraph, Graph, NodeId};
use sgr_props::bfs::{self, BfsScratch, BATCH_WIDTH};
use sgr_props::{dissimilarity, paths, PropsConfig};
use sgr_util::Xoshiro256pp;

fn arb_multigraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..48).prop_flat_map(|n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

/// Reference per-source histogram and far node.
fn reference_run(g: &CsrGraph, source: NodeId) -> (Vec<u64>, NodeId) {
    let n = g.num_nodes();
    let mut visited = vec![0u64; n.div_ceil(64)];
    let mut queue = Vec::new();
    bfs::reference::bfs_histogram(g, source, &mut visited, &mut queue)
}

proptest! {
    /// The batched kernel agrees with the reference for every slot of
    /// every batch composition, including repeated sources in one batch.
    #[test]
    fn batch_kernel_matches_reference(
        (n, edges) in arb_multigraph(),
        width in 1usize..=BATCH_WIDTH,
        seed in 0u64..1000,
    ) {
        let g = Graph::from_edges(n, &edges);
        let csr = CsrGraph::freeze_sorted(&g);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let sources: Vec<NodeId> =
            (0..width).map(|_| (rng.next_u64() % n as u64) as NodeId).collect();
        let mut scratch = BfsScratch::new();
        let levels = scratch.batch(&csr, &sources);
        for (i, &s) in sources.iter().enumerate() {
            let (hist, far) = reference_run(&csr, s);
            prop_assert_eq!(
                scratch.batch_depth(i), hist.len() - 1,
                "slot {} depth mismatch for source {}", i, s
            );
            prop_assert_eq!(scratch.batch_far(i), far);
            for (l, &c) in hist.iter().enumerate() {
                prop_assert!(l < levels);
                prop_assert_eq!(
                    scratch.batch_count(l, i), c,
                    "slot {} level {} count mismatch", i, l
                );
            }
            for l in hist.len()..levels {
                prop_assert_eq!(scratch.batch_count(l, i), 0);
            }
        }
    }

    /// The single-source direction-optimizing kernel agrees with the
    /// reference from every start node.
    #[test]
    fn single_source_matches_reference((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let csr = CsrGraph::freeze_sorted(&g);
        let mut scratch = BfsScratch::new();
        for s in 0..n as NodeId {
            let run = scratch.single_source(&csr, s);
            let (hist, far) = reference_run(&csr, s);
            prop_assert_eq!(run.depth, hist.len() - 1);
            prop_assert_eq!(run.far, far);
            prop_assert_eq!(scratch.levels(), &hist[..]);
            let reached: u64 = 1 + hist.iter().sum::<u64>();
            prop_assert_eq!(run.reached as u64, reached);
        }
    }

    /// End-to-end path properties: the engine at threads 1 and 4 vs the
    /// reference, bitwise, on arbitrary messy graphs in sampled mode.
    #[test]
    fn path_properties_bitwise_across_engines((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let base = PropsConfig {
            exact_threshold: 0,
            num_pivots: 12,
            threads: 1,
            seed: 0xfeed,
        };
        let oracle = bfs::reference::shortest_path_properties(&g, &base);
        for threads in [1, 4] {
            let p = paths::shortest_path_properties(&g, &PropsConfig { threads, ..base });
            prop_assert_eq!(p.diameter, oracle.diameter);
            prop_assert_eq!(
                p.average_length.to_bits(),
                oracle.average_length.to_bits()
            );
            prop_assert_eq!(p.length_dist.len(), oracle.length_dist.len());
            for (a, b) in p.length_dist.iter().zip(&oracle.length_dist) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Fixed-seed end-to-end agreement on a clustered heavy-tailed graph
/// large enough to trigger real bottom-up switching and multi-batch
/// chunking, engine at thread counts 1 and 4 against the oracle.
#[test]
fn fixed_seed_properties_bitwise_across_engines_and_threads() {
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let g = sgr_gen::holme_kim(2500, 3, 0.5, &mut rng).unwrap();
    let base = PropsConfig {
        exact_threshold: 0,
        num_pivots: 160,
        threads: 1,
        seed: 0x5eed,
    };

    let sp0 = bfs::reference::shortest_path_properties(&g, &base);
    let dp0 = bfs::reference::distance_profile(&g, &base);

    for threads in [1, 4] {
        let cfg = PropsConfig { threads, ..base };

        let sp = paths::shortest_path_properties(&g, &cfg);
        assert_eq!(sp.diameter, sp0.diameter, "t={threads}");
        assert_eq!(
            sp.average_length.to_bits(),
            sp0.average_length.to_bits(),
            "t={threads}"
        );
        assert_eq!(bits(&sp.length_dist), bits(&sp0.length_dist), "t={threads}");

        let dp = dissimilarity::distance_profile(&g, &cfg);
        assert_eq!(dp.nnd.to_bits(), dp0.nnd.to_bits(), "t={threads}");
        assert_eq!(bits(&dp.mu), bits(&dp0.mu), "t={threads}");
    }
}

/// Exact mode (every node a source) exercises full-width batch tiling:
/// n = 130 gives two full 64-wide batches plus a ragged tail of 2.
#[test]
fn exact_mode_ragged_batches_bitwise() {
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let g = sgr_gen::erdos_renyi_gnm(130, 220, &mut rng).unwrap();
    let cfg = PropsConfig {
        threads: 3,
        ..PropsConfig::default()
    };
    let a = bfs::reference::shortest_path_properties(&g, &cfg);
    let b = paths::shortest_path_properties(&g, &cfg);
    assert_eq!(a.diameter, b.diameter);
    assert_eq!(a.average_length.to_bits(), b.average_length.to_bits());
    assert_eq!(bits(&a.length_dist), bits(&b.length_dist));
    let da = bfs::reference::distance_profile(&g, &cfg);
    let db = dissimilarity::distance_profile(&g, &cfg);
    assert_eq!(da.nnd.to_bits(), db.nnd.to_bits());
    assert_eq!(bits(&da.mu), bits(&db.mu));
}
