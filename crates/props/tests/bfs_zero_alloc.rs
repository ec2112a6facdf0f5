//! The warm-path allocation contract of [`sgr_props::bfs::BfsScratch`]:
//! after one cold traversal over a source set, repeating the same
//! traversals performs **zero** heap allocations. This is what makes the
//! scratch safe to hold per worker thread in the interactive serving
//! path — steady-state property queries never touch the allocator.
//!
//! Reuses the counting global allocator from the dk crash-safety suites
//! (`crates/dk/tests/common`), the same instrument that pins down the
//! rewiring engine's swap loop and warm stub matching.

#[path = "../../dk/tests/common/mod.rs"]
mod common;

use sgr_graph::{CsrGraph, NodeId};
use sgr_props::bfs::{BfsScratch, BATCH_WIDTH};
use sgr_util::Xoshiro256pp;

/// A clustered graph big enough for multi-word bitsets, real bottom-up
/// switching, and multi-level frontiers.
fn test_graph() -> CsrGraph {
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let g = sgr_gen::holme_kim(4000, 3, 0.5, &mut rng).unwrap();
    CsrGraph::freeze_sorted(&g)
}

#[test]
fn warm_single_source_is_allocation_free() {
    let g = test_graph();
    let sources: Vec<NodeId> = (0..50)
        .map(|i| (i * 79) % g.num_nodes() as NodeId)
        .collect();
    let mut scratch = BfsScratch::new();
    // Cold pass: grows every buffer to this graph's high-water mark
    // (bitsets, queue, level histogram).
    let cold: Vec<_> = sources
        .iter()
        .map(|&s| scratch.single_source(&g, s))
        .collect();
    let (allocs, warm) = common::count_allocs(|| {
        sources
            .iter()
            .map(|&s| scratch.single_source(&g, s))
            .collect::<Vec<_>>()
    });
    // The only allocation permitted is the result Vec the closure itself
    // builds (one reserve per doubling); the traversals must contribute
    // nothing. Bound it by the collect's own growth.
    assert!(
        allocs <= 8,
        "warm single-source BFS allocated {allocs} times (expected only the result Vec)"
    );
    assert_eq!(cold, warm, "warm results diverged from cold results");
}

#[test]
fn warm_single_source_alone_is_strictly_zero_alloc() {
    let g = test_graph();
    let mut scratch = BfsScratch::new();
    let cold = scratch.single_source(&g, 17);
    let (allocs, warm) = common::count_allocs(|| scratch.single_source(&g, 17));
    assert_eq!(allocs, 0, "warm single-source traversal allocated");
    assert_eq!(cold, warm);
}

#[test]
fn warm_batch_is_strictly_zero_alloc() {
    let g = test_graph();
    let n = g.num_nodes() as NodeId;
    let sources: Vec<NodeId> = (0..BATCH_WIDTH as NodeId).map(|i| (i * 61) % n).collect();
    let ragged: Vec<NodeId> = sources[..7].to_vec();
    let mut scratch = BfsScratch::new();
    // Cold pass over both batch shapes (full-width and ragged tail).
    let cold_levels = scratch.batch(&g, &sources);
    scratch.batch(&g, &ragged);
    let (allocs, warm_levels) = common::count_allocs(|| {
        let full = scratch.batch(&g, &sources);
        let tail = scratch.batch(&g, &ragged);
        (full, tail)
    });
    assert_eq!(allocs, 0, "warm batched BFS allocated");
    assert_eq!(warm_levels.0, cold_levels);
}
