//! # sgr-util
//!
//! Utility substrate shared by every crate in the social-graph-restoration
//! workspace:
//!
//! * [`rng`] — a small, fast, fully deterministic pseudo-random number
//!   generator (SplitMix64 seeding a Xoshiro256++ core). The experiments in
//!   the paper are Monte-Carlo experiments; implementing the PRNG ourselves
//!   makes every table and figure bit-reproducible across platforms and
//!   toolchain versions.
//! * [`hash`] — an FxHash-style hasher plus [`hash::FxHashMap`] /
//!   [`hash::FxHashSet`] aliases. Graph workloads hash small integer keys in
//!   hot loops; `std`'s SipHash is needlessly slow there (see the Rust
//!   Performance Book's Hashing chapter).
//! * [`stats`] — slice means and standard deviations used by the
//!   experiment harness (the paper reports avg ± SD over runs).
//! * [`sampling`] — reservoir sampling and shuffles used by the crawlers.
//! * [`scratch`] — epoch-stamped dense scratch arenas that let hot loops
//!   (notably the rewiring engine's swap evaluation) accumulate per-key
//!   deltas with zero steady-state heap allocations and O(1) clears.
//! * [`bucket`] — bucketed min-cost selection: a Fenwick tree for
//!   logarithmic weighted draws and a batched minimum-cost allocator,
//!   the primitives the sparse incremental targeting engine
//!   (`sgr_core::target_dv` / `target_jdm`) is built from.
//! * [`arena`] — flat multi-pool arenas: many draw-by-index pools packed
//!   into one backing vector with per-class offset ranges, the layout the
//!   stub-matching engine (`sgr_dk::construct`) keeps its free half-edge
//!   pools in.
//! * [`alloc`] — a tracking global allocator (armed per-thread allocation
//!   counting + process-wide modeled live/peak heap bytes) behind the
//!   zero-allocation warm-path suites and `bench_construct`'s measured
//!   memory-footprint fields.
//! * [`prefetch`] — a result-neutral software prefetch hint, the one
//!   `unsafe` block outside the allocator.

pub mod alloc;
pub mod arena;
pub mod bucket;
pub mod hash;
pub mod prefetch;
pub mod rng;
pub mod sampling;
pub mod scratch;
pub mod stats;

pub use hash::{FxHashMap, FxHashSet};
pub use rng::Xoshiro256pp;
