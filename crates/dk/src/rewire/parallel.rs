//! Sharded parallel rewiring: a persistent worker pool, ownership
//! partitioning of the evaluation space, draw-order commit with conflict
//! replay, and adaptive speculation blocks.
//!
//! `BENCH_rewire.json` shows the production regime of §IV-E rewiring:
//! fewer than 1% of swap attempts are accepted, and PR 1 made every
//! rejected attempt a pure **read-only** evaluation. Read-only work
//! scales across threads; the rare accepts are what must stay sequential
//! to preserve the engine contract. [`ParallelRewireEngine`] exploits
//! exactly that split while remaining **bitwise-identical** to the
//! sequential [`RewireEngine`](crate::rewire::RewireEngine) — same final
//! graph, same accepted count, same distance trajectory — for the same
//! seed at every thread count.
//!
//! # Persistent worker pool
//!
//! Workers are spawned **once per [`run_attempts`] call** inside a single
//! `std::thread::scope` that wraps the whole block loop; its predecessor
//! spawned and joined a fresh scope per 1024-pick block, and those
//! per-block spawn/join costs were what kept parallel throughput *below*
//! sequential. Each worker sits in a blocking `recv` on its own mpsc job
//! channel; the coordinator feeds one `Job` per worker per block and
//! collects one `Ack` per worker on a shared completion channel. Job
//! and ack carry the worker's result buffers and scratch arena by move,
//! so per-block coordination is two channel messages per worker and no
//! other allocation or synchronization.
//!
//! The shared engine state (`EngineState`: the core, the speculative
//! picks, and the shard map) is handed to workers as a raw pointer
//! (`StatePtr`). Safety rests on strict temporal alternation, enforced
//! by the channel protocol: a worker dereferences the pointer (shared,
//! read-only) only between receiving a job and sending its ack, and the
//! coordinator dereferences it (mutably, for draws and commits) only
//! while every worker is blocked between ack and next job. The mpsc
//! send/recv pairs provide the happens-before edges, and inside the
//! scope the coordinator reaches the shared state *only* through the
//! same pointer, so no reference ever aliases a concurrent access.
//!
//! A single-worker engine (`threads <= 1`) skips the pool *and* the
//! speculation machinery entirely and steps sequentially on the calling
//! thread: with no evaluation to overlap, per-pick RNG checkpoints and
//! post-commit tail replay would be pure overhead, so `threads = 1`
//! matches the sequential engine's cost as well as its results.
//!
//! # Ownership sharding
//!
//! Every pick is owned by exactly one worker, decided by the degree
//! class of its first endpoint through the engine's
//! [`ShardPartitioner`]: workers scan the whole block but evaluate only
//! their owned picks, writing into disjoint entries of their own result
//! buffers. Routing is a pure function of the pick and a class → shard
//! map frozen at construction (bucket lengths are invariant under
//! commits, so the map's weights stay exact), which gives the commit
//! scan a trivial lookup for where a pick's speculative result lives —
//! and keeps workers from ever contending on a result slot.
//!
//! # Block pipeline
//!
//! Each block of `b` attempts runs three phases:
//!
//! 1. **Speculative draw (coordinator).** `b` candidate picks are drawn
//!    from the *sequential* RNG stream against the current committed
//!    state, saving a pre-draw RNG checkpoint per pick.
//! 2. **Evaluation (workers).** Each worker runs the engines' shared
//!    read-only `evaluate_swap` over its owned picks against the
//!    block-start snapshot, accumulating triangle deltas in its own
//!    epoch-stamped [`ScratchAccum`] arena and leaving the node-sorted
//!    `(node, Δt)` list in its per-pick result buffer. Workers never
//!    touch shared state, and steady-state evaluation performs no heap
//!    allocation.
//! 3. **Commit scan (coordinator).** Picks are decided **in draw order**
//!    through the same `EngineCore::fold_decide` float fold the
//!    sequential engine uses, and accepted swaps are committed
//!    immediately.
//!
//! # Conflict replay
//!
//! A commit invalidates two kinds of speculation behind it:
//!
//! * **The RNG tail.** `pick_swap`'s draw *count* and bucket bounds
//!   depend on slot contents (bucket lengths are invariant — commits
//!   swap entries between buckets in place — but an affected slot can
//!   change which bucket the third draw reads). After the first in-block
//!   commit the coordinator therefore re-draws every subsequent pick
//!   from its checkpoint (`replay`), which by construction consumes the
//!   exact draws the sequential engine would; the block ends with the
//!   caller's RNG in the sequential stream position.
//! * **Evaluations near the swap.** A committed swap changes adjacency
//!   only among its four endpoints, and an evaluation reads only the
//!   adjacency rows of *its* four endpoints. Commits mark their
//!   endpoints in a stamped dirty-node set ([`DirtyStampSet`]); a
//!   speculative result is reused iff the replayed pick is identical to
//!   the speculative one **and** none of its endpoints is dirty.
//!   Otherwise the coordinator discards it and re-evaluates inline
//!   against the current state.
//!
//! # Adaptive blocks
//!
//! Accepts are rare overall but front-loaded: the first stretch of a run
//! commits often (forcing serial replay of evaluated tails), the long
//! tail almost never. Block size is therefore adapted between blocks —
//! commit-free blocks double it (up to a cap) so the reject-heavy tail
//! amortizes coordination over thousands of picks, while accept-heavy
//! blocks halve it so replay stays cheap. Results are **identical at
//! every block size** (the equivalence tests pin sizes from 1 to 4096),
//! so the adaptation affects wall time only — mid-rewire checkpoints
//! need not record it, and [`with_block_size`] still pins a fixed size
//! for tests and benchmarks.
//!
//! Together with the module-level determinism model (integer Δt, one
//! float fold on one thread, one RNG stream) this yields a simple
//! induction: before every attempt `i`, the (RNG state, engine state)
//! pair equals the sequential engine's, and speculative shortcuts are
//! taken only when provably equal to re-execution.
//!
//! [`run_attempts`]: ParallelRewireEngine::run_attempts
//! [`with_block_size`]: ParallelRewireEngine::with_block_size

use super::shard::ShardPartitioner;
use super::{apply_structural, evaluate_swap, EngineCore, RewireStats, SwapPick};
use sgr_graph::{Graph, NodeId};
use sgr_util::scratch::{DirtyStampSet, ScratchAccum};
use sgr_util::Xoshiro256pp;
use std::sync::mpsc::{Receiver, Sender};

/// Smallest adaptive block: accept-heavy phases shrink to this.
pub const ADAPTIVE_MIN_BLOCK: usize = 64;

/// Starting adaptive block size.
pub const ADAPTIVE_START_BLOCK: usize = 256;

/// Largest adaptive block: commit-free stretches grow to this, which is
/// also the allocated per-block capacity of an adaptive engine.
pub const ADAPTIVE_MAX_BLOCK: usize = 8192;

/// Initial per-pick result-buffer capacity; buffers grow amortized on
/// the rare evaluation that touches more nodes.
const RESULT_CAP: usize = 64;

/// Everything the evaluation workers read: the committed engine core,
/// the current block's speculative picks, and the ownership map. Shared
/// with workers through [`StatePtr`] under the temporal-alternation
/// protocol described in the module docs.
struct EngineState {
    core: EngineCore,
    /// Speculative picks of the current block, in draw order.
    picks: Vec<Option<SwapPick>>,
    /// Degree-class → worker ownership map, frozen at construction.
    shard: ShardPartitioner,
}

/// Coordinator-only working state, disjoint from [`EngineState`] so the
/// commit scan can hold `&mut` to both halves at once.
struct CoordState {
    /// RNG state snapshot taken immediately before each pick's draws.
    rng_before: Vec<Xoshiro256pp>,
    /// Coordinator-side arena for inline re-evaluations after conflicts.
    repair_t: ScratchAccum<i64>,
    repair_pairs: Vec<(NodeId, i64)>,
    /// Per-degree predicted sums for the shared decision fold.
    scratch_s: ScratchAccum<f64>,
    /// Endpoints of swaps committed in the current block.
    dirty: DirtyStampSet,
}

/// One worker's owned buffers: its triangle-delta arena and its per-pick
/// result slots. Travels worker ⇄ coordinator by move inside [`Job`] /
/// [`Ack`] messages, so no shared mutable access is ever needed for
/// results.
#[derive(Default)]
struct WorkerBuf {
    /// Node-sorted `(node, Δt)` evaluation result per owned pick.
    results: Vec<Vec<(NodeId, i64)>>,
    arena: ScratchAccum<i64>,
}

/// "Evaluate your owned picks among the first `b`."
struct Job {
    b: usize,
    buf: WorkerBuf,
}

/// "Done; here are worker `w`'s buffers back."
struct Ack {
    w: usize,
    buf: WorkerBuf,
}

/// Raw pointer to the shared [`EngineState`], copied into every worker.
///
/// Sendable because the channel protocol serializes all access (see the
/// module docs): workers dereference it shared-only between job receipt
/// and ack, the coordinator dereferences it mutably only while all
/// workers are idle, and mpsc send/recv provide the happens-before
/// ordering between those windows.
#[derive(Clone, Copy)]
struct StatePtr(*mut EngineState);

// SAFETY: see StatePtr's docs — access is serialized by the job/ack
// channel protocol, and the pointee outlives the thread scope because it
// lives in the engine while `run_attempts` (which owns the scope) holds
// `&mut self`.
unsafe impl Send for StatePtr {}

/// The sharded parallel rewiring engine; see the module docs.
///
/// Drop-in equivalent of [`RewireEngine`](crate::rewire::RewireEngine):
/// same constructor shape plus a thread count, bitwise-identical
/// results.
pub struct ParallelRewireEngine {
    st: EngineState,
    coord: CoordState,
    /// One buffer set per worker, held here between runs and lent to the
    /// workers by move while a block is in flight.
    bufs: Vec<WorkerBuf>,
    threads: usize,
    /// Allocated per-block capacity; the live block size never exceeds it.
    cap: usize,
    /// Current block size (picks drawn per round).
    block: usize,
    /// Whether the block size adapts to the observed accept rate.
    adaptive: bool,
}

impl ParallelRewireEngine {
    /// Creates an engine over `graph` with rewirable edge multiset
    /// `candidates` and target clustering `target_c`, evaluating with
    /// `threads` workers (`0` = all available cores).
    ///
    /// Argument semantics match
    /// [`RewireEngine::new`](crate::rewire::RewireEngine::new).
    pub fn new(
        graph: Graph,
        candidates: Vec<(NodeId, NodeId)>,
        target_c: &[f64],
        threads: usize,
    ) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let core = EngineCore::new(graph, candidates, target_c);
        // Pick probability of degree class k is proportional to bucket
        // k's length, which commits never change — the weights are exact
        // for the whole run.
        let weights: Vec<u64> = core.buckets.iter().map(|b| b.len() as u64).collect();
        let shard = ShardPartitioner::new(&weights, threads);
        let n = core.graph.num_nodes();
        let degrees = core.s.len();
        let touched = core.max_touched();
        let mut engine = Self {
            st: EngineState {
                core,
                picks: Vec::new(),
                shard,
            },
            coord: CoordState {
                rng_before: Vec::new(),
                repair_t: ScratchAccum::with_keys(n),
                repair_pairs: Vec::with_capacity(touched),
                scratch_s: ScratchAccum::with_keys(degrees),
                dirty: DirtyStampSet::with_keys(n),
            },
            bufs: (0..threads)
                .map(|_| WorkerBuf {
                    results: Vec::new(),
                    arena: ScratchAccum::with_keys(n),
                })
                .collect(),
            threads,
            cap: 0,
            block: 0,
            adaptive: true,
        };
        engine.set_capacity(ADAPTIVE_MAX_BLOCK);
        engine.block = ADAPTIVE_START_BLOCK;
        engine
    }

    /// Pins a fixed speculation block size (picks drawn per round),
    /// disabling the adaptive sizing; builder form. Exposed for tests
    /// (tiny blocks force the replay machinery) and benchmarks (a fixed
    /// size keeps runs comparable); results are identical at any value
    /// ≥ 1 — and identical to the adaptive default. A single-worker
    /// engine steps sequentially and never consults the block size.
    pub fn with_block_size(mut self, block: usize) -> Self {
        let block = block.max(1);
        self.adaptive = false;
        self.set_capacity(block);
        self.block = block;
        self
    }

    /// (Re)allocates the per-block buffers to hold `cap` picks.
    fn set_capacity(&mut self, cap: usize) {
        let cap = cap.max(1);
        self.cap = cap;
        self.st.picks.resize(cap, None);
        self.coord
            .rng_before
            .resize(cap, Xoshiro256pp::seed_from_u64(0));
        for buf in &mut self.bufs {
            buf.results
                .resize_with(cap, || Vec::with_capacity(RESULT_CAP));
        }
    }

    /// Worker-thread count in use.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Current speculation block size: the pinned size after
    /// [`with_block_size`](Self::with_block_size), otherwise the
    /// adaptive size as of the last block.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// The degree-class ownership map routing evaluations to workers.
    pub fn shard_partitioner(&self) -> &ShardPartitioner {
        &self.st.shard
    }

    /// Current normalized distance `D`.
    pub fn distance(&self) -> f64 {
        self.st.core.distance()
    }

    /// Number of rewirable edge slots `|Ẽ_rew|`.
    pub fn num_candidates(&self) -> usize {
        self.st.core.slots.len()
    }

    /// Current `c̄(k)` of the evolving graph.
    pub fn current_clustering(&self) -> Vec<f64> {
        self.st.core.current_clustering()
    }

    /// Runs `R = ceil(rc · |Ẽ_rew|)` attempts (§IV-E).
    pub fn run(&mut self, rc: f64, rng: &mut Xoshiro256pp) -> RewireStats {
        let attempts = (rc * self.st.core.slots.len() as f64).ceil() as u64;
        self.run_attempts(attempts, rng)
    }

    /// Runs exactly `attempts` swap attempts: in speculation blocks
    /// across the worker pool, or — with a single worker — by plain
    /// sequential stepping (same results, none of the overhead).
    pub fn run_attempts(&mut self, attempts: u64, rng: &mut Xoshiro256pp) -> RewireStats {
        let mut stats = RewireStats {
            attempts,
            initial_distance: self.distance(),
            ..Default::default()
        };
        if self.st.core.slots.len() < 2 {
            stats.skipped = attempts;
            stats.final_distance = self.distance();
            return stats;
        }
        if self.threads <= 1 {
            self.run_attempts_inline(attempts, rng, &mut stats);
        } else {
            self.run_attempts_pooled(attempts, rng, &mut stats);
        }
        stats.final_distance = self.distance();
        stats
    }

    /// Single-worker path: plain sequential stepping on the coordinator
    /// thread — draw, evaluate, decide, one attempt at a time. With one
    /// worker there is no evaluation to overlap, so the speculation
    /// machinery (per-pick RNG checkpoints, result buffers, tail replay
    /// after each commit) would be pure overhead; this loop is the very
    /// sequential execution the block pipeline's induction is anchored
    /// to, so it is bitwise-identical by construction and `threads = 1`
    /// costs the sequential engine plus only the dispatch. It runs the
    /// same `evaluate_swap` kernel the scoped workers run, into the
    /// coordinator's reused repair buffers, which is what lets the
    /// counting-allocator tests observe the evaluation path
    /// thread-locally.
    fn run_attempts_inline(
        &mut self,
        attempts: u64,
        rng: &mut Xoshiro256pp,
        stats: &mut RewireStats,
    ) {
        let Self { st, coord, .. } = self;
        let core = &mut st.core;
        for _ in 0..attempts {
            let Some(p) = core.pick_swap(rng) else {
                stats.skipped += 1;
                continue;
            };
            evaluate_swap(core, &p, &mut coord.repair_t, &mut coord.repair_pairs);
            let new_raw = core.fold_decide(&coord.repair_pairs, &mut coord.scratch_s);
            if new_raw < core.dist_raw {
                core.commit_decision(&coord.repair_pairs, &coord.scratch_s, new_raw);
                apply_structural(core, p.vi, p.vj, -1);
                apply_structural(core, p.vi2, p.vj2, -1);
                apply_structural(core, p.vi, p.vj2, 1);
                apply_structural(core, p.vi2, p.vj, 1);
                core.commit_slot_swap(&p);
                stats.accepted += 1;
            } else {
                stats.skipped += 1;
            }
        }
    }

    /// Multi-worker path: one `std::thread::scope` wraps the whole block
    /// loop, so workers persist across blocks and per-block coordination
    /// is one job and one ack message per worker.
    fn run_attempts_pooled(
        &mut self,
        attempts: u64,
        rng: &mut Xoshiro256pp,
        stats: &mut RewireStats,
    ) {
        let Self {
            st,
            coord,
            bufs,
            block,
            adaptive,
            cap,
            threads,
            ..
        } = self;
        let threads = *threads;
        let ptr = StatePtr(std::ptr::from_mut::<EngineState>(st));
        std::thread::scope(|scope| {
            let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Ack>();
            let mut job_txs = Vec::with_capacity(threads);
            for w in 0..threads {
                let (tx, rx) = std::sync::mpsc::channel::<Job>();
                job_txs.push(tx);
                let ack = ack_tx.clone();
                scope.spawn(move || worker_loop(ptr, w, rx, ack));
            }
            drop(ack_tx);
            // NOTE: from here to the end of the scope, the shared state
            // is reached only through `ptr` — never through `st` — so the
            // workers' pointer copies stay valid.
            let mut done = 0u64;
            while done < attempts {
                let b = (attempts - done).min(*block as u64) as usize;
                {
                    // SAFETY: every worker is idle (blocked in `recv`
                    // with no job in flight), so this is the only live
                    // access to the engine state.
                    let st = unsafe { &mut *ptr.0 };
                    draw_block(st, coord, b, rng);
                }
                for (w, tx) in job_txs.iter().enumerate() {
                    let buf = std::mem::take(&mut bufs[w]);
                    tx.send(Job { b, buf }).expect("rewire worker hung up");
                }
                for _ in 0..threads {
                    let Ack { w, buf } = ack_rx.recv().expect("rewire worker died");
                    bufs[w] = buf;
                }
                let accepted = {
                    // SAFETY: all acks are in — every worker is idle
                    // again, so the coordinator holds the only access.
                    let st = unsafe { &mut *ptr.0 };
                    commit_scan(st, coord, bufs, b, rng, stats)
                };
                done += b as u64;
                if *adaptive {
                    *block = next_block_size(*block, accepted, b, *cap);
                }
            }
            drop(job_txs); // workers' `recv` errors out; the scope joins them
        });
    }

    /// Releases the rewired graph.
    pub fn into_graph(self) -> Graph {
        self.st.core.graph
    }

    /// The evolving graph (checkpoint serialization reads the adjacency
    /// lists in place).
    pub fn graph(&self) -> &Graph {
        &self.st.core.graph
    }

    /// The candidate slots `Ẽ_rew` in their current (mutated-by-swaps)
    /// state.
    pub fn slots(&self) -> &[(NodeId, NodeId)] {
        &self.st.core.slots
    }

    /// The incrementally-maintained per-degree clustering sums `S(k)`.
    pub fn clustering_sums(&self) -> &[f64] {
        &self.st.core.s
    }

    /// The incrementally-maintained unnormalized distance.
    pub fn dist_raw(&self) -> f64 {
        self.st.core.dist_raw
    }

    /// Injects checkpointed float state into a freshly reconstructed
    /// engine (see
    /// [`RewireEngine::restore_float_state`](crate::rewire::RewireEngine::restore_float_state)).
    pub fn restore_float_state(&mut self, s: &[f64], dist_raw: f64) -> Result<(), String> {
        self.st.core.restore_float_state(s, dist_raw)
    }

    /// The degree-bucket arrays (see
    /// [`RewireEngine::bucket_state`](crate::rewire::RewireEngine::bucket_state)).
    pub fn bucket_state(&self) -> Vec<Vec<(u32, u8)>> {
        self.st.core.bucket_state()
    }

    /// Injects a checkpointed bucket ordering into a freshly
    /// reconstructed engine.
    pub fn restore_bucket_state(&mut self, buckets: Vec<Vec<(u32, u8)>>) -> Result<(), String> {
        self.st.core.restore_bucket_state(buckets)
    }

    /// Consistency check used by tests: recomputes every maintained
    /// quantity from scratch and compares.
    pub fn validate(&self) -> Result<(), String> {
        self.st.core.validate()
    }
}

/// One worker's life: evaluate owned picks per job, ack, repeat until
/// the coordinator drops the job channel.
fn worker_loop(ptr: StatePtr, w: usize, rx: Receiver<Job>, ack: Sender<Ack>) {
    while let Ok(Job { b, mut buf }) = rx.recv() {
        {
            // SAFETY: the coordinator never touches the engine state
            // while a job is unacked, and never sends a job while it
            // holds a reference — see StatePtr. This shared borrow ends
            // before the ack below hands control back.
            let st = unsafe { &*ptr.0 };
            evaluate_owned(st, &mut buf, b, w as u32);
        }
        if ack.send(Ack { w, buf }).is_err() {
            return;
        }
    }
}

/// Phase 1: draws `b` speculative picks from the sequential RNG stream,
/// checkpointing the RNG before each pick for conflict replay.
fn draw_block(st: &mut EngineState, coord: &mut CoordState, b: usize, rng: &mut Xoshiro256pp) {
    let EngineState { core, picks, .. } = st;
    for (pick, ckpt) in picks[..b].iter_mut().zip(coord.rng_before[..b].iter_mut()) {
        *ckpt = rng.clone();
        *pick = core.pick_swap(rng);
    }
}

/// Phase 2 (per worker): evaluates the block's picks owned by `worker`
/// read-only into its result slots. Unowned slots keep stale data, which
/// the commit scan never reads: ownership is a pure function of the
/// pick, so the result it fetches was always written this block.
fn evaluate_owned(st: &EngineState, buf: &mut WorkerBuf, b: usize, worker: u32) {
    let WorkerBuf { results, arena } = buf;
    for (pick, out) in st.picks[..b].iter().zip(results[..b].iter_mut()) {
        if let Some(p) = pick {
            if st.shard.shard_of(st.core.deg[p.vi as usize] as usize) == worker {
                evaluate_swap(&st.core, p, arena, out);
            }
        }
    }
}

/// Phase 3: decides the block's picks strictly in draw order, committing
/// accepted swaps and replaying the speculative tail after the first
/// commit (see the module docs). Returns the number of accepts in this
/// block (the adaptive-sizing signal). `cursor` is `None` while the
/// block is commit-free (speculation exact); after the first commit it
/// carries the authoritative sequential RNG stream.
fn commit_scan(
    st: &mut EngineState,
    coord: &mut CoordState,
    bufs: &[WorkerBuf],
    b: usize,
    rng: &mut Xoshiro256pp,
    stats: &mut RewireStats,
) -> u64 {
    let EngineState { core, picks, shard } = st;
    coord.dirty.clear();
    let mut accepted = 0u64;
    let mut cursor: Option<Xoshiro256pp> = None;
    for (i, &spec_pick) in picks[..b].iter().enumerate() {
        let (pick, spec_ok) = match cursor.as_mut() {
            None => (spec_pick, true),
            Some(cur) => {
                let p = core.pick_swap(cur);
                (p, p == spec_pick)
            }
        };
        let Some(p) = pick else {
            stats.skipped += 1;
            continue;
        };
        let endpoints = [p.vi, p.vj, p.vi2, p.vj2];
        let clean = !coord.dirty.contains_any(&endpoints);
        let pairs: &[(NodeId, i64)] = if spec_ok && clean {
            let owner = shard.shard_of(core.deg[p.vi as usize] as usize) as usize;
            &bufs[owner].results[i]
        } else {
            // Conflict (or replayed pick diverged): discard the
            // speculative result and re-evaluate inline against the
            // current committed state.
            evaluate_swap(core, &p, &mut coord.repair_t, &mut coord.repair_pairs);
            &coord.repair_pairs
        };
        let new_raw = core.fold_decide(pairs, &mut coord.scratch_s);
        if new_raw < core.dist_raw {
            core.commit_decision(pairs, &coord.scratch_s, new_raw);
            apply_structural(core, p.vi, p.vj, -1);
            apply_structural(core, p.vi2, p.vj2, -1);
            apply_structural(core, p.vi, p.vj2, 1);
            apply_structural(core, p.vi2, p.vj, 1);
            core.commit_slot_swap(&p);
            for &x in &endpoints {
                coord.dirty.mark(x);
            }
            if cursor.is_none() {
                // The sequential stream position after this pick's
                // draws: the next pick's checkpoint, or — for the
                // block's last pick — the phase-1 end state.
                cursor = Some(if i + 1 < b {
                    coord.rng_before[i + 1].clone()
                } else {
                    rng.clone()
                });
            }
            accepted += 1;
            stats.accepted += 1;
        } else {
            stats.skipped += 1;
        }
    }
    if let Some(cur) = cursor {
        *rng = cur;
    }
    accepted
}

/// Adaptive block-size policy: double after a commit-free block (cheap
/// coordination for the reject-heavy tail), halve when accepts exceeded
/// ~3% of the block (cheap replay for the accept-heavy front), clamped
/// to `[ADAPTIVE_MIN_BLOCK, cap]`. Block size never changes results —
/// only how much speculation a commit invalidates.
fn next_block_size(block: usize, accepted: u64, b: usize, cap: usize) -> usize {
    if accepted == 0 {
        (block * 2).min(cap)
    } else if accepted as usize * 32 >= b {
        (block / 2).max(ADAPTIVE_MIN_BLOCK).min(cap)
    } else {
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewire::RewireEngine;
    use sgr_props::local::LocalProperties;

    fn social(seed: u64) -> Graph {
        sgr_gen::holme_kim(250, 3, 0.6, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    }

    fn sorted_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        e
    }

    /// Sequential and parallel engines, same seed: distances compared
    /// bitwise after every chunk, final edge multisets exactly.
    /// `block = None` leaves the engine in its default adaptive mode.
    fn assert_matches_sequential(
        g: Graph,
        target: &[f64],
        seed: u64,
        threads: usize,
        block: Option<usize>,
        chunks: &[u64],
    ) {
        let edges: Vec<_> = g.edges().collect();
        let mut seq = RewireEngine::new(g.clone(), edges.clone(), target);
        let mut par = ParallelRewireEngine::new(g, edges, target, threads);
        if let Some(b) = block {
            par = par.with_block_size(b);
        }
        let mut rng_s = Xoshiro256pp::seed_from_u64(seed);
        let mut rng_p = Xoshiro256pp::seed_from_u64(seed);
        for (c, &n) in chunks.iter().enumerate() {
            let ss = seq.run_attempts(n, &mut rng_s);
            let sp = par.run_attempts(n, &mut rng_p);
            assert_eq!(ss.accepted, sp.accepted, "accepted diverged at chunk {c}");
            assert_eq!(ss.skipped, sp.skipped, "skipped diverged at chunk {c}");
            assert_eq!(
                seq.distance().to_bits(),
                par.distance().to_bits(),
                "distance diverged at chunk {c}: {} vs {}",
                seq.distance(),
                par.distance()
            );
        }
        par.validate().unwrap();
        assert_eq!(
            sorted_edges(&seq.into_graph()),
            sorted_edges(&par.into_graph()),
            "edge multisets diverged"
        );
    }

    #[test]
    fn matches_sequential_across_thread_counts() {
        for threads in [1, 2, 4] {
            let g = social(1);
            let props = LocalProperties::compute(&g);
            let target: Vec<f64> = props
                .clustering_by_degree
                .iter()
                .map(|&c| c * 0.5)
                .collect();
            assert_matches_sequential(g, &target, 42, threads, Some(1024), &[1500, 700, 801]);
        }
    }

    #[test]
    fn adaptive_blocks_match_sequential() {
        // Default (adaptive) mode: the block size moves with the accept
        // rate mid-run, and the results must not.
        for threads in [1, 2, 4] {
            let g = social(1);
            let target = vec![0.0; g.max_degree() + 1];
            assert_matches_sequential(g, &target, 45, threads, None, &[2500, 900]);
        }
    }

    #[test]
    fn adaptive_block_size_actually_moves() {
        // Reject-only workload (own clustering is already the target):
        // every block is commit-free, so the block must grow to the cap.
        let g = social(9);
        let props = LocalProperties::compute(&g);
        let edges: Vec<_> = g.edges().collect();
        let mut eng = ParallelRewireEngine::new(g, edges, &props.clustering_by_degree, 2);
        assert_eq!(eng.block_size(), ADAPTIVE_START_BLOCK);
        let mut rng = Xoshiro256pp::seed_from_u64(51);
        eng.run_attempts(60_000, &mut rng);
        assert_eq!(eng.block_size(), ADAPTIVE_MAX_BLOCK);
    }

    #[test]
    fn tiny_blocks_force_replay_and_still_match() {
        // Zero-clustering target accepts aggressively early on, so with
        // block sizes this small nearly every block replays its tail.
        let g = social(2);
        let target = vec![0.0; g.max_degree() + 1];
        for block in [1, 2, 3, 7] {
            assert_matches_sequential(g.clone(), &target, 7, 2, Some(block), &[900, 350]);
        }
    }

    #[test]
    fn attempts_not_divisible_by_block() {
        let g = social(3);
        let target = vec![0.0; g.max_degree() + 1];
        assert_matches_sequential(g, &target, 9, 2, Some(64), &[1, 63, 64, 129, 500]);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let g = social(4);
        let target = vec![0.0; g.max_degree() + 1];
        let edges: Vec<_> = g.edges().collect();
        let eng = ParallelRewireEngine::new(g, edges, &target, 0);
        assert!(eng.num_threads() >= 1);
        assert_eq!(eng.block_size(), ADAPTIVE_START_BLOCK);
        assert_eq!(eng.shard_partitioner().num_shards(), eng.num_threads());
    }

    #[test]
    fn no_candidates_is_a_noop() {
        let g = social(5);
        let before = sorted_edges(&g);
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = ParallelRewireEngine::new(g, Vec::new(), &target, 4);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let stats = eng.run(500.0, &mut rng);
        assert_eq!(stats.accepted, 0);
        assert_eq!(sorted_edges(&eng.into_graph()), before);
    }

    #[test]
    fn run_scales_attempts_by_rc() {
        let g = social(6);
        let m = g.num_edges() as u64;
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = ParallelRewireEngine::new(g, edges, &target, 2);
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let stats = eng.run(2.0, &mut rng);
        assert_eq!(stats.attempts, 2 * m);
        assert_eq!(stats.accepted + stats.skipped, 2 * m);
    }

    #[test]
    fn shard_routing_covers_every_pick() {
        // Every drawable degree class must be owned by a real shard.
        let g = social(7);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let eng = ParallelRewireEngine::new(g, edges, &target, 4);
        let p = eng.shard_partitioner();
        assert_eq!(p.num_shards(), 4);
        for k in 0..p.num_classes() {
            assert!(p.shard_of(k) < 4);
        }
    }
}
