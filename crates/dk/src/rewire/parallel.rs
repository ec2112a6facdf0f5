//! Parallel rewiring: a [`RewireEngine`] driven by a persistent worker
//! pool, with round-robin evaluation, draw-order commit with conflict
//! replay, and adaptive speculation blocks.
//!
//! `BENCH_rewire.json` shows the production regime of §IV-E rewiring:
//! fewer than 1% of swap attempts are accepted, and every rejected
//! attempt is a pure **read-only** evaluation. Read-only work scales
//! across threads; the rare accepts are what must stay sequential to
//! preserve the engine contract. [`ParallelRewireEngine`] exploits
//! exactly that split. It is not a second engine: it owns one
//! [`RewireEngine`] — the only owner of the engine state — and decides
//! and commits every pick through it, so it is **bitwise-identical** to
//! running that engine alone (same final graph, same accepted count,
//! same distance trajectory) for the same seed at every thread count.
//! Everything else — the distance, the checkpoint state, the consistency
//! check — is read through [`engine`](ParallelRewireEngine::engine), and
//! [`resume`](ParallelRewireEngine::resume) continues from a checkpointed
//! [`RewireState`] at any width.
//!
//! # One worker
//!
//! With `threads <= 1` there is no evaluation to overlap across cores,
//! so [`run_attempts`] calls [`RewireEngine::run_attempts`] and nothing
//! else: no pool, no speculation blocks, and no pool buffers allocated.
//! That loop overlaps work on one core instead: it keeps a small ring of
//! picks drawn ahead and prefetches what they will read (see the
//! per-attempt complexity section of [`mod@super`]). Only its *picks*
//! are speculative, never its evaluations, so it needs none of the dirty
//! set or replay machinery below. The library, CLI and server default
//! (one worker) all run it.
//!
//! # Persistent worker pool
//!
//! Workers are spawned **once per [`run_attempts`] call** inside a single
//! `std::thread::scope` that wraps the whole block loop, so per-block
//! spawn/join costs never eat the evaluation speedup. Each worker sits
//! in a blocking `recv` on its own mpsc job channel; the coordinator
//! feeds one `Job` per worker per block and collects one `Ack` per
//! worker on a shared completion channel. Job and ack carry the
//! worker's result buffers and scratch arena by move, so per-block
//! coordination is two channel messages per worker.
//!
//! The state the workers read — the wrapped engine and the block's
//! speculative picks — sits behind an `RwLock` for the duration of the
//! call. The channel protocol already alternates access strictly:
//! workers hold the read lock only between receiving a job and sending
//! its ack, and the coordinator takes the write lock (to draw and to
//! commit) only while every worker is idle between ack and next job. The
//! lock therefore never waits; it is what lets the compiler check that
//! alternation, with no `unsafe`.
//!
//! # Round-robin ownership
//!
//! Pick `i` of a block is evaluated by worker `i % T` (with `T`
//! workers), which stores the result as its `i / T`-th extent in one
//! flat per-worker arena. Every worker therefore gets exactly
//! `⌈b / T⌉` or `⌊b / T⌋` of a block's `b` picks — some get none when
//! `b < T` — and the pool as a whole stores one block of results, not
//! one block per worker. Ownership is a pure function of the pick's
//! index, so the commit scan finds each result without a lookup table,
//! and no two workers ever write the same buffer.
//!
//! # Block pipeline
//!
//! Each block of `b` attempts runs three phases:
//!
//! 1. **Speculative draw (coordinator).** `b` candidate picks are drawn
//!    from the *sequential* RNG stream against the current committed
//!    state, saving a pre-draw RNG checkpoint per pick.
//! 2. **Evaluation (workers).** Each worker runs the engine's read-only
//!    `evaluate_swap` over its picks against the block-start snapshot,
//!    accumulating triangle deltas in its own epoch-stamped
//!    [`ScratchAccum`] arena and appending each node-sorted `(node, Δt)`
//!    list to its result arena. Steady-state evaluation performs no heap
//!    allocation.
//! 3. **Commit scan (coordinator).** Picks are decided **in draw order**
//!    through the same `EngineCore::decide` the sequential engine uses,
//!    and accepted swaps are committed immediately.
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
//!   Otherwise the coordinator discards it and re-evaluates against the
//!   current state in the wrapped engine's own scratch buffers — the
//!   very evaluation the sequential engine would run.
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

use super::{evaluate_swap, RewireEngine, RewireState, RewireStats, SwapPick};
use sgr_graph::{Graph, NodeId, SnapshotError};
use sgr_util::scratch::{DirtyStampSet, ScratchAccum};
use sgr_util::Xoshiro256pp;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::RwLock;

/// Smallest adaptive block: accept-heavy phases shrink to this.
pub const ADAPTIVE_MIN_BLOCK: usize = 64;

/// Starting adaptive block size.
pub const ADAPTIVE_START_BLOCK: usize = 256;

/// Largest adaptive block: commit-free stretches grow to this, which is
/// also the allocated per-block capacity of an adaptive engine.
pub const ADAPTIVE_MAX_BLOCK: usize = 8192;

/// Initial result-arena capacity per pick, in `(node, Δt)` entries; an
/// arena grows amortized on the rare block whose evaluations touch more
/// nodes on average.
const RESULT_CAP: usize = 64;

/// Everything the evaluation workers read: the wrapped engine and the
/// current block's speculative picks.
struct Shared {
    engine: RewireEngine,
    /// Speculative picks of the current block, in draw order.
    picks: Vec<Option<SwapPick>>,
}

/// One worker's owned buffers: its triangle-delta arena and its results.
/// Travels worker ⇄ coordinator by move inside [`Job`] / [`Ack`]
/// messages, so no shared mutable access is ever needed for results.
#[derive(Default)]
struct WorkerBuf {
    /// The `(node, Δt)` lists of the worker's picks, back to back.
    results: Vec<(NodeId, i64)>,
    /// `results[ends[k]..ends[k + 1]]` is the worker's `k`-th pick.
    ends: Vec<usize>,
    arena: ScratchAccum<i64>,
}

impl WorkerBuf {
    fn result(&self, k: usize) -> &[(NodeId, i64)] {
        &self.results[self.ends[k]..self.ends[k + 1]]
    }
}

/// "Evaluate your picks among the first `b`."
struct Job {
    b: usize,
    buf: WorkerBuf,
}

/// "Done; here are worker `w`'s buffers back."
struct Ack {
    w: usize,
    buf: WorkerBuf,
}

/// Worker count an engine built with `threads` runs: `0` means every
/// available core.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Heap bytes an adaptive [`ParallelRewireEngine`] over `nodes` nodes
/// allocates for its worker pool on top of the wrapped engine, with
/// `threads` as passed to [`ParallelRewireEngine::new`]: zero for one
/// worker, otherwise the per-pick checkpoints and result arenas of one
/// [`ADAPTIVE_MAX_BLOCK`] block plus a node-indexed arena per worker.
/// Saturates instead of overflowing, so an absurd width yields an
/// estimate no budget admits.
pub fn pool_bytes(nodes: usize, threads: usize) -> u64 {
    let threads = resolve_threads(threads) as u64;
    if threads <= 1 {
        return 0;
    }
    let (nodes, cap) = (nodes as u64, ADAPTIVE_MAX_BLOCK as u64);
    let per_pick = (std::mem::size_of::<Option<SwapPick>>()
        + std::mem::size_of::<Xoshiro256pp>()
        + std::mem::size_of::<usize>()
        + RESULT_CAP * std::mem::size_of::<(NodeId, i64)>()) as u64;
    // Dirty set (stamp + marked list) and each worker's ScratchAccum
    // (value + stamp + touched list) per node.
    let dirty = 8 * nodes;
    let per_worker = nodes.saturating_mul(16);
    (cap * per_pick + dirty).saturating_add(threads.saturating_mul(per_worker))
}

/// A [`RewireEngine`] run by a pool of evaluation workers; see the
/// module docs. Same constructor shape plus a thread count,
/// bitwise-identical results.
pub struct ParallelRewireEngine {
    st: Shared,
    /// RNG state snapshot taken immediately before each pick's draws.
    rng_before: Vec<Xoshiro256pp>,
    /// Endpoints of swaps committed in the current block.
    dirty: DirtyStampSet,
    /// One buffer set per worker, held here between runs and lent to the
    /// workers by move while a block is in flight. Empty with one worker.
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
    /// Argument semantics match [`RewireEngine::new`]. Pool buffers are
    /// allocated only when more than one worker runs.
    pub fn new(
        graph: Graph,
        candidates: Vec<(NodeId, NodeId)>,
        target_c: &[f64],
        threads: usize,
    ) -> Self {
        Self::wrap(RewireEngine::new(graph, candidates, target_c), threads)
    }

    /// Continues the engine a checkpointed [`RewireState`] was captured
    /// from, against the same target, with `threads` workers — any
    /// width, since results do not depend on it. A state that does not
    /// fit the target is [`SnapshotError::Corrupt`].
    pub fn resume(
        state: RewireState,
        target_c: &[f64],
        threads: usize,
    ) -> Result<Self, SnapshotError> {
        Ok(Self::wrap(RewireEngine::resume(state, target_c)?, threads))
    }

    fn wrap(engine: RewireEngine, threads: usize) -> Self {
        let threads = resolve_threads(threads);
        // One worker runs the wrapped engine directly: no pool buffers.
        let (workers, n) = if threads > 1 {
            (threads, engine.core.graph.num_nodes())
        } else {
            (0, 0)
        };
        let mut par = Self {
            st: Shared {
                engine,
                picks: Vec::new(),
            },
            rng_before: Vec::new(),
            dirty: DirtyStampSet::with_keys(n),
            bufs: (0..workers)
                .map(|_| WorkerBuf {
                    arena: ScratchAccum::with_keys(n),
                    ..WorkerBuf::default()
                })
                .collect(),
            threads,
            cap: 0,
            block: ADAPTIVE_START_BLOCK,
            adaptive: true,
        };
        par.set_capacity(ADAPTIVE_MAX_BLOCK);
        par
    }

    /// Pins a fixed speculation block size (picks drawn per round),
    /// disabling the adaptive sizing; builder form. Exposed for tests
    /// (tiny blocks force the replay machinery) and benchmarks (a fixed
    /// size keeps runs comparable); results are identical at any value
    /// ≥ 1 — and identical to the adaptive default. A single-worker
    /// engine runs the wrapped engine directly and never consults the
    /// block size.
    pub fn with_block_size(mut self, block: usize) -> Self {
        let block = block.max(1);
        self.adaptive = false;
        self.set_capacity(block);
        self.block = block;
        self
    }

    /// (Re)allocates the per-block buffers to hold `cap` picks; a no-op
    /// beyond recording `cap` with one worker.
    fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        if self.threads <= 1 {
            return;
        }
        self.st.picks.resize(self.cap, None);
        self.rng_before
            .resize(self.cap, Xoshiro256pp::seed_from_u64(0));
        let per_worker = self.cap.div_ceil(self.threads);
        for buf in &mut self.bufs {
            buf.ends.resize(per_worker + 1, 0);
            buf.results.reserve(per_worker * RESULT_CAP);
        }
    }

    /// Current speculation block size: the pinned size after
    /// [`with_block_size`](Self::with_block_size), otherwise the
    /// adaptive size as of the last block.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// The wrapped engine: distance, checkpoint state and the
    /// consistency check all live there.
    pub fn engine(&self) -> &RewireEngine {
        &self.st.engine
    }

    /// Releases the rewired graph.
    pub fn into_graph(self) -> Graph {
        self.st.engine.into_graph()
    }

    /// Runs exactly `attempts` swap attempts: in speculation blocks
    /// across the worker pool, or — with a single worker, or fewer than
    /// two candidate slots — by the wrapped engine alone.
    pub fn run_attempts(&mut self, attempts: u64, rng: &mut Xoshiro256pp) -> RewireStats {
        if self.threads <= 1 || self.st.engine.num_candidates() < 2 {
            return self.st.engine.run_attempts(attempts, rng);
        }
        let mut stats = RewireStats {
            attempts,
            initial_distance: self.st.engine.distance(),
            ..Default::default()
        };
        self.run_pooled(attempts, rng, &mut stats);
        stats.final_distance = self.st.engine.distance();
        stats
    }

    /// Multi-worker path: one `std::thread::scope` wraps the whole block
    /// loop, so workers persist across blocks and per-block coordination
    /// is one job and one ack message per worker.
    fn run_pooled(&mut self, attempts: u64, rng: &mut Xoshiro256pp, stats: &mut RewireStats) {
        let Self {
            st,
            rng_before,
            dirty,
            bufs,
            threads,
            cap,
            block,
            adaptive,
        } = self;
        let threads = *threads;
        let shared = RwLock::new(st);
        std::thread::scope(|scope| {
            let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Ack>();
            let mut job_txs = Vec::with_capacity(threads);
            for w in 0..threads {
                let (tx, rx) = std::sync::mpsc::channel::<Job>();
                job_txs.push(tx);
                let ack = ack_tx.clone();
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, w, threads, rx, ack));
            }
            drop(ack_tx);
            let mut done = 0u64;
            while done < attempts {
                let b = (attempts - done).min(*block as u64) as usize;
                // The write lock never waits: every worker is idle here.
                let mut st = shared.write().expect("rewire worker panicked");
                draw_block(&mut st, rng_before, b, rng);
                drop(st);
                for (w, tx) in job_txs.iter().enumerate() {
                    let buf = std::mem::take(&mut bufs[w]);
                    tx.send(Job { b, buf }).expect("rewire worker hung up");
                }
                for _ in 0..threads {
                    let Ack { w, buf } = ack_rx.recv().expect("rewire worker died");
                    bufs[w] = buf;
                }
                let mut st = shared.write().expect("rewire worker panicked");
                let accepted = commit_scan(&mut st, rng_before, dirty, bufs, b, rng, stats);
                drop(st);
                done += b as u64;
                if *adaptive {
                    *block = next_block_size(*block, accepted, b, *cap);
                }
            }
            drop(job_txs); // workers' `recv` errors out; the scope joins them
        });
    }
}

/// One worker's life: evaluate its picks per job, ack, repeat until the
/// coordinator drops the job channel.
fn worker_loop(
    shared: &RwLock<&mut Shared>,
    w: usize,
    threads: usize,
    rx: Receiver<Job>,
    ack: Sender<Ack>,
) {
    while let Ok(Job { b, mut buf }) = rx.recv() {
        {
            let st = shared.read().expect("rewire coordinator panicked");
            evaluate_owned(&st, &mut buf, b, w, threads);
        }
        if ack.send(Ack { w, buf }).is_err() {
            return;
        }
    }
}

/// Phase 1: draws `b` speculative picks from the sequential RNG stream,
/// checkpointing the RNG before each pick for conflict replay.
fn draw_block(st: &mut Shared, rng_before: &mut [Xoshiro256pp], b: usize, rng: &mut Xoshiro256pp) {
    let core = &st.engine.core;
    for (pick, ckpt) in st.picks[..b].iter_mut().zip(rng_before[..b].iter_mut()) {
        *ckpt = rng.clone();
        *pick = core.pick_swap(rng);
    }
}

/// Phase 2 (per worker): evaluates picks `w, w + threads, …` of the
/// block read-only, appending the `k`-th one's result as the `k`-th
/// extent of the worker's result arena (empty for a skipped pick).
fn evaluate_owned(st: &Shared, buf: &mut WorkerBuf, b: usize, w: usize, threads: usize) {
    let WorkerBuf {
        results,
        ends,
        arena,
    } = buf;
    results.clear();
    for (k, pick) in st.picks[..b].iter().skip(w).step_by(threads).enumerate() {
        if let Some(p) = pick {
            evaluate_swap(&st.engine.core, p, arena, results);
        }
        ends[k + 1] = results.len();
    }
}

/// Phase 3: decides the block's picks strictly in draw order, committing
/// accepted swaps and replaying the speculative tail after the first
/// commit (see the module docs). Returns the number of accepts in this
/// block (the adaptive-sizing signal). `cursor` is `None` while the
/// block is commit-free (speculation exact); after the first commit it
/// carries the authoritative sequential RNG stream.
fn commit_scan(
    st: &mut Shared,
    rng_before: &[Xoshiro256pp],
    dirty: &mut DirtyStampSet,
    bufs: &[WorkerBuf],
    b: usize,
    rng: &mut Xoshiro256pp,
    stats: &mut RewireStats,
) -> u64 {
    let RewireEngine {
        core,
        scratch_t,
        scratch_s,
        pairs,
    } = &mut st.engine;
    let threads = bufs.len();
    dirty.clear();
    let mut accepted = 0u64;
    let mut cursor: Option<Xoshiro256pp> = None;
    for (i, &spec_pick) in st.picks[..b].iter().enumerate() {
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
        let endpoints = p.endpoints();
        let result = if spec_ok && !dirty.contains_any(&endpoints) {
            bufs[i % threads].result(i / threads)
        } else {
            // Conflict (or replayed pick diverged): discard the
            // speculative result and re-evaluate against the current
            // committed state.
            pairs.clear();
            evaluate_swap(core, &p, scratch_t, pairs);
            &pairs[..]
        };
        if core.decide(&p, result, scratch_s) {
            for &x in &endpoints {
                dirty.mark(x);
            }
            if cursor.is_none() {
                // The sequential stream position after this pick's
                // draws: the next pick's checkpoint, or — for the
                // block's last pick — the phase-1 end state.
                cursor = Some(if i + 1 < b {
                    rng_before[i + 1].clone()
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
                par.engine().distance().to_bits(),
                "distance diverged at chunk {c}: {} vs {}",
                seq.distance(),
                par.engine().distance()
            );
        }
        par.engine().validate().unwrap();
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
        // Widths 3 and 4 leave some workers without picks in the smaller
        // blocks, and do not divide every block size.
        let g = social(2);
        let target = vec![0.0; g.max_degree() + 1];
        for threads in [2, 3, 4] {
            for block in [1, 2, 3, 7] {
                assert_matches_sequential(g.clone(), &target, 7, threads, Some(block), &[900, 350]);
            }
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
        assert_eq!(eng.threads, resolve_threads(0));
        assert!(eng.threads >= 1);
        assert_eq!(eng.block_size(), ADAPTIVE_START_BLOCK);
    }

    #[test]
    fn no_candidates_is_a_noop() {
        let g = social(5);
        let before = sorted_edges(&g);
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = ParallelRewireEngine::new(g, Vec::new(), &target, 4);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let stats = eng.run_attempts(500, &mut rng);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.skipped, 500);
        assert_eq!(sorted_edges(&eng.into_graph()), before);
    }

    #[test]
    fn pooled_stats_account_for_every_attempt() {
        let g = social(6);
        let m = g.num_edges() as u64;
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = ParallelRewireEngine::new(g, edges, &target, 2);
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let stats = eng.run_attempts(2 * m, &mut rng);
        assert_eq!(stats.attempts, 2 * m);
        assert_eq!(stats.accepted + stats.skipped, 2 * m);
        assert!(stats.final_distance < stats.initial_distance);
    }

    #[test]
    fn round_robin_results_land_where_the_commit_scan_reads() {
        // Reject-only workload (own clustering is the target): the state
        // after the run is the state the last block was evaluated
        // against, so every stored result must equal a fresh evaluation
        // of its pick. Widths 3 and 4 leave workers without picks in the
        // smaller blocks.
        let g = social(7);
        let props = LocalProperties::compute(&g);
        let edges: Vec<_> = g.edges().collect();
        for (threads, block) in [(2, 64), (3, 7), (4, 2), (4, 1)] {
            let mut eng = ParallelRewireEngine::new(
                g.clone(),
                edges.clone(),
                &props.clustering_by_degree,
                threads,
            )
            .with_block_size(block);
            let stats = eng.run_attempts(block as u64, &mut Xoshiro256pp::seed_from_u64(19));
            assert_eq!(stats.accepted, 0);
            let core = &eng.st.engine.core;
            let mut arena = ScratchAccum::with_keys(core.graph.num_nodes());
            let mut want = Vec::new();
            for (i, pick) in eng.st.picks[..block].iter().enumerate() {
                want.clear();
                if let Some(p) = pick {
                    evaluate_swap(core, p, &mut arena, &mut want);
                }
                assert_eq!(eng.bufs[i % threads].result(i / threads), &want[..]);
            }
        }
    }

    #[test]
    fn single_worker_allocates_no_pool() {
        let g = social(8);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let eng = ParallelRewireEngine::new(g, edges, &target, 1);
        assert!(eng.bufs.is_empty() && eng.st.picks.is_empty() && eng.rng_before.is_empty());
        assert_eq!(eng.dirty.num_keys(), 0);
        assert_eq!(pool_bytes(1_000, 1), 0);
        assert!(pool_bytes(1_000, 2) > 0);
        assert_eq!(pool_bytes(1_000, usize::MAX), u64::MAX);
    }
}
