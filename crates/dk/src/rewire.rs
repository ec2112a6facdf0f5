//! The 2.5K rewiring engine (§IV-E / Algorithm 6), built around
//! **evaluate-then-commit** swap attempts.
//!
//! Given a graph whose degree vector and joint degree matrix are already
//! correct, repeatedly pick two candidate edges `(v_i, v_j)` and
//! `(v_{i'}, v_{j'})` whose first endpoints have **equal degree**, and
//! swap them to `(v_i, v_{j'})`, `(v_{i'}, v_j)` iff the normalized L1
//! distance `D` between the current degree-dependent clustering `{c̄(k)}`
//! and the target `{ĉ̄(k)}` decreases. Equal-degree swaps preserve both
//! the degree vector and the JDM exactly.
//!
//! The distinguishing feature of the proposed method is the **candidate
//! set**: only edges *added* during construction are rewirable
//! (`Ẽ_rew = Ẽ \ E'`), so the sampled subgraph survives rewiring
//! unchanged and the attempt budget `R = R_C · |Ẽ_rew|` shrinks. Gjoka et
//! al.'s variant passes every edge as a candidate.
//!
//! # Evaluate-then-commit
//!
//! Rewiring dominates generation time (the paper's Table IV), and late in
//! a run almost every attempt is **rejected** — the distance is near its
//! floor and few swaps still improve it. An apply-rollback engine (kept in
//! [`mod@reference`] as the correctness baseline) makes every one of those
//! rejected attempts pay worst-case cost: four edge toggles applied to the
//! graph *and* the multiplicity index, two hash-map allocations, then a
//! second round of four toggles to roll everything back.
//!
//! [`RewireEngine`] instead *predicts* the swap's effect without touching
//! shared state:
//!
//! 1. **Read-only evaluation.** The four toggles (remove `(v_i, v_j)`,
//!    remove `(v_{i'}, v_{j'})`, add `(v_i, v_{j'})`, add `(v_{i'}, v_j)`)
//!    are emulated in sequence against an *effective adjacency*: `A_uv`
//!    reads combine the untouched [`MultiplicityIndex`] with a fixed-size
//!    array of at most four pending pair deltas. The interaction terms
//!    between toggles (e.g. the `A_{v_j v_{j'}}` and `A_{v_i v_{i'}}`
//!    corrections) therefore fall out arithmetically — each scan sees
//!    exactly the intermediate state the sequential reference sees, so the
//!    per-node triangle deltas `Δt_i` match the reference integer for
//!    integer.
//! 2. **Decision.** `Δt` is folded into per-degree candidate sums `S'(k)`
//!    and a predicted distance `D'` (`EngineCore::fold_decide`, shared
//!    verbatim with the reference so accept/reject decisions and the final
//!    distance are bitwise identical; `EngineCore::decide` wraps it with
//!    the commit).
//! 3. **Commit.** Only when `D' < D` are the graph, the index, `t`,
//!    `S(k)`, and the candidate-slot bookkeeping mutated — four structural
//!    toggles with **no** common-neighbor scans, since the deltas are
//!    already known. Rejected attempts touch no shared state at all, which
//!    a debug-build mutation counter on the index asserts.
//!
//! All per-attempt working memory lives in epoch-stamped scratch arenas
//! ([`sgr_util::scratch::ScratchAccum`]) sized once at engine
//! construction, and the graph and the multiplicity index update in place
//! inside fixed per-node extents, so every attempt — rejected or
//! accepted — performs **zero heap allocations**.
//!
//! # Per-attempt complexity
//!
//! A rejected attempt costs exactly one evaluation: four common-neighbor
//! scans, each a branchless merge-intersection over the two endpoints'
//! sorted neighbor slices
//! ([`sgr_graph::index::MultiplicityIndex::for_each_common`]) — O(d̃_u +
//! d̃_v) for balanced degrees and O(d̃_small · log(d̃_hub / d̃_small))
//! against a hub, with no hashing — plus an O(τ log τ) fold over the
//! τ ≤ O(k̄) touched nodes.
//! An accepted attempt adds four scan-free structural toggles and O(1)
//! slot/bucket bookkeeping. The apply-rollback reference pays an
//! iterate-and-probe evaluation *plus* eight mutating toggles (four of
//! them pure waste on rejection) and two hash maps' worth of allocation
//! per attempt.
//!
//! Once the index outgrows the caches, those operation counts matter
//! less than *waiting*: a pick's draw is a chain of dependent cold loads
//! (`slots[e1]`, the degree of `v_i`, a bucket entry, `slots[e2]`), and
//! its four extents are cold too. About 98% of attempts commit nothing,
//! so the next picks are almost always exactly the ones the sequential
//! loop would draw next. [`RewireEngine::run_attempts`] therefore keeps
//! a ring of `LOOKAHEAD` = 8 drawn picks on the stack and, while the head
//! is evaluated, issues three software prefetch hints
//! ([`sgr_util::prefetch`]) for the picks behind it:
//!
//! 1. when a pick is drawn, the extent headers (`starts`, `lens`) of its
//!    four endpoints ([`MultiplicityIndex::prefetch_header`]);
//! 2. when it is halfway to the head, the first four cache lines of each
//!    endpoint's extent ([`MultiplicityIndex::prefetch_extent`]);
//! 3. before it is drawn, its draw chain: an RNG peek
//!    (`EngineCore::prefetch_draws`) replays the next four picks' draws
//!    on a clone of the generator and hints one link of each chain, the
//!    nearer the pick the deeper the link, so every load of a draw finds
//!    its line warm.
//!
//! A hint reads nothing the program sees and cannot change a result; a
//! wrong guess (a peeked draw count that was off, a pick voided by a
//! commit) costs only the wasted prefetch.
//!
//! # Determinism model
//!
//! Two engines produce **bitwise-identical** results for the same seed:
//! the apply-rollback reference, which draws, applies and rolls back one
//! pick at a time, and [`RewireEngine`], whose
//! [`run_attempts`](RewireEngine::run_attempts) is the lookahead ring.
//! The contract rests on three pillars:
//!
//! 1. **One RNG stream, drawn in attempt order.** Every candidate pick
//!    flows through `EngineCore::pick_swap` against the current
//!    committed state; neither engine consumes draws the other would
//!    not. The ring's drawn-ahead picks are the stream's own: each is
//!    drawn against the state every earlier pick left, for as long as
//!    none of those earlier picks commits. A commit voids the picks in
//!    flight, and the ring rewinds the RNG to the first one's checkpoint
//!    and redraws them against the new state. The ring never draws past
//!    its attempt budget, so every call ends at the stream position the
//!    pick-by-pick loop reaches. (The RNG peek of hint 3 draws on a clone
//!    and consumes nothing.)
//! 2. **Integer evaluation.** A swap's effect is a set of per-node
//!    triangle deltas `Δt_i` — exact `i64`s, so the *order* in which a
//!    scan discovers common neighbors is irrelevant. The reference
//!    iterates and probes, the engine merge-intersects; the node-sorted
//!    `(node, Δt)` list that feeds the decision is identical.
//! 3. **One float fold.** Only `EngineCore::fold_decide` touches floating
//!    point, always executed on the calling thread with node-sorted
//!    input, so accept/reject decisions — and therefore the distance
//!    trajectory — are bit-for-bit reproducible.
//!
//! Only the ring's *picks* are ever speculative, never its evaluations:
//! the head is evaluated and decided against the live state, exactly as
//! [`RewireEngine::attempt`] does. So the two engines agree attempt for
//! attempt, however `run_attempts` calls are chunked.

use sgr_graph::index::MultiplicityIndex;
use sgr_graph::snapshot::{PayloadReader, PayloadWriter};
use sgr_graph::{Graph, NodeId, SnapshotError};
use sgr_props::triangles::triangle_counts_with_index;
use sgr_util::prefetch::prefetch_read;
use sgr_util::scratch::ScratchAccum;
use sgr_util::{FxHashMap, Xoshiro256pp};

pub mod parallel;
pub mod reference;

/// Statistics from a rewiring run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RewireStats {
    /// Total swap attempts.
    pub attempts: u64,
    /// Accepted swaps (those that lowered `D`).
    pub accepted: u64,
    /// Attempts skipped because a swap would have created a self-loop or
    /// no valid partner edge existed.
    pub skipped: u64,
    /// `D` before the run.
    pub initial_distance: f64,
    /// `D` after the run.
    pub final_distance: f64,
}

/// One picked (and structurally valid) swap: slots `e1`/`e2` with the
/// chosen orientations, and the four endpoint nodes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SwapPick {
    e1: u32,
    side1: u8,
    e2: u32,
    side2: u8,
    vi: NodeId,
    vj: NodeId,
    vi2: NodeId,
    vj2: NodeId,
}

impl SwapPick {
    /// The four endpoints `[v_i, v_j, v_{i'}, v_{j'}]` an evaluation reads.
    #[inline]
    pub(crate) fn endpoints(&self) -> [NodeId; 4] {
        [self.vi, self.vj, self.vi2, self.vj2]
    }
}

/// Picks [`RewireEngine::run_attempts`] keeps drawn ahead of the one it
/// decides (the head included).
const LOOKAHEAD: usize = 8;

/// One entry of the lookahead ring: a drawn pick (`None` = structurally
/// skipped) and the RNG state from before its draws.
#[derive(Clone, Copy)]
struct Drawn {
    rng_before: [u64; 4],
    pick: Option<SwapPick>,
}

/// State shared by the evaluate-then-commit engine and the apply-rollback
/// reference: the evolving graph, its multiplicity index, cached triangle
/// counts and clustering sums, and the candidate-slot bookkeeping.
///
/// Every routine that influences an accept/reject decision lives here and
/// is executed by both engines with identical RNG-draw order and float
/// operation order, which is what makes the two bitwise-equivalent.
pub(crate) struct EngineCore {
    pub(crate) graph: Graph,
    pub(crate) idx: MultiplicityIndex,
    /// Per-node triangle counts `t_i` (signed for incremental updates).
    pub(crate) t: Vec<i64>,
    /// Node degrees (invariant under rewiring).
    pub(crate) deg: Vec<u32>,
    /// `n(k)` — number of nodes of each degree.
    pub(crate) nk: Vec<u64>,
    /// `S(k) = Σ_{deg i = k} 2 t_i / (k (k-1))`, so `c̄(k) = S(k)/n(k)`.
    pub(crate) s: Vec<f64>,
    /// Target `ĉ̄(k)`, zero-padded to the degree range.
    pub(crate) target: Vec<f64>,
    /// `Σ_k ĉ̄(k)` — the normalization of `D`.
    pub(crate) norm: f64,
    /// Current **unnormalized** distance `Σ_k |c̄(k) - ĉ̄(k)|`.
    pub(crate) dist_raw: f64,
    /// Candidate edge slots (the rewirable multiset `Ẽ_rew`).
    pub(crate) slots: Vec<(NodeId, NodeId)>,
    /// `buckets[k]` — (slot, side) pairs whose endpoint has degree `k`.
    pub(crate) buckets: Vec<Vec<(u32, u8)>>,
    /// `pos[slot][side]` — index of that (slot, side) in its bucket.
    pub(crate) pos: Vec<[u32; 2]>,
}

impl EngineCore {
    /// Builds the engine state from scratch: the multiplicity index, the
    /// per-node triangle counts `t` from one degree-ordered triangle pass
    /// ([`sgr_props::triangles`] — each triangle found once, O(m̃ √m̃)
    /// rather than O(Σ d̃²)), the per-degree sums `S(k)` and distance
    /// folded from the exact integer `t`, and the degree buckets over the
    /// candidate endpoints.
    ///
    /// Buckets are sized from a per-degree count before they are filled,
    /// and filled in `(slot, side)` order: within-bucket order is
    /// checkpointed state (see [`RewireState`]), so a fresh engine's
    /// order must never depend on how it was allocated.
    pub(crate) fn new(graph: Graph, candidates: Vec<(NodeId, NodeId)>, target_c: &[f64]) -> Self {
        let idx = MultiplicityIndex::build(&graph);
        let t: Vec<i64> = triangle_counts_with_index(&graph, &idx)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let deg: Vec<u32> = graph.nodes().map(|u| graph.degree(u) as u32).collect();
        let k_max = deg.iter().copied().max().unwrap_or(0) as usize;
        let k_cap = k_max.max(target_c.len().saturating_sub(1));
        let mut nk = vec![0u64; k_cap + 1];
        for &d in &deg {
            nk[d as usize] += 1;
        }
        let mut s = vec![0.0f64; k_cap + 1];
        for (u, &d) in deg.iter().enumerate() {
            if d >= 2 {
                s[d as usize] += 2.0 * t[u] as f64 / (d as f64 * (d as f64 - 1.0));
            }
        }
        let mut target = vec![0.0f64; k_cap + 1];
        for (k, &c) in target_c.iter().enumerate() {
            if k <= k_cap {
                target[k] = c;
            }
        }
        let norm: f64 = target.iter().sum();
        let dist_raw: f64 = (0..=k_cap)
            .map(|k| {
                let cur = if nk[k] > 0 { s[k] / nk[k] as f64 } else { 0.0 };
                (cur - target[k]).abs()
            })
            .sum();
        // Buckets over candidate endpoints, each reserved to its exact
        // size.
        let mut sizes = vec![0usize; k_cap + 1];
        for &(a, b) in &candidates {
            sizes[deg[a as usize] as usize] += 1;
            sizes[deg[b as usize] as usize] += 1;
        }
        let mut buckets: Vec<Vec<(u32, u8)>> = sizes.into_iter().map(Vec::with_capacity).collect();
        let mut pos = vec![[0u32; 2]; candidates.len()];
        for (slot, &(a, b)) in candidates.iter().enumerate() {
            for (side, node) in [(0u8, a), (1u8, b)] {
                let k = deg[node as usize] as usize;
                pos[slot][side as usize] = buckets[k].len() as u32;
                buckets[k].push((slot as u32, side));
            }
        }
        Self {
            graph,
            idx,
            t,
            deg,
            nk,
            s,
            target,
            norm,
            dist_raw,
            slots: candidates,
            buckets,
            pos,
        }
    }

    /// Most nodes one swap evaluation can touch: its common-neighbor
    /// scans stay inside `N(v_i) ∪ N(v_{i'})`, plus the four endpoints.
    /// Sizes the per-attempt `(node, Δt)` lists.
    pub(crate) fn max_touched(&self) -> usize {
        let k_max = self.deg.iter().copied().max().unwrap_or(0) as usize;
        self.deg.len().min(2 * k_max + 4)
    }

    pub(crate) fn distance(&self) -> f64 {
        if self.norm > 0.0 {
            self.dist_raw / self.norm
        } else {
            self.dist_raw
        }
    }

    /// Draws a candidate swap. `None` means the attempt is structurally
    /// skipped (no equal-degree partner, identical slot, would create a
    /// self-loop, or is a no-op). The RNG-draw order here defines the
    /// shared random stream of both engine implementations.
    pub(crate) fn pick_swap(&self, rng: &mut Xoshiro256pp) -> Option<SwapPick> {
        // Pick edge 1 and an orientation: (v_i, v_j).
        let e1 = rng.gen_range(self.slots.len()) as u32;
        let side1 = rng.gen_range(2) as u8;
        let (a1, b1) = self.slots[e1 as usize];
        let (vi, vj) = if side1 == 0 { (a1, b1) } else { (b1, a1) };
        // Pick edge 2 with an endpoint of equal degree.
        let k = self.deg[vi as usize] as usize;
        let bucket = &self.buckets[k];
        if bucket.len() < 2 {
            return None;
        }
        let (e2, side2) = bucket[rng.gen_range(bucket.len())];
        if e2 == e1 {
            return None;
        }
        let (a2, b2) = self.slots[e2 as usize];
        let (vi2, vj2) = if side2 == 0 { (a2, b2) } else { (b2, a2) };
        debug_assert_eq!(self.deg[vi as usize], self.deg[vi2 as usize]);
        // Proposed swap: (vi, vj), (vi2, vj2) -> (vi, vj2), (vi2, vj).
        // Reject self-loops (they would change degrees) and no-ops.
        if vi == vj2 || vi2 == vj {
            return None;
        }
        if vj == vj2 {
            return None; // swap is a no-op
        }
        Some(SwapPick {
            e1,
            side1,
            e2,
            side2,
            vi,
            vj,
            vi2,
            vj2,
        })
    }

    /// Hints the cold reads of the next picks the ring will draw. One
    /// pick's draw is a chain of dependent loads — `slots[e1]`,
    /// `deg[v_i]`, the partner's bucket entry, `slots[e2]` — so the pick
    /// `d` draws ahead gets the hint for link `3 - d` of its chain, and
    /// each link is warm by the time the next one needs it. The draws are
    /// replayed on a clone of `rng`, assuming each pick takes the three
    /// draws almost every pick takes. Consumes nothing from `rng`.
    #[inline]
    pub(crate) fn prefetch_draws(&self, rng: &Xoshiro256pp) {
        let mut peek = rng.clone();
        // `warm`: links of this pick's chain already in cache.
        for warm in (0..4).rev() {
            let e1 = peek.gen_range(self.slots.len());
            if warm == 0 {
                prefetch_read(&self.slots[e1]);
                break;
            }
            let vi = endpoint(self.slots[e1], peek.gen_range(2) as u8);
            if warm == 1 {
                prefetch_read(&self.deg[vi as usize]);
                peek.next_u64();
                continue;
            }
            let bucket = &self.buckets[self.deg[vi as usize] as usize];
            if bucket.len() < 2 {
                continue;
            }
            let entry = &bucket[peek.gen_range(bucket.len())];
            if warm == 2 {
                prefetch_read(entry);
            } else {
                prefetch_read(&self.slots[entry.0 as usize]);
            }
        }
    }

    /// Folds sorted per-node triangle deltas into predicted per-degree
    /// sums `S'(k)` (written into `new_s`) and returns the predicted
    /// unnormalized distance `D'`.
    ///
    /// Both engine implementations route their decision through this one
    /// function with node-sorted input, so the floating-point operation
    /// order — and therefore every accept/reject decision and the final
    /// distance — is identical between them.
    pub(crate) fn fold_decide(
        &self,
        touched: &[(NodeId, i64)],
        new_s: &mut ScratchAccum<f64>,
    ) -> f64 {
        new_s.begin();
        for &(node, dt) in touched {
            if dt == 0 {
                continue;
            }
            let d = self.deg[node as usize] as usize;
            if d < 2 {
                continue; // degree-<2 nodes always have dt == 0 anyway
            }
            *new_s.entry_or(d as u32, self.s[d]) += 2.0 * dt as f64 / (d as f64 * (d as f64 - 1.0));
        }
        // Recompute the distance terms of the affected degrees exactly
        // (several touched nodes may share a degree).
        new_s.sort_touched();
        let mut new_raw = self.dist_raw;
        for i in 0..new_s.touched().len() {
            let d = new_s.touched()[i] as usize;
            let nk = self.nk[d] as f64;
            new_raw -= (self.s[d] / nk - self.target[d]).abs();
            new_raw += (new_s.get(d as u32) / nk - self.target[d]).abs();
        }
        new_raw
    }

    /// Commits an accepted decision's cached quantities: per-node triangle
    /// counts from `touched`, per-degree sums from `new_s`, and the new
    /// distance.
    pub(crate) fn commit_decision(
        &mut self,
        touched: &[(NodeId, i64)],
        new_s: &ScratchAccum<f64>,
        new_raw: f64,
    ) {
        for &(node, dt) in touched {
            if dt != 0 {
                self.t[node as usize] += dt;
            }
        }
        for &d in new_s.touched() {
            self.s[d as usize] = new_s.get(d);
        }
        self.dist_raw = new_raw;
    }

    /// Decides an evaluated swap: folds its node-sorted `Δt` list into a
    /// predicted distance and, iff that lowers `D`, commits it — cached
    /// quantities, four scan-free structural toggles, and the slot swap.
    /// Returns whether the swap was accepted.
    pub(crate) fn decide(
        &mut self,
        p: &SwapPick,
        touched: &[(NodeId, i64)],
        new_s: &mut ScratchAccum<f64>,
    ) -> bool {
        let new_raw = self.fold_decide(touched, new_s);
        if new_raw < self.dist_raw {
            self.commit_decision(touched, new_s, new_raw);
            apply_structural(self, p.vi, p.vj, -1);
            apply_structural(self, p.vi2, p.vj2, -1);
            apply_structural(self, p.vi, p.vj2, 1);
            apply_structural(self, p.vi2, p.vj, 1);
            self.commit_slot_swap(p);
            true
        } else {
            false
        }
    }

    /// Updates slots and degree buckets after an accepted swap: slot `e1`
    /// becomes `(v_i, v_{j'})`, slot `e2` becomes `(v_{i'}, v_j)` — i.e.
    /// the two *second* endpoints exchange slots.
    pub(crate) fn commit_slot_swap(&mut self, p: &SwapPick) {
        let o1 = 1 - p.side1; // side of vj in e1
        let o2 = 1 - p.side2; // side of vj' in e2
        let vj = endpoint(self.slots[p.e1 as usize], o1);
        let vj2 = endpoint(self.slots[p.e2 as usize], o2);
        set_endpoint(&mut self.slots[p.e1 as usize], o1, vj2);
        set_endpoint(&mut self.slots[p.e2 as usize], o2, vj);
        // Bucket bookkeeping: the entries (e1, o1) and (e2, o2) now refer
        // to nodes of possibly different degrees; swap their bucket
        // residency if the degrees differ.
        let k_j = self.deg[vj as usize] as usize;
        let k_j2 = self.deg[vj2 as usize] as usize;
        if k_j != k_j2 {
            let p1 = self.pos[p.e1 as usize][o1 as usize]; // in buckets[k_j]
            let p2 = self.pos[p.e2 as usize][o2 as usize]; // in buckets[k_j2]
                                                           // (e1, o1) moves to bucket[k_j2]; (e2, o2) moves to bucket[k_j].
            self.buckets[k_j][p1 as usize] = (p.e2, o2);
            self.buckets[k_j2][p2 as usize] = (p.e1, o1);
            self.pos[p.e2 as usize][o2 as usize] = p1;
            self.pos[p.e1 as usize][o1 as usize] = p2;
        }
    }

    /// Overwrites the incrementally-maintained float state with exact bit
    /// patterns captured from a running engine.
    ///
    /// `EngineCore::new` recomputes `S(k)` and the unnormalized distance
    /// *fresh* from integer triangle counts; a live engine maintains them
    /// *incrementally*, so after many accepted swaps the two can differ in
    /// final ULPs. A resumed engine must continue with the incrementally-
    /// maintained values or its accept/reject trajectory could diverge
    /// from the uninterrupted run — checkpoints therefore serialize the
    /// raw `f64` bit patterns and inject them here after reconstruction.
    fn restore_float_state(&mut self, s: &[f64], dist_raw: f64) -> Result<(), String> {
        if s.len() != self.s.len() {
            return Err(format!(
                "clustering-sum length mismatch: checkpoint has {}, engine expects {}",
                s.len(),
                self.s.len()
            ));
        }
        self.s.copy_from_slice(s);
        self.dist_raw = dist_raw;
        Ok(())
    }

    /// Replaces the freshly constructed degree buckets with a checkpointed
    /// ordering, validating consistency with the current slots/degrees and
    /// rebuilding the position index.
    ///
    /// Bucket *membership* is recomputable from (slots, degrees), but the
    /// order of entries within a bucket is not: `commit_slot_swap` moves
    /// entries between buckets in place, and `pick_swap`'s partner draw
    /// indexes into a bucket — so the within-bucket order is part of the
    /// resume-fidelity state.
    fn restore_bucket_state(&mut self, buckets: Vec<Vec<(u32, u8)>>) -> Result<(), String> {
        if buckets.len() != self.buckets.len() {
            return Err(format!(
                "bucket count mismatch: checkpoint has {}, engine expects {}",
                buckets.len(),
                self.buckets.len()
            ));
        }
        let mut seen = vec![[false; 2]; self.slots.len()];
        let mut total = 0usize;
        for (k, bucket) in buckets.iter().enumerate() {
            for &(slot, side) in bucket {
                let (slot_us, side_us) = (slot as usize, side as usize);
                if slot_us >= self.slots.len() || side_us >= 2 {
                    return Err(format!("bucket entry ({slot}, {side}) out of range"));
                }
                if std::mem::replace(&mut seen[slot_us][side_us], true) {
                    return Err(format!("duplicate bucket entry ({slot}, {side})"));
                }
                let node = endpoint(self.slots[slot_us], side);
                if self.deg[node as usize] as usize != k {
                    return Err(format!(
                        "bucket entry ({slot}, {side}) has degree {} but sits in bucket {k}",
                        self.deg[node as usize]
                    ));
                }
                total += 1;
            }
        }
        if total != 2 * self.slots.len() {
            return Err(format!(
                "bucket entry count {total} != {}",
                2 * self.slots.len()
            ));
        }
        for bucket in &buckets {
            for (i, &(slot, side)) in bucket.iter().enumerate() {
                self.pos[slot as usize][side as usize] = i as u32;
            }
        }
        self.buckets = buckets;
        Ok(())
    }

    /// Consistency check used by tests: recomputes every maintained
    /// quantity from scratch and compares.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.idx
            .validate_against(&self.graph)
            .map_err(|e| format!("index: {e}"))?;
        let t_fresh = triangle_counts_with_index(&self.graph, &self.idx);
        for (u, (&have, &want)) in self.t.iter().zip(t_fresh.iter()).enumerate() {
            if have != want as i64 {
                return Err(format!("t[{u}] = {have}, recount = {want}"));
            }
        }
        for (u, &d) in self.deg.iter().enumerate() {
            if self.graph.degree(u as NodeId) != d as usize {
                return Err(format!("degree of {u} changed"));
            }
        }
        // Slots must all exist in the graph.
        let mut counts: FxHashMap<(NodeId, NodeId), u32> = FxHashMap::default();
        for &(a, b) in &self.slots {
            let key = if a <= b { (a, b) } else { (b, a) };
            *counts.entry(key).or_insert(0) += 1;
        }
        for (&(a, b), &c) in counts.iter() {
            if self.idx.get(a, b) < c {
                return Err(format!("slot edge ({a},{b}) ×{c} missing from graph"));
            }
        }
        // Bucket positions are mutually consistent.
        for (slot, sides) in self.pos.iter().enumerate() {
            for (side, &p) in sides.iter().enumerate() {
                let node = endpoint(self.slots[slot], side as u8);
                let k = self.deg[node as usize] as usize;
                if self.buckets[k].get(p as usize) != Some(&(slot as u32, side as u8)) {
                    return Err(format!("bucket pos broken for slot {slot} side {side}"));
                }
            }
        }
        // Distance matches a fresh computation.
        let mut raw = 0.0f64;
        for k in 0..self.s.len() {
            let cur = if self.nk[k] > 0 {
                self.s[k] / self.nk[k] as f64
            } else {
                0.0
            };
            raw += (cur - self.target[k]).abs();
        }
        if (raw - self.dist_raw).abs() > 1e-6 * raw.abs().max(1.0) {
            return Err(format!(
                "distance drift: cached {} vs fresh {raw}",
                self.dist_raw
            ));
        }
        Ok(())
    }
}

/// Fixed-capacity record of the evaluation's pending edge-multiplicity
/// changes: at most the four unordered pairs a swap can touch. Reads cost
/// a ≤4-element linear probe; no heap.
#[derive(Clone, Copy, Debug, Default)]
struct PendingDeltas {
    pairs: [((NodeId, NodeId), i32); 4],
    len: usize,
}

impl PendingDeltas {
    #[inline]
    fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }

    #[inline]
    fn add(&mut self, u: NodeId, v: NodeId, delta: i32) {
        let k = Self::key(u, v);
        for i in 0..self.len {
            if self.pairs[i].0 == k {
                self.pairs[i].1 += delta;
                return;
            }
        }
        debug_assert!(self.len < 4, "a swap touches at most four pairs");
        self.pairs[self.len] = (k, delta);
        self.len += 1;
    }

    #[inline]
    fn delta(&self, u: NodeId, v: NodeId) -> i32 {
        let k = Self::key(u, v);
        for i in 0..self.len {
            if self.pairs[i].0 == k {
                return self.pairs[i].1;
            }
        }
        0
    }
}

/// The evaluate-then-commit rewiring engine. Owns the graph while
/// rewiring; [`into_graph`](RewireEngine::into_graph) releases it.
///
/// See the module docs for the design; the apply-rollback baseline lives
/// in [`reference::ApplyRollbackEngine`] and is bitwise-equivalent in
/// decisions, final edge multiset, and final distance.
pub struct RewireEngine {
    core: EngineCore,
    /// Per-node triangle deltas of the attempt under evaluation.
    scratch_t: ScratchAccum<i64>,
    /// Predicted per-degree sums `S'(k)` of the attempt under evaluation.
    scratch_s: ScratchAccum<f64>,
    /// Node-sorted `(node, Δt)` pairs (reused across attempts).
    pairs: Vec<(NodeId, i64)>,
}

impl RewireEngine {
    /// Creates an engine over `graph` with rewirable edge multiset
    /// `candidates` (each entry one edge instance present in the graph)
    /// and target clustering `target_c` (indexed by degree).
    ///
    /// For the proposed method, `candidates` is the set of edges *added*
    /// by the construction phase; for Gjoka et al.'s method it is every
    /// edge of the graph.
    pub fn new(graph: Graph, candidates: Vec<(NodeId, NodeId)>, target_c: &[f64]) -> Self {
        let core = EngineCore::new(graph, candidates, target_c);
        let n = core.graph.num_nodes();
        let degrees = core.s.len();
        let touched = core.max_touched();
        Self {
            core,
            scratch_t: ScratchAccum::with_keys(n),
            scratch_s: ScratchAccum::with_keys(degrees),
            pairs: Vec::with_capacity(touched),
        }
    }

    /// Current normalized distance `D` (unnormalized L1 if the target has
    /// zero mass).
    pub fn distance(&self) -> f64 {
        self.core.distance()
    }

    /// Runs `R = ceil(rc · |Ẽ_rew|)` attempts (§IV-E; the paper uses
    /// `R_C = 500`).
    pub fn run(&mut self, rc: f64, rng: &mut Xoshiro256pp) -> RewireStats {
        let attempts = (rc * self.core.slots.len() as f64).ceil() as u64;
        self.run_attempts(attempts, rng)
    }

    /// Runs exactly `attempts` swap attempts, with the same picks,
    /// decisions and final RNG position as `attempts` calls of
    /// [`attempt`](Self::attempt).
    ///
    /// Up to `LOOKAHEAD` = 8 drawn picks wait in a stack ring while the
    /// head is evaluated and decided as `attempt` does, so the waiting
    /// picks' cold reads can be prefetched (see the module docs'
    /// per-attempt complexity). An accept voids the waiting picks: `rng`
    /// rewinds to the first one's checkpoint. The ring never draws past
    /// `attempts`.
    pub fn run_attempts(&mut self, attempts: u64, rng: &mut Xoshiro256pp) -> RewireStats {
        let mut stats = RewireStats {
            attempts,
            initial_distance: self.distance(),
            ..Default::default()
        };
        if self.core.slots.len() < 2 {
            stats.skipped = attempts;
            stats.final_distance = self.distance();
            return stats;
        }
        let mut ring = [Drawn {
            rng_before: [0; 4],
            pick: None,
        }; LOOKAHEAD];
        let (mut head, mut in_flight, mut undrawn) = (0usize, 0usize, attempts);
        loop {
            // Top the ring up, never past the budget.
            while in_flight < LOOKAHEAD && undrawn > 0 {
                let slot = &mut ring[(head + in_flight) % LOOKAHEAD];
                slot.rng_before = rng.state();
                slot.pick = self.core.pick_swap(rng);
                if let Some(p) = &slot.pick {
                    for u in p.endpoints() {
                        self.core.idx.prefetch_header(u);
                    }
                }
                in_flight += 1;
                undrawn -= 1;
            }
            if in_flight == 0 {
                break;
            }
            // The pick halfway to the head: its extents next.
            if in_flight > LOOKAHEAD / 2 {
                if let Some(p) = &ring[(head + LOOKAHEAD / 2) % LOOKAHEAD].pick {
                    for u in p.endpoints() {
                        self.core.idx.prefetch_extent(u);
                    }
                }
            }
            if undrawn > 0 {
                self.core.prefetch_draws(rng);
            }
            let pick = ring[head].pick;
            head = (head + 1) % LOOKAHEAD;
            in_flight -= 1;
            if pick.is_some_and(|p| self.evaluate_and_decide(&p)) {
                stats.accepted += 1;
                if in_flight > 0 {
                    // The commit moved slots and bucket entries, so the
                    // picks drawn against the old state are void: redraw
                    // them from the first one's checkpoint.
                    *rng = Xoshiro256pp::from_state(ring[head].rng_before);
                    undrawn += in_flight as u64;
                    in_flight = 0;
                }
            } else {
                stats.skipped += 1; // rejected or structurally skipped
            }
        }
        stats.final_distance = self.distance();
        stats
    }

    /// One swap attempt; returns whether it was accepted. Rejected
    /// attempts perform no graph/index/cache mutations and no heap
    /// allocations.
    pub fn attempt(&mut self, rng: &mut Xoshiro256pp) -> bool {
        self.core
            .pick_swap(rng)
            .is_some_and(|p| self.evaluate_and_decide(&p))
    }

    /// Evaluates `pick` read-only against the live state, then decides
    /// it, committing on accept. The step both [`attempt`](Self::attempt)
    /// and [`run_attempts`](Self::run_attempts) take per pick.
    fn evaluate_and_decide(&mut self, pick: &SwapPick) -> bool {
        let mutations_before = self.core.idx.mutation_count();
        self.pairs.clear();
        evaluate_swap(&self.core, pick, &mut self.scratch_t, &mut self.pairs);
        let accepted = self.core.decide(pick, &self.pairs, &mut self.scratch_s);
        // Rejected: nothing was mutated — assert it.
        debug_assert!(accepted || self.core.idx.mutation_count() == mutations_before);
        accepted
    }

    /// Releases the rewired graph.
    pub fn into_graph(self) -> Graph {
        self.core.graph
    }

    /// Appends the engine's resumable state to a checkpoint payload, read
    /// in place (no copy of the graph); [`RewireState::decode`] reads it
    /// back.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        let core = &self.core;
        w.put_graph(&core.graph);
        w.put_pairs(&core.slots);
        w.put_f64_slice(&core.s);
        w.put_f64(core.dist_raw);
        w.put_u64(core.buckets.len() as u64);
        for bucket in &core.buckets {
            let packed: Vec<u64> = bucket
                .iter()
                .map(|&(slot, side)| ((slot as u64) << 32) | side as u64)
                .collect();
            w.put_u64_slice(&packed);
        }
    }

    /// Rebuilds the engine a [`RewireState`] was captured from, against
    /// the same target: the integer state is recomputed from the graph,
    /// then the checkpointed float sums and bucket order are injected.
    /// A state that does not fit the target or its own slots is
    /// [`SnapshotError::Corrupt`].
    pub fn resume(state: RewireState, target_c: &[f64]) -> Result<Self, SnapshotError> {
        let RewireState {
            graph,
            slots,
            s,
            dist_raw,
            buckets,
        } = state;
        let mut engine = Self::new(graph, slots, target_c);
        let core = &mut engine.core;
        core.restore_float_state(&s, dist_raw)
            .map_err(SnapshotError::Corrupt)?;
        core.restore_bucket_state(buckets)
            .map_err(SnapshotError::Corrupt)?;
        Ok(engine)
    }

    /// Consistency check used by tests: recomputes every maintained
    /// quantity from scratch and compares.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()
    }
}

/// A rewiring engine's resumable state, as a mid-rewire checkpoint
/// carries it: the evolving graph's adjacency *in list order*, the
/// candidate slots, the incrementally maintained `S(k)` and distance as
/// exact bit patterns, and the degree buckets in their *current* order.
/// All five are needed for a bitwise-identical resume — sums recomputed
/// from the graph can differ in final ULPs, and fresh slot-order buckets
/// would desynchronize the partner draws.
///
/// [`RewireEngine::encode_state`] writes it straight from a live engine,
/// [`decode`](Self::decode) reads it back, and [`RewireEngine::resume`]
/// continues from it.
pub struct RewireState {
    graph: Graph,
    slots: Vec<(NodeId, NodeId)>,
    s: Vec<f64>,
    dist_raw: f64,
    buckets: Vec<Vec<(u32, u8)>>,
}

impl RewireState {
    /// Reads a state written by [`RewireEngine::encode_state`]. Lengths
    /// and bucket entries are checked against the target only on
    /// resume; here a malformed entry is [`SnapshotError::Corrupt`].
    pub fn decode(r: &mut PayloadReader<'_>) -> Result<Self, SnapshotError> {
        let graph = r.get_graph()?;
        let slots = r.get_pairs()?;
        let s = r.get_f64_slice()?;
        let dist_raw = r.get_f64()?;
        let n_buckets = r.get_u64()? as usize;
        let mut buckets: Vec<Vec<(u32, u8)>> = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let packed = r.get_u64_slice()?;
            let mut bucket = Vec::with_capacity(packed.len());
            for p in packed {
                let side = p & 0xffff_ffff;
                if side > 1 {
                    return Err(SnapshotError::Corrupt(format!(
                        "bucket entry side must be 0 or 1, found {side}"
                    )));
                }
                bucket.push(((p >> 32) as u32, side as u8));
            }
            buckets.push(bucket);
        }
        Ok(Self {
            graph,
            slots,
            s,
            dist_raw,
            buckets,
        })
    }
}

/// Evaluates `pick` **read-only** against `core`: emulates the four edge
/// toggles, accumulating per-node triangle deltas into `scratch_t`, and
/// appends the node-sorted `(node, Δt)` list to `pairs`, ready for
/// `EngineCore::decide`.
fn evaluate_swap(
    core: &EngineCore,
    pick: &SwapPick,
    scratch_t: &mut ScratchAccum<i64>,
    pairs: &mut Vec<(NodeId, i64)>,
) {
    scratch_t.begin();
    let mut pending = PendingDeltas::default();
    let specials = pick.endpoints();
    eval_toggle(
        core,
        scratch_t,
        pick.vi,
        pick.vj,
        -1,
        &mut pending,
        &specials,
    );
    eval_toggle(
        core,
        scratch_t,
        pick.vi2,
        pick.vj2,
        -1,
        &mut pending,
        &specials,
    );
    eval_toggle(
        core,
        scratch_t,
        pick.vi,
        pick.vj2,
        1,
        &mut pending,
        &specials,
    );
    eval_toggle(
        core,
        scratch_t,
        pick.vi2,
        pick.vj,
        1,
        &mut pending,
        &specials,
    );
    scratch_t.sort_touched();
    for i in 0..scratch_t.touched().len() {
        let node = scratch_t.touched()[i];
        pairs.push((node, scratch_t.get(node)));
    }
}

/// Emulates one edge toggle (`sign = ±1` copy of `{u, v}`) against the
/// effective adjacency (index ⊕ pending deltas), accumulating triangle
/// deltas into `scratch_t`. Mirrors the reference's mutating
/// `toggle_edge` exactly: removals are scanned on the state *without*
/// the removed copy, additions likewise.
///
/// Pending deltas only ever involve the swap's four endpoints, so the
/// scan splits into a **fast path** — the branchless merge-intersection
/// of the two raw neighbor slices
/// ([`MultiplicityIndex::for_each_common`]), which needs no pending
/// probes at all — and a ≤2-node **special path** for the endpoints not
/// on this edge, probed under the effective adjacency on both sides
/// (covering neighbors that exist only as pending additions). Every
/// contribution is an exact integer, so the split changes nothing about
/// the resulting deltas.
fn eval_toggle(
    core: &EngineCore,
    scratch_t: &mut ScratchAccum<i64>,
    u: NodeId,
    v: NodeId,
    sign: i64,
    pending: &mut PendingDeltas,
    specials: &[NodeId; 4],
) {
    if u == v {
        // A self-loop slot being dissolved (or, never in practice,
        // created): loops take part in no triangle.
        pending.add(u, u, if sign < 0 { -2 } else { 2 });
        return;
    }
    if sign < 0 {
        pending.add(u, v, -1);
    }
    // The swap's endpoints not on this edge — the only nodes whose
    // adjacency to u/v can be shifted by pending deltas.
    let mut o = [u; 2];
    let mut no = 0usize;
    for &s in specials {
        if s != u && s != v && !o[..no].contains(&s) {
            o[no] = s;
            no += 1;
        }
    }
    let (o0, o1) = (o[0], o[no.min(1)]);
    let mut common = 0i64;
    // Fast path: raw common neighbors of u and v, excluding the toggled
    // pair itself and the special nodes (handled below).
    core.idx.for_each_common(u, v, |w, a_uw, a_vw| {
        if w == u || w == v || w == o0 || w == o1 {
            return;
        }
        let prod = a_uw as i64 * a_vw as i64;
        common += prod;
        scratch_t.add(w, sign * prod);
    });
    // Special path: effective adjacency (raw ⊕ pending) on both sides.
    for &w in &o[..no] {
        let a_uw = core.idx.get(u, w) as i64 + pending.delta(u, w) as i64;
        if a_uw <= 0 {
            continue;
        }
        let a_vw = core.idx.get(v, w) as i64 + pending.delta(v, w) as i64;
        if a_vw <= 0 {
            continue;
        }
        let prod = a_uw * a_vw;
        common += prod;
        scratch_t.add(w, sign * prod);
    }
    scratch_t.add(u, sign * common);
    scratch_t.add(v, sign * common);
    if sign > 0 {
        pending.add(u, v, 1);
    }
}

/// Applies one structural edge toggle to graph + index, with no triangle
/// bookkeeping (the deltas were already evaluated).
fn apply_structural(core: &mut EngineCore, u: NodeId, v: NodeId, sign: i64) {
    if sign < 0 {
        core.graph.remove_edge(u, v);
        core.idx.remove_edge(u, v);
    } else {
        core.graph.add_edge(u, v);
        core.idx.add_edge(u, v);
    }
}

#[inline]
fn endpoint(e: (NodeId, NodeId), side: u8) -> NodeId {
    if side == 0 {
        e.0
    } else {
        e.1
    }
}

#[inline]
fn set_endpoint(e: &mut (NodeId, NodeId), side: u8, node: NodeId) {
    if side == 0 {
        e.0 = node;
    } else {
        e.1 = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::joint_degree_matrix;
    use sgr_props::local::LocalProperties;

    fn social(seed: u64) -> Graph {
        sgr_gen::holme_kim(300, 3, 0.6, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn rewiring_preserves_dv_and_jdm() {
        let g = social(1);
        let dv_before = g.degree_vector();
        let jdm_before = joint_degree_matrix(&g);
        let edges: Vec<_> = g.edges().collect();
        // Target: zero clustering everywhere (forces lots of accepted
        // swaps that destroy triangles).
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let stats = eng.run_attempts(5_000, &mut rng);
        assert!(stats.accepted > 0, "no swap accepted");
        assert!(stats.final_distance < stats.initial_distance);
        eng.validate().unwrap();
        let g2 = eng.into_graph();
        assert_eq!(g2.degree_vector(), dv_before);
        assert_eq!(joint_degree_matrix(&g2), jdm_before);
        g2.validate().unwrap();
    }

    #[test]
    fn rewiring_toward_own_clustering_is_a_fixed_point_distance_zero() {
        let g = social(3);
        let props = LocalProperties::compute(&g);
        let edges: Vec<_> = g.edges().collect();
        let eng = RewireEngine::new(g, edges, &props.clustering_by_degree);
        assert!(eng.distance() < 1e-9, "D = {}", eng.distance());
    }

    #[test]
    fn rewiring_improves_toward_foreign_target() {
        // Target 50% of own clustering — achievable by destroying
        // triangles.
        let g = social(4);
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 0.5)
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let mut eng = RewireEngine::new(g, edges, &target);
        let d0 = eng.distance();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        eng.run_attempts(20_000, &mut rng);
        let d1 = eng.distance();
        assert!(d1 < 0.5 * d0, "D went from {d0} to {d1}");
        eng.validate().unwrap();
    }

    #[test]
    fn protected_edges_survive() {
        let g = social(6);
        // Protect the first half of the edges; only the rest rewirable.
        let all: Vec<_> = g.edges().collect();
        let (protected, candidates) = all.split_at(all.len() / 2);
        let protected: Vec<_> = protected.to_vec();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, candidates.to_vec(), &target);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        eng.run_attempts(10_000, &mut rng);
        eng.validate().unwrap();
        let g2 = eng.into_graph();
        // Every protected edge still present (as a multiset lower bound).
        let mut need: FxHashMap<(NodeId, NodeId), u32> = FxHashMap::default();
        for &(a, b) in &protected {
            *need.entry((a, b)).or_insert(0) += 1;
        }
        let idx = MultiplicityIndex::build(&g2);
        for (&(a, b), &c) in need.iter() {
            assert!(
                idx.get(a, b) >= c,
                "protected edge ({a},{b}) ×{c} lost (have {})",
                idx.get(a, b)
            );
        }
    }

    #[test]
    fn engine_state_stays_consistent_across_many_attempts() {
        let g = social(8);
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 0.7)
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let mut eng = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for round in 0..10 {
            eng.run_attempts(500, &mut rng);
            eng.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn no_candidates_is_a_noop() {
        let g = social(10);
        let before: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, Vec::new(), &target);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let stats = eng.run(500.0, &mut rng);
        assert_eq!(stats.accepted, 0);
        let g2 = eng.into_graph();
        assert_eq!(g2.edges().collect::<Vec<_>>(), before);
    }

    #[test]
    fn run_scales_attempts_by_rc() {
        let g = social(12);
        let m = g.num_edges() as u64;
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let stats = eng.run(2.0, &mut rng);
        assert_eq!(stats.attempts, 2 * m);
    }

    /// A state's trip through a checkpoint payload: encode, then decode.
    fn round_trip(eng: &RewireEngine) -> RewireState {
        let mut w = PayloadWriter::new();
        eng.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        let state = RewireState::decode(&mut r).unwrap();
        r.finish().unwrap();
        state
    }

    /// Resuming an engine from its encoded state mid-run — graph
    /// adjacency (order-preserving), slots, the float state's exact bit
    /// patterns and the bucket order — continues the run
    /// bitwise-identically. This is the fidelity contract the crash-safe
    /// checkpoints in `sgr-core` build on.
    #[test]
    fn snapshot_and_resume_is_bitwise_identical() {
        let g = social(16);
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 0.4)
            .collect();
        let edges: Vec<_> = g.edges().collect();

        // Uninterrupted run.
        let mut full = RewireEngine::new(g.clone(), edges.clone(), &target);
        let mut rng_full = Xoshiro256pp::seed_from_u64(17);
        let full_stats = full.run_attempts(6_000, &mut rng_full);
        assert!(full_stats.accepted > 0);

        // Interrupted run: stop after 2_500 attempts, capture state…
        let mut first = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        first.run_attempts(2_500, &mut rng);
        let state = round_trip(&first);
        let rng_state = rng.state();
        drop(first); // …the "crash"

        // …and resume from the captured state only.
        let mut resumed = RewireEngine::resume(state, &target).unwrap();
        let mut rng = Xoshiro256pp::from_state(rng_state);
        resumed.run_attempts(3_500, &mut rng);
        resumed.validate().unwrap();

        assert_eq!(full.distance().to_bits(), resumed.distance().to_bits());
        let mut a: Vec<_> = full.into_graph().edges().collect();
        let mut b: Vec<_> = resumed.into_graph().edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "edge multisets diverged after resume");
    }

    #[test]
    fn restore_float_state_rejects_length_mismatch() {
        let g = social(18);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let eng = RewireEngine::new(g, edges, &target);
        let state = round_trip(&eng);
        // A longer target widens S(k): the checkpointed sums no longer fit.
        let wider = vec![0.0; target.len() + 1];
        assert!(matches!(
            RewireEngine::resume(state, &wider),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn loop_dissolving_swaps_stay_consistent() {
        // Build a graph with self-loops among the candidates: loops and
        // multi-edges arise from stub matching in the real pipeline.
        let mut g = social(14);
        let a = 0 as NodeId;
        g.add_edge(a, a);
        g.add_edge(a, a);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        eng.run_attempts(20_000, &mut rng);
        eng.validate().unwrap();
    }
}
