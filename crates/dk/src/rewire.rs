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
//! 0. **Gather, and the disjointness filter.** Most picks cannot
//!    matter: the swap creates and destroys no triangle. Every toggled edge joins a node of
//!    `{v_i, v_{i'}}` to a node of `{v_j, v_{j'}}`, so a triangle a toggle
//!    creates or destroys has a third node `w` adjacent to one node of
//!    each pair. If `w` is not an endpoint, its adjacency is raw, so `w`
//!    lies in both `N(v_i) ∪ N(v_{i'})` and `N(v_j) ∪ N(v_{j'})`. If
//!    `w = v_{i'}`, it needs the never-toggled edge `v_i v_{i'}`, so
//!    `v_{i'} ∈ N(v_i)`, and slot `e2` puts `v_{i'} ∈ N(v_{j'})`; the
//!    cases `w = v_i`, `v_j`, `v_{j'}` are the same with the roles
//!    exchanged. A loop slot (`v_i = v_j`, or `v_{i'} = v_{j'}`) puts that
//!    node's nonempty neighbour list in both unions, and a pick with
//!    `v_i = v_{i'}` leaves the multigraph as it was. So when the unions
//!    are disjoint every `Δt` is 0, `D` would change by exactly `0.0`,
//!    and the pick is rejected. [`MultiplicityIndex::gather_shared`]
//!    marks the hashes of the shorter union's keys in an engine-owned
//!    16 KiB table and probes it with the other's, collecting each probe
//!    key that hits a mark: every shared node, plus the odd hash
//!    collision. An empty gather skips the evaluation below and its
//!    decision altogether. A collision only lets a neutral pick through
//!    to an ordinary evaluation, so picks, RNG stream and decisions are
//!    unchanged. The apply-rollback reference, the oracle, has no filter.
//! 1. **Read-only evaluation.** The four toggles (remove `(v_i, v_j)`,
//!    remove `(v_{i'}, v_{j'})`, add `(v_i, v_{j'})`, add `(v_{i'}, v_j)`)
//!    change only pairs among the four endpoints. So every other node `w`
//!    sees raw adjacency throughout, and its triangle delta has a closed
//!    form, `Δt_w = (A_{v_i w} − A_{v_{i'} w})·(A_{v_{j'} w} − A_{v_j w})`
//!    up to the removal terms of loop slots, which count nothing. Only a
//!    shared node can have `Δt_w ≠ 0`, so the gathered keys, sorted and
//!    deduplicated, are all the evaluation reads: four index lookups per
//!    key give every such `Δt_w` in ascending `w`, and per toggle the sum
//!    `Σ_w A_uw·A_vw` (a collision's key reads a zero on one side and
//!    adds nothing). The ≤ 4 endpoints then replay the toggles in
//!    sequence against a 4×4 *effective adjacency* (the index's values
//!    among them, with the toggles emulated so far applied), so the
//!    interaction terms between toggles (e.g. the `A_{v_j v_{j'}}` and
//!    `A_{v_i v_{i'}}` corrections) fall out arithmetically: each toggle
//!    sees exactly the intermediate state the sequential reference sees,
//!    and the per-node triangle deltas `Δt_i` match the reference integer
//!    for integer.
//! 2. **Decision.** The nonzero `Δt` entries are summed per degree into
//!    exact integer changes `ΔT_k` of `T_k = Σ_{deg i = k} t_i`, and the
//!    swap's change of `D` is `Σ_k [term(k, T_k + ΔT_k) − term(k, T_k)]`
//!    over the changed degrees in ascending `k`, where
//!    `term(k, T) = |2T / (n_k k(k−1)) − ĉ̄(k)|` (`EngineCore::fold_decide`,
//!    shared verbatim with the reference; `EngineCore::decide` wraps it
//!    with the commit). The swap is accepted iff that change is negative,
//!    so a swap whose `ΔT_k` are all zero changes `D` by exactly `0.0` and
//!    is rejected.
//! 3. **Commit.** Only on accept are the index (the engine's only
//!    adjacency), `t`, `T_k` and the candidate-slot bookkeeping mutated —
//!    four toggles with **no** common-neighbor scans, since the deltas are
//!    already known. Rejected attempts touch no shared state at all, which
//!    a debug-build mutation counter on the index asserts.
//!
//! All per-attempt working memory is the gather's fixed table, the
//! gathered keys (at most `2·k_max`) and a `(node, Δt)` list, each
//! reserved once to its worst case, a per-degree
//! [`sgr_util::scratch::ScratchAccum`] for the decision, and fixed-size
//! arrays on the stack; nothing is sized by the node count. The
//! multiplicity index updates in place inside fixed per-node extents, so
//! every attempt — rejected or accepted — performs **zero heap
//! allocations**.
//!
//! # Per-attempt complexity
//!
//! Every pick pays one gather: a hashed mark or probe per key of the four
//! endpoints' extents, O(d̃_i + d̃_{i'} + d̃_j + d̃_{j'}) against a table
//! that stays in cache, and no clearing pass (each pick marks with a
//! fresh epoch; the table is zeroed once every 255 picks). On the
//! pipeline's own inputs most picks stop there (their unions are
//! disjoint), and a filtered attempt costs nothing more. A pick that
//! passes costs an evaluation of its γ gathered keys on top — a few on
//! those inputs: a sort, four binary-searched lookups per key in
//! extents the gather has just read, at most six lookups among the
//! endpoints, and a fold over the τ nonzero `Δt` entries (O(τ) plus a
//! sort of the few touched degrees). Only the gather reads an extent
//! through.
//! An accepted attempt adds four scan-free index toggles and O(1)
//! slot/bucket bookkeeping. The apply-rollback reference pays an
//! iterate-and-probe evaluation *plus* eight mutating toggles (four of
//! them pure waste on rejection) and two hash maps' worth of allocation
//! per attempt.
//!
//! Once the index outgrows the caches, those operation counts matter
//! less than *waiting*: a pick's draw is a chain of dependent cold loads
//! (`slots[e1]`, the degree of `v_i`, a bucket entry, `slots[e2]`), and
//! its four extents are cold until the gather reads them (the lookups
//! that follow find them warm). About 98% of attempts commit nothing,
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
//! The contract rests on two pillars:
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
//! 2. **A decision is a pure function of the graph and the pick.** A
//!    swap's effect is a set of per-node triangle deltas `Δt_i` and their
//!    per-degree sums `ΔT_k` — exact `i64`s, so neither how the engines
//!    find them (the reference applies four toggles, iterating and
//!    probing; the engine reads each extent once in its gather) nor the
//!    order they are summed in matters. The one float fold reads only
//!    `T_k`, `n_k` and the target, degree by degree in ascending `k`, and
//!    the engines carry no float state across commits: `T_k` is the exact
//!    per-degree sum of the current graph's triangle counts, and `D`
//!    itself is a fresh fold over it ([`RewireEngine::distance`]). So
//!    accept/reject decisions — and therefore the distance trajectory —
//!    are bit-for-bit reproducible, and an engine resumed from a graph in
//!    any list order rebuilds the same index, decides exactly as the
//!    uninterrupted one, and ends on the same graph, list for list.
//!
//! Only the ring's *picks* are ever speculative, never its evaluations:
//! the head is evaluated and decided against the live state, exactly as
//! [`RewireEngine::attempt`] does. So the two engines agree attempt for
//! attempt, however `run_attempts` calls are chunked.

use sgr_graph::index::{GatherTable, MultiplicityIndex};
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
    /// Attempts not accepted: `attempts − accepted`. Counts structural
    /// skips (no equal-degree partner, a self-loop or a no-op swap),
    /// filtered picks and evaluated rejections alike.
    pub skipped: u64,
    /// Picks the disjointness filter rejected without evaluating them
    /// (all counted in `skipped` too; always 0 for the apply-rollback
    /// reference, which has no filter). A diagnostic only: checkpoints do
    /// not carry it, so a resumed run counts from its resume point.
    pub filtered: u64,
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

/// Slots of the gather's hash table ([`GatherTable`], one byte each, a
/// power of two), small enough to stay cache-resident. On the 100k-node
/// pipeline input (perfbench `hk100k-rc20`, seed 1) 16.8% of picks gather
/// a key where 13.3% share a node; a 4096-slot table passes 24.4%. The
/// engine zeroes it once every 255 picks.
const FILTER_BYTES: usize = 1 << 14;

/// What [`RewireEngine::evaluate_and_decide`] did with a pick.
#[derive(PartialEq)]
enum Verdict {
    /// Rejected by the disjointness filter, never evaluated.
    Filtered,
    /// Evaluated and rejected.
    Rejected,
    /// Evaluated, accepted and committed.
    Accepted,
}

/// One entry of the lookahead ring: a drawn pick (`None` = structurally
/// skipped) and the RNG state from before its draws.
#[derive(Clone, Copy)]
struct Drawn {
    rng_before: [u64; 4],
    pick: Option<SwapPick>,
}

/// State shared by the evaluate-then-commit engine and the apply-rollback
/// reference: the evolving multigraph's index (its only adjacency), exact
/// triangle counts per node and per degree, and the slot bookkeeping.
///
/// Every routine that influences an accept/reject decision lives here and
/// is executed by both engines with identical RNG-draw order, which —
/// with decisions that are pure functions of the graph and the pick —
/// is what makes the two bitwise-equivalent.
pub(crate) struct EngineCore {
    pub(crate) idx: MultiplicityIndex,
    /// Per-node triangle counts `t_i` (signed for incremental updates).
    pub(crate) t: Vec<i64>,
    /// Node degrees (invariant under rewiring).
    pub(crate) deg: Vec<u32>,
    /// `n(k)` — number of nodes of each degree.
    pub(crate) nk: Vec<u64>,
    /// `T_k = Σ_{deg i = k} t_i`, so `c̄(k) = 2 T_k / (n(k) k (k-1))`.
    pub(crate) tk: Vec<i64>,
    /// Target `ĉ̄(k)`, zero-padded to the degree range.
    pub(crate) target: Vec<f64>,
    /// `Σ_k ĉ̄(k)` — the normalization of `D`.
    pub(crate) norm: f64,
    /// Candidate edge slots (the rewirable multiset `Ẽ_rew`).
    pub(crate) slots: Vec<(NodeId, NodeId)>,
    /// Degree buckets in one flat array: bucket `k`,
    /// `buckets[bucket_offs[k] .. bucket_offs[k + 1]]`, holds the
    /// (slot, side) entries whose endpoint has degree `k`, each packed as
    /// `slot << 1 | side` ([`pack_entry`]). Entries move between buckets
    /// only by exchanging places, so the offsets never change.
    pub(crate) bucket_offs: Vec<u32>,
    pub(crate) buckets: Vec<u32>,
    /// `pos[slot][side]` — index of that (slot, side) in `buckets`.
    pub(crate) pos: Vec<[u32; 2]>,
}

impl EngineCore {
    /// Builds the engine state from scratch: the multiplicity index and
    /// the degrees (then `graph` is dropped), the per-node triangle counts
    /// `t` from one degree-ordered triangle pass
    /// ([`sgr_props::triangles`] — each triangle found once, O(m̃ √m̃)
    /// rather than O(Σ d̃²)), their per-degree sums `T_k`, and the degree
    /// buckets over the candidate endpoints.
    ///
    /// Buckets are laid out from a per-degree count before they are
    /// filled, and filled in `(slot, side)` order: within-bucket order is
    /// checkpointed state (see [`RewireState`]), so a fresh engine's
    /// order must never depend on how it was allocated.
    ///
    /// # Panics
    /// Panics if there are `2^31` candidates or more (an entry packs its
    /// slot and side into one `u32`).
    pub(crate) fn new(graph: Graph, candidates: Vec<(NodeId, NodeId)>, target_c: &[f64]) -> Self {
        let idx = MultiplicityIndex::build(&graph);
        let deg: Vec<u32> = graph.nodes().map(|u| graph.degree(u) as u32).collect();
        drop(graph);
        let t: Vec<i64> = triangle_counts_with_index(&idx)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let k_max = deg.iter().copied().max().unwrap_or(0) as usize;
        let k_cap = k_max.max(target_c.len().saturating_sub(1));
        let mut nk = vec![0u64; k_cap + 1];
        for &d in &deg {
            nk[d as usize] += 1;
        }
        let tk = per_degree_sums(&t, &deg, k_cap + 1);
        let mut target = vec![0.0f64; k_cap + 1];
        for (k, &c) in target_c.iter().enumerate() {
            if k <= k_cap {
                target[k] = c;
            }
        }
        let norm: f64 = target.iter().sum();
        // Buckets over candidate endpoints: count, lay out, fill.
        assert!(
            candidates.len() < 1 << 31,
            "too many rewiring candidates ({})",
            candidates.len()
        );
        let mut pos = vec![[0u32; 2]; candidates.len()];
        let mut bucket_offs = vec![0u32; k_cap + 2];
        for (sides, &(a, b)) in pos.iter_mut().zip(&candidates) {
            *sides = [deg[a as usize], deg[b as usize]];
            bucket_offs[sides[0] as usize + 1] += 1;
            bucket_offs[sides[1] as usize + 1] += 1;
        }
        for k in 0..=k_cap {
            bucket_offs[k + 1] += bucket_offs[k];
        }
        // `pos` holds each endpoint's degree until its entry is placed.
        let mut fill = bucket_offs.clone();
        let mut buckets = vec![0u32; 2 * candidates.len()];
        for (slot, sides) in pos.iter_mut().enumerate() {
            for (side, p) in sides.iter_mut().enumerate() {
                let at = &mut fill[*p as usize];
                buckets[*at as usize] = pack_entry(slot as u32, side as u8);
                *p = *at;
                *at += 1;
            }
        }
        Self {
            idx,
            t,
            deg,
            nk,
            tk,
            target,
            norm,
            slots: candidates,
            bucket_offs,
            buckets,
            pos,
        }
    }

    /// Bucket `k`'s packed entries.
    #[inline]
    fn bucket(&self, k: usize) -> &[u32] {
        &self.buckets[self.bucket_offs[k] as usize..self.bucket_offs[k + 1] as usize]
    }

    /// Most nodes one swap evaluation can report: it reads only gathered
    /// keys, nodes of `N(v_i) ∪ N(v_{i'})`, and the four endpoints join
    /// them. Sizes the per-attempt `(node, Δt)` list.
    pub(crate) fn max_touched(&self) -> usize {
        self.deg.len().min(2 * self.k_max() + 4)
    }

    /// Most keys one gather can return: the probed union's two extents
    /// before deduplication, each at most its node's degree. Unlike
    /// [`max_touched`](Self::max_touched) it cannot be capped at the node
    /// count, since a key in both extents is gathered twice. Sizes the
    /// per-attempt list of gathered keys.
    pub(crate) fn max_gathered(&self) -> usize {
        2 * self.k_max()
    }

    fn k_max(&self) -> usize {
        self.deg.iter().copied().max().unwrap_or(0) as usize
    }

    /// `|c̄(k) − ĉ̄(k)|` when degree `k`'s triangle sum is `tk`: degree
    /// `k`'s term of the unnormalized distance, a pure function of
    /// `(k, tk)`.
    #[inline]
    fn term(&self, k: usize, tk: i64) -> f64 {
        let pairs = self.nk[k] * k as u64 * (k as u64).saturating_sub(1);
        let cur = if pairs > 0 {
            2.0 * tk as f64 / pairs as f64
        } else {
            0.0
        };
        (cur - self.target[k]).abs()
    }

    /// `D`, folded fresh from the `T_k` in ascending `k` (the unnormalized
    /// L1 if the target has zero mass). O(k_max); the engines call it only
    /// at `run_attempts` boundaries — a decision needs only `D`'s change.
    pub(crate) fn distance(&self) -> f64 {
        let raw: f64 = (0..self.tk.len()).map(|k| self.term(k, self.tk[k])).sum();
        if self.norm > 0.0 {
            raw / self.norm
        } else {
            raw
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
        let bucket = self.bucket(self.deg[vi as usize] as usize);
        if bucket.len() < 2 {
            return None;
        }
        let (e2, side2) = unpack_entry(bucket[rng.gen_range(bucket.len())]);
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
            let bucket = self.bucket(self.deg[vi as usize] as usize);
            if bucket.len() < 2 {
                continue;
            }
            let entry = &bucket[peek.gen_range(bucket.len())];
            if warm == 2 {
                prefetch_read(entry);
            } else {
                prefetch_read(&self.slots[unpack_entry(*entry).0 as usize]);
            }
        }
    }

    /// Folds a swap's per-node triangle deltas into per-degree changes
    /// `ΔT_k` (written into `dtk`) and returns the swap's change of the
    /// unnormalized distance, `Σ_k [term(k, T_k + ΔT_k) − term(k, T_k)]`
    /// over the changed degrees in ascending `k`.
    ///
    /// The `ΔT_k` are exact integers, whatever order `touched` lists its
    /// nodes in, and the float fold reads nothing but them and `T_k`. So
    /// the result is a pure function of the current graph and the swap,
    /// and a swap whose `ΔT_k` are all zero returns exactly `0.0`. Both
    /// engine implementations decide through this one function.
    pub(crate) fn fold_decide(
        &self,
        touched: &[(NodeId, i64)],
        dtk: &mut ScratchAccum<i64>,
    ) -> f64 {
        dtk.begin();
        for &(node, dt) in touched {
            *dtk.entry_or(self.deg[node as usize], 0) += dt;
        }
        dtk.sort_touched();
        let mut delta = 0.0;
        for &k in dtk.touched() {
            let (dt, k) = (dtk.get(k), k as usize);
            if dt != 0 {
                delta += self.term(k, self.tk[k] + dt) - self.term(k, self.tk[k]);
            }
        }
        delta
    }

    /// Commits an accepted decision's cached quantities: per-node triangle
    /// counts from `touched`, per-degree sums from `dtk`.
    pub(crate) fn commit_decision(&mut self, touched: &[(NodeId, i64)], dtk: &ScratchAccum<i64>) {
        for &(node, dt) in touched {
            self.t[node as usize] += dt;
        }
        for &k in dtk.touched() {
            self.tk[k as usize] += dtk.get(k);
        }
    }

    /// Decides an evaluated swap: folds its `Δt` list into the change of
    /// `D` and, iff that is negative, commits it — cached quantities, four
    /// scan-free toggles of the index, and the slot swap. Returns whether
    /// the swap was accepted.
    pub(crate) fn decide(
        &mut self,
        p: &SwapPick,
        touched: &[(NodeId, i64)],
        dtk: &mut ScratchAccum<i64>,
    ) -> bool {
        if self.fold_decide(touched, dtk) < 0.0 {
            self.commit_decision(touched, dtk);
            self.idx.remove_edge(p.vi, p.vj);
            self.idx.remove_edge(p.vi2, p.vj2);
            self.idx.add_edge(p.vi, p.vj2);
            self.idx.add_edge(p.vi2, p.vj);
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
            // (e1, o1) moves to bucket k_j2's place p2, (e2, o2) to bucket
            // k_j's place p1.
            let p1 = self.pos[p.e1 as usize][o1 as usize];
            let p2 = self.pos[p.e2 as usize][o2 as usize];
            self.buckets[p1 as usize] = pack_entry(p.e2, o2);
            self.buckets[p2 as usize] = pack_entry(p.e1, o1);
            self.pos[p.e2 as usize][o2 as usize] = p1;
            self.pos[p.e1 as usize][o1 as usize] = p2;
        }
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
        let num_buckets = self.bucket_offs.len() - 1;
        if buckets.len() != num_buckets {
            return Err(format!(
                "bucket count mismatch: checkpoint has {}, engine expects {num_buckets}",
                buckets.len(),
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
        // Every entry sits in its degree's bucket, once, so each bucket
        // has its fresh size and the offsets stand.
        for (bucket, &start) in buckets.iter().zip(&self.bucket_offs) {
            for (at, &(slot, side)) in (start..).zip(bucket) {
                self.buckets[at as usize] = pack_entry(slot, side);
                self.pos[slot as usize][side as usize] = at;
            }
        }
        Ok(())
    }

    /// Checks that the slots are a sub-multiset of the graph's edges, as
    /// every swap keeps them (a loop slot holds 2 of `A_uu`): a swap
    /// removes its two slot edges from the index.
    fn check_slots(&self) -> Result<(), String> {
        let mut counts: FxHashMap<(NodeId, NodeId), u32> = FxHashMap::default();
        for &(a, b) in &self.slots {
            let key = if a <= b { (a, b) } else { (b, a) };
            *counts.entry(key).or_insert(0) += if a == b { 2 } else { 1 };
        }
        for (&(a, b), &c) in counts.iter() {
            let have = self.idx.get(a, b);
            if have < c {
                return Err(format!(
                    "slots need A_{{{a},{b}}} >= {c}, the graph has {have}"
                ));
            }
        }
        Ok(())
    }

    /// Consistency check used by tests: checks the graph the index
    /// describes and the index's canonical form, then recomputes every
    /// maintained quantity from scratch and compares.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let graph = Graph::from_index(&self.idx);
        graph.validate().map_err(|e| format!("graph: {e}"))?;
        self.idx
            .validate_against(&graph)
            .map_err(|e| format!("index: {e}"))?;
        let t_fresh = triangle_counts_with_index(&self.idx);
        for (u, (&have, &want)) in self.t.iter().zip(t_fresh.iter()).enumerate() {
            if have != want as i64 {
                return Err(format!("t[{u}] = {have}, recount = {want}"));
            }
        }
        for (u, &d) in self.deg.iter().enumerate() {
            if graph.degree(u as NodeId) != d as usize {
                return Err(format!("degree of {u} changed"));
            }
        }
        self.check_slots()?;
        // Bucket positions are mutually consistent.
        for (slot, sides) in self.pos.iter().enumerate() {
            for (side, &p) in sides.iter().enumerate() {
                let node = endpoint(self.slots[slot], side as u8);
                let k = self.deg[node as usize] as usize;
                let in_bucket = (self.bucket_offs[k]..self.bucket_offs[k + 1]).contains(&p);
                if !in_bucket || self.buckets[p as usize] != pack_entry(slot as u32, side as u8) {
                    return Err(format!("bucket pos broken for slot {slot} side {side}"));
                }
            }
        }
        // Per-degree sums match the recount (`t` already does).
        if per_degree_sums(&self.t, &self.deg, self.tk.len()) != self.tk {
            return Err("per-degree triangle sums T_k disagree with the recount".into());
        }
        Ok(())
    }
}

/// `T_k = Σ_{deg u = k} t_u` over `k < len`.
fn per_degree_sums(t: &[i64], deg: &[u32], len: usize) -> Vec<i64> {
    let mut tk = vec![0i64; len];
    for (&tu, &d) in t.iter().zip(deg) {
        tk[d as usize] += tu;
    }
    tk
}

/// The evaluate-then-commit rewiring engine. Holds the graph as an index
/// while rewiring; [`into_graph`](RewireEngine::into_graph) builds it.
///
/// See the module docs for the design; the apply-rollback baseline lives
/// in [`reference::ApplyRollbackEngine`] and is bitwise-equivalent in
/// decisions, final edge multiset, and final distance.
pub struct RewireEngine {
    core: EngineCore,
    /// Per-degree changes `ΔT_k` of the attempt under evaluation.
    scratch_tk: ScratchAccum<i64>,
    /// Node-sorted nonzero `(node, Δt)` pairs of the attempt under
    /// evaluation (reserved to `EngineCore::max_touched` once).
    pairs: Vec<(NodeId, i64)>,
    /// The keys the attempt's gather collected (reserved to
    /// `EngineCore::max_gathered` once).
    shared: Vec<NodeId>,
    /// The gather's hash table ([`MultiplicityIndex::gather_shared`]).
    filter: GatherTable,
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
        let degrees = core.tk.len();
        let (touched, gathered) = (core.max_touched(), core.max_gathered());
        Self {
            core,
            scratch_tk: ScratchAccum::with_keys(degrees),
            pairs: Vec::with_capacity(touched),
            shared: Vec::with_capacity(gathered),
            filter: GatherTable::new(FILTER_BYTES),
        }
    }

    /// Current normalized distance `D` (unnormalized L1 if the target has
    /// zero mass), folded fresh from the per-degree triangle sums: a pure
    /// function of the current graph and the target, O(k_max).
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
            let verdict = pick.map(|p| self.evaluate_and_decide(&p));
            if verdict == Some(Verdict::Accepted) {
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
                stats.filtered += (verdict == Some(Verdict::Filtered)) as u64;
            }
        }
        stats.final_distance = self.distance();
        stats
    }

    /// One swap attempt; returns whether it was accepted. Rejected
    /// attempts perform no index/cache mutations and no heap
    /// allocations.
    pub fn attempt(&mut self, rng: &mut Xoshiro256pp) -> bool {
        self.core
            .pick_swap(rng)
            .is_some_and(|p| self.evaluate_and_decide(&p) == Verdict::Accepted)
    }

    /// Gathers the nodes `pick`'s endpoint unions share and rejects it at
    /// once if there are none, which proves it triangle-neutral (see the
    /// module docs); otherwise evaluates it read-only from the gathered
    /// keys against the live state and decides it, committing on accept.
    /// The step both [`attempt`](Self::attempt) and
    /// [`run_attempts`](Self::run_attempts) take per pick.
    fn evaluate_and_decide(&mut self, pick: &SwapPick) -> Verdict {
        let SwapPick {
            vi, vj, vi2, vj2, ..
        } = *pick;
        self.core
            .idx
            .gather_shared(vi, vi2, vj, vj2, &mut self.filter, &mut self.shared);
        if self.shared.is_empty() {
            return Verdict::Filtered;
        }
        let mutations_before = self.core.idx.mutation_count();
        evaluate_swap(&self.core, pick, &mut self.shared, &mut self.pairs);
        if self.core.decide(pick, &self.pairs, &mut self.scratch_tk) {
            Verdict::Accepted
        } else {
            // Rejected: nothing was mutated — assert it.
            debug_assert_eq!(self.core.idx.mutation_count(), mutations_before);
            Verdict::Rejected
        }
    }

    /// Releases the rewired graph in canonical order (every list
    /// ascending), built from the index after the rest of the engine is
    /// freed, so the two never share the heap.
    pub fn into_graph(self) -> Graph {
        let idx = {
            let core = self.core;
            core.idx
        };
        Graph::from_index(&idx)
    }

    /// Appends the engine's resumable state (the graph, in canonical
    /// order) to a checkpoint payload; [`RewireState::decode`] reads it
    /// back.
    pub fn encode_state(&self, w: &mut PayloadWriter) {
        let core = &self.core;
        w.put_graph(&Graph::from_index(&core.idx));
        w.put_pairs(&core.slots);
        let num_buckets = core.bucket_offs.len() - 1;
        w.put_u64(num_buckets as u64);
        for k in 0..num_buckets {
            let packed: Vec<u64> = core
                .bucket(k)
                .iter()
                .map(|&entry| {
                    let (slot, side) = unpack_entry(entry);
                    ((slot as u64) << 32) | side as u64
                })
                .collect();
            w.put_u64_slice(&packed);
        }
    }

    /// Rebuilds the engine a [`RewireState`] was captured from, against
    /// the same target: everything but the bucket order is recomputed
    /// from the graph and the slots, then the checkpointed bucket order
    /// is injected. A state that does not fit the target or its own slots
    /// (a slot naming a node outside the graph, or an edge the graph does
    /// not hold) is [`SnapshotError::Corrupt`].
    pub fn resume(state: RewireState, target_c: &[f64]) -> Result<Self, SnapshotError> {
        let RewireState {
            graph,
            slots,
            buckets,
        } = state;
        let n = graph.num_nodes();
        if let Some(&(a, b)) = slots.iter().find(|&&(a, b)| a.max(b) as usize >= n) {
            return Err(SnapshotError::Corrupt(format!(
                "slot ({a}, {b}) names a node outside the {n}-node graph"
            )));
        }
        let mut engine = Self::new(graph, slots, target_c);
        let core = &mut engine.core;
        core.check_slots()
            .and_then(|()| core.restore_bucket_state(buckets))
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
/// carries it: the evolving graph's adjacency (in any list order), the
/// candidate slots, and the degree buckets in their *current* order.
/// That is all a bitwise-identical resume needs: the triangle counts and
/// their per-degree sums are exact integers recomputed from the graph,
/// but fresh slot-order buckets would desynchronize the partner draws.
///
/// [`RewireEngine::encode_state`] writes it straight from a live engine,
/// [`decode`](Self::decode) reads it back, and [`RewireEngine::resume`]
/// continues from it.
pub struct RewireState {
    graph: Graph,
    slots: Vec<(NodeId, NodeId)>,
    buckets: Vec<Vec<(u32, u8)>>,
}

impl RewireState {
    /// Reads a state written by [`RewireEngine::encode_state`]. Lengths
    /// and bucket entries are checked against the target only on
    /// resume; here a malformed entry is [`SnapshotError::Corrupt`].
    pub fn decode(r: &mut PayloadReader<'_>) -> Result<Self, SnapshotError> {
        let graph = r.get_graph()?;
        let slots = r.get_pairs()?;
        // Unchecked until resume, so nothing is reserved from it.
        let n_buckets = r.get_u64()?;
        let mut buckets: Vec<Vec<(u32, u8)>> = Vec::new();
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
            buckets,
        })
    }
}

/// Evaluates `pick` **read-only** against `core` and fills `pairs` with
/// the swap's nonzero per-node triangle deltas, node-sorted, ready for
/// `EngineCore::decide`. `shared` holds the keys the pick's gather
/// collected ([`MultiplicityIndex::gather_shared`]); it is sorted and
/// deduplicated in place.
///
/// Only pairs among the four endpoints change, so a node `w` that is not
/// an endpoint sees raw adjacency throughout, and the four toggles move
/// its triangle count by
/// `Δt_w = A_{v_i w}·A_{v_{j'} w} + A_{v_{i'} w}·A_{v_j w}
///        − c1·A_{v_i w}·A_{v_j w} − c2·A_{v_{i'} w}·A_{v_{j'} w}`,
/// where `c1 = [v_i ≠ v_j]` and `c2 = [v_{i'} ≠ v_{j'}]` (a loop slot takes
/// part in no triangle). Every term is zero unless `w` lies in
/// `(N(v_i) ∪ N(v_{i'})) ∩ (N(v_j) ∪ N(v_{j'}))`, and the gather holds
/// every such `w`; a collision's key reads zero on one side and adds
/// nothing. So the gathered keys in ascending order yield those deltas
/// in ascending `w` and, per toggle, the sum of `A_uw·A_vw` over the
/// same `w`. The ≤ 4 endpoints then replay the toggles in sequence
/// against the effective adjacency (`Endpoints::toggle`), and their
/// nonzero deltas are merged into place.
fn evaluate_swap(
    core: &EngineCore,
    pick: &SwapPick,
    shared: &mut Vec<NodeId>,
    pairs: &mut Vec<(NodeId, i64)>,
) {
    let SwapPick {
        vi, vj, vi2, vj2, ..
    } = *pick;
    let ends = pick.endpoints();
    let (c1, c2) = ((vi != vj) as i64, (vi2 != vj2) as i64);
    // Σ_w A_uw·A_vw over the non-endpoint w, per toggle `{u, v}` in
    // `toggles` order below.
    let mut common = [0i64; 4];
    pairs.clear();
    shared.sort_unstable();
    shared.dedup();
    for &w in shared.iter() {
        if ends.contains(&w) {
            continue;
        }
        let [a_i, a_i2, a_j, a_j2] = [vi, vi2, vj, vj2].map(|u| core.idx.get(u, w) as i64);
        let p = [a_i * a_j, a_i2 * a_j2, a_i * a_j2, a_i2 * a_j];
        for (sum, prod) in common.iter_mut().zip(p) {
            *sum += prod;
        }
        let dt = p[2] + p[3] - c1 * p[0] - c2 * p[1];
        if dt != 0 {
            pairs.push((w, dt));
        }
    }
    let mut endpoints = Endpoints::new(&core.idx, ends);
    // Toggle `{ends[p], ends[q]}` with sign, as (p, q, sign).
    let toggles = [(0, 1, -1), (2, 3, -1), (0, 3, 1), (2, 1, 1)];
    for ((p, q, sign), sum) in toggles.into_iter().zip(common) {
        endpoints.toggle(p, q, sign, sum);
    }
    for (k, &node) in ends.iter().enumerate() {
        let dt = endpoints.dt[k];
        if dt != 0 {
            let at = pairs.partition_point(|&(w, _)| w < node);
            pairs.insert(at, (node, dt));
        }
    }
}

/// The swap's endpoints under evaluation, by position in
/// [`SwapPick::endpoints`]. A node listed twice (`v_i == v_{i'}`, or a
/// loop slot's `v_i == v_j`) lives at its first position: `canon` maps
/// every position there, and only first positions hold entries.
struct Endpoints {
    canon: [usize; 4],
    /// Effective adjacency between endpoints: the index's `A_uv` with the
    /// toggles emulated so far applied (zero on the diagonal — loops take
    /// part in no triangle).
    adj: [[i64; 4]; 4],
    /// Triangle delta of each endpoint.
    dt: [i64; 4],
}

impl Endpoints {
    /// Reads the raw adjacency among the (at most six) distinct endpoint
    /// pairs.
    fn new(idx: &MultiplicityIndex, ends: [NodeId; 4]) -> Self {
        let mut canon = [0, 1, 2, 3];
        for k in 1..4 {
            if let Some(first) = ends[..k].iter().position(|&e| e == ends[k]) {
                canon[k] = first;
            }
        }
        let mut adj = [[0i64; 4]; 4];
        for k in 0..4 {
            for l in k + 1..4 {
                if canon[k] == k && canon[l] == l {
                    let a = idx.get(ends[k], ends[l]) as i64;
                    adj[k][l] = a;
                    adj[l][k] = a;
                }
            }
        }
        Self {
            canon,
            adj,
            dt: [0; 4],
        }
    }

    /// Emulates one edge toggle (`sign = ±1` copy of `{ends[p], ends[q]}`)
    /// on the endpoints against the effective adjacency. Mirrors the
    /// reference's mutating `toggle_edge`: removals are scanned on the
    /// state *without* the removed copy, additions likewise, so each
    /// toggle sees exactly the intermediate state the reference sees, and
    /// the interaction terms between toggles (e.g. the `A_{v_j v_{j'}}`
    /// and `A_{v_i v_{i'}}` corrections) fall out arithmetically.
    ///
    /// `common` is the toggle's `Σ A_uw·A_vw` over the common neighbors
    /// that are not endpoints, whose adjacency to `u` and `v` is raw; the
    /// endpoints off this edge add their effective products to it. Every
    /// contribution is an exact integer.
    fn toggle(&mut self, p: usize, q: usize, sign: i64, mut common: i64) {
        let (p, q) = (self.canon[p], self.canon[q]);
        if p == q {
            // A self-loop slot being dissolved (or, never in practice,
            // created): loops take part in no triangle.
            return;
        }
        if sign < 0 {
            self.adj[p][q] -= 1;
            self.adj[q][p] -= 1;
        }
        for k in 0..4 {
            if self.canon[k] == k && k != p && k != q {
                let prod = self.adj[p][k] * self.adj[q][k];
                common += prod;
                self.dt[k] += sign * prod;
            }
        }
        self.dt[p] += sign * common;
        self.dt[q] += sign * common;
        if sign > 0 {
            self.adj[p][q] += 1;
            self.adj[q][p] += 1;
        }
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

/// A bucket entry: candidate `slot`'s endpoint on `side`, as one word.
#[inline]
fn pack_entry(slot: u32, side: u8) -> u32 {
    slot << 1 | side as u32
}

/// The `(slot, side)` of a [`pack_entry`] word.
#[inline]
fn unpack_entry(entry: u32) -> (u32, u8) {
    (entry >> 1, (entry & 1) as u8)
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
    /// adjacency, slots and the bucket order — continues the run
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

    /// The rewired graph is canonical: a resume from a state whose graph
    /// lists every node's neighbours in reverse ends on the uninterrupted
    /// engine's graph neighbour for neighbour, with every list ascending.
    #[test]
    fn resume_from_any_list_order_returns_the_canonical_graph() {
        let g = social(27);
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 0.4)
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let mut full = RewireEngine::new(g.clone(), edges.clone(), &target);
        let stats = full.run_attempts(4_000, &mut Xoshiro256pp::seed_from_u64(28));
        assert!(stats.accepted > 0);

        let mut first = RewireEngine::new(g, edges, &target);
        let mut rng = Xoshiro256pp::seed_from_u64(28);
        first.run_attempts(1_500, &mut rng);
        let mut state = round_trip(&first);
        let reversed = state
            .graph
            .nodes()
            .map(|u| state.graph.neighbors(u).iter().rev().copied().collect())
            .collect();
        state.graph = Graph::from_adjacency(reversed).unwrap();
        let mut resumed = RewireEngine::resume(state, &target).unwrap();
        resumed.run_attempts(2_500, &mut rng);

        let (want, got) = (full.into_graph(), resumed.into_graph());
        assert_eq!(got.num_nodes(), want.num_nodes());
        for u in want.nodes() {
            assert_eq!(got.neighbors(u), want.neighbors(u), "node {u}");
            assert!(got.neighbors(u).is_sorted(), "node {u}");
        }
    }

    /// A false bucket count runs out of payload: a typed error, not an
    /// allocation of the size it claims.
    #[test]
    fn decode_refuses_a_false_bucket_count() {
        let mut w = PayloadWriter::new();
        w.put_graph(&social(29));
        w.put_pairs(&[]);
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        assert!(matches!(
            RewireState::decode(&mut PayloadReader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// A slot a checkpoint's bytes corrupted: one naming a node past the
    /// graph used to index the degree array out of bounds in `resume`,
    /// and one naming a pair the graph does not hold would panic in the
    /// index at its first swap. Both are refused as `Corrupt`.
    #[test]
    fn resume_refuses_slots_outside_the_graph() {
        let g = social(30);
        let n = g.num_nodes() as NodeId;
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let eng = RewireEngine::new(g.clone(), edges, &target);
        let (a, b) = eng.core.slots[0];
        let absent = (0..n)
            .find(|&v| v != a && g.multiplicity(a, v) == 0)
            .unwrap();
        for slot in [(a, b + n), (a, absent), (a, a)] {
            let mut state = round_trip(&eng);
            state.slots[0] = slot;
            match RewireEngine::resume(state, &target) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("slot"), "{msg}"),
                other => panic!("slot {slot:?}: expected Corrupt, got {:?}", other.is_ok()),
            }
        }
    }

    #[test]
    fn resume_rejects_a_target_of_another_width() {
        let g = social(18);
        let edges: Vec<_> = g.edges().collect();
        let target = vec![0.0; g.max_degree() + 1];
        let eng = RewireEngine::new(g, edges, &target);
        let state = round_trip(&eng);
        // A longer target widens the degree range: the checkpointed
        // buckets no longer fit.
        let wider = vec![0.0; target.len() + 1];
        assert!(matches!(
            RewireEngine::resume(state, &wider),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// A decision must not depend on anything but the graph and the pick.
    /// This list moves two equal-degree nodes' triangle counts by `+d` and
    /// `−d`, so every `ΔT_k` is zero and `c̄(k)` cannot change. The search
    /// picks the nodes and `d` so that a float fold of per-node clustering
    /// contributions into `S(k) = Σ 2t_i / (k(k−1))` — the running state
    /// decisions used to read — rounds to a lower distance; `decide` must
    /// still reject the swap and mutate nothing.
    #[test]
    fn decide_rejects_a_swap_whose_degree_sums_do_not_move() {
        let g = social(19);
        let edges: Vec<_> = g.edges().collect();
        let base = EngineCore::new(g.clone(), edges.clone(), &[]);
        let nk = |k: usize| base.nk[k] as f64;
        let contrib = |k: usize, t: i64| 2.0 * t as f64 / (k as f64 * (k as f64 - 1.0));
        let mut s = vec![0.0f64; base.tk.len()];
        for (u, &d) in base.deg.iter().enumerate() {
            if d >= 2 {
                s[d as usize] += contrib(d as usize, base.t[u]);
            }
        }
        // A target met exactly (by that fold) everywhere but at degree
        // `k`, which it misses by `off`: the float distance is then that
        // one term, so the fold registers any rounding of `S(k)`.
        let target_for = |k: usize, off: f64| -> Vec<f64> {
            let mut c: Vec<f64> = (0..s.len())
                .map(|j| if base.nk[j] > 0 { s[j] / nk(j) } else { 0.0 })
                .collect();
            c[k] += off;
            c
        };
        let mut found = None;
        'search: for (k, &sk) in s.iter().enumerate().skip(2) {
            let mut nodes =
                (0..base.deg.len() as NodeId).filter(|&u| base.deg[u as usize] == k as u32);
            let (Some(a), Some(b)) = (nodes.next(), nodes.next()) else {
                continue;
            };
            for d in [1, -1, 2, -2, 3, -3] {
                // The fold adds `a`'s contribution, then `b`'s.
                let s2 = sk + contrib(k, d) + contrib(k, -d);
                let off = if s2 > sk { 0.25 } else { -0.25 };
                let c = sk / nk(k) + off;
                if (s2 / nk(k) - c).abs() < (sk / nk(k) - c).abs() {
                    found = Some((k, off, vec![(a, d), (b, -d)]));
                    break 'search;
                }
            }
        }
        let (k, off, list) = found.expect("no rounding gain in the float fold");
        let mut core = EngineCore::new(g, edges, &target_for(k, off));
        let mut rng = Xoshiro256pp::seed_from_u64(20);
        let pick = loop {
            if let Some(p) = core.pick_swap(&mut rng) {
                break p;
            }
        };
        let (t, tk, slots) = (core.t.clone(), core.tk.clone(), core.slots.clone());
        let mutations = core.idx.mutation_count();
        let mut dtk = ScratchAccum::with_keys(core.tk.len());
        assert_eq!(core.fold_decide(&list, &mut dtk), 0.0);
        assert!(!core.decide(&pick, &list, &mut dtk), "accepted {list:?}");
        assert_eq!((core.t, core.tk, core.slots), (t, tk, slots));
        assert_eq!(core.idx.mutation_count(), mutations);
    }

    /// `D` after a long run with many accepts is exactly the `D` of a
    /// fresh engine over the rewired graph: nothing carried across
    /// commits can drift.
    #[test]
    fn distance_after_a_long_run_equals_a_fresh_engine_s() {
        let g = sgr_gen::holme_kim(2_000, 3, 0.6, &mut Xoshiro256pp::seed_from_u64(23)).unwrap();
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 0.3)
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let mut eng = RewireEngine::new(g, edges, &target);
        let stats = eng.run_attempts(25_000, &mut Xoshiro256pp::seed_from_u64(24));
        assert!(stats.accepted >= 1_000, "{} accepts", stats.accepted);
        let g = eng.into_graph();
        let edges: Vec<_> = g.edges().collect();
        let fresh = RewireEngine::new(g, edges, &target);
        assert_eq!(stats.final_distance.to_bits(), fresh.distance().to_bits());
    }

    /// Graphs whose picks cover every shape the swap evaluator must get
    /// right: loop slots and multi-edges (stub-matching artifacts), two
    /// equal-degree hubs against leaves (so `v_i` is often a hub, and
    /// `v_i == v_{i'}` when both slots hang off one hub), and a dense
    /// multigraph where endpoints are common neighbours of each other; also
    /// a sparse random graph whose edges, like the ones construction adds,
    /// rarely close a triangle, so the disjointness filter rejects most of
    /// its picks, and a multigraph whose swap `(0, 1), (2, 3) → (0, 3),
    /// (2, 1)` closes the triangle `{0, 2, 3}` although its endpoint
    /// unions share only endpoints (0 and 2).
    fn recount_graphs() -> Vec<Graph> {
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let mut messy = sgr_gen::holme_kim(120, 3, 0.6, &mut rng).unwrap();
        let loops = [(0, 0), (0, 0), (7, 7), (40, 40)];
        let multi = [(3, 9), (3, 9), (11, 12), (11, 12)];
        for (u, v) in loops.into_iter().chain(multi) {
            messy.add_edge(u, v);
        }
        // Hubs 0 and 1 share leaves 32..62; the leaves form a path.
        let mut hubs: Vec<(NodeId, NodeId)> = vec![(0, 1)];
        hubs.extend((2..62).map(|v| (0, v)));
        hubs.extend((32..92).map(|v| (1, v)));
        hubs.extend((2..91).map(|v| (v, v + 1)));
        let hubs = Graph::from_edges(92, &hubs);
        let mut dense = Graph::with_nodes(8);
        for u in 0..8 {
            for v in u + 1..8 {
                dense.add_edge(u, v);
                if (u + v) % 3 == 0 {
                    dense.add_edge(u, v);
                }
            }
        }
        dense.add_edge(2, 2);
        dense.add_edge(5, 5);
        let sparse = sgr_gen::erdos_renyi_gnm(2_000, 4_000, &mut rng).unwrap();
        let endpoints_only = Graph::from_edges(5, &[(0, 1), (2, 3), (2, 3), (0, 2), (0, 4)]);
        vec![messy, hubs, dense, sparse, endpoints_only]
    }

    /// For every drawn pick, the evaluator's nonzero node-sorted
    /// `(node, Δt)` list, read from the pick's gather, is
    /// `t_after − t_before` from a triangle recount of a copy of the graph
    /// with the swap applied; and every pick whose gather is empty, which
    /// the engine rejects unevaluated, changes no node's triangle count.
    #[test]
    fn evaluate_swap_matches_triangle_recount() {
        use sgr_props::triangles::triangle_counts;
        // Picks seen with a loop slot, with v_i == v_{i'}, with an endpoint
        // adjacent to both ends of a toggle, and with a hub endpoint.
        let mut seen = [0usize; 4];
        let mut filter = GatherTable::new(FILTER_BYTES);
        let mut filtered = 0usize;
        for (gi, g) in recount_graphs().into_iter().enumerate() {
            let edges: Vec<_> = g.edges().collect();
            let hub_degree = 40;
            let core = EngineCore::new(g.clone(), edges, &[]);
            let t_before = triangle_counts(&g);
            let mut rng = Xoshiro256pp::seed_from_u64(22 + gi as u64);
            let mut pairs = Vec::with_capacity(core.max_touched());
            let mut shared = Vec::with_capacity(core.max_gathered());
            for _ in 0..1500 {
                let Some(p) = core.pick_swap(&mut rng) else {
                    continue;
                };
                core.idx
                    .gather_shared(p.vi, p.vi2, p.vj, p.vj2, &mut filter, &mut shared);
                let unevaluated = shared.is_empty();
                evaluate_swap(&core, &p, &mut shared, &mut pairs);
                let mut h = g.clone();
                h.remove_edge(p.vi, p.vj);
                h.remove_edge(p.vi2, p.vj2);
                h.add_edge(p.vi, p.vj2);
                h.add_edge(p.vi2, p.vj);
                let want: Vec<(NodeId, i64)> = triangle_counts(&h)
                    .iter()
                    .zip(&t_before)
                    .enumerate()
                    .filter(|(_, (after, before))| after != before)
                    .map(|(u, (&after, &before))| (u as NodeId, after as i64 - before as i64))
                    .collect();
                assert_eq!(pairs, want, "graph {gi}, {p:?}");
                if unevaluated {
                    assert_eq!(want, [], "graph {gi}: filtered {p:?}");
                    filtered += 1;
                }

                let ends = p.endpoints();
                let toggles = [(p.vi, p.vj), (p.vi2, p.vj2), (p.vi, p.vj2), (p.vi2, p.vj)];
                seen[0] += (p.vi == p.vj || p.vi2 == p.vj2) as usize;
                seen[1] += (p.vi == p.vi2) as usize;
                seen[2] += toggles.iter().any(|&(u, v)| {
                    ends.iter().any(|&w| {
                        w != u && w != v && core.idx.has_edge(u, w) && core.idx.has_edge(v, w)
                    })
                }) as usize;
                seen[3] += ends.iter().any(|&u| core.deg[u as usize] >= hub_degree) as usize;
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "uncovered pick shape: {seen:?}"
        );
        assert!(filtered >= 1_000, "{filtered} picks took the skip path");
    }

    /// The filtered count is a pure function of the stream: it repeats
    /// exactly, whatever chunks `run_attempts` is called in, and stays
    /// within the attempts not accepted.
    #[test]
    fn filtered_count_repeats_and_ignores_chunking() {
        let g =
            sgr_gen::erdos_renyi_gnm(1_000, 3_000, &mut Xoshiro256pp::seed_from_u64(25)).unwrap();
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 3.0)
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let run = |chunks: &[u64]| {
            let mut eng = RewireEngine::new(g.clone(), edges.clone(), &target);
            let mut rng = Xoshiro256pp::seed_from_u64(26);
            let mut sum = [0u64; 3];
            for &chunk in chunks {
                let s = eng.run_attempts(chunk, &mut rng);
                for (total, part) in sum.iter_mut().zip([s.accepted, s.skipped, s.filtered]) {
                    *total += part;
                }
            }
            sum
        };
        let whole = run(&[20_000]);
        let [accepted, skipped, filtered] = whole;
        assert!(accepted > 0 && filtered > 0, "{whole:?}");
        assert!(filtered <= skipped && accepted + skipped == 20_000);
        assert_eq!(run(&[20_000]), whole);
        assert_eq!(run(&[1, 7, 992, 9_000, 3, 9_997]), whole);
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
