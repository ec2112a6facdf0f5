//! Phase 2 — constructing the target joint degree matrix `{m*(k,k')}`
//! (§IV-C, Algorithms 3 and 4).
//!
//! # The sparse incremental targeting engine
//!
//! This module is the batched rewrite of the original per-unit
//! implementation (kept verbatim — modulo the shared storage — as
//! [`mod@reference`]). Three structural changes make targeting scale to
//! million-node restorations:
//!
//! * **Flat triangular arenas.** `m*`, `m̂`, and `m'` live in one
//!   upper-triangular slab each (`cell (k ≤ k', k')` at index
//!   `k'(k'+1)/2 + k`) instead of `Vec<Vec<_>>`. Symmetry (JDM-2) holds
//!   by construction, memory halves, and — decisive at `k*_max` in the
//!   thousands — initialization stops faulting hundreds of megabytes of
//!   per-row allocations (the dense layout spent more time zeroing
//!   matrices than running Algorithms 3 and 4 combined).
//!
//! * **Closed-form batched moves (Algorithm 3).** The error term
//!   `Δ+(k,k')` is piecewise linear in `m*` around `m̂`: each unit pushed
//!   into a cell costs `−1/m̂` while the cell is below the estimate, at
//!   most one transitional amount crossing it, then `+1/m̂` forever — a
//!   *non-decreasing* per-cell cost sequence (`Δ−` mirrors this for
//!   removals). A greedy that repeatedly rescans `1..=k` for the minimum
//!   therefore equals draining per-cell *cost bands* in ascending order,
//!   which [`sgr_util::bucket::allocate_min_cost`] does after one sort:
//!   a marginal gap of `G` units closes in `O(k log k)` instead of
//!   `O(G·k)`. Marginals are maintained incrementally alongside.
//!
//! * **Sparse donor search (Algorithm 4).** Raising `m*(k₁,k₂)` to the
//!   subgraph's `m'(k₁,k₂)` compensates through donor cells with
//!   `m* > m'` in rows `k₁` and `k₂`. Donors are found through per-row
//!   occupancy lists of exactly those cells (stale entries pruned on
//!   scan, refreshed when a crossing credit pushes a cell back above
//!   `m'`) and drained with the same cost-band allocator, instead of two
//!   `O(k*_max)` row scans per unit.
//!
//! # Determinism, tie-breaking, and why the pipeline's RNG stream moved
//!
//! The historical per-unit implementation broke cost ties **uniformly at
//! random**. That made `{n*(k)}` itself a random variable: mass pushed
//! into a tied column raises that column's marginal `s(k')`, and when a
//! short-of-capacity row (degree 1 above all — its only adjustable cell
//! is the diagonal) later closes its gap, the shortfall converts into
//! `n*(k')` bumps. Two runs differing only in tie draws disagree on
//! `n*(1)` by hundreds of nodes at test scale — so no batched engine
//! could reproduce the randomized targets without replaying the per-unit
//! draw sequence verbatim, which would forfeit the batching.
//!
//! Both engines therefore break ties **deterministically: largest `k'`
//! first**. Ties overwhelmingly involve cells with no estimate behind
//! them (`m̂ = 0`, cost `∞`); parking that unguided mass at the largest
//! eligible degree leaves it in rows with genuine removal capacity,
//! where the later per-row rebalancing absorbs it against estimated
//! cells. Sending it to the *smallest* degree would convert it one-for-
//! one into phantom degree-1 nodes (the only adjustable cell at degree 1
//! is the diagonal, so excess marginal there can only become `n*(1)`
//! bumps) — measurably worse fidelity to `n̂` than even the randomized
//! rule. Total error is unchanged by tie placement (tied units cost the
//! same wherever they land), targeting consumes no RNG at all, and the
//! two engines agree *bitwise* on every decision, hence on `{n*(k)}`,
//! every marginal `s(k)`, every cell of `m*`, and the edge total. The
//! invariant-equivalence suite in
//! `crates/core/tests/targeting_proptests.rs` checks that contract. Cost
//! comparisons go through [`delta_plus_closed`] / [`delta_minus_closed`]
//! in both engines so tie *detection* is bitwise-identical too.
//!
//! Because Phase 2 no longer draws from the generator, the stream
//! positions of later phases (construction, rewiring) shift relative to
//! pre-engine versions: same-seed pipelines remain internally
//! deterministic but produce different (statistically equivalent) graphs
//! than older builds.

use crate::target_dv::TargetDv;
use sgr_estimate::Estimates;
use sgr_sample::Subgraph;
use sgr_util::bucket::{allocate_min_cost, CostSeg};

pub mod reference;

/// Errors from target-JDM construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetError {
    /// Algorithm 3 could not make the marginal `s(k)` meet its target
    /// `k·n*(k)` — the batched engine exhausted its bounded number of
    /// increase/decrease rounds, or the per-unit [`mod@reference`] engine ran
    /// past its step budget. Indicates corrupted inputs (e.g. a gap far
    /// beyond the reference's per-degree budget) rather than a
    /// data-dependent hazard; surfaced as `Err` instead of the former
    /// `assert!` panic.
    NonConvergence {
        /// Degree whose marginal failed to converge.
        degree: usize,
        /// Marginal `s(k)` when the engine gave up.
        marginal: i64,
        /// Target `k·n*(k)` at that point.
        target: i64,
    },
}

impl std::fmt::Display for TargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetError::NonConvergence {
                degree,
                marginal,
                target,
            } => write!(
                f,
                "Algorithm 3 failed to converge at degree {degree} \
                 (s = {marginal}, s* = {target})"
            ),
        }
    }
}

impl std::error::Error for TargetError {}

/// Per-phase wall times of one [`build`] call (the bench harness's
/// DV-adjust / JDM-modify split).
#[derive(Clone, Copy, Debug, Default)]
pub struct JdmBuildStats {
    /// Initialization + subgraph-JDM measurement.
    pub init_secs: f64,
    /// First adjustment pass (Algorithm 3, zero lower limits).
    pub adjust_secs: f64,
    /// Modification pass (Algorithm 4).
    pub modify_secs: f64,
    /// Re-adjustment pass (Algorithm 3, subgraph lower limits).
    pub readjust_secs: f64,
}

/// The target joint degree matrix. Each of `m*`, `m̂`, `m'` is one flat
/// upper-triangular arena over degrees `0 ..= k_max` (row/column 0
/// unused); the symmetric condition JDM-2 holds by construction because
/// `(k,k')` and `(k',k)` are the same cell.
#[derive(Clone, Debug)]
pub struct TargetJdm {
    /// `m*(k, k')`, upper-triangular.
    m_star: Vec<u64>,
    /// `m̂(k, k') = n̂ k̄̂ P̂(k,k') / µ(k,k')` — the raw estimates the
    /// error terms `Δ±(k,k')` reference (0 where `P̂ = 0`).
    m_hat: Vec<f64>,
    /// `m'(k, k')` — the subgraph's edge counts between *target*-degree
    /// classes (all zero on an empty subgraph). Doubles as the lower
    /// limit `m_min` in the final adjustment.
    m_prime: Vec<u64>,
    /// Degree range.
    pub k_max: usize,
}

/// Upper-triangular slab length for degrees `0..=k_max`.
#[inline]
fn tri_len(k_max: usize) -> usize {
    (k_max + 1) * (k_max + 2) / 2
}

/// Flat index of the unordered cell `{k, k2}`.
#[inline]
fn tri_idx(k: usize, k2: usize) -> usize {
    let (lo, hi) = if k <= k2 { (k, k2) } else { (k2, k) };
    hi * (hi + 1) / 2 + lo
}

impl TargetJdm {
    /// An all-zero matrix over degrees `0..=k_max` (tests and tools; the
    /// pipeline goes through [`build`]).
    pub fn new(k_max: usize) -> Self {
        Self {
            m_star: vec![0; tri_len(k_max)],
            m_hat: vec![0.0; tri_len(k_max)],
            m_prime: vec![0; tri_len(k_max)],
            k_max,
        }
    }

    /// `µ(k, k')` (Eq. 3).
    #[inline]
    pub(crate) fn mu(k: usize, k2: usize) -> u64 {
        if k == k2 {
            2
        } else {
            1
        }
    }

    /// `m*(k, k')` (order-insensitive).
    #[inline]
    pub fn get(&self, k: usize, k2: usize) -> u64 {
        self.m_star[tri_idx(k, k2)]
    }

    /// `m̂(k, k')` (order-insensitive).
    #[inline]
    pub fn hat(&self, k: usize, k2: usize) -> f64 {
        self.m_hat[tri_idx(k, k2)]
    }

    /// `m'(k, k')` (order-insensitive).
    #[inline]
    pub fn prime(&self, k: usize, k2: usize) -> u64 {
        self.m_prime[tri_idx(k, k2)]
    }

    /// Overwrites `m*(k, k')` — test/tooling hook (e.g. corrupting the
    /// dominance invariant for regression tests); the engines never need
    /// it.
    pub fn set(&mut self, k: usize, k2: usize, v: u64) {
        self.m_star[tri_idx(k, k2)] = v;
    }

    /// Overwrites `m'(k, k')` — test/tooling hook.
    pub fn set_prime(&mut self, k: usize, k2: usize, v: u64) {
        self.m_prime[tri_idx(k, k2)] = v;
    }

    /// Overwrites `m̂(k, k')` — test/tooling hook.
    pub fn set_hat(&mut self, k: usize, k2: usize, v: f64) {
        self.m_hat[tri_idx(k, k2)] = v;
    }

    /// Marginal `s(k) = Σ_{k'} µ(k,k') m*(k,k')`.
    pub fn marginal(&self, k: usize) -> u64 {
        (1..=self.k_max)
            .map(|k2| Self::mu(k, k2) * self.get(k, k2))
            .sum()
    }

    /// Every marginal at once in one pass over the arena — `O(cells)`
    /// rather than `k_max` row walks.
    pub fn marginals(&self) -> Vec<u64> {
        let mut s = vec![0u64; self.k_max + 1];
        let mut idx = 0;
        for hi in 0..=self.k_max {
            for lo in 0..=hi {
                let v = self.m_star[idx];
                if v != 0 {
                    if lo == hi {
                        s[hi] += 2 * v;
                    } else {
                        s[lo] += v;
                        s[hi] += v;
                    }
                }
                idx += 1;
            }
        }
        s
    }

    /// Total target edge count `Σ_{k ≤ k'} m*(k,k')`.
    pub fn num_edges(&self) -> u64 {
        self.m_star.iter().sum()
    }

    /// Iterates every upper-triangular cell where `m*` or `m'` is
    /// nonzero, yielding `(k, k', m*, m')` with `k ≤ k'`. The
    /// construction phase derives both the added-edge counts
    /// (`m* − m'`) and the dominance check (JDM-4) from this.
    pub fn upper_entries(&self) -> impl Iterator<Item = (usize, usize, u64, u64)> + '_ {
        let k_max = self.k_max;
        (0..=k_max).flat_map(move |hi| {
            let base = hi * (hi + 1) / 2;
            (0..=hi).filter_map(move |lo| {
                let star = self.m_star[base + lo];
                let prime = self.m_prime[base + lo];
                if star != 0 || prime != 0 {
                    Some((lo, hi, star, prime))
                } else {
                    None
                }
            })
        })
    }

    /// `Δ+(k,k')` — error increase from incrementing `m*(k,k')`.
    pub(crate) fn delta_plus(&self, k: usize, k2: usize) -> f64 {
        delta_plus_closed(self.get(k, k2), self.hat(k, k2))
    }

    /// `Δ-(k,k')` — error increase from decrementing `m*(k,k')`.
    pub(crate) fn delta_minus(&self, k: usize, k2: usize) -> f64 {
        delta_minus_closed(self.get(k, k2), self.hat(k, k2))
    }

    #[inline]
    pub(crate) fn inc_by(&mut self, k: usize, k2: usize, units: u64) {
        self.m_star[tri_idx(k, k2)] += units;
    }

    #[inline]
    pub(crate) fn dec_by(&mut self, k: usize, k2: usize, units: u64) {
        let cell = &mut self.m_star[tri_idx(k, k2)];
        debug_assert!(*cell >= units);
        *cell -= units;
    }

    pub(crate) fn inc(&mut self, k: usize, k2: usize) {
        self.inc_by(k, k2, 1);
    }

    pub(crate) fn dec(&mut self, k: usize, k2: usize) {
        self.dec_by(k, k2, 1);
    }

    /// Borrows the flat arenas — `(k_max, m*, m̂, m')` — for checkpoint
    /// serialization (`crate::checkpoint`).
    pub(crate) fn raw_parts(&self) -> (usize, &[u64], &[f64], &[u64]) {
        (self.k_max, &self.m_star, &self.m_hat, &self.m_prime)
    }

    /// Rebuilds a matrix from checkpointed arenas, validating the slab
    /// lengths against `k_max`.
    pub(crate) fn from_raw_parts(
        k_max: usize,
        m_star: Vec<u64>,
        m_hat: Vec<f64>,
        m_prime: Vec<u64>,
    ) -> Result<Self, String> {
        let want = tri_len(k_max);
        if m_star.len() != want || m_hat.len() != want || m_prime.len() != want {
            return Err(format!(
                "JDM arena length mismatch: k_max {k_max} wants {want}, got \
                 ({}, {}, {})",
                m_star.len(),
                m_hat.len(),
                m_prime.len()
            ));
        }
        Ok(Self {
            m_star,
            m_hat,
            m_prime,
            k_max,
        })
    }
}

/// Builds the target JDM: initialization, adjustment toward the
/// marginals `k·n*(k)` (Algorithm 3 with zero lower limits), modification
/// to dominate the subgraph's JDM (Algorithm 4), and re-adjustment with
/// the subgraph as the lower limit. On an empty subgraph (Gjoka et al.'s
/// baseline) `m' = 0`, so the last two steps change nothing.
///
/// `dv` is mutated: Algorithm 3 may raise `n*(k)` when a marginal cannot
/// be met by decreasing matrix entries.
pub fn build(
    subgraph: &Subgraph,
    est: &Estimates,
    dv: &mut TargetDv,
) -> Result<TargetJdm, TargetError> {
    build_with_stats(subgraph, est, dv).map(|(jdm, _)| jdm)
}

/// [`build`] plus per-phase wall times (the bench harness's view).
pub fn build_with_stats(
    subgraph: &Subgraph,
    est: &Estimates,
    dv: &mut TargetDv,
) -> Result<(TargetJdm, JdmBuildStats), TargetError> {
    let mut stats = JdmBuildStats::default();
    let t = std::time::Instant::now();
    let mut jdm = initialize(est, dv.k_max);
    measure_subgraph_jdm(subgraph, dv, &mut jdm);
    stats.init_secs = t.elapsed().as_secs_f64();

    let t = std::time::Instant::now();
    adjust(&mut jdm, dv, false)?;
    stats.adjust_secs = t.elapsed().as_secs_f64();

    let t = std::time::Instant::now();
    modify_for_subgraph(&mut jdm);
    stats.modify_secs = t.elapsed().as_secs_f64();

    let t = std::time::Instant::now();
    adjust(&mut jdm, dv, true)?;
    stats.readjust_secs = t.elapsed().as_secs_f64();
    Ok((jdm, stats))
}

/// Initialization step (§IV-C-1): `m*(k,k') = max(NearInt(m̂), 1)`
/// wherever `P̂(k,k') > 0`.
fn initialize(est: &Estimates, k_max: usize) -> TargetJdm {
    let mut jdm = TargetJdm::new(k_max);
    // `est.jdd` stores both key orders with equal values; the triangular
    // arena needs each unordered cell exactly once.
    for (&(k, k2), &p) in est.jdd.iter() {
        let (k, k2) = (k as usize, k2 as usize);
        if k > k2 || k2 > k_max || p <= 0.0 {
            continue;
        }
        let hat = est.n_hat * est.avg_degree_hat * p / TargetJdm::mu(k, k2) as f64;
        let idx = tri_idx(k, k2);
        jdm.m_hat[idx] = hat;
        jdm.m_star[idx] = sgr_util::stats::near_int(hat).max(1) as u64;
    }
    jdm
}

/// `m'(k,k')` — subgraph edge counts between **target**-degree classes,
/// written into `jdm.m_prime`.
fn measure_subgraph_jdm(sg: &Subgraph, dv: &TargetDv, jdm: &mut TargetJdm) {
    for (u, v) in sg.graph.edges() {
        let k = dv.d_star[u as usize] as usize;
        let k2 = dv.d_star[v as usize] as usize;
        jdm.m_prime[tri_idx(k, k2)] += 1;
    }
}

/// `(|m̂−(c+1)| − |m̂−c|)/m̂` in closed piecewise form: `−1/m̂` while the
/// increment stays at or below the estimate, `+1/m̂` at or above it, the
/// straddling value in between, `∞` for `m̂ ≤ 0`. **Both engines compute
/// costs through this one function** (the reference through the per-cell
/// `delta_plus` accessor, the batched engine through its increase cost
/// bands), so a tie in one engine is bitwise a tie in the other — the
/// naive `abs`-difference form differs by ULPs depending on `c` and
/// would make tie sets engine-dependent.
pub fn delta_plus_closed(cur: u64, hat: f64) -> f64 {
    if hat <= 0.0 {
        f64::INFINITY
    } else if ((cur + 1) as f64) <= hat {
        -1.0 / hat
    } else if (cur as f64) >= hat {
        1.0 / hat
    } else {
        (1.0 - 2.0 * (hat - cur as f64)) / hat
    }
}

/// `(|m̂−(c−1)| − |m̂−c|)/m̂` in closed piecewise form — the removal
/// mirror of [`delta_plus_closed`].
pub fn delta_minus_closed(cur: u64, hat: f64) -> f64 {
    if hat <= 0.0 {
        f64::INFINITY
    } else if cur >= 1 && ((cur - 1) as f64) >= hat {
        -1.0 / hat
    } else if (cur as f64) <= hat {
        1.0 / hat
    } else {
        (1.0 - 2.0 * (cur as f64 - hat)) / hat
    }
}

/// Appends the non-decreasing cost bands of pushing units into a cell
/// currently holding `cur` against estimate `hat`: `−1/m̂` while below
/// the estimate, at most one transitional unit crossing it, then
/// `+1/m̂` with unbounded capacity (so an increase batch can always be
/// filled). `m̂ ≤ 0` cells cost `∞` — pickable only when nothing cheaper
/// remains, exactly like the per-unit `Δ+`. Band costs are the exact
/// [`delta_plus_closed`] values of the units they cover.
fn inc_cost_bands(cur: u64, hat: f64, weight: u64, key: u32, segs: &mut Vec<CostSeg>) {
    if hat <= 0.0 {
        segs.push(CostSeg {
            key,
            weight,
            cap: u64::MAX,
            cost: f64::INFINITY,
        });
        return;
    }
    let fl = hat.floor();
    let fl_u = fl.min(u64::MAX as f64) as u64;
    if fl_u > cur {
        segs.push(CostSeg {
            key,
            weight,
            cap: fl_u - cur,
            cost: -1.0 / hat,
        });
    }
    if hat - fl > 0.0 && cur <= fl_u {
        // The single unit landing on c = ⌊m̂⌋ straddles the estimate.
        segs.push(CostSeg {
            key,
            weight,
            cap: 1,
            cost: (1.0 - 2.0 * (hat - fl_u as f64)) / hat,
        });
    }
    segs.push(CostSeg {
        key,
        weight,
        cap: u64::MAX,
        cost: 1.0 / hat,
    });
}

/// Appends the non-decreasing cost bands of removing units from a cell
/// holding `cur` with lower limit `floor_lim` (`m_min`): `−1/m̂` while
/// above the estimate, at most one transitional unit, then `+1/m̂` down
/// to the limit. Capacity is finite — removal batches can fall short,
/// which is what triggers the `n*(k)` bumps in [`adjust`]. Band costs
/// are the exact [`delta_minus_closed`] values of the units they cover.
fn dec_cost_bands(
    cur: u64,
    hat: f64,
    floor_lim: u64,
    weight: u64,
    key: u32,
    segs: &mut Vec<CostSeg>,
) {
    debug_assert!(cur > floor_lim);
    let cap_total = cur - floor_lim;
    if hat <= 0.0 {
        segs.push(CostSeg {
            key,
            weight,
            cap: cap_total,
            cost: f64::INFINITY,
        });
        return;
    }
    let ceil_u = hat.ceil().min(u64::MAX as f64) as u64;
    let high = cap_total.min(cur.saturating_sub(ceil_u));
    let mut used = 0;
    if high > 0 {
        segs.push(CostSeg {
            key,
            weight,
            cap: high,
            cost: -1.0 / hat,
        });
        used += high;
    }
    if hat - hat.floor() > 0.0 && cur >= ceil_u && used < cap_total {
        segs.push(CostSeg {
            key,
            weight,
            cap: 1,
            cost: (1.0 - 2.0 * (ceil_u as f64 - hat)) / hat,
        });
        used += 1;
    }
    if used < cap_total {
        segs.push(CostSeg {
            key,
            weight,
            cap: cap_total - used,
            cost: 1.0 / hat,
        });
    }
}

/// Adjustment step (Algorithm 3), batched: make every marginal `s(k)`
/// equal its target `s*(k) = k·n*(k)`, processing degrees in decreasing
/// order, never decreasing an entry below its lower limit (`m'` when
/// `floor_is_prime`, zero otherwise), and raising `n*(k)` when decreasing
/// is impossible.
///
/// Where the per-unit reference rescans `1..=k` per unit of gap, this
/// drains per-cell cost bands through [`allocate_min_cost`] — a whole
/// marginal gap closes in one allocator call, and each degree needs at
/// most three rounds (decrease-shortfall → bump `n*(k)` → fill the
/// overshoot by increasing), mirroring the phase structure the per-unit
/// loop passes through one unit at a time.
fn adjust(jdm: &mut TargetJdm, dv: &mut TargetDv, floor_is_prime: bool) -> Result<(), TargetError> {
    let k_max = jdm.k_max;
    // Current marginals, maintained incrementally below.
    let mut s: Vec<i64> = jdm.marginals().iter().map(|&v| v as i64).collect();
    let s_target = |dv: &TargetDv, k: usize| (k as u64 * dv.n_star[k]) as i64;
    // D: degrees whose marginal is off, plus degree 1.
    let mut in_d = vec![false; k_max + 1];
    for k in 1..=k_max {
        in_d[k] = s[k] != s_target(dv, k);
    }
    in_d[1] = true;
    let mut processed = vec![false; k_max + 1];
    let mut segs: Vec<CostSeg> = Vec::new();
    let mut grants: Vec<(u32, u64)> = Vec::new();

    for k in (1..=k_max).rev() {
        if !in_d[k] {
            continue;
        }
        if k == 1 && (s[1] - s_target(dv, 1)).rem_euclid(2) == 1 {
            // Only m*(1,1) is adjustable at degree 1 (±2 per step): make
            // the gap even by raising n*(1).
            dv.bump(1, 1);
        }
        let mut rounds = 0;
        loop {
            let tgt = s_target(dv, k);
            if s[k] == tgt {
                break;
            }
            rounds += 1;
            if rounds > 3 {
                // Structurally unreachable (decrease → bump → increase is
                // the longest possible phase sequence); surfaced as a
                // typed error instead of looping or panicking.
                return Err(TargetError::NonConvergence {
                    degree: k,
                    marginal: s[k],
                    target: tgt,
                });
            }
            if s[k] < tgt {
                // Batched increase of row k.
                let gap = (tgt - s[k]) as u64;
                segs.clear();
                for k2 in 1..=k {
                    if !in_d[k2] || processed[k2] {
                        continue;
                    }
                    let w = if k2 == k { 2 } else { 1 };
                    inc_cost_bands(jdm.get(k, k2), jdm.hat(k, k2), w, k2 as u32, &mut segs);
                }
                grants.clear();
                let left = allocate_min_cost(&mut segs, gap, &mut grants);
                if left > 0 {
                    // No weight-1 candidate for an odd remainder: the
                    // candidate set is corrupt (degree 1 is always
                    // available for k > 1; parity is pre-fixed at k = 1).
                    return Err(TargetError::NonConvergence {
                        degree: k,
                        marginal: s[k],
                        target: tgt,
                    });
                }
                for &(k2u, units) in &grants {
                    let k2 = k2u as usize;
                    jdm.inc_by(k, k2, units);
                    if k2 == k {
                        s[k] += 2 * units as i64;
                    } else {
                        s[k] += units as i64;
                        s[k2] += units as i64;
                    }
                }
            } else {
                // Batched decrease of row k, bounded below by the floor.
                let need = (s[k] - tgt) as u64;
                segs.clear();
                for k2 in 1..=k {
                    if !in_d[k2] || processed[k2] {
                        continue;
                    }
                    let floor_lim = if floor_is_prime { jdm.prime(k, k2) } else { 0 };
                    let cur = jdm.get(k, k2);
                    if cur <= floor_lim {
                        continue;
                    }
                    let w = if k2 == k { 2 } else { 1 };
                    dec_cost_bands(cur, jdm.hat(k, k2), floor_lim, w, k2 as u32, &mut segs);
                }
                grants.clear();
                let left = allocate_min_cost(&mut segs, need, &mut grants);
                for &(k2u, units) in &grants {
                    let k2 = k2u as usize;
                    jdm.dec_by(k, k2, units);
                    if k2 == k {
                        s[k] -= 2 * units as i64;
                    } else {
                        s[k] -= units as i64;
                        s[k2] -= units as i64;
                    }
                }
                if left > 0 {
                    // Removable capacity exhausted: shift toward
                    // adjustment-by-increase by raising the target sum —
                    // one bump per failed per-unit pick.
                    if k == 1 {
                        dv.bump(1, 2 * left.div_ceil(2));
                    } else {
                        dv.bump(k, left.div_ceil(k as u64));
                    }
                    // Next round re-reads the (possibly overshot) gap.
                }
            }
        }
        processed[k] = true;
    }
    Ok(())
}

/// Increments the crossing cell `{a, b}` and keeps the occupancy lists
/// current: a cell credited back above its subgraph count becomes donor-
/// eligible again.
fn credit_crossing(jdm: &mut TargetJdm, occ: &mut [Vec<u32>], a: usize, b: usize, units: u64) {
    let was_donor = jdm.get(a, b) > jdm.prime(a, b);
    jdm.inc_by(a, b, units);
    if !was_donor && jdm.get(a, b) > jdm.prime(a, b) {
        occ[a].push(b as u32);
        if a != b {
            occ[b].push(a as u32);
        }
    }
}

/// A drain-order grant sequence: `(column, units)` runs.
type Grants = Vec<(u32, u64)>;

/// Drains up to `gap` donor units from row `row` (cells with
/// `m* > m'`, diagonal excluded), applying the decrements and filling
/// `out` with the grants **in drain (cost) order** — the order the
/// per-unit loop would have picked them in, which the crossing-credit
/// pairing below depends on. Scans only the row's occupancy list,
/// pruning entries that stopped being donors and duplicate entries (a
/// cell re-credited above `m'` while its stale entry still sat in the
/// list appears twice; counting its capacity twice would let the
/// allocator dig below the `m'` floor).
#[allow(clippy::too_many_arguments)]
fn harvest_donors(
    jdm: &mut TargetJdm,
    occ: &mut [Vec<u32>],
    row: usize,
    gap: u64,
    seen: &mut [u32],
    epoch: u32,
    segs: &mut Vec<CostSeg>,
    out: &mut Grants,
) {
    segs.clear();
    let cols = &mut occ[row];
    let mut i = 0;
    while i < cols.len() {
        let col = cols[i] as usize;
        let cur = jdm.get(row, col);
        let pr = jdm.prime(row, col);
        if cur <= pr || seen[col] == epoch {
            cols.swap_remove(i); // stale or duplicate entry
            continue;
        }
        seen[col] = epoch;
        if col != row {
            dec_cost_bands(cur, jdm.hat(row, col), pr, 1, col as u32, segs);
        }
        i += 1;
    }
    out.clear();
    allocate_min_cost(segs, gap, out);
    for &(col, units) in out.iter() {
        jdm.dec_by(row, col as usize, units);
    }
}

/// Splits a drain-order grant sequence into the units at even and odd
/// global drain positions, filling the caller's buffers. For a
/// *diagonal* deficient cell both donor picks of every per-unit
/// iteration come from the same row, so the per-unit drain interleaves
/// the two donor roles: position `2i` is the i-th `k3`, position `2i+1`
/// the i-th `k4`.
fn split_even_odd(drain: &[(u32, u64)], evens: &mut Grants, odds: &mut Grants) {
    evens.clear();
    odds.clear();
    let mut pos = 0u64;
    for &(col, units) in drain {
        let e = (units + 1 - pos % 2) / 2;
        let o = units - e;
        if e > 0 {
            evens.push((col, e));
        }
        if o > 0 {
            odds.push((col, o));
        }
        pos += units;
    }
}

/// Modification step (Algorithm 4), batched: raise `m*(k1,k2)` up to the
/// subgraph's `m'(k1,k2)`, compensating each unit increase by decreasing
/// a donor entry in row `k1` and one in row `k2` (both strictly above
/// their own subgraph counts) and crediting the donors' crossing entry,
/// so the marginals and the total edge count are retained whenever donors
/// exist.
///
/// Donor decrements within one deficient cell's batch can never touch
/// rows `k1` or `k2` through crossing credits (the credited cell `(k3,k4)`
/// has `k3 ≠ k1`, `k4 ≠ k2`, and the would-be overlaps are the deficient
/// cell itself, which sits at `m* ≤ m'` throughout), so draining all of
/// row `k1`'s donors, then all of row `k2`'s, then crediting pairwise is
/// exactly the per-unit interleaving.
fn modify_for_subgraph(jdm: &mut TargetJdm) {
    // Deficient cells in the reference's (k1, k2 ≥ k1) scan order, and
    // per-row occupancy lists of donor-eligible cells.
    let mut deficient: Vec<(u32, u32)> = Vec::new();
    let mut occ: Vec<Vec<u32>> = vec![Vec::new(); jdm.k_max + 1];
    for (lo, hi, star, prime) in jdm.upper_entries() {
        if star < prime {
            deficient.push((lo as u32, hi as u32));
        } else if star > prime {
            occ[lo].push(hi as u32);
            if lo != hi {
                occ[hi].push(lo as u32);
            }
        }
    }
    deficient.sort_unstable();

    let mut segs: Vec<CostSeg> = Vec::new();
    let mut drain: Grants = Vec::new();
    let mut from_k1: Grants = Vec::new();
    let mut from_k2: Grants = Vec::new();
    let mut seen = vec![0u32; jdm.k_max + 1];
    let mut epoch = 0u32;
    for &(k1, k2) in &deficient {
        let (k1, k2) = (k1 as usize, k2 as usize);
        let cur = jdm.get(k1, k2);
        let want = jdm.prime(k1, k2);
        if cur >= want {
            continue; // crossing credits already covered it
        }
        let gap = want - cur;
        jdm.inc_by(k1, k2, gap);
        if k1 == k2 {
            // Diagonal cell: both donor roles drain the same row. The
            // per-unit loop alternates them, which over the whole batch
            // is one cost-order drain of up to 2·gap units with even
            // positions playing k3 and odd positions k4.
            epoch += 1;
            harvest_donors(
                jdm,
                &mut occ,
                k1,
                gap.saturating_mul(2),
                &mut seen,
                epoch,
                &mut segs,
                &mut drain,
            );
            split_even_odd(&drain, &mut from_k1, &mut from_k2);
        } else {
            epoch += 1;
            harvest_donors(
                jdm,
                &mut occ,
                k1,
                gap,
                &mut seen,
                epoch,
                &mut segs,
                &mut from_k1,
            );
            epoch += 1;
            harvest_donors(
                jdm,
                &mut occ,
                k2,
                gap,
                &mut seen,
                epoch,
                &mut segs,
                &mut from_k2,
            );
        }
        // Credit the crossing cells pairwise in drain order: the i-th
        // donor unit of the k3 role meets the i-th of the k4 role; units
        // past the shorter side went uncompensated in the reference too
        // (marginals drift, restored by the re-adjustment pass).
        let (mut ai, mut bi) = (0usize, 0usize);
        let (mut arem, mut brem) = (
            from_k1.first().map_or(0, |&(_, u)| u),
            from_k2.first().map_or(0, |&(_, u)| u),
        );
        while ai < from_k1.len() && bi < from_k2.len() {
            let take = arem.min(brem);
            credit_crossing(
                jdm,
                &mut occ,
                from_k1[ai].0 as usize,
                from_k2[bi].0 as usize,
                take,
            );
            arem -= take;
            brem -= take;
            if arem == 0 {
                ai += 1;
                arem = from_k1.get(ai).map_or(0, |&(_, u)| u);
            }
            if brem == 0 {
                bi += 1;
                brem = from_k2.get(bi).map_or(0, |&(_, u)| u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target_dv;
    use sgr_sample::{random_walk, AccessModel};
    use sgr_util::Xoshiro256pp;

    fn setup(n: usize, frac: f64, seed: u64) -> (Subgraph, Estimates) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = sgr_gen::holme_kim(n, 3, 0.5, &mut rng).unwrap();
        let mut am = AccessModel::new(&g);
        let start = am.random_seed(&mut rng);
        let target = ((n as f64 * frac) as usize).max(3);
        let crawl = random_walk(&mut am, start, target, &mut rng);
        (
            crawl.subgraph(),
            sgr_estimate::estimate_all(&crawl).unwrap(),
        )
    }

    /// Verifies the four JDM realizability conditions after the build.
    fn assert_conditions(jdm: &TargetJdm, dv: &TargetDv) {
        // JDM-2: symmetry (by construction of the triangular arena).
        for k in 1..=jdm.k_max {
            for k2 in 1..=jdm.k_max {
                assert_eq!(jdm.get(k, k2), jdm.get(k2, k), "asym at ({k},{k2})");
            }
        }
        // JDM-3: marginals equal k·n*(k). (Indexed loop: k is a degree.)
        let s = jdm.marginals();
        #[allow(clippy::needless_range_loop)]
        for k in 1..=jdm.k_max {
            assert_eq!(s[k], k as u64 * dv.n_star[k], "marginal broken at k = {k}");
        }
        // JDM-4: m* dominates the subgraph's m'.
        for k in 1..=jdm.k_max {
            for k2 in 1..=jdm.k_max {
                assert!(
                    jdm.get(k, k2) >= jdm.prime(k, k2),
                    "JDM-4 broken at ({k},{k2})"
                );
            }
        }
        // DV-2 still holds (even degree sum).
        assert_eq!(dv.degree_sum() % 2, 0);
        // DV-3 still holds.
        for k in 0..=dv.k_max {
            assert!(dv.n_star[k] >= dv.n_prime[k]);
        }
    }

    #[test]
    fn all_conditions_hold_across_seeds() {
        for seed in 0..6 {
            let (sg, est) = setup(500, 0.1, seed);
            let mut rng = Xoshiro256pp::seed_from_u64(seed + 50);
            let mut dv = target_dv::build(&sg, &est, &mut rng);
            let jdm = build(&sg, &est, &mut dv).unwrap();
            assert_conditions(&jdm, &dv);
        }
    }

    #[test]
    fn gjoka_conditions_hold() {
        let (_, est) = setup(500, 0.1, 20);
        let empty = Subgraph::empty();
        let mut rng = Xoshiro256pp::seed_from_u64(20);
        let mut dv = target_dv::build(&empty, &est, &mut rng);
        let jdm = build(&empty, &est, &mut dv).unwrap();
        // JDM-2 and JDM-3 hold; m_prime is all zeros.
        let s = jdm.marginals();
        #[allow(clippy::needless_range_loop)]
        for k in 1..=jdm.k_max {
            assert_eq!(s[k], k as u64 * dv.n_star[k]);
            for k2 in 1..=jdm.k_max {
                assert_eq!(jdm.get(k, k2), jdm.get(k2, k));
                assert_eq!(jdm.prime(k, k2), 0);
            }
        }
        assert_eq!(dv.degree_sum() % 2, 0);
    }

    #[test]
    fn subgraph_jdm_uses_target_degrees() {
        let (sg, est) = setup(400, 0.1, 30);
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let dv = target_dv::build(&sg, &est, &mut rng);
        let mut jdm = TargetJdm::new(dv.k_max);
        measure_subgraph_jdm(&sg, &dv, &mut jdm);
        let total: u64 = jdm.m_prime.iter().sum();
        assert_eq!(total, sg.num_edges() as u64);
        // Marginal identity against the assigned degrees:
        // Σ_{k'} µ m'(k,k') = Σ_{i: d*_i = k} d'_i.
        for k in 1..=dv.k_max {
            let lhs: u64 = (1..=dv.k_max)
                .map(|k2| TargetJdm::mu(k, k2) * jdm.prime(k, k2))
                .sum();
            let rhs: u64 = sg
                .graph
                .nodes()
                .filter(|&u| dv.d_star[u as usize] as usize == k)
                .map(|u| sg.graph.degree(u) as u64)
                .sum();
            assert_eq!(lhs, rhs, "m' marginal mismatch at k = {k}");
        }
    }

    #[test]
    fn num_edges_matches_half_degree_sum() {
        let (sg, est) = setup(400, 0.12, 50);
        let mut rng = Xoshiro256pp::seed_from_u64(51);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let jdm = build(&sg, &est, &mut dv).unwrap();
        assert_eq!(2 * jdm.num_edges(), dv.degree_sum());
    }

    #[test]
    fn triangular_indexing_is_symmetric_and_dense() {
        let mut jdm = TargetJdm::new(5);
        jdm.set(2, 4, 7);
        assert_eq!(jdm.get(4, 2), 7);
        jdm.set(3, 3, 9);
        assert_eq!(jdm.get(3, 3), 9);
        // All 21 cells of the 0..=5 triangle are distinct.
        let mut seen = std::collections::HashSet::new();
        for hi in 0..=5 {
            for lo in 0..=hi {
                assert!(seen.insert(tri_idx(lo, hi)));
                assert_eq!(tri_idx(lo, hi), tri_idx(hi, lo));
            }
        }
        assert_eq!(seen.len(), tri_len(5));
        assert_eq!(*seen.iter().max().unwrap(), tri_len(5) - 1);
    }

    #[test]
    fn degree_one_parity_gap_converges_without_budget() {
        // The degree-1 path: an odd marginal gap at k = 1 forces the
        // parity bump and a pure-diagonal fill. Before the typed error
        // existed this path could only fail by panicking; now both
        // engines return Result — and the batched engine handles a gap
        // far beyond the reference's per-unit step budget.
        let mut jdm = TargetJdm::new(1);
        jdm.set_hat(1, 1, 2.5);
        let mut dv = TargetDv {
            n_star: vec![0, 30_000_001],
            n_prime: vec![0, 0],
            d_star: Vec::new(),
            k_max: 1,
            n_hat_k: vec![0.0, 3.0],
        };
        adjust(&mut jdm, &mut dv, false).unwrap();
        // Parity bump: n*(1) became even; the diagonal carries the whole
        // marginal.
        assert_eq!(dv.n_star[1], 30_000_002);
        assert_eq!(jdm.marginal(1), dv.n_star[1]);
        assert_eq!(2 * jdm.get(1, 1), dv.n_star[1]);
    }

    #[test]
    fn reference_reports_nonconvergence_past_step_budget() {
        // Same input as above: the per-unit reference walks the gap one
        // diagonal increment at a time and trips its step budget — as a
        // typed error, not the former assert! panic.
        let mut jdm = TargetJdm::new(1);
        jdm.set_hat(1, 1, 2.5);
        let mut dv = TargetDv {
            n_star: vec![0, 30_000_001],
            n_prime: vec![0, 0],
            d_star: Vec::new(),
            k_max: 1,
            n_hat_k: vec![0.0, 3.0],
        };
        let err = reference::adjust(&mut jdm, &mut dv, false).unwrap_err();
        assert!(matches!(err, TargetError::NonConvergence { degree: 1, .. }));
        let msg = err.to_string();
        assert!(msg.contains("degree 1"), "unhelpful message: {msg}");
    }

    #[test]
    fn build_propagates_nonconvergence() {
        // End-to-end: a crawl whose degree-1 gap exceeds the reference
        // budget surfaces Err through reference::build, while the batched
        // build succeeds on the identical input.
        let (sg, est) = setup(300, 0.1, 77);
        let mut rng = Xoshiro256pp::seed_from_u64(78);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        dv.n_star[1] += 40_000_000; // poison: gap far past the budget
        let mut dv_ref = dv.clone();
        assert!(matches!(
            reference::build(&sg, &est, &mut dv_ref),
            Err(TargetError::NonConvergence { .. })
        ));
        assert!(build(&sg, &est, &mut dv).is_ok());
    }
}
