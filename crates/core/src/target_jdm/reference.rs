//! The per-unit Algorithms 3 and 4 — the implementation the batched
//! engine in the parent module replaced, kept as the equivalence oracle
//! (same pattern as `sgr_dk::rewire::reference`).
//!
//! Every marginal gap is closed one unit at a time: each unit rescans the
//! candidate degrees for the minimum error term `Δ±(k,k')`, largest
//! degree on ties (see the parent module's determinism section for why
//! the paper's uniform tie randomization was traded for the
//! deterministic rule — randomized ties make `{n*(k)}` itself a random
//! variable, which no batched engine could reproduce without replaying
//! the draw sequence verbatim). That makes the per-degree work `O(G·k)`
//! for a gap of `G` — fine as a test oracle, quadratic in practice at
//! crawl scale — and it is why the loop carries a step budget
//! ([`MAX_STEPS_PER_DEGREE`]): a gap beyond the budget surfaces as
//! [`TargetError::NonConvergence`] instead of the historic `assert!`
//! panic.
//!
//! The oracle contract (checked by `crates/core/tests/
//! targeting_proptests.rs`): given the same inputs, [`build`] here and
//! the batched `super::build` produce the **same `{n*(k)}`, the same
//! marginals `s(k)`, the same `m*` cells, and the same edge total** —
//! bitwise, because both engines share the closed-form cost functions
//! and the largest-degree tie rule.

use super::{initialize, measure_subgraph_jdm, TargetError, TargetJdm};
use crate::target_dv::TargetDv;
use sgr_estimate::Estimates;
use sgr_sample::Subgraph;

/// Per-degree step budget of the per-unit adjustment loop. The loop
/// provably terminates (every step either moves the marginal by at least
/// one or raises the target sum toward it), so the budget only bounds
/// *time*: a gap needing more steps than this is out of the oracle's
/// intended small-scale domain and returns a typed error.
pub const MAX_STEPS_PER_DEGREE: u64 = 10_000_000;

/// Per-unit build for the proposed method (initialization, Algorithm 3,
/// Algorithm 4, re-adjustment) — the oracle counterpart of
/// [`super::build`].
pub fn build(
    subgraph: &Subgraph,
    est: &Estimates,
    dv: &mut TargetDv,
) -> Result<TargetJdm, TargetError> {
    let mut jdm = initialize(est, dv.k_max);
    measure_subgraph_jdm(subgraph, dv, &mut jdm);
    adjust(&mut jdm, dv, false)?;
    modify_for_subgraph(&mut jdm);
    adjust(&mut jdm, dv, true)?;
    Ok(jdm)
}

/// Adjustment step (Algorithm 3), one unit per iteration: make every
/// marginal `s(k)` equal its target `s*(k) = k·n*(k)`, processing degrees
/// in decreasing order, never decreasing an entry below its lower limit
/// (`m'` when `floor_is_prime`), and raising `n*(k)` when decreasing is
/// impossible.
pub(crate) fn adjust(
    jdm: &mut TargetJdm,
    dv: &mut TargetDv,
    floor_is_prime: bool,
) -> Result<(), TargetError> {
    let k_max = jdm.k_max;
    // Current marginals.
    let mut s: Vec<i64> = jdm.marginals().iter().map(|&v| v as i64).collect();
    let s_target = |dv: &TargetDv, k: usize| (k as u64 * dv.n_star[k]) as i64;
    // D: degrees whose marginal is off, plus degree 1.
    let mut in_d = vec![false; k_max + 1];
    for k in 1..=k_max {
        in_d[k] = s[k] != s_target(dv, k);
    }
    in_d[1] = true;
    let mut processed = vec![false; k_max + 1];

    for k in (1..=k_max).rev() {
        if !in_d[k] {
            continue;
        }
        if k == 1 && (s[1] - s_target(dv, 1)).rem_euclid(2) == 1 {
            // Only m*(1,1) is adjustable at degree 1 (±2 per step): make
            // the gap even by raising n*(1).
            dv.bump(1, 1);
        }
        let mut guard = 0u64;
        while s[k] != s_target(dv, k) {
            guard += 1;
            if guard > MAX_STEPS_PER_DEGREE {
                return Err(TargetError::NonConvergence {
                    degree: k,
                    marginal: s[k],
                    target: s_target(dv, k),
                });
            }
            if s[k] < s_target(dv, k) {
                // Increase some m*(k, k').
                let exclude_diag = s[k] == s_target(dv, k) - 1;
                let pick = pick_min(1..=k, |k2| {
                    if !in_d[k2] || processed[k2] || (exclude_diag && k2 == k) {
                        None
                    } else {
                        Some(jdm.delta_plus(k, k2))
                    }
                });
                // D'+(k) is never empty (contains degree 1); an empty
                // pick means corrupted state.
                let Some(k2) = pick else {
                    return Err(TargetError::NonConvergence {
                        degree: k,
                        marginal: s[k],
                        target: s_target(dv, k),
                    });
                };
                jdm.inc(k, k2);
                s[k] += TargetJdm::mu(k, k2) as i64;
                if k2 != k {
                    s[k2] += 1;
                }
            } else {
                // Decrease some m*(k, k') above its lower limit.
                let exclude_diag = s[k] == s_target(dv, k) + 1;
                let pick = pick_min(1..=k, |k2| {
                    let floor_lim = if floor_is_prime { jdm.prime(k, k2) } else { 0 };
                    if !in_d[k2]
                        || processed[k2]
                        || (exclude_diag && k2 == k)
                        || jdm.get(k, k2) <= floor_lim
                    {
                        None
                    } else {
                        Some(jdm.delta_minus(k, k2))
                    }
                });
                match pick {
                    Some(k2) => {
                        jdm.dec(k, k2);
                        s[k] -= TargetJdm::mu(k, k2) as i64;
                        if k2 != k {
                            s[k2] -= 1;
                        }
                    }
                    None => {
                        // Shift toward adjustment-by-increase by raising
                        // the target sum.
                        if k == 1 {
                            dv.bump(1, 2);
                        } else {
                            dv.bump(k, 1);
                        }
                    }
                }
            }
        }
        processed[k] = true;
    }
    Ok(())
}

/// Modification step (Algorithm 4), one unit per iteration: raise
/// `m*(k1,k2)` up to the subgraph's `m'(k1,k2)`, compensating each unit
/// increase by decreasing a donor entry in row `k1` and one in row `k2`
/// (both strictly above their own subgraph counts) and crediting the
/// donors' crossing entry, so the marginals and the total edge count are
/// retained whenever donors exist.
pub(crate) fn modify_for_subgraph(jdm: &mut TargetJdm) {
    let k_max = jdm.k_max;
    for k1 in 1..=k_max {
        for k2 in k1..=k_max {
            while jdm.get(k1, k2) < jdm.prime(k1, k2) {
                jdm.inc(k1, k2);
                let k3 = pick_min(1..=k_max, |k| {
                    if k != k1 && jdm.get(k1, k) > jdm.prime(k1, k) {
                        Some(jdm.delta_minus(k1, k))
                    } else {
                        None
                    }
                });
                if let Some(k3) = k3 {
                    jdm.dec(k1, k3);
                }
                let k4 = pick_min(1..=k_max, |k| {
                    if k != k2 && jdm.get(k2, k) > jdm.prime(k2, k) {
                        Some(jdm.delta_minus(k2, k))
                    } else {
                        None
                    }
                });
                if let Some(k4) = k4 {
                    jdm.dec(k2, k4);
                }
                if let (Some(k3), Some(k4)) = (k3, k4) {
                    jdm.inc(k3, k4);
                }
            }
        }
    }
}

/// Selects the largest key with minimum value among candidates (the
/// deterministic tie rule both engines share — see the parent module's
/// determinism section).
pub(crate) fn pick_min<I, F>(range: I, mut value: F) -> Option<usize>
where
    I: IntoIterator<Item = usize>,
    F: FnMut(usize) -> Option<f64>,
{
    let mut best: Option<(usize, f64)> = None;
    for k in range {
        let Some(v) = value(k) else { continue };
        match best {
            None => best = Some((k, v)),
            Some((_, bv)) if v <= bv => best = Some((k, v)),
            _ => {}
        }
    }
    best.map(|(k, _)| k)
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

    #[test]
    fn reference_conditions_hold_across_seeds() {
        for seed in 0..4 {
            let (sg, est) = setup(400, 0.1, seed);
            let mut rng = Xoshiro256pp::seed_from_u64(seed + 90);
            let mut dv = target_dv::build(&sg, &est, &mut rng);
            let jdm = build(&sg, &est, &mut dv).unwrap();
            let s = jdm.marginals();
            #[allow(clippy::needless_range_loop)]
            for k in 1..=jdm.k_max {
                assert_eq!(s[k], k as u64 * dv.n_star[k], "marginal at {k}");
                for k2 in 1..=jdm.k_max {
                    assert!(jdm.get(k, k2) >= jdm.prime(k, k2), "JDM-4 at ({k},{k2})");
                }
            }
            assert_eq!(dv.degree_sum() % 2, 0);
        }
    }

    #[test]
    fn pick_min_prefers_smallest_value_then_largest_key() {
        let vals = [3.0, 1.0, 2.0, 1.0];
        assert_eq!(pick_min(0..4, |i| Some(vals[i])), Some(3));
        assert_eq!(pick_min(0..4, |i| Some(i as f64)), Some(0));
        assert_eq!(
            pick_min(0..4, |_| Some(f64::INFINITY)),
            Some(3),
            "all-infinite candidate sets pick the largest key"
        );
        assert!(pick_min(0..4, |_| None::<f64>).is_none());
    }
}
