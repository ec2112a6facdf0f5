//! Phase 1 — constructing the target degree vector `{n*(k)}` (§IV-B,
//! Algorithms 1 and 2).
//!
//! The modification step (Algorithm 2) draws each visible node's target
//! degree uniformly from the multiset in which degree `k` appears
//! `n*(k) − n'(k)` times, restricted to `k ≥ d'`. The draw is backed by a
//! [`Fenwick`] tree over the free-slot counts: suffix total and weighted
//! selection are both `O(log k*_max)` per node instead of an `O(k*_max)`
//! scan, and the tree consumes **exactly one RNG draw per node with free
//! slots — the same stream as the scan it replaced**, so `d*` assignments
//! are bit-identical to the per-unit implementation's.

use sgr_estimate::Estimates;
use sgr_sample::Subgraph;
use sgr_util::bucket::Fenwick;
use sgr_util::Xoshiro256pp;

/// The target degree vector plus the per-node target-degree assignment of
/// the subgraph nodes.
#[derive(Clone, Debug)]
pub struct TargetDv {
    /// `n*(k)` indexed by degree `0 ..= k_max` (index 0 always 0).
    pub n_star: Vec<u64>,
    /// `n'(k)` — number of subgraph nodes already assigned target degree
    /// `k`. Always `n'(k) ≤ n*(k)` (condition DV-3).
    pub n_prime: Vec<u64>,
    /// `d*_i` for each subgraph node (dense subgraph ids). Empty for an
    /// empty subgraph (the Gjoka baseline).
    pub d_star: Vec<u32>,
    /// Target maximum degree `k*_max`.
    pub k_max: usize,
    /// `n̂(k) = n̂ P̂(k)` — the raw estimates the error terms `Δ±(k)`
    /// reference.
    pub n_hat_k: Vec<f64>,
}

impl TargetDv {
    /// `Σ_k k n*(k)` — the target degree sum.
    pub fn degree_sum(&self) -> u64 {
        self.n_star
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum()
    }

    /// Total target node count `Σ_k n*(k)`.
    pub fn num_nodes(&self) -> u64 {
        self.n_star.iter().sum()
    }

    /// `Δ+(k)` — the relative-error increase from incrementing `n*(k)`
    /// (∞ when `P̂(k) = 0`, i.e. no estimate to be faithful to).
    pub fn delta_plus(&self, k: usize) -> f64 {
        let hat = self.n_hat_k.get(k).copied().unwrap_or(0.0);
        if hat <= 0.0 {
            return f64::INFINITY;
        }
        let cur = self.n_star[k] as f64;
        ((hat - (cur + 1.0)).abs() - (hat - cur).abs()) / hat
    }

    /// Increments `n*(k)`, keeping `n_star` dense.
    pub fn bump(&mut self, k: usize, by: u64) {
        self.n_star[k] += by;
    }
}

/// Builds the target degree vector: initialization, adjustment
/// (Algorithm 1), modification constrained by the subgraph (Algorithm 2),
/// and a final re-adjustment if the modification broke the even-sum
/// condition. On an empty subgraph (Gjoka et al.'s baseline, Appendix B)
/// only initialization and adjustment do anything, and no RNG is drawn.
pub fn build(subgraph: &Subgraph, est: &Estimates, rng: &mut Xoshiro256pp) -> TargetDv {
    let mut dv = initialize(est, k_max(subgraph, est));
    adjust_even_sum(&mut dv);
    modify_for_subgraph(&mut dv, subgraph, rng);
    adjust_even_sum(&mut dv);
    debug_assert!(dv
        .n_prime
        .iter()
        .zip(dv.n_star.iter())
        .all(|(&np, &ns)| np <= ns));
    dv
}

/// The target degree range `k*_max`: the largest estimated degree or
/// the subgraph's largest degree, at least 1. Every stage after targeting
/// sizes its per-degree vectors by it.
pub(crate) fn k_max(sg: &Subgraph, est: &Estimates) -> usize {
    est.max_degree().max(sg.graph.max_degree()).max(1)
}

/// Initialization step (§IV-B-1): `n*(k) = max(NearInt(n̂ P̂(k)), 1)`
/// wherever `P̂(k) > 0`, over degrees `1 ..= k_max`. A positive estimate
/// implies at least one node of that degree exists in the original graph.
fn initialize(est: &Estimates, k_max: usize) -> TargetDv {
    let mut n_hat_k = vec![0.0f64; k_max + 1];
    let mut n_star = vec![0u64; k_max + 1];
    for k in 1..=k_max {
        let p = est.degree_prob(k);
        if p > 0.0 {
            let hat = est.n_hat * p;
            n_hat_k[k] = hat;
            n_star[k] = sgr_util::stats::near_int(hat).max(1) as u64;
        }
    }
    TargetDv {
        n_star,
        n_prime: vec![0; k_max + 1],
        d_star: Vec::new(),
        k_max,
        n_hat_k,
    }
}

/// Adjustment step (Algorithm 1): if the degree sum is odd, increment
/// `n*(k)` for the odd `k` with the smallest error increase `Δ+(k)`
/// (smallest `k` on ties).
///
/// When **every** odd degree has `Δ+(k) = ∞` (no odd degree carries a
/// positive estimate `P̂(k)`), the error terms give no guidance. Rather
/// than silently minting a degree-1 node the estimates never saw, prefer
/// the smallest odd degree whose class already exists in the target
/// (`n*(k) > 0` — typically forced there by the subgraph's own degrees).
/// An odd degree sum always carries an odd `k` with odd `n*(k)`, so that
/// search cannot come up empty; the final `unwrap_or(1)` (one extra
/// leaf, the cheapest perturbation) is a defensive default kept for the
/// impossible branch rather than a reachable policy.
pub(crate) fn adjust_even_sum(dv: &mut TargetDv) {
    if dv.degree_sum().is_multiple_of(2) {
        return;
    }
    let mut best_k = None;
    let mut best = f64::INFINITY;
    for k in (1..=dv.k_max).step_by(2) {
        let d = dv.delta_plus(k);
        if d < best {
            best = d;
            best_k = Some(k);
        }
    }
    let k = best_k.unwrap_or_else(|| {
        (1..=dv.k_max)
            .step_by(2)
            .find(|&k| dv.n_star[k] > 0)
            .unwrap_or(1)
    });
    dv.bump(k, 1);
}

/// Modification step (Algorithm 2): assign target degrees to the subgraph
/// nodes — queried nodes keep their exact degree (Lemma 1), visible nodes
/// draw a target degree ≥ their subgraph degree — raising `n*(k)` wherever
/// the assignment overflows it (condition DV-3).
fn modify_for_subgraph(dv: &mut TargetDv, sg: &Subgraph, rng: &mut Xoshiro256pp) {
    let n_sub = sg.num_nodes();
    dv.d_star = vec![0u32; n_sub];
    // Queried nodes: d* = d' (their full neighborhood was observed).
    for u in sg.queried_nodes() {
        dv.d_star[u as usize] = sg.graph.degree(u) as u32;
    }
    // Present per-degree assignment counts n'(k).
    for u in sg.queried_nodes() {
        let k = dv.d_star[u as usize] as usize;
        dv.n_prime[k] += 1;
    }
    for k in 1..=dv.k_max {
        if dv.n_star[k] < dv.n_prime[k] {
            dv.n_star[k] = dv.n_prime[k];
        }
    }
    // Free-slot counts n*(k) − n'(k), kept current in a Fenwick tree so
    // each node's suffix total and uniform draw cost O(log k*_max).
    let free: Vec<u64> = (0..=dv.k_max)
        .map(|k| {
            if k == 0 {
                0
            } else {
                dv.n_star[k] - dv.n_prime[k]
            }
        })
        .collect();
    let mut slots = Fenwick::from_counts(&free);
    // Visible nodes in decreasing subgraph-degree order: heavy-tailed
    // graphs leave high-degree nodes the fewest candidate targets.
    let mut visible: Vec<u32> = sg.visible_nodes().collect();
    visible.sort_by_key(|&u| std::cmp::Reverse((sg.graph.degree(u), u)));
    for &u in &visible {
        let d_sub = sg.graph.degree(u);
        // D_seq(i): degree k appears n*(k) - n'(k) times for k ≥ d'.
        let total = slots.suffix(d_sub);
        let chosen = if total > 0 {
            // Uniform draw from the multiset without materializing it —
            // one gen_range, exactly like the linear scan it replaced.
            let rank = rng.gen_range(total as usize) as u64;
            let pick = slots.select_in_suffix(d_sub, rank);
            slots.add(pick, -1);
            pick
        } else {
            // No free slot: take the degree in [d', k*max] with the
            // smallest error increase (smallest k on ties). n*(chosen)
            // grows alongside n'(chosen), so the slot count stays zero.
            let mut best_k = d_sub.max(1);
            let mut best = f64::INFINITY;
            for k in d_sub.max(1)..=dv.k_max {
                let d = dv.delta_plus(k);
                if d < best {
                    best = d;
                    best_k = k;
                }
            }
            best_k
        };
        dv.d_star[u as usize] = chosen as u32;
        dv.n_prime[chosen] += 1;
        if dv.n_star[chosen] < dv.n_prime[chosen] {
            dv.n_star[chosen] = dv.n_prime[chosen];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_sample::{random_walk, AccessModel};

    fn setup(n: usize, frac: f64, seed: u64) -> (sgr_graph::Graph, Subgraph, Estimates) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = sgr_gen::holme_kim(n, 3, 0.5, &mut rng).unwrap();
        let mut am = AccessModel::new(&g);
        let start = am.random_seed(&mut rng);
        let target = ((n as f64 * frac) as usize).max(3);
        let crawl = random_walk(&mut am, start, target, &mut rng);
        let sg = crawl.subgraph();
        let est = sgr_estimate::estimate_all(&crawl).unwrap();
        (g, sg, est)
    }

    #[test]
    fn conditions_dv1_dv2_dv3_hold() {
        for seed in 0..5 {
            let (_, sg, est) = setup(500, 0.1, seed);
            let mut rng = Xoshiro256pp::seed_from_u64(seed + 100);
            let dv = build(&sg, &est, &mut rng);
            // DV-2: even degree sum.
            assert_eq!(dv.degree_sum() % 2, 0, "odd degree sum (seed {seed})");
            // DV-3: n* dominates n'.
            for k in 0..=dv.k_max {
                assert!(dv.n_star[k] >= dv.n_prime[k], "DV-3 broken at k={k}");
            }
            // Queried nodes keep exact degrees.
            for u in sg.queried_nodes() {
                assert_eq!(dv.d_star[u as usize] as usize, sg.graph.degree(u));
            }
            // Visible nodes: target ≥ subgraph degree.
            for u in sg.visible_nodes() {
                assert!(dv.d_star[u as usize] as usize >= sg.graph.degree(u));
            }
            // n'(k) consistent with d_star.
            let mut counts = vec![0u64; dv.k_max + 1];
            for &d in &dv.d_star {
                counts[d as usize] += 1;
            }
            assert_eq!(counts, dv.n_prime);
        }
    }

    #[test]
    fn positive_estimates_guarantee_a_node() {
        let (_, sg, est) = setup(400, 0.1, 9);
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let dv = build(&sg, &est, &mut rng);
        for k in 1..=dv.k_max.min(est.degree_dist.len() - 1) {
            if est.degree_prob(k) > 0.0 {
                assert!(dv.n_star[k] >= 1, "P̂({k}) > 0 but n*({k}) = 0");
            }
        }
    }

    #[test]
    fn gjoka_variant_skips_modification() {
        let (_, _, est) = setup(400, 0.1, 11);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let dv = build(&Subgraph::empty(), &est, &mut rng);
        assert!(dv.d_star.is_empty());
        assert_eq!(dv.degree_sum() % 2, 0);
    }

    #[test]
    fn fenwick_draw_matches_linear_scan_stream() {
        // The Fenwick-backed Algorithm 2 must reproduce the linear scan's
        // draws bit-for-bit: same RNG consumption, same slot selected.
        // Replay the scan manually against a clone of the inputs.
        for seed in 0..4 {
            let (_, sg, est) = setup(400, 0.12, seed);
            let mut rng_fast = Xoshiro256pp::seed_from_u64(seed + 500);
            let mut rng_ref = rng_fast.clone();
            let dv_fast = build(&sg, &est, &mut rng_fast);

            // Reference replay: initialization + adjustment, then the
            // original per-node linear scan.
            let mut dv = initialize(&est, k_max(&sg, &est));
            adjust_even_sum(&mut dv);
            let n_sub = sg.num_nodes();
            dv.d_star = vec![0u32; n_sub];
            for u in sg.queried_nodes() {
                dv.d_star[u as usize] = sg.graph.degree(u) as u32;
            }
            for u in sg.queried_nodes() {
                dv.n_prime[sg.graph.degree(u)] += 1;
            }
            for k in 1..=dv.k_max {
                dv.n_star[k] = dv.n_star[k].max(dv.n_prime[k]);
            }
            let mut visible: Vec<u32> = sg.visible_nodes().collect();
            visible.sort_by_key(|&u| std::cmp::Reverse((sg.graph.degree(u), u)));
            for &u in &visible {
                let d_sub = sg.graph.degree(u);
                let total: u64 = (d_sub..=dv.k_max)
                    .map(|k| dv.n_star[k] - dv.n_prime[k])
                    .sum();
                let chosen = if total > 0 {
                    let mut target = rng_ref.gen_range(total as usize) as u64;
                    let mut pick = d_sub;
                    for k in d_sub..=dv.k_max {
                        let slots = dv.n_star[k] - dv.n_prime[k];
                        if target < slots {
                            pick = k;
                            break;
                        }
                        target -= slots;
                    }
                    pick
                } else {
                    let mut best_k = d_sub.max(1);
                    let mut best = f64::INFINITY;
                    for k in d_sub.max(1)..=dv.k_max {
                        let d = dv.delta_plus(k);
                        if d < best {
                            best = d;
                            best_k = k;
                        }
                    }
                    best_k
                };
                dv.d_star[u as usize] = chosen as u32;
                dv.n_prime[chosen] += 1;
                dv.n_star[chosen] = dv.n_star[chosen].max(dv.n_prime[chosen]);
            }
            adjust_even_sum(&mut dv);

            assert_eq!(dv_fast.d_star, dv.d_star, "d* diverged (seed {seed})");
            assert_eq!(dv_fast.n_star, dv.n_star, "n* diverged (seed {seed})");
            assert_eq!(
                rng_fast.next_u64(),
                rng_ref.next_u64(),
                "RNG streams diverged (seed {seed})"
            );
        }
    }

    #[test]
    fn adjust_even_sum_prefers_small_error() {
        // n̂(1) = 10 with n*(1) = 10 (incrementing costs 1/10);
        // n̂(3) = 2.4 with n*(3) = 2 (incrementing toward 2.4 REDUCES
        // error: Δ+ < 0) → k = 3 chosen despite being larger.
        let mut dv = TargetDv {
            n_star: vec![0, 10, 0, 2],
            n_prime: vec![0; 4],
            d_star: Vec::new(),
            k_max: 3,
            n_hat_k: vec![0.0, 10.0, 0.0, 2.4],
        };
        assert_eq!(dv.degree_sum() % 2, 0); // 10 + 6 = 16 even → no-op
        adjust_even_sum(&mut dv);
        assert_eq!(dv.n_star, vec![0, 10, 0, 2]);
        // Make it odd: degree sum 10 + 9 = 19.
        dv.n_star[3] = 3;
        dv.n_hat_k[3] = 3.4;
        adjust_even_sum(&mut dv);
        // Δ+(1) = (|10-11|-0)/10 = 0.1; Δ+(3) = (|3.4-4|-|3.4-3|)/3.4 ≈ 0.059.
        assert_eq!(dv.n_star[3], 4);
        assert_eq!(dv.degree_sum() % 2, 0);
    }

    #[test]
    fn adjust_even_sum_all_infinite_prefers_existing_odd_class() {
        // No odd degree has a positive estimate (every Δ+ is ∞), but the
        // subgraph forced n*(3) > 0: the fix must perturb that existing
        // class instead of minting a degree-1 node the estimates never
        // saw.
        let mut dv = TargetDv {
            n_star: vec![0, 0, 4, 5, 0],
            n_prime: vec![0; 5],
            d_star: Vec::new(),
            k_max: 4,
            n_hat_k: vec![0.0, 0.0, 4.0, 0.0, 0.0],
        };
        assert_eq!(dv.degree_sum() % 2, 1); // 8 + 15 = 23 odd
        adjust_even_sum(&mut dv);
        assert_eq!(dv.n_star, vec![0, 0, 4, 6, 0]);
        assert_eq!(dv.degree_sum() % 2, 0);
    }

    #[test]
    fn adjust_even_sum_all_infinite_uses_smallest_existing_odd_class() {
        // Only one odd class exists (degree 3, no estimate behind it):
        // the fix perturbs it rather than degree 1.
        let mut dv = TargetDv {
            n_star: vec![0, 0, 0, 1, 0],
            n_prime: vec![0; 5],
            d_star: Vec::new(),
            k_max: 4,
            n_hat_k: vec![0.0; 5],
        };
        assert_eq!(dv.degree_sum() % 2, 1);
        adjust_even_sum(&mut dv);
        assert_eq!(dv.n_star[3], 2);
        assert_eq!(dv.degree_sum() % 2, 0);

        // The documented degree-1 default: an odd degree sum always
        // carries some odd `k` with odd (hence positive) `n*(k)`, so the
        // `unwrap_or(1)` arm is a defensive dead end by parity — the
        // smallest existing odd class is always found. Degree 1 itself
        // being that class exercises the smallest-possible outcome.
        let mut dv = TargetDv {
            n_star: vec![0, 1, 0, 0, 0],
            n_prime: vec![0; 5],
            d_star: Vec::new(),
            k_max: 4,
            n_hat_k: vec![0.0; 5],
        };
        assert_eq!(dv.degree_sum() % 2, 1);
        adjust_even_sum(&mut dv);
        assert_eq!(dv.n_star[1], 2);
        assert_eq!(dv.degree_sum() % 2, 0);
    }

    #[test]
    fn high_degree_visible_hub_is_accommodated() {
        // Build a crawl where a visible node has higher subgraph degree
        // than any queried node's true degree: query many leaves of a
        // star without querying the hub.
        let g = sgr_gen::classic::star(30);
        let mut crawl = sgr_sample::Crawl::default();
        for leaf in 1..=20u32 {
            crawl.seq.push(leaf);
            crawl.neighbors.insert(leaf, g.neighbors(leaf).to_vec());
        }
        let sg = crawl.subgraph();
        assert_eq!(sg.graph.max_degree(), 20); // hub visible with 20 edges
        let est = sgr_estimate::estimate_all(&crawl).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let dv = build(&sg, &est, &mut rng);
        // k*max covers the hub's subgraph degree.
        assert!(dv.k_max >= 20);
        // The hub got a target ≥ 20 and n* accounts for it.
        let hub_dense = sg.visible_nodes().next().unwrap();
        assert!(dv.d_star[hub_dense as usize] >= 20);
    }
}
