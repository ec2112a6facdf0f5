//! # sgr-estimate
//!
//! Re-weighted random walk estimators of local structural properties
//! (§III-E of the paper).
//!
//! A simple random walk samples nodes with stationary probability
//! proportional to degree; these estimators re-weight the sample to undo
//! that bias. [`estimate_all`] computes all five from the sampling list
//! `L = ((x_i, N(x_i)))` alone — never the hidden graph — and bundles
//! them as [`Estimates`]:
//!
//! * `n̂` — the collision estimator of the number of nodes (Hardiman &
//!   Katzir / Katzir et al.), with pair-gap threshold `M = 0.025 r`;
//! * `k̄̂ = 1 / Φ̄` with `Φ̄ = (1/r) Σ 1/d_{x_i}` (harmonic-mean
//!   estimator);
//! * `P̂(k) = Φ(k) / Φ̄`;
//! * `P̂(k, k')` — the hybrid joint-degree-distribution estimator
//!   combining induced edges (IE) and traversed edges (TE) with threshold
//!   `k + k' ≥ 2 k̄̂` (Gjoka et al.; the paper proves its asymptotic
//!   unbiasedness in Appendix A);
//! * `ĉ̄(k) = Φ_c̄(k) / Φ(k)` — the degree-dependent clustering estimator
//!   (Hardiman & Katzir).
//!
//! # The walk index
//!
//! Every estimator reads the walk through one index, built in a single
//! hash pass over the visit sequence: walked nodes get dense *walk ids*
//! in first-visit order, and the index holds each step's id and degree,
//! the ascending steps at which each walked node was visited (a CSR), and
//! each walked node's neighbour list with every neighbour translated to
//! its walk id (`u32::MAX` for a node the walk never stood on). The size
//! estimator's collision count, the JDD's induced-edge (IE) tallies and
//! the clustering estimator's `A(x_{i-1}, x_{i+1})` tests are then array
//! reads; no estimator hashes a node id again.

use sgr_sample::Crawl;
use sgr_util::{FxHashMap, FxHashSet};

/// Errors from the estimators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The walk is too short to estimate from; carries the minimum
    /// length required.
    WalkTooShort { len: usize, need: usize },
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::WalkTooShort { len, need } => {
                write!(f, "walk of length {len} too short; need at least {need}")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// The fraction of the walk length used as the collision-pair gap
/// threshold `M` (the paper follows Hardiman & Katzir and uses `0.025 r`).
pub const PAIR_GAP_FRACTION: f64 = 0.025;

/// The shortest walk [`estimate_all`] accepts: `ĉ̄(k)` reads each inner
/// step's predecessor and successor.
const MIN_STEPS: usize = 3;

/// Marks a neighbour the walk never stood on in [`WalkIndex`].
const NOT_WALKED: u32 = u32::MAX;

/// The walk, indexed once for every estimator; see the module docs.
#[derive(Debug)]
struct WalkIndex {
    /// Walk id of each step; ids are dense, in first-visit order.
    step_id: Vec<u32>,
    /// Degree of each step's node.
    step_deg: Vec<u32>,
    /// Degree of each walked node, by walk id.
    deg: Vec<u32>,
    /// The steps of walk id `w`, ascending, are
    /// `steps[pos_offs[w] .. pos_offs[w + 1]]`.
    pos_offs: Vec<u32>,
    steps: Vec<u32>,
    /// `N(w)` in the crawl's order, each neighbour as its walk id or
    /// [`NOT_WALKED`], is `nbrs[nbr_offs[w] .. nbr_offs[w + 1]]`.
    nbr_offs: Vec<usize>,
    nbrs: Vec<u32>,
}

impl WalkIndex {
    fn build(crawl: &Crawl) -> Self {
        let r = crawl.len();
        let mut id_of: FxHashMap<u32, u32> = FxHashMap::default();
        let mut walked: Vec<&[u32]> = Vec::new();
        let mut step_id = Vec::with_capacity(r);
        for &x in &crawl.seq {
            let fresh = walked.len() as u32;
            let id = *id_of.entry(x).or_insert_with(|| {
                walked.push(crawl.neighbors_of(x));
                fresh
            });
            step_id.push(id);
        }
        let deg: Vec<u32> = walked.iter().map(|ns| ns.len() as u32).collect();
        let step_deg = step_id.iter().map(|&w| deg[w as usize]).collect();

        let mut pos_offs = vec![0u32; walked.len() + 1];
        for &w in &step_id {
            pos_offs[w as usize + 1] += 1;
        }
        for w in 0..walked.len() {
            pos_offs[w + 1] += pos_offs[w];
        }
        let mut cursor = pos_offs[..walked.len()].to_vec();
        let mut steps = vec![0u32; r];
        for (i, &w) in step_id.iter().enumerate() {
            steps[cursor[w as usize] as usize] = i as u32;
            cursor[w as usize] += 1;
        }

        let mut nbr_offs = Vec::with_capacity(walked.len() + 1);
        nbr_offs.push(0usize);
        let mut nbrs = Vec::with_capacity(deg.iter().map(|&d| d as usize).sum());
        for ns in &walked {
            nbrs.extend(
                ns.iter()
                    .map(|v| id_of.get(v).copied().unwrap_or(NOT_WALKED)),
            );
            nbr_offs.push(nbrs.len());
        }
        Self {
            step_id,
            step_deg,
            deg,
            pos_offs,
            steps,
            nbr_offs,
            nbrs,
        }
    }

    /// Walk length `r`.
    fn len(&self) -> usize {
        self.step_id.len()
    }

    /// The steps at which walk id `w` was visited, ascending.
    fn positions(&self, w: u32) -> &[u32] {
        let w = w as usize;
        &self.steps[self.pos_offs[w] as usize..self.pos_offs[w + 1] as usize]
    }

    /// `N(w)` as walk ids ([`NOT_WALKED`] for unwalked neighbours).
    fn neighbors(&self, w: u32) -> &[u32] {
        let w = w as usize;
        &self.nbrs[self.nbr_offs[w]..self.nbr_offs[w + 1]]
    }

    /// `A(a, b) > 0` as the sample shows it: `b ∈ N(a)` or `a ∈ N(b)`
    /// (both walked, so both queried).
    fn adjacent(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).contains(&b) || self.neighbors(b).contains(&a)
    }
}

/// The bundle of all five local-property estimates the restoration
/// pipeline consumes.
#[derive(Clone, Debug)]
pub struct Estimates {
    /// `n̂` — estimated number of nodes.
    pub n_hat: f64,
    /// `k̄̂` — estimated average degree.
    pub avg_degree_hat: f64,
    /// `P̂(k)` indexed by degree `k` (index 0 unused, 0.0).
    pub degree_dist: Vec<f64>,
    /// `P̂(k, k')` as a sparse symmetric map (both `(k,k')` and `(k',k)`
    /// present with equal values).
    pub jdd: FxHashMap<(u32, u32), f64>,
    /// `ĉ̄(k)` indexed by degree `k`.
    pub clustering: Vec<f64>,
}

impl Estimates {
    /// `P̂(k)` with out-of-range degrees reading 0.
    pub fn degree_prob(&self, k: usize) -> f64 {
        self.degree_dist.get(k).copied().unwrap_or(0.0)
    }

    /// Maximum degree with positive `P̂(k)`.
    pub fn max_degree(&self) -> usize {
        self.degree_dist.iter().rposition(|&p| p > 0.0).unwrap_or(0)
    }
}

/// Computes the pair-gap threshold `M = max(1, ⌊0.025 r⌋)`.
fn pair_gap(r: usize) -> usize {
    ((r as f64 * PAIR_GAP_FRACTION) as usize).max(1)
}

/// Number of **ordered** index pairs `(i, j)` with `1 ≤ i, j ≤ r` and
/// `|i - j| ≥ M`.
fn num_gap_pairs(r: usize, m: usize) -> u64 {
    let r = r as u64;
    let m = m as u64;
    if m >= r {
        return 0;
    }
    // Ordered pairs with |i-j| >= M: for each gap g in M..r there are
    // 2 * (r - g) ordered pairs.
    (m..r).map(|g| 2 * (r - g)).sum()
}

/// `n̂` — the collision estimator of the number of nodes
/// (§III-E; Hardiman & Katzir 2013, Katzir et al. 2011):
///
/// `n̂ = Σ_{(i,j)∈I} d_{x_i}/d_{x_j}  /  Σ_{(i,j)∈I} 1{x_i = x_j}`
///
/// over ordered pairs at least `M = 0.025 r` apart. When the walk contains
/// **no** collision pairs the estimator is undefined; this implementation
/// falls back to the observed node count (queried + visible), the natural
/// lower bound, which keeps short-walk pipelines total.
fn num_nodes(index: &WalkIndex, crawl: &Crawl) -> f64 {
    let r = index.len();
    let m = pair_gap(r);
    let degrees: Vec<f64> = index.step_deg.iter().map(|&d| d as f64).collect();
    // Numerator: Σ over ordered pairs d_i / d_j with |i-j| >= M.
    // = Σ_i d_i * (T - W_i) where T = Σ 1/d_j and W_i = Σ_{|i-j|<M} 1/d_j,
    // computed with a prefix-sum of 1/d.
    let inv: Vec<f64> = degrees.iter().map(|&d| 1.0 / d.max(1.0)).collect();
    let mut prefix = vec![0.0f64; r + 1];
    for i in 0..r {
        prefix[i + 1] = prefix[i] + inv[i];
    }
    let total_inv = prefix[r];
    let mut numerator = 0.0f64;
    for (i, &deg_i) in degrees.iter().enumerate() {
        let lo = i.saturating_sub(m - 1);
        let hi = (i + m).min(r); // window [lo, hi) has |i-j| < M
        let near = prefix[hi] - prefix[lo];
        numerator += deg_i * (total_inv - near);
    }
    // Denominator: ordered collision pairs with gap >= M.
    let mut collisions: u64 = 0;
    for w in 0..index.deg.len() as u32 {
        let list = index.positions(w);
        // Two-pointer count of unordered pairs with gap >= M.
        let mut lo = 0usize;
        for hi in 0..list.len() {
            while (list[hi] - list[lo]) as usize >= m {
                lo += 1;
            }
            collisions += lo as u64; // pairs (list[0..lo], list[hi])
        }
    }
    let collisions = collisions * 2; // ordered
    if collisions == 0 {
        // Fallback: the number of distinct observed nodes.
        let observed: FxHashSet<u32> = crawl
            .neighbors
            .iter()
            .flat_map(|(&q, ns)| std::iter::once(q).chain(ns.iter().copied()))
            .collect();
        return observed.len() as f64;
    }
    numerator / collisions as f64
}

/// `k̄̂ = 1 / Φ̄` with `Φ̄ = (1/r) Σ_i 1/d_{x_i}` (§III-E).
fn average_degree(index: &WalkIndex) -> f64 {
    let phi_bar: f64 = index
        .step_deg
        .iter()
        .map(|&d| 1.0 / (d as f64).max(1.0))
        .sum::<f64>()
        / index.len() as f64;
    1.0 / phi_bar
}

/// `P̂(k) = Φ(k) / Φ̄` with `Φ(k) = (1/(k r)) Σ_i 1{d_{x_i} = k}`
/// (§III-E). Returns a vector indexed by degree.
fn degree_distribution(index: &WalkIndex) -> Vec<f64> {
    let r = index.len();
    let max_deg = index.step_deg.iter().copied().max().unwrap_or(0) as usize;
    let mut counts = vec![0u64; max_deg + 1];
    let mut phi_bar = 0.0f64;
    for &d in &index.step_deg {
        counts[d as usize] += 1;
        phi_bar += 1.0 / (d as f64).max(1.0);
    }
    phi_bar /= r as f64;
    let mut dist = vec![0.0f64; max_deg + 1];
    for (k, &c) in counts.iter().enumerate().skip(1) {
        if c > 0 {
            let phi_k = c as f64 / (k as f64 * r as f64);
            dist[k] = phi_k / phi_bar;
        }
    }
    dist
}

/// The hybrid joint-degree-distribution estimator `P̂(k, k')` (§III-E)
/// from the walk's `n̂` and `k̄̂`: induced edges (IE) for high-degree
/// pairs (`k + k' ≥ 2 k̄̂`), traversed edges (TE) otherwise. IE pairs use
/// the same gap threshold `M` as the size estimator. The returned map is
/// symmetric bit for bit: the IE pass meets every step pair from both
/// ends and sums whole counts, and TE adds to both orientations.
///
/// The IE and TE tallies accumulate per degree pair in hash maps, each
/// key's contributions summed in walk order (ascending step, then
/// neighbour order), so every value is a fixed function of the walk; the
/// order in which keys enter a map does not matter.
fn jdd(index: &WalkIndex, n_hat: f64, k_hat: f64) -> FxHashMap<(u32, u32), f64> {
    let r = index.len();
    let m = pair_gap(r);
    let num_pairs = num_gap_pairs(r, m);

    // --- IE: Φ(k,k') = 1/(k k' |I|) Σ_{(i,j)∈I} 1{d=k, d=k'} A_{x_i x_j}.
    let mut ie: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    if num_pairs > 0 {
        for_each_induced_count(index, m, |k, k2, cnt| {
            *ie.entry((k, k2)).or_insert(0.0) += cnt;
        });
    }

    // --- TE: consecutive pairs, both orientations.
    let mut te: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    let te_norm = 1.0 / (2.0 * (r as f64 - 1.0));
    for pair in index.step_deg.windows(2) {
        let (k, k2) = (pair[0], pair[1]);
        *te.entry((k, k2)).or_insert(0.0) += te_norm;
        *te.entry((k2, k)).or_insert(0.0) += te_norm;
    }

    // --- Hybrid with threshold 2 k̄̂.
    let mut out: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    let threshold = 2.0 * k_hat;
    for (&(k, k2), &raw) in &ie {
        if (k + k2) as f64 >= threshold {
            let phi = raw / (k as f64 * k2 as f64 * num_pairs as f64);
            let p = n_hat * k_hat * phi;
            if p > 0.0 {
                out.insert((k, k2), p);
            }
        }
    }
    for (&(k, k2), &p) in &te {
        if ((k + k2) as f64) < threshold && p > 0.0 {
            out.insert((k, k2), p);
        }
    }
    out
}

/// The IE pass: for each step `i` (ascending) and each walked neighbour
/// `u` of `x_i` (in neighbour order), calls `f(d_{x_i}, d_u, c)` with
/// `c > 0` the number of `u`'s visits at least `M` steps from `i`,
/// counted by binary search in `u`'s positions.
fn for_each_induced_count(index: &WalkIndex, m: usize, mut f: impl FnMut(u32, u32, f64)) {
    for (i, (&w, &k)) in index.step_id.iter().zip(&index.step_deg).enumerate() {
        for &u in index.neighbors(w) {
            if u == NOT_WALKED {
                continue;
            }
            let list = index.positions(u);
            // j <= i - M  or  j >= i + M
            let left = list.partition_point(|&j| j as usize + m <= i);
            let right = list.len() - list.partition_point(|&j| (j as usize) < i + m);
            let cnt = (left + right) as f64;
            if cnt > 0.0 {
                f(k, index.deg[u as usize], cnt);
            }
        }
    }
}

/// `ĉ̄(k) = Φ_c̄(k) / Φ(k)` — the degree-dependent clustering estimator
/// (§III-E; Hardiman & Katzir 2013):
///
/// `Φ_c̄(k) = 1/((k-1)(r-2)) Σ_{i=2}^{r-1} 1{d_{x_i} = k} A_{x_{i-1} x_{i+1}}`
///
/// The adjacency between the predecessor and successor is observable
/// because both were queried: it holds when either lists the other.
fn clustering(index: &WalkIndex) -> Vec<f64> {
    let r = index.len();
    let max_deg = index.step_deg.iter().copied().max().unwrap_or(0) as usize;
    let mut phi_c = vec![0.0f64; max_deg + 1];
    let mut phi = vec![0.0f64; max_deg + 1];
    for i in 0..r {
        let d = index.step_deg[i] as usize;
        phi[d] += 1.0 / (d as f64 * r as f64).max(1.0);
        if i >= 1 && i + 1 < r {
            let prev = index.step_id[i - 1];
            let next = index.step_id[i + 1];
            if d >= 2 && index.adjacent(prev, next) {
                phi_c[d] += 1.0 / ((d as f64 - 1.0) * (r as f64 - 2.0));
            }
        }
    }
    let mut out = vec![0.0f64; max_deg + 1];
    for k in 2..=max_deg {
        if phi[k] > 0.0 {
            out[k] = phi_c[k] / phi[k];
        }
    }
    out
}

/// Computes all five estimates (§III-E) from one walk index, with `n̂`
/// computed once and shared with the JDD. Refuses a walk of fewer than
/// three steps with [`EstimateError::WalkTooShort`].
pub fn estimate_all(crawl: &Crawl) -> Result<Estimates, EstimateError> {
    let r = crawl.len();
    if r < MIN_STEPS {
        return Err(EstimateError::WalkTooShort {
            len: r,
            need: MIN_STEPS,
        });
    }
    let index = WalkIndex::build(crawl);
    let n_hat = num_nodes(&index, crawl);
    let avg_degree_hat = average_degree(&index);
    Ok(Estimates {
        n_hat,
        avg_degree_hat,
        degree_dist: degree_distribution(&index),
        jdd: jdd(&index, n_hat, avg_degree_hat),
        clustering: clustering(&index),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::complete;
    use sgr_sample::{random_walk, AccessModel};
    use sgr_util::Xoshiro256pp;

    fn walk_on(g: &sgr_graph::Graph, target: usize, seed: u64) -> Crawl {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut am = AccessModel::new(g);
        let start = am.random_seed(&mut rng);
        let mut crawl = random_walk(&mut am, start, target, &mut rng);
        // Extend the walk to several times the query target so estimator
        // statistics (collisions, consecutive pairs) are plentiful.
        let extra_steps = target * 10;
        let mut current = *crawl.seq.last().unwrap();
        for _ in 0..extra_steps {
            let nbrs = crawl.neighbors_of(current);
            if nbrs.is_empty() {
                break;
            }
            let next = nbrs[rng.gen_range(nbrs.len())];
            crawl.neighbors.entry(next).or_insert_with(|| {
                let fetched = am.query(next).to_vec();
                fetched
            });
            crawl.seq.push(next);
            current = next;
        }
        crawl
    }

    #[test]
    fn complete_graph_estimates_are_exact_shaped() {
        // On K_20 every degree is 19, clustering 1, n = 20.
        let g = complete(20);
        let crawl = walk_on(&g, 20, 1);
        let est = estimate_all(&crawl).unwrap();
        assert!((est.avg_degree_hat - 19.0).abs() < 1e-9);
        assert!((est.degree_prob(19) - 1.0).abs() < 1e-9);
        assert_eq!(est.max_degree(), 19);
        // ĉ̄(19) = (k/(k-1)) * P(no backtrack) in expectation = 1 exactly,
        // but each sample fluctuates with the backtrack count.
        assert!((est.clustering[19] - 1.0).abs() < 0.05);
        // Collision estimator close to 20.
        assert!((est.n_hat - 20.0).abs() < 6.0, "n_hat = {}", est.n_hat);
        // JDD mass concentrates at (19, 19).
        let p = est.jdd[&(19, 19)];
        assert!((p - 1.0).abs() < 0.4, "P(19,19) = {p}");
    }

    #[test]
    fn average_degree_on_social_graph() {
        let g = sgr_gen::holme_kim(2000, 4, 0.4, &mut Xoshiro256pp::seed_from_u64(2)).unwrap();
        let crawl = walk_on(&g, 400, 3);
        let est = average_degree(&WalkIndex::build(&crawl));
        let truth = g.average_degree();
        assert!(
            (est - truth).abs() / truth < 0.15,
            "estimated {est}, true {truth}"
        );
    }

    #[test]
    fn size_estimator_on_social_graph() {
        let g = sgr_gen::holme_kim(1000, 4, 0.4, &mut Xoshiro256pp::seed_from_u64(4)).unwrap();
        let crawl = walk_on(&g, 300, 5);
        let n_hat = num_nodes(&WalkIndex::build(&crawl), &crawl);
        assert!(
            (n_hat - 1000.0).abs() / 1000.0 < 0.35,
            "n_hat = {n_hat} vs 1000"
        );
    }

    #[test]
    fn degree_distribution_sums_to_about_one() {
        let g = sgr_gen::holme_kim(1500, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(6)).unwrap();
        let crawl = walk_on(&g, 300, 7);
        let dist = degree_distribution(&WalkIndex::build(&crawl));
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 0.15, "ΣP̂(k) = {total}");
        // Minimum degree of HK graph is m = 3; nothing below.
        assert_eq!(dist[1], 0.0);
        assert_eq!(dist[2], 0.0);
        assert!(dist[3] > 0.0);
    }

    #[test]
    fn jdd_is_symmetric_and_positive() {
        let g = sgr_gen::holme_kim(800, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(8)).unwrap();
        let crawl = walk_on(&g, 200, 9);
        let jdd = estimate_all(&crawl).unwrap().jdd;
        assert!(!jdd.is_empty());
        for (&(k, k2), &p) in jdd.iter() {
            assert!(p > 0.0);
            let mirror = jdd.get(&(k2, k)).copied().unwrap_or(-1.0);
            assert_eq!(
                p.to_bits(),
                mirror.to_bits(),
                "asymmetric entry ({k},{k2}): {p} vs {mirror}"
            );
        }
        // Total mass should be within a factor ~2 of 1 on a decent walk.
        let total: f64 = jdd
            .iter()
            .map(|(&(k, k2), &p)| if k <= k2 { p } else { 0.0 })
            .sum();
        assert!(total > 0.3 && total < 2.5, "JDD mass (upper tri) = {total}");
    }

    #[test]
    fn clustering_zero_on_triangle_free_graph() {
        let g = sgr_gen::classic::complete_bipartite(6, 6);
        let crawl = walk_on(&g, 12, 10);
        let c = clustering(&WalkIndex::build(&crawl));
        assert!(c.iter().all(|&x| x == 0.0), "bipartite has no triangles");
    }

    #[test]
    fn short_walks_error() {
        let g = complete(5);
        let mut crawl = Crawl::default();
        for len in 0..MIN_STEPS {
            assert_eq!(
                estimate_all(&crawl).unwrap_err(),
                EstimateError::WalkTooShort { len, need: 3 }
            );
            let x = len as u32;
            crawl.seq.push(x);
            crawl.neighbors.insert(x, g.neighbors(x).to_vec());
        }
        assert!(estimate_all(&crawl).is_ok());
    }

    #[test]
    fn no_collision_fallback_counts_observed_nodes() {
        // A 2-step walk on a path has no repeat visits at gap >= M.
        let g = sgr_gen::classic::path(10);
        let mut crawl = Crawl::default();
        for x in [4u32, 5] {
            crawl.seq.push(x);
            crawl.neighbors.insert(x, g.neighbors(x).to_vec());
        }
        let n_hat = num_nodes(&WalkIndex::build(&crawl), &crawl);
        // Observed: 4, 5 queried; 3, 6 visible => 4 nodes.
        assert_eq!(n_hat, 4.0);
    }

    #[test]
    fn no_collision_fallback_reuses_observed_marks() {
        // The observed-node fallback on two different short walks: each
        // call counts its own walk's nodes and nothing of the other's.
        let g = sgr_gen::classic::path(10);
        for (a, b, expect) in [(4u32, 5u32, 4.0), (1, 2, 4.0)] {
            let mut crawl = Crawl::default();
            for x in [a, b] {
                crawl.seq.push(x);
                crawl.neighbors.insert(x, g.neighbors(x).to_vec());
            }
            assert_eq!(num_nodes(&WalkIndex::build(&crawl), &crawl), expect);
        }
    }

    #[test]
    fn gap_pair_count_formula() {
        // r = 5, M = 2: ordered pairs with |i-j| >= 2:
        // gaps 2,3,4 -> 2*(3+2+1) = 12.
        assert_eq!(num_gap_pairs(5, 2), 12);
        assert_eq!(num_gap_pairs(5, 5), 0);
        assert_eq!(num_gap_pairs(3, 1), 2 * (2 + 1));
    }

    #[test]
    fn frozen_hidden_graph_yields_identical_estimates() {
        // Crawling a CSR snapshot of the hidden graph (order-preserving)
        // must reproduce the walk — and therefore every estimate —
        // exactly: the estimators only ever see the sampling list.
        let g = sgr_gen::holme_kim(600, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(30)).unwrap();
        let csr = sgr_graph::CsrGraph::freeze(&g);
        fn walk<G: sgr_graph::GraphView>(am: &mut AccessModel<'_, G>) -> Crawl {
            let mut rng = Xoshiro256pp::seed_from_u64(31);
            random_walk(am, 0, 120, &mut rng)
        }
        let a = walk(&mut AccessModel::new(&g));
        let b = walk(&mut AccessModel::new(&csr));
        assert_eq!(a.seq, b.seq);
        let ea = estimate_all(&a).unwrap();
        let eb = estimate_all(&b).unwrap();
        assert_eq!(ea.n_hat.to_bits(), eb.n_hat.to_bits());
        assert_eq!(ea.avg_degree_hat.to_bits(), eb.avg_degree_hat.to_bits());
        assert_eq!(ea.degree_dist, eb.degree_dist);
        assert_eq!(ea.clustering, eb.clustering);
        assert_eq!(ea.jdd.len(), eb.jdd.len());
        for (k, v) in ea.jdd.iter() {
            assert_eq!(
                eb.jdd.get(k).copied().unwrap_or(f64::NAN).to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn estimates_accessors() {
        let g = complete(8);
        let crawl = walk_on(&g, 8, 11);
        let est = estimate_all(&crawl).unwrap();
        assert_eq!(est.degree_prob(1000), 0.0);
        assert_eq!(est.max_degree(), 7);
    }
}
