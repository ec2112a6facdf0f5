//! Largest adjacency eigenvalue `λ1` (property 12) by the Lanczos
//! iteration.
//!
//! The adjacency matrix `A` of an undirected (multi)graph is symmetric
//! with nonnegative entries, so `λ1` is its spectral radius and has a
//! nonnegative eigenvector (Perron–Frobenius).
//!
//! ## Recurrence
//!
//! From the uniform unit vector `q_1 = 1/√n` (and `β_0 = 0`), step `k`
//! of the symmetric three-term recurrence is
//!
//! ```text
//! α_k     = q_kᵀ A q_k
//! w       = A q_k − α_k q_k − β_{k−1} q_{k−1}
//! β_k     = ‖w‖,    q_{k+1} = w / β_k
//! ```
//!
//! The `α` and `β` are the diagonal and off-diagonal of a k×k
//! tridiagonal matrix `T_k`, whose eigenvalues (Ritz values) approximate
//! the extreme eigenvalues of `A` from inside. The top Ritz value `θ_k`
//! reaches `λ1` in far fewer steps than power iteration, because the
//! Krylov space of step k contains `p(A) q_1` for every polynomial `p` of
//! degree below k, not only `A^{k−1} q_1`. `α_k` is accumulated inside the
//! matrix–vector pass, so a step is exactly one pass over the adjacency.
//! `θ_k` comes from Sturm-count bisection on `T_k`: O(k) per probe and no
//! allocation beyond the `α`/`β` vectors. The uniform start has a
//! positive inner product with the nonnegative Perron vector, so `λ1`
//! is in reach on every graph, disconnected ones included.
//!
//! ## No reorthogonalization
//!
//! In floating point the `q_k` lose orthogonality, but only along Ritz
//! vectors that have converged (Paige). The symptom is that a converged
//! Ritz value reappears as a duplicate ("ghost") in later `T_k`; every
//! Ritz value still lies within rounding of the spectrum of `A`. For the
//! extreme eigenvalue a ghost is harmless: it cannot move the top Ritz
//! value. Reorthogonalizing would store every `q_k` and add k vector
//! passes to step k for no change in `θ_k`. The iteration keeps two
//! n-vectors.
//!
//! ## Stopping
//!
//! * **Convergence.** Stop when two successive top Ritz values differ by
//!   at most `tol · max(|θ_k|, 1)`.
//! * **Breakdown.** Stop when `β_k ≤ ε · (|α_k| + β_{k−1})`
//!   (`ε` = 1e-10). The Krylov space is then invariant up to
//!   rounding: `θ_k` is within `β_k` of an eigenvalue of `A`, and since
//!   the space holds the start vector's Perron component, that
//!   eigenvalue is `λ1`. A test for `β_k == 0` would miss this: on a
//!   9-leaf star the residual comes out near 1e-15, not 0, and
//!   normalizing it would restart the recurrence from rounding noise.
//! * **Cap.** `max_iters` bounds the number of steps, which is the
//!   number of adjacency passes.
//!
//! Multi-edges weight the matrix entry (`A_uv` = multiplicity) and a
//! self-loop contributes `A_uu = 2`, both per the paper's conventions;
//! the neighbor-slice representation of any [`GraphView`] backend
//! encodes exactly that. Every sum runs in node order and, within a
//! node, in neighbor-list order, so an order-preserving
//! [`sgr_graph::CsrGraph`] snapshot gives a bitwise-equal `λ1`.

use sgr_graph::GraphView;

/// Relative residual `ε` at which the Krylov space counts as exhausted.
///
/// The residual left once the space is exhausted is rounding noise,
/// dominated by the n-term sum that gives `α_k`: about 3e-13 relative on
/// a star with a million leaves and 3e-12 on one with 40,000. `θ` is
/// then within `2ε · λ1` of `λ1`. A residual that stays above `ε` only
/// costs one more pass, which the convergence test then ends.
const BREAKDOWN: f64 = 1e-10;

/// Computes `λ1` to relative tolerance `tol`, with at most `max_iters`
/// Lanczos steps (adjacency passes). Returns 0 for graphs without edges
/// and for `max_iters == 0`.
pub fn largest_eigenvalue<G: GraphView>(g: &G, tol: f64, max_iters: usize) -> f64 {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return 0.0;
    }
    // `q` holds q_k. `r` holds q_{k−1} on entry to a step and w on exit.
    let mut q = vec![1.0f64 / (n as f64).sqrt(); n];
    let mut r = vec![0.0f64; n];
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    let mut theta = 0.0f64;
    for k in 0..max_iters {
        let beta_prev = beta.last().copied().unwrap_or(0.0);
        // One adjacency pass: r = A q − β_{k−1} q_{k−1} and α_k = qᵀ A q.
        // Adjacency lists repeat each neighbor A_uv times and list a loop
        // endpoint twice, matching A exactly.
        let mut a = 0.0f64;
        for (u, ru) in r.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for &v in g.neighbors(u as u32) {
                acc += q[v as usize];
            }
            a += q[u] * acc;
            *ru = acc - beta_prev * *ru;
        }
        let mut norm2 = 0.0f64;
        for (ru, &qu) in r.iter_mut().zip(&q) {
            *ru -= a * qu;
            norm2 += *ru * *ru;
        }
        let b = norm2.sqrt();
        alpha.push(a);
        let prev = theta;
        theta = top_ritz_value(&alpha, &beta);
        if b <= BREAKDOWN * (a.abs() + beta_prev)
            || (k > 0 && (theta - prev).abs() <= tol * theta.abs().max(1.0))
        {
            break;
        }
        beta.push(b);
        std::mem::swap(&mut q, &mut r);
        for v in &mut q {
            *v /= b;
        }
    }
    theta
}

/// Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `alpha` and nonnegative off-diagonal `beta` (one shorter), bisected
/// down to adjacent floats inside its Gershgorin interval.
fn top_ritz_value(alpha: &[f64], beta: &[f64]) -> f64 {
    let k = alpha.len();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &a) in alpha.iter().enumerate() {
        let radius =
            beta.get(i).copied().unwrap_or(0.0) + i.checked_sub(1).map_or(0.0, |j| beta[j]);
        lo = lo.min(a - radius);
        hi = hi.max(a + radius);
    }
    // Widen so both ends are strict bounds: count(lo) < k == count(hi).
    let pad = f64::EPSILON * lo.abs().max(hi.abs()) + f64::MIN_POSITIVE;
    lo -= pad;
    hi += pad;
    let pivmin = f64::MIN_POSITIVE * beta.iter().fold(1.0f64, |m, &b| m.max(b * b));
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return hi;
        }
        if eigenvalues_below(alpha, beta, mid, pivmin) == k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Sturm count: the number of eigenvalues of the tridiagonal matrix
/// below `x`, i.e. the number of negative pivots in the LDLᵀ
/// factorization of `T − xI`. A pivot smaller than `pivmin` in magnitude
/// is replaced by `−pivmin` (the LAPACK `dstebz` convention), which
/// keeps the next quotient finite.
fn eigenvalues_below(alpha: &[f64], beta: &[f64], x: f64, pivmin: f64) -> usize {
    let mut count = 0;
    let mut d = 1.0f64;
    // β_{i−1}², zero for the first row.
    let mut coupling = 0.0f64;
    for (i, &a) in alpha.iter().enumerate() {
        d = a - x - coupling / d;
        coupling = beta.get(i).map_or(0.0, |b| b * b);
        if d.abs() < pivmin {
            d = -pivmin;
        }
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, complete_bipartite, cycle, star};
    use sgr_graph::Graph;

    #[test]
    fn complete_graph() {
        // λ1(K_n) = n - 1.
        let g = complete(8);
        assert!((largest_eigenvalue(&g, 1e-12, 2000) - 7.0).abs() < 1e-8);
    }

    #[test]
    fn star_graph() {
        // λ1(star with L leaves) = sqrt(L).
        let g = star(9);
        assert!((largest_eigenvalue(&g, 1e-12, 2000) - 3.0).abs() < 1e-8);
    }

    #[test]
    fn cycle_graph() {
        // λ1(C_n) = 2.
        let g = cycle(10);
        assert!((largest_eigenvalue(&g, 1e-12, 5000) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn bipartite_no_oscillation() {
        // λ1(K_{a,b}) = sqrt(a b); bipartite is the hard case for
        // unshifted power iteration.
        let g = complete_bipartite(4, 9);
        assert!((largest_eigenvalue(&g, 1e-12, 5000) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn multi_edge_doubles_entry() {
        // Two nodes, double edge: A = [[0,2],[2,0]], λ1 = 2.
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        assert!((largest_eigenvalue(&g, 1e-12, 2000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn self_loop_counts_two() {
        // Single node with a loop: A = [2], λ1 = 2.
        let mut g = Graph::with_nodes(1);
        g.add_edge(0, 0);
        assert!((largest_eigenvalue(&g, 1e-12, 100) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn edgeless_is_zero() {
        assert_eq!(largest_eigenvalue(&Graph::with_nodes(5), 1e-12, 100), 0.0);
        assert_eq!(largest_eigenvalue(&Graph::with_nodes(0), 1e-12, 100), 0.0);
    }
}
