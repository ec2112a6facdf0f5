//! The Lanczos `λ1` kernel against a dense reference.
//!
//! * Random multigraphs with loops, multi-edges, several components and
//!   bipartite structure must give `λ1` within 1e-8 relative of a dense
//!   Jacobi eigensolver kept only in this suite.
//! * Graphs whose Krylov space from the uniform start vector is tiny
//!   (regular graphs, stars, complete bipartite graphs, one edge among
//!   isolated nodes) must stop on the breakdown test after exactly that
//!   many adjacency passes, with the exact answer.
//! * `max_iters` must bound the number of adjacency passes.

use proptest::prelude::*;
use sgr_gen::classic::{complete, complete_bipartite, cycle, path, star};
use sgr_graph::{Graph, GraphView, NodeId};
use sgr_props::spectral::largest_eigenvalue;
use std::cell::Cell;

/// The tolerance `StructuralProperties::compute` passes.
const TOL: f64 = 1e-10;

/// How close a breakdown answer must be to the exact `λ1`: what the
/// rounding of the n-term sum behind each `α_k` leaves (1.8e-12 relative
/// on the 40,000-leaf star).
const EXACT: f64 = 1e-11;

/// Largest eigenvalue of the dense adjacency matrix by cyclic Jacobi
/// rotations. O(n³) per sweep: for the small graphs of this suite only.
fn dense_top_eigenvalue(g: &Graph) -> f64 {
    let n = g.num_nodes();
    let mut a = vec![vec![0.0f64; n]; n];
    for (u, row) in a.iter_mut().enumerate() {
        for &v in g.neighbors(u as NodeId) {
            row[v as usize] += 1.0;
        }
    }
    let total: f64 = a.iter().flatten().map(|x| x * x).sum();
    for _ in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| a[i][j] * a[i][j])
            .sum();
        if off <= 1e-28 * total {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p][q] == 0.0 {
                    continue;
                }
                // The rotation that zeroes a[p][q].
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let (kp, kq) = (row[p], row[q]);
                    row[p] = c * kp - s * kq;
                    row[q] = s * kp + c * kq;
                }
                let (upper, lower) = a.split_at_mut(q);
                for (pk, qk) in upper[p].iter_mut().zip(lower[0].iter_mut()) {
                    (*pk, *qk) = (c * *pk - s * *qk, s * *pk + c * *qk);
                }
            }
        }
    }
    (0..n).map(|i| a[i][i]).fold(f64::NEG_INFINITY, f64::max)
}

/// A view that counts `neighbors` calls, so a test can read off how many
/// adjacency passes the kernel made.
struct Counting<'a> {
    g: &'a Graph,
    calls: Cell<usize>,
}

impl<'a> Counting<'a> {
    fn new(g: &'a Graph) -> Self {
        Self {
            g,
            calls: Cell::new(0),
        }
    }

    /// Full adjacency passes so far; panics on a partial pass.
    fn passes(&self) -> usize {
        let n = self.g.num_nodes();
        assert_eq!(self.calls.get() % n, 0, "a partial adjacency pass");
        self.calls.get() / n
    }
}

impl GraphView for Counting<'_> {
    fn num_nodes(&self) -> usize {
        self.g.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.g.num_edges()
    }
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.calls.set(self.calls.get() + 1);
        self.g.neighbors(u)
    }
}

/// `λ1` and the number of adjacency passes it took.
fn lambda1_with_passes(g: &Graph, max_iters: usize) -> (f64, usize) {
    let view = Counting::new(g);
    let lambda = largest_eigenvalue(&view, TOL, max_iters);
    (lambda, view.passes())
}

fn assert_close(what: &str, got: f64, want: f64, rel: f64) {
    assert!(
        (got - want).abs() <= rel * want.abs().max(1.0),
        "{what}: λ1 = {got}, expected {want}"
    );
}

/// Small random multigraphs of three shapes, each with duplicate pairs:
/// unrestricted (loops, multi-edges, isolated nodes), bipartite between
/// `0 .. n/2` and `n/2 .. n` (no loops), and two components, one per
/// half (loops allowed).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0u8..3)
        .prop_flat_map(|(n, shape)| {
            let edge = (0..n as NodeId, 0..n as NodeId);
            (
                Just(n),
                Just(shape),
                proptest::collection::vec(edge, 1..120),
            )
        })
        .prop_map(|(n, shape, edges)| {
            let half = (n / 2) as NodeId;
            let rest = n as NodeId - half;
            let edges: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .map(|(u, v)| match shape {
                    1 => (u % half, half + v % rest),
                    2 if u < half => (u, v % half),
                    2 => (u, half + v % rest),
                    _ => (u, v),
                })
                .collect();
            Graph::from_edges(n, &edges)
        })
}

#[test]
fn the_dense_reference_knows_the_classic_spectra() {
    assert_close("K_8", dense_top_eigenvalue(&complete(8)), 7.0, 1e-12);
    assert_close("star(16)", dense_top_eigenvalue(&star(16)), 4.0, 1e-12);
    assert_close("C_9", dense_top_eigenvalue(&cycle(9)), 2.0, 1e-12);
    assert_close(
        "K_{3,12}",
        dense_top_eigenvalue(&complete_bipartite(3, 12)),
        6.0,
        1e-12,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lanczos_matches_the_dense_reference(g in arb_graph()) {
        let want = dense_top_eigenvalue(&g);
        let got = largest_eigenvalue(&g, TOL, 1000);
        prop_assert!(
            (got - want).abs() <= 1e-8 * want.abs().max(1.0),
            "λ1 = {} but the dense reference gives {} (n = {}, m = {})",
            got,
            want,
            g.num_nodes(),
            g.num_edges()
        );
    }
}

#[test]
fn a_regular_graph_is_exact_after_one_pass() {
    // The uniform vector is the Perron vector of a d-regular graph.
    let mut circulant = Graph::with_nodes(50);
    for u in 0..50u32 {
        circulant.add_edge(u, (u + 1) % 50);
        circulant.add_edge(u, (u + 7) % 50);
    }
    for (name, g, d) in [
        ("C_12", cycle(12), 2.0),
        ("K_9", complete(9), 8.0),
        ("4-regular circulant", circulant, 4.0),
    ] {
        let (lambda, passes) = lambda1_with_passes(&g, 1000);
        assert_eq!(passes, 1, "{name}: expected breakdown after one pass");
        assert_close(name, lambda, d, EXACT);
    }
}

#[test]
fn a_star_breaks_down_after_two_passes() {
    // The uniform vector lies in the span of the ±√L eigenvectors. The
    // residual of the second step is rounding noise, not zero.
    for leaves in [9usize, 1000, 40_000] {
        let (lambda, passes) = lambda1_with_passes(&star(leaves), 1000);
        assert_eq!(passes, 2, "star({leaves})");
        assert_close("star", lambda, (leaves as f64).sqrt(), EXACT);
    }
}

#[test]
fn complete_bipartite_breaks_down_after_two_passes() {
    for (a, b) in [(4usize, 9usize), (40, 90), (1, 300)] {
        let (lambda, passes) = lambda1_with_passes(&complete_bipartite(a, b), 1000);
        assert_eq!(passes, 2, "K_{{{a},{b}}}");
        assert_close("K_ab", lambda, ((a * b) as f64).sqrt(), EXACT);
    }
}

#[test]
fn one_edge_among_isolated_nodes_breaks_down_after_two_passes() {
    for (n, copies) in [(100usize, 1usize), (5000, 1), (300, 3)] {
        let g = Graph::from_edges(n, &vec![(5, 9); copies]);
        let (lambda, passes) = lambda1_with_passes(&g, 1000);
        assert_eq!(passes, 2, "n = {n}, multiplicity {copies}");
        assert_close("one edge", lambda, copies as f64, EXACT);
    }
}

#[test]
fn max_iters_bounds_the_adjacency_passes() {
    // A long path converges slowly (λ1 → 2 with a vanishing gap), so
    // every cap below is reached.
    let g = path(3000);
    for cap in [0usize, 1, 2, 5, 17] {
        let (lambda, passes) = lambda1_with_passes(&g, cap);
        assert_eq!(passes, cap, "max_iters = {cap}");
        assert!(lambda <= 2.0 + 1e-12);
        if cap == 0 {
            assert_eq!(lambda, 0.0);
        }
    }
    // A short path converges within its budget, one pass per step.
    let (lambda, passes) = lambda1_with_passes(&path(60), 1000);
    assert!(passes < 1000, "{passes} passes");
    assert_close(
        "P_60",
        lambda,
        2.0 * (std::f64::consts::PI / 61.0).cos(),
        1e-8,
    );
}
