//! The triangle census against a brute-force oracle.
//!
//! `sgr_props::triangles` finds each triangle once through a
//! degree-ordered orientation, and `LocalProperties::compute` folds
//! clustering and the shared-partner histogram from that one pass. This
//! suite holds both to the straightforward wedge enumeration (kept here,
//! test-only, as the oracle) and to the `shared_partners` point query, on
//! random multigraphs built to stress the orientation: self-loops,
//! multi-edges, one hub, and a clique plus a ring of equal-degree nodes
//! so the `(degree, id)` tie-break decides most orientations. Every
//! backend is checked: `Graph`, and the order-preserving, sorted and
//! relabeled CSR snapshots.

use proptest::prelude::*;
use sgr_graph::index::MultiplicityIndex;
use sgr_graph::{CsrGraph, Graph, GraphView, NodeId};
use sgr_props::local::{shared_partners, LocalProperties};
use sgr_props::triangles::{triangle_counts, triangle_counts_with_index};

/// Brute-force `t_i`: mark `A_i·`, scan every neighbor's full list
/// against the marks; each pair `{j, l}` is seen twice, hence `/2`.
/// O(Σ_i d̃_i²).
fn wedge_oracle(idx: &MultiplicityIndex) -> Vec<u64> {
    let n = idx.num_nodes();
    let mut t = vec![0u64; n];
    let mut marks = vec![0u64; n];
    for i in 0..n as NodeId {
        for (l, a_il) in idx.entries(i) {
            if l != i {
                marks[l as usize] = a_il as u64;
            }
        }
        let mut acc = 0u64;
        for (j, a_ij) in idx.entries(i) {
            if j == i {
                continue;
            }
            let mut through_j = 0u64;
            for (l, a_jl) in idx.entries(j) {
                if l != i && l != j {
                    through_j += a_jl as u64 * marks[l as usize];
                }
            }
            acc += a_ij as u64 * through_j;
        }
        assert_eq!(acc % 2, 0, "wedge sum at node {i} is odd");
        t[i as usize] = acc / 2;
        for (l, _) in idx.entries(i) {
            marks[l as usize] = 0;
        }
    }
    t
}

/// A random multigraph: random pairs (duplicates and `u == v` draws give
/// multi-edges and self-loops), a hub linked to a random node list
/// (repeats give hub multi-edges, drawing the hub itself a loop), a
/// clique and a ring of consecutive ids.
fn arb_census_graph() -> impl Strategy<Value = Graph> {
    (6usize..60).prop_flat_map(|n| {
        let node = 0..n as NodeId;
        (
            Just(n),
            proptest::collection::vec((node.clone(), node.clone()), 0..120),
            node.clone(),
            proptest::collection::vec(node, 0..n),
            0..8usize,
            0..n,
        )
            .prop_map(|(n, mut edges, hub, links, clique, ring)| {
                edges.extend(links.into_iter().map(|v| (hub, v)));
                let clique = clique.min(n) as NodeId;
                for a in 0..clique {
                    for b in a + 1..clique {
                        edges.push((a, b));
                    }
                }
                let (lo, ring) = (clique, ring.min(n - clique as usize) as NodeId);
                if ring >= 3 {
                    edges.extend((0..ring).map(|i| (lo + i, lo + (i + 1) % ring)));
                }
                Graph::from_edges(n, &edges)
            })
    })
}

/// `{P(s)}` from one `shared_partners` point query per non-loop edge copy.
fn point_query_sp_dist(g: &Graph) -> Vec<f64> {
    let idx = MultiplicityIndex::build(g);
    let mut counts: Vec<u64> = Vec::new();
    let mut m = 0u64;
    for (u, v) in g.edges() {
        if u == v {
            continue;
        }
        let sp = shared_partners(&idx, u, v);
        if counts.len() <= sp {
            counts.resize(sp + 1, 0);
        }
        counts[sp] += 1;
        m += 1;
    }
    if m == 0 {
        return vec![0.0];
    }
    counts.iter().map(|&c| c as f64 / m as f64).collect()
}

/// `{c̄(k)}` and `c̄` from `t`, in the same node order and float
/// operation order `LocalProperties::compute` uses.
fn clustering_from<G: GraphView>(g: &G, t: &[u64]) -> (Vec<f64>, f64) {
    let n = g.num_nodes();
    let dv = g.degree_vector();
    let mut by_k = vec![0.0f64; g.max_degree() + 1];
    let mut total = 0.0f64;
    for u in g.nodes() {
        let k = g.degree(u);
        if k >= 2 {
            let c = 2.0 * t[u as usize] as f64 / (k as f64 * (k as f64 - 1.0));
            by_k[k] += c;
            total += c;
        }
    }
    let by_k = by_k
        .iter()
        .zip(dv.iter())
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    (by_k, if n > 0 { total / n as f64 } else { 0.0 })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks one backend: `t` (both entry points) against the oracle on the
/// backend's own labeling, clustering bitwise against the oracle-derived
/// values, and `{P(s)}` against the point-query histogram. Returns `t`.
fn check_backend<G: GraphView>(name: &str, view: &G, sp_dist: &[f64]) -> Vec<u64> {
    let idx = MultiplicityIndex::build(view);
    let want = wedge_oracle(&idx);
    let t = triangle_counts(view);
    prop_assert_eq!(&t, &want, "{}: t differs from the wedge oracle", name);
    prop_assert_eq!(&triangle_counts_with_index(&idx), &want, "{}", name);
    let p = LocalProperties::compute(view);
    let (c_k, c_avg) = clustering_from(view, &want);
    prop_assert_eq!(bits(&p.clustering_by_degree), bits(&c_k), "{}: c(k)", name);
    prop_assert_eq!(p.mean_clustering.to_bits(), c_avg.to_bits(), "{}: c", name);
    prop_assert_eq!(
        bits(&p.shared_partner_dist),
        bits(sp_dist),
        "{}: P(s)",
        name
    );
    t
}

fn check_all_backends(g: &Graph) {
    let sp_dist = point_query_sp_dist(g);
    let t = check_backend("graph", g, &sp_dist);
    check_backend("freeze", &CsrGraph::freeze(g), &sp_dist);
    check_backend("freeze_sorted", &CsrGraph::freeze_sorted(g), &sp_dist);
    let r = CsrGraph::freeze_relabeled(g);
    let t_r = check_backend("freeze_relabeled", &r.csr, &sp_dist);
    for (old, &new) in r.old_to_new.iter().enumerate() {
        prop_assert_eq!(t_r[new as usize], t[old], "relabeled t of node {}", old);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn census_matches_the_wedge_oracle_on_every_backend(g in arb_census_graph()) {
        check_all_backends(&g);
    }
}

#[test]
fn hub_with_equal_degree_rim() {
    // A wheel: hub 0 joined to a ring 1..=12 whose nodes all have degree
    // 3, with one doubled spoke and loops on the hub and one rim node.
    let mut edges: Vec<(NodeId, NodeId)> = (1..=12).map(|v| (0, v)).collect();
    edges.extend((1..=12).map(|v| (v, v % 12 + 1)));
    edges.extend([(0, 5), (0, 0), (7, 7)]);
    let g = Graph::from_edges(13, &edges);
    check_all_backends(&g);
    let t = triangle_counts(&g);
    // Hub: 12 rim triangles, the two through spoke (0,5) doubled.
    assert_eq!(t[0], 14);
    assert_eq!((t[4], t[5], t[6], t[1]), (3, 4, 3, 2));
}

#[test]
fn empty_and_edgeless_graphs() {
    check_all_backends(&Graph::with_nodes(0));
    check_all_backends(&Graph::with_nodes(5));
    let mut loops = Graph::with_nodes(3);
    loops.add_edge(1, 1);
    check_all_backends(&loops);
}
