//! Property-based tests of the graph substrate invariants.

use proptest::prelude::*;
use sgr_graph::components::{connected_components, is_connected, largest_component};
use sgr_graph::index::MultiplicityIndex;
use sgr_graph::{CsrGraph, Graph, GraphView, NodeId};
use sgr_util::FxHashMap;

/// Strategy: a small random multigraph as (n, edge list).
fn arb_multigraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

/// The hub of [`arb_hub_multigraph_with_swaps`].
const HUB: NodeId = 0;

/// Strategy: a multigraph whose node 0 is a hub of at least 200 distinct
/// neighbors, with a dense core of self-loops and multi-edges on the
/// first 12 nodes and sparse random edges elsewhere, plus a list of swap
/// picks `(edge index, edge index, orientation)`.
#[allow(clippy::type_complexity)]
fn arb_hub_multigraph_with_swaps(
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>, Vec<(usize, usize, bool)>)> {
    (201usize..260).prop_flat_map(|n| {
        let core = proptest::collection::vec((0..12 as NodeId, 0..12 as NodeId), 10..60);
        let sparse = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..80);
        let swap = (
            0usize..1 << 20,
            0usize..1 << 20,
            (0u8..2).prop_map(|b| b == 1),
        );
        (core, sparse, proptest::collection::vec(swap, 1..60)).prop_map(
            move |(core, sparse, swaps)| {
                let mut edges: Vec<(NodeId, NodeId)> = (1..n as NodeId).map(|v| (HUB, v)).collect();
                edges.extend(core);
                edges.extend(sparse);
                (n, edges, swaps)
            },
        )
    })
}

/// Naive per-node `FxHashMap` model of the adjacency matrix.
struct Model(Vec<FxHashMap<NodeId, u32>>);

impl Model {
    fn new(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut m = Model(vec![FxHashMap::default(); n]);
        for &(u, v) in edges {
            m.toggle(u, v, 1);
        }
        m
    }

    /// Adds (`sign = 1`) or removes (`-1`) one copy of `{u, v}`.
    fn toggle(&mut self, u: NodeId, v: NodeId, sign: i64) {
        let halves: &[(NodeId, NodeId)] = if u == v {
            &[(u, u), (u, u)]
        } else {
            &[(u, v), (v, u)]
        };
        for &(x, y) in halves {
            let a = self.0[x as usize].entry(y).or_insert(0);
            *a = (*a as i64 + sign) as u32;
            if *a == 0 {
                self.0[x as usize].remove(&y);
            }
        }
    }

    fn sorted(&self, u: NodeId) -> Vec<(NodeId, u32)> {
        let mut list: Vec<_> = self.0[u as usize].iter().map(|(&w, &a)| (w, a)).collect();
        list.sort_unstable();
        list
    }

    /// The entries, distinct count and lookups (neighbors plus a few
    /// probe keys) of every `nodes` member must match the model, and so
    /// must the common neighbors of each `focus` node with the focus set
    /// and with every 23rd node.
    fn check(
        &self,
        idx: &MultiplicityIndex,
        nodes: impl Iterator<Item = NodeId>,
        focus: &[NodeId],
    ) {
        let n = self.0.len() as NodeId;
        for u in nodes {
            let want = self.sorted(u);
            assert_eq!(idx.entries(u).collect::<Vec<_>>(), want, "entries of {u}");
            assert_eq!(idx.num_distinct(u), want.len(), "distinct of {u}");
            for &(w, a) in &want {
                assert_eq!(idx.get(u, w), a, "A_{{{u},{w}}}");
            }
            for w in [0, u, n / 2, n - 1] {
                let a = self.0[u as usize].get(&w).copied().unwrap_or(0);
                assert_eq!(idx.get(u, w), a, "A_{{{u},{w}}}");
            }
        }
        for &x in focus {
            let xs = self.sorted(x);
            for y in focus.iter().copied().chain((0..n).step_by(23)) {
                let mut got = Vec::new();
                idx.for_each_common_of_unions(x, x, y, y, |w, a, a2, b, b2| {
                    assert_eq!((a, b), (a2, b2), "aliased lists disagree at {w}");
                    got.push((w, a, b))
                });
                let want: Vec<_> = xs
                    .iter()
                    .filter_map(|&(w, a)| self.0[y as usize].get(&w).map(|&b| (w, a, b)))
                    .collect();
                assert_eq!(got, want, "common neighbors of {x} and {y}");
            }
        }
    }
}

proptest! {
    #[test]
    fn handshake_lemma((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let total: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
        prop_assert_eq!(g.num_edges(), edges.len());
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterator_is_exhaustive((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let mut expect: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
            .collect();
        expect.sort_unstable();
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        prop_assert_eq!(expect, got);
    }

    #[test]
    fn degree_vector_sums((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let dv = g.degree_vector();
        prop_assert_eq!(dv.iter().sum::<usize>(), n);
        let weighted: usize = dv.iter().enumerate().map(|(k, &c)| k * c).sum();
        prop_assert_eq!(weighted, 2 * g.num_edges());
    }

    #[test]
    fn multiplicity_index_agrees((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let idx = MultiplicityIndex::build(&g);
        prop_assert!(idx.validate_against(&g).is_ok());
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(idx.get(u, v) as usize, g.multiplicity(u, v));
            }
        }
    }

    #[test]
    fn component_partition((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let c = connected_components(&g);
        // Labels cover all nodes, sizes sum to n.
        prop_assert_eq!(c.label.len(), n);
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), n);
        // Every edge stays within one component.
        for (u, v) in g.edges() {
            prop_assert_eq!(c.label[u as usize], c.label[v as usize]);
        }
        // The extracted largest component is connected and matches size.
        let (lcc, mapping) = largest_component(&g);
        prop_assert!(is_connected(&lcc));
        prop_assert_eq!(lcc.num_nodes(), c.sizes[c.largest()]);
        prop_assert_eq!(mapping.len(), lcc.num_nodes());
    }

    #[test]
    fn remove_then_validate((n, edges) in arb_multigraph()) {
        let mut g = Graph::from_edges(n, &edges);
        // Remove up to 10 edges that exist, validating after each.
        let list: Vec<_> = g.edges().take(10).collect();
        for (u, v) in list {
            prop_assert!(g.remove_edge(u, v));
            prop_assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn simplified_is_simple_subset((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let s = g.simplified();
        prop_assert!(s.is_simple());
        prop_assert_eq!(s.num_nodes(), g.num_nodes());
        for (u, v) in s.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert_ne!(u, v);
        }
        prop_assert!(s.num_edges() <= g.num_edges());
    }

    #[test]
    fn freeze_preserves_counts_edges_dv_and_jdm((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let csr = CsrGraph::freeze(&g);
        // Node count, edge count, degree vector.
        prop_assert_eq!(csr.num_nodes(), g.num_nodes());
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        prop_assert_eq!(csr.degree_vector(), g.degree_vector());
        prop_assert_eq!(csr.num_self_loops(), g.num_self_loops());
        // Edge multiset (multi-edges and self-loops included).
        let mut ge: Vec<_> = g.edges().collect();
        let mut ce: Vec<_> = GraphView::edges(&csr).collect();
        ge.sort_unstable();
        ce.sort_unstable();
        prop_assert_eq!(ge, ce);
        // JDM: multiset of endpoint-degree pairs over all edges (loops
        // land on the diagonal) — the invariant the dK-2 machinery
        // preserves.
        fn jdm_of<G: GraphView>(v: &G) -> Vec<(usize, usize)> {
            let mut pairs: Vec<(usize, usize)> = v
                .edges()
                .map(|(u, w)| {
                    let (a, b) = (v.degree(u), v.degree(w));
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
                .collect();
            pairs.sort_unstable();
            pairs
        }
        prop_assert_eq!(jdm_of(&g), jdm_of(&csr));
        // Per-node neighbor order is preserved exactly.
        for u in g.nodes() {
            prop_assert_eq!(GraphView::neighbors(&csr, u), g.neighbors(u));
        }
        // Thawing reproduces a valid graph with the same edge multiset.
        let back = csr.thaw();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(back.num_edges(), g.num_edges());
    }

    #[test]
    fn sorted_freeze_membership_agrees((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let sorted = CsrGraph::freeze_sorted(&g);
        prop_assert_eq!(sorted.num_nodes(), g.num_nodes());
        prop_assert_eq!(sorted.num_edges(), g.num_edges());
        prop_assert_eq!(sorted.degree_vector(), g.degree_vector());
        for u in g.nodes() {
            prop_assert!(sorted.neighbors(u).windows(2).all(|w| w[0] <= w[1]));
            for v in g.nodes() {
                prop_assert_eq!(sorted.multiplicity(u, v), g.multiplicity(u, v));
                prop_assert_eq!(sorted.has_edge(u, v), g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn components_agree_across_backends((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let csr = CsrGraph::freeze(&g);
        let a = connected_components(&g);
        let b = connected_components(&csr);
        prop_assert_eq!(a.label, b.label);
        prop_assert_eq!(a.sizes, b.sizes);
        let (lcc_a, map_a) = largest_component(&g);
        let (lcc_b, map_b) = largest_component(&csr);
        prop_assert_eq!(map_a, map_b);
        prop_assert_eq!(
            lcc_a.edges().collect::<Vec<_>>(),
            lcc_b.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn index_builds_identically_from_csr((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let csr = CsrGraph::freeze(&g);
        let idx = MultiplicityIndex::build(&csr);
        prop_assert!(idx.validate_against(&g).is_ok());
    }

    #[test]
    fn multiplicity_index_tracks_a_naive_model_under_swaps(
        (n, edges, swaps) in arb_hub_multigraph_with_swaps()
    ) {
        let g = Graph::from_edges(n, &edges);
        let mut idx = MultiplicityIndex::build(&g);
        let mut model = Model::new(n, &edges);
        let mut edges = edges;
        let all = 0..n as NodeId;
        model.check(&idx, all.clone(), &[HUB, 1, 2, 3]);
        for (i, j, flip) in swaps {
            let (e1, e2) = (i % edges.len(), j % edges.len());
            if e1 == e2 {
                continue;
            }
            // (a, b), (c, d) -> (a, d), (c, b): every degree is preserved,
            // loops and multi-edges included. Removes go first, as in
            // rewiring.
            let (a, b) = edges[e1];
            let (c, d) = if flip { (edges[e2].1, edges[e2].0) } else { edges[e2] };
            for (u, v) in [(a, b), (c, d)] {
                idx.remove_edge(u, v);
                model.toggle(u, v, -1);
            }
            for (u, v) in [(a, d), (c, b)] {
                idx.add_edge(u, v);
                model.toggle(u, v, 1);
            }
            edges[e1] = (a, d);
            edges[e2] = (c, b);
            let touched = [a, b, c, d, HUB];
            model.check(&idx, touched.into_iter(), &touched);
        }
        // A final sweep catches writes that strayed into other extents.
        model.check(&idx, all, &[HUB]);
    }

    #[test]
    fn io_roundtrip_preserves_graph((n, edges) in arb_multigraph()) {
        let g = Graph::from_edges(n, &edges);
        let mut buf = Vec::new();
        sgr_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let (h, _) = sgr_graph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(h.num_edges(), g.num_edges());
        // Isolated nodes are not representable in an edge list; node count
        // matches when there are none.
        if g.nodes().all(|u| g.degree(u) > 0) {
            prop_assert_eq!(h.num_nodes(), g.num_nodes());
        }
    }
}
