//! Connected components and largest-component extraction.
//!
//! The paper preprocesses every dataset by "extracting the largest connected
//! component" (§V-A), and evaluates the shortest-path properties of
//! generated graphs on *their* largest connected component (§V-B). Both
//! operations live here.

use crate::view::GraphView;
use crate::{CsrGraph, Graph, NodeId};

/// Partition of nodes into connected components.
#[derive(Clone, Debug)]
pub struct Components {
    /// `label[u]` is the component index of node `u` (0-based, dense).
    pub label: Vec<u32>,
    /// `sizes[c]` is the number of nodes in component `c`.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Index of a largest component (ties broken by lowest index).
    pub fn largest(&self) -> usize {
        self.sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Labels connected components with an iterative BFS (no recursion, safe on
/// million-node graphs). Accepts any read-only [`GraphView`] backend.
pub fn connected_components<G: GraphView + ?Sized>(g: &G) -> Components {
    let n = g.num_nodes();
    const UNVISITED: u32 = u32::MAX;
    let mut label = vec![UNVISITED; n];
    let mut sizes = Vec::new();
    let mut queue: Vec<NodeId> = Vec::new();
    for start in 0..n {
        if label[start] != UNVISITED {
            continue;
        }
        let c = sizes.len() as u32;
        let mut size = 0usize;
        label[start] = c;
        queue.clear();
        queue.push(start as NodeId);
        while let Some(u) = queue.pop() {
            size += 1;
            for &v in g.neighbors(u) {
                if label[v as usize] == UNVISITED {
                    label[v as usize] = c;
                    queue.push(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { label, sizes }
}

/// Whether the graph is connected (an empty graph counts as connected).
pub fn is_connected<G: GraphView + ?Sized>(g: &G) -> bool {
    g.num_nodes() == 0 || connected_components(g).count() == 1
}

/// Extracts the largest connected component as a new graph with dense node
/// ids. Returns the new graph and `mapping[new_id] = old_id`. The result
/// is a mutable [`Graph`] (callers freeze it when the read-only kernels
/// take over); edge order within each node is inherited from the view's
/// edge iteration, so identical views yield identical components.
pub fn largest_component<G: GraphView>(g: &G) -> (Graph, Vec<NodeId>) {
    if g.num_nodes() == 0 {
        return (Graph::with_nodes(0), Vec::new());
    }
    let comps = connected_components(g);
    let keep = comps.largest() as u32;
    let mut old_to_new = vec![u32::MAX; g.num_nodes()];
    let mut mapping = Vec::with_capacity(comps.sizes[keep as usize]);
    for u in g.nodes() {
        if comps.label[u as usize] == keep {
            old_to_new[u as usize] = mapping.len() as u32;
            mapping.push(u);
        }
    }
    let mut out = Graph::with_nodes(mapping.len());
    for (u, v) in g.edges() {
        if comps.label[u as usize] == keep {
            out.add_edge(old_to_new[u as usize], old_to_new[v as usize]);
        }
    }
    (out, mapping)
}

/// Extracts the largest connected component **directly into a
/// [`CsrGraph`] snapshot** with dense node ids, skipping the intermediate
/// per-node-`Vec` [`Graph`] that [`largest_component`] builds (and that
/// BFS-heavy callers immediately re-freeze). Degrees are already known
/// from the component scan, so the offset array is exact and the neighbor
/// arena is filled in one pass over the kept nodes' slices.
///
/// Returns the snapshot and `mapping[new_id] = old_id`. Unlike
/// [`largest_component`] — which rebuilds adjacency by re-adding edges
/// and thereby reorders each node's neighbor list — this preserves the
/// source view's **per-node neighbor order** under the (monotone) id
/// remapping: `neighbors(new)` is exactly `g.neighbors(old)` with each
/// entry relabeled. Identical views therefore yield identical snapshots.
pub fn largest_component_csr<G: GraphView>(g: &G) -> (CsrGraph, Vec<NodeId>) {
    if g.num_nodes() == 0 {
        return (CsrGraph::default(), Vec::new());
    }
    component_csr(g, &connected_components(g))
}

/// [`largest_component_csr`], or `None` when the largest component holds
/// every node (an empty graph included). Then the extraction would
/// relabel by the identity and copy every neighbour list unchanged, so a
/// caller can read `g` itself and skip the copy.
pub fn proper_largest_component_csr<G: GraphView>(g: &G) -> Option<(CsrGraph, Vec<NodeId>)> {
    let comps = connected_components(g);
    (comps.count() > 1).then(|| component_csr(g, &comps))
}

/// The snapshot and mapping of `comps`' largest component of `g`.
fn component_csr<G: GraphView>(g: &G, comps: &Components) -> (CsrGraph, Vec<NodeId>) {
    let keep = comps.largest() as u32;
    let mut old_to_new = vec![u32::MAX; g.num_nodes()];
    let mut mapping: Vec<NodeId> = Vec::with_capacity(comps.sizes[keep as usize]);
    for u in g.nodes() {
        if comps.label[u as usize] == keep {
            old_to_new[u as usize] = mapping.len() as u32;
            mapping.push(u);
        }
    }
    // Degrees are known, so offsets are exact up front; a component is
    // neighbor-closed, so every slice entry remaps without a membership
    // check.
    let total: usize = mapping.iter().map(|&old| g.degree(old)).sum();
    assert!(
        u32::try_from(total).is_ok(),
        "component too large for u32 CSR offsets ({total} neighbor entries)"
    );
    let mut offsets = Vec::with_capacity(mapping.len() + 1);
    offsets.push(0u32);
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(total);
    let mut sorted = true;
    for &old in &mapping {
        let start = neighbors.len();
        neighbors.extend(g.neighbors(old).iter().map(|&v| {
            debug_assert_ne!(old_to_new[v as usize], u32::MAX, "cross-component edge");
            old_to_new[v as usize]
        }));
        sorted &= neighbors[start..].windows(2).all(|w| w[0] <= w[1]);
        offsets.push(neighbors.len() as u32);
    }
    // Both endpoints of every kept edge are inside the component, so the
    // arena holds exactly two slots per edge (a self-loop is its node's
    // two slots), and `total` is even.
    let csr = CsrGraph::from_raw_parts(offsets, neighbors, total / 2, sorted);
    (csr, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.sizes, vec![4]);
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components_and_isolated_nodes() {
        // {0,1,2} path, {3,4} edge, {5} isolated.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert!(!is_connected(&g));
        assert_eq!(c.sizes[c.largest()], 3);
    }

    #[test]
    fn largest_component_extraction_preserves_structure() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]);
        let (lcc, mapping) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 4);
        assert_eq!(lcc.num_edges(), 4);
        assert!(is_connected(&lcc));
        // Mapping refers back to original ids 0..=3.
        let mut orig: Vec<_> = mapping.clone();
        orig.sort_unstable();
        assert_eq!(orig, vec![0, 1, 2, 3]);
        lcc.validate().unwrap();
    }

    #[test]
    fn largest_component_keeps_multi_edges_and_loops() {
        let mut g = Graph::from_edges(4, &[(0, 1), (0, 1), (2, 3)]);
        g.add_edge(1, 1);
        let (lcc, _) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 2);
        assert_eq!(lcc.num_edges(), 3);
        assert_eq!(lcc.num_self_loops(), 1);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::with_nodes(0);
        assert!(is_connected(&g));
        let (lcc, mapping) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 0);
        assert!(mapping.is_empty());
    }

    #[test]
    fn all_isolated() {
        let g = Graph::with_nodes(5);
        let c = connected_components(&g);
        assert_eq!(c.count(), 5);
        let (lcc, mapping) = largest_component(&g);
        assert_eq!(lcc.num_nodes(), 1);
        assert_eq!(mapping.len(), 1);
    }

    #[test]
    fn csr_extraction_matches_graph_extraction() {
        let mut g = Graph::from_edges(9, &[(0, 1), (1, 2), (2, 0), (2, 3), (0, 1), (5, 6), (7, 8)]);
        g.add_edge(3, 3);
        let (lcc_graph, map_graph) = largest_component(&g);
        let (lcc_csr, map_csr) = largest_component_csr(&g);
        assert_eq!(map_csr, map_graph);
        assert_eq!(lcc_csr.num_nodes(), lcc_graph.num_nodes());
        assert_eq!(lcc_csr.num_edges(), lcc_graph.num_edges());
        assert_eq!(lcc_csr.degree_vector(), lcc_graph.degree_vector());
        // Same edge multiset (neighbor order may differ: the Graph path
        // rebuilds adjacency via add_edge, the CSR path remaps slices).
        for u in lcc_graph.nodes() {
            let mut a = lcc_csr.neighbors(u).to_vec();
            let mut b = lcc_graph.neighbors(u).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbor multiset differs at {u}");
        }
    }

    #[test]
    fn csr_extraction_preserves_source_neighbor_order() {
        // Node 2's list in g is [1, 3, 0] by insertion; the kept ids are
        // the component itself so the remap is the identity here.
        let g = Graph::from_edges(6, &[(1, 2), (2, 3), (0, 2), (4, 5)]);
        let (lcc, mapping) = largest_component_csr(&g);
        assert_eq!(mapping, vec![0, 1, 2, 3]);
        assert_eq!(lcc.neighbors(2), &[1, 3, 0]);
        // A sorted source view stays sorted through the monotone remap.
        let sorted_src = CsrGraph::freeze_sorted(&g);
        let (lcc_sorted, _) = largest_component_csr(&sorted_src);
        assert!(lcc_sorted.is_sorted());
        assert_eq!(lcc_sorted.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn csr_extraction_with_shared_labeling_and_edge_cases() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (a, ma) = largest_component_csr(&g);
        assert_eq!(ma, vec![0, 1, 2]);
        assert_eq!(a.neighbors(1), &[0, 2]);

        let (empty, map) = largest_component_csr(&Graph::with_nodes(0));
        assert_eq!(empty.num_nodes(), 0);
        assert!(map.is_empty());

        let (iso, map) = largest_component_csr(&Graph::with_nodes(4));
        assert_eq!(iso.num_nodes(), 1);
        assert_eq!(iso.num_edges(), 0);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn long_path_no_stack_overflow() {
        // 200k-node path: recursion-free traversal must handle it.
        let n = 200_000;
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (i as NodeId, (i + 1) as NodeId))
            .collect();
        let g = Graph::from_edges(n, &edges);
        assert!(is_connected(&g));
    }
}
