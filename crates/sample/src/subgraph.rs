//! The induced subgraph `G'` of §III-D.

use crate::crawl::Crawl;
use sgr_graph::{Graph, NodeId};
use sgr_util::{FxHashMap, FxHashSet};

/// The subgraph `G' = (V', E')` induced from the union of the queried
/// nodes' edge sets: `E' = ⋃_{v ∈ V'qry} N(v)`, with
/// `V' = V'qry ⊎ V'vis` (queried nodes plus nodes visible as their
/// neighbors).
///
/// Nodes are re-indexed densely (`0 .. |V'|`); `orig_id` maps back to the
/// hidden graph's ids and `queried` records which side of the partition
/// each node is on. The restoration method relies on Lemma 1: a queried
/// node's subgraph degree equals its true degree, a visible node's subgraph
/// degree is a lower bound.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The subgraph itself, over dense ids.
    pub graph: Graph,
    /// `orig_id[dense] = id in the hidden graph`.
    pub orig_id: Vec<NodeId>,
    /// `queried[dense]` — whether the node was queried (`V'qry`) or merely
    /// visible (`V'vis`).
    pub queried: Vec<bool>,
}

impl Subgraph {
    /// The empty subgraph (`V' = ∅`): what Gjoka et al.'s baseline
    /// restores from, since it uses no sampled structure.
    pub fn empty() -> Self {
        Self::from_crawl(&Crawl::default())
    }

    /// Builds `G'` from a crawl. The hidden graphs of the paper are simple,
    /// so `E'` deduplicates edges reported by both endpoints.
    pub fn from_crawl(crawl: &Crawl) -> Self {
        let mut dense: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut orig_id: Vec<NodeId> = Vec::new();
        let mut queried_flags: Vec<bool> = Vec::new();
        let intern = |orig: NodeId,
                      is_query: bool,
                      dense: &mut FxHashMap<NodeId, u32>,
                      orig_id: &mut Vec<NodeId>,
                      queried_flags: &mut Vec<bool>| {
            match dense.get(&orig) {
                Some(&d) => {
                    if is_query {
                        queried_flags[d as usize] = true;
                    }
                    d
                }
                None => {
                    let d = orig_id.len() as u32;
                    dense.insert(orig, d);
                    orig_id.push(orig);
                    queried_flags.push(is_query);
                    d
                }
            }
        };
        // Intern queried nodes first (stable, deterministic order: query
        // order from the crawl sequence, then map order for leftovers).
        let mut seen_q: FxHashSet<NodeId> = FxHashSet::default();
        for &x in &crawl.seq {
            if crawl.is_queried(x) && seen_q.insert(x) {
                intern(x, true, &mut dense, &mut orig_id, &mut queried_flags);
            }
        }
        // Any queried node not in seq (possible for MH walks that query
        // proposals they never move to).
        let mut extra: Vec<NodeId> = crawl
            .neighbors
            .keys()
            .copied()
            .filter(|x| !seen_q.contains(x))
            .collect();
        extra.sort_unstable();
        for x in extra {
            intern(x, true, &mut dense, &mut orig_id, &mut queried_flags);
        }
        // Collect E' with deduplication.
        let mut edge_set: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
        let mut queried_sorted: Vec<NodeId> = crawl.neighbors.keys().copied().collect();
        queried_sorted.sort_unstable();
        for &q in &queried_sorted {
            for &v in crawl.neighbors_of(q) {
                let key = if q < v { (q, v) } else { (v, q) };
                edge_set.insert(key);
            }
        }
        let mut edges: Vec<(NodeId, NodeId)> = edge_set.into_iter().collect();
        edges.sort_unstable();
        let mut dense_edges: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for (u, v) in edges {
            let du = intern(u, false, &mut dense, &mut orig_id, &mut queried_flags);
            let dv = intern(v, false, &mut dense, &mut orig_id, &mut queried_flags);
            dense_edges.push((du, dv));
        }
        let graph = Graph::from_edges(orig_id.len(), &dense_edges);
        Self {
            graph,
            orig_id,
            queried: queried_flags,
        }
    }

    /// Number of nodes in `V'`.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of edges in `E'`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of queried nodes `|V'qry|`.
    pub fn num_queried(&self) -> usize {
        self.queried.iter().filter(|&&q| q).count()
    }

    /// Number of visible-only nodes `|V'vis|`.
    pub fn num_visible(&self) -> usize {
        self.num_nodes() - self.num_queried()
    }

    /// Iterates dense ids of queried nodes.
    pub fn queried_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.queried
            .iter()
            .enumerate()
            .filter_map(|(i, &q)| q.then_some(i as u32))
    }

    /// Iterates dense ids of visible-only nodes.
    pub fn visible_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.queried
            .iter()
            .enumerate()
            .filter_map(|(i, &q)| (!q).then_some(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessModel;
    use crate::walks::random_walk;
    use sgr_util::Xoshiro256pp;

    /// Builds the paper's Fig. 1 example: walk v1 → v3 → v6 → v3.
    /// Node ids are zero-based (paper's v1 = 0, …, v10 = 9).
    fn fig1_crawl() -> (sgr_graph::Graph, Crawl) {
        // Edges visible in the figure: v1-v3, v2-v3, v3-v4, v3-v6, v5-v6,
        // v6-v8, plus non-visible ones among v4,v5,v7,v9,v10 — we add a
        // few: v7-v9, v9-v10, v4-v7, v1-v2 is NOT in the figure.
        let g = sgr_graph::Graph::from_edges(
            10,
            &[
                (0, 2), // v1-v3
                (1, 2), // v2-v3
                (2, 3), // v3-v4
                (2, 5), // v3-v6
                (4, 5), // v5-v6
                (5, 7), // v6-v8
                (6, 8), // v7-v9 (non-visible)
                (8, 9), // v9-v10 (non-visible)
                (3, 6), // v4-v7 (non-visible)
            ],
        );
        let mut crawl = Crawl::default();
        for &x in &[0u32, 2, 5, 2] {
            crawl.seq.push(x);
            crawl
                .neighbors
                .entry(x)
                .or_insert_with(|| g.neighbors(x).to_vec());
        }
        (g, crawl)
    }

    #[test]
    fn fig1_example_matches_paper() {
        let (_, crawl) = fig1_crawl();
        let sg = Subgraph::from_crawl(&crawl);
        // Paper: V'qry = {v1, v3, v6}, V'vis = {v2, v4, v5, v8},
        // E' = {(v1,v3), (v2,v3), (v3,v4), (v3,v6), (v5,v6), (v6,v8)}.
        assert_eq!(sg.num_queried(), 3);
        assert_eq!(sg.num_visible(), 4);
        assert_eq!(sg.num_nodes(), 7);
        assert_eq!(sg.num_edges(), 6);
        // Queried nodes keep their true degrees (Lemma 1, first case).
        let (g, _) = fig1_crawl();
        for d in sg.queried_nodes() {
            let orig = sg.orig_id[d as usize];
            assert_eq!(sg.graph.degree(d), g.degree(orig));
        }
        // Visible nodes have degree lower bounds (Lemma 1, second case).
        for d in sg.visible_nodes() {
            let orig = sg.orig_id[d as usize];
            assert!(sg.graph.degree(d) <= g.degree(orig));
        }
    }

    #[test]
    fn subgraph_is_simple_and_consistent() {
        let g = sgr_gen::holme_kim(300, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(1)).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut am = AccessModel::new(&g);
        let crawl = random_walk(&mut am, 0, 30, &mut rng);
        let sg = crawl.subgraph();
        assert!(sg.graph.is_simple());
        sg.graph.validate().unwrap();
        assert_eq!(sg.num_queried(), 30);
        assert_eq!(sg.orig_id.len(), sg.num_nodes());
        // Every subgraph edge exists in the hidden graph.
        for (u, v) in sg.graph.edges() {
            assert!(g.has_edge(sg.orig_id[u as usize], sg.orig_id[v as usize]));
        }
        // Every edge incident to a queried node is present.
        for d in sg.queried_nodes() {
            let orig = sg.orig_id[d as usize];
            assert_eq!(sg.graph.degree(d), g.degree(orig));
        }
    }

    #[test]
    fn empty_crawl_gives_empty_subgraph() {
        let crawl = Crawl::default();
        let sg = Subgraph::from_crawl(&crawl);
        assert_eq!(sg.num_nodes(), 0);
        assert_eq!(sg.num_edges(), 0);
        assert_eq!(sg.num_queried(), 0);
    }

    #[test]
    fn single_node_crawl() {
        let g = sgr_gen::classic::star(3);
        let mut am = AccessModel::new(&g);
        let mut crawl = Crawl::default();
        crawl.seq.push(0);
        crawl.neighbors.insert(0, am.query(0).to_vec());
        let sg = Subgraph::from_crawl(&crawl);
        assert_eq!(sg.num_queried(), 1);
        assert_eq!(sg.num_visible(), 3);
        assert_eq!(sg.num_edges(), 3);
    }

    #[test]
    fn dense_ids_are_stable_for_same_crawl() {
        let (_, crawl) = fig1_crawl();
        let a = Subgraph::from_crawl(&crawl);
        let b = Subgraph::from_crawl(&crawl);
        assert_eq!(a.orig_id, b.orig_id);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }
}
