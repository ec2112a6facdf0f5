//! The induced subgraph `G'` of §III-D.

use crate::crawl::Crawl;
use sgr_graph::{Graph, NodeId};
use sgr_util::FxHashMap;

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
    /// so `E'` deduplicates edges reported by both endpoints: every
    /// queried node's pairs `(min, max)` go into one list, which
    /// `sort_unstable` and `dedup` turn into the sorted distinct edge list.
    ///
    /// Dense ids go to queried nodes first, in walk order (then in id
    /// order for queried nodes the walk never stood on), and then to
    /// visible nodes as the sorted edge list first names them.
    pub fn from_crawl(crawl: &Crawl) -> Self {
        let mut dense: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut orig_id: Vec<NodeId> = Vec::new();
        let mut queried: Vec<bool> = Vec::new();
        let mut intern = |orig: NodeId, is_query: bool| {
            *dense.entry(orig).or_insert_with(|| {
                orig_id.push(orig);
                queried.push(is_query);
                orig_id.len() as u32 - 1
            })
        };
        // Queried nodes first: walk order, then any queried node not in
        // seq (possible for MH walks that query proposals they never move
        // to) in id order.
        for &x in &crawl.seq {
            if crawl.is_queried(x) {
                intern(x, true);
            }
        }
        let mut queried_sorted: Vec<NodeId> = crawl.neighbors.keys().copied().collect();
        queried_sorted.sort_unstable();
        for &x in &queried_sorted {
            intern(x, true);
        }
        // Collect E' with deduplication, each pair `(u, v)` with `u <= v`
        // packed as `u << 32 | v` so the word order is the pair order.
        let mut edges: Vec<u64> = Vec::with_capacity(crawl.neighbors.values().map(Vec::len).sum());
        for (&q, ns) in crawl.neighbors.iter() {
            edges.extend(ns.iter().map(|&v| {
                let (u, v) = if q < v { (q, v) } else { (v, q) };
                (u as u64) << 32 | v as u64
            }));
        }
        edges.sort_unstable();
        edges.dedup();
        let dense_edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|e| {
                (
                    intern((e >> 32) as NodeId, false),
                    intern(e as NodeId, false),
                )
            })
            .collect();
        let graph = Graph::from_edges(orig_id.len(), &dense_edges);
        Self {
            graph,
            orig_id,
            queried,
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
