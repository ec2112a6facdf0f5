//! The restricted access model of §III-A.

use sgr_graph::{Graph, GraphView, NodeId};
use sgr_util::{FxHashSet, Xoshiro256pp};

/// Query-counting view of a hidden graph.
///
/// Crawlers receive an `&mut AccessModel` and may only call [`query`] — the
/// operation a real social-network API exposes ("give me this user's
/// friends"). The model records which nodes were queried so experiments can
/// stop at a target *queried fraction* and report query budgets.
///
/// The hidden graph can be any read-only [`GraphView`] backend (the
/// default, [`Graph`], keeps existing call sites unchanged); experiment
/// harnesses that crawl the same hidden graph many times can freeze it
/// once and crawl the [`sgr_graph::CsrGraph`] snapshot.
///
/// [`query`]: AccessModel::query
pub struct AccessModel<'g, G: GraphView = Graph> {
    graph: &'g G,
    queried: FxHashSet<NodeId>,
    query_calls: usize,
}

impl<'g, G: GraphView> AccessModel<'g, G> {
    /// Wraps a hidden graph.
    pub fn new(graph: &'g G) -> Self {
        Self {
            graph,
            queried: FxHashSet::default(),
            query_calls: 0,
        }
    }

    /// Queries node `v`, returning its neighbor list `N(v)` (the only data
    /// access the model permits). Repeat queries are counted but cached
    /// upstream by crawlers.
    pub fn query(&mut self, v: NodeId) -> &'g [NodeId] {
        self.queried.insert(v);
        self.query_calls += 1;
        self.graph.neighbors(v)
    }

    /// Picks a uniformly random seed node. The paper's experiments select
    /// the seed uniformly at random from the node set (§V-D); this is an
    /// experiment-harness convenience, not part of the crawler-visible API.
    pub fn random_seed(&self, rng: &mut Xoshiro256pp) -> NodeId {
        assert!(self.graph.num_nodes() > 0, "empty hidden graph");
        rng.gen_range(self.graph.num_nodes()) as NodeId
    }

    /// Number of *distinct* nodes queried so far.
    pub fn num_queried(&self) -> usize {
        self.queried.len()
    }

    /// Total `query` invocations (including repeats).
    pub fn query_calls(&self) -> usize {
        self.query_calls
    }

    /// Fraction of the hidden graph's nodes queried so far.
    pub fn queried_fraction(&self) -> f64 {
        if self.graph.num_nodes() == 0 {
            0.0
        } else {
            self.queried.len() as f64 / self.graph.num_nodes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_returns_neighbors_and_counts() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let mut am = AccessModel::new(&g);
        assert_eq!(am.num_queried(), 0);
        let n0 = am.query(0).to_vec();
        assert_eq!(n0.len(), 2);
        assert_eq!(am.num_queried(), 1);
        assert_eq!(am.query_calls(), 1);
        // Repeat query: counted as a call, not as a new queried node.
        am.query(0);
        assert_eq!(am.num_queried(), 1);
        assert_eq!(am.query_calls(), 2);
        am.query(1);
        assert_eq!(am.num_queried(), 2);
        assert!((am.queried_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_seed_in_range() {
        let g = Graph::from_edges(5, &[(0, 1)]);
        let am = AccessModel::new(&g);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            assert!((am.random_seed(&mut rng) as usize) < 5);
        }
    }
}
