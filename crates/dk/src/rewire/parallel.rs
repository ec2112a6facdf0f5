//! A name kept for the benchmark harness, which compiles against it:
//! [`ParallelRewireEngine`] is the one sequential [`RewireEngine`] under
//! its old constructor shape, and its `threads` argument is ignored.
//! Retire it at the next benchmark change.

use super::{RewireEngine, RewireStats};
use sgr_graph::{Graph, NodeId};
use sgr_util::Xoshiro256pp;

/// [`RewireEngine`] behind the constructor of the removed worker pool.
/// Ignored `threads`; retire at the next benchmark change.
pub struct ParallelRewireEngine(RewireEngine);

impl ParallelRewireEngine {
    /// [`RewireEngine::new`]; `threads` is ignored.
    pub fn new(
        graph: Graph,
        candidates: Vec<(NodeId, NodeId)>,
        target_c: &[f64],
        _threads: usize,
    ) -> Self {
        Self(RewireEngine::new(graph, candidates, target_c))
    }

    /// [`RewireEngine::run_attempts`].
    pub fn run_attempts(&mut self, attempts: u64, rng: &mut Xoshiro256pp) -> RewireStats {
        self.0.run_attempts(attempts, rng)
    }

    /// [`RewireEngine::into_graph`].
    pub fn into_graph(self) -> Graph {
        self.0.into_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_props::local::LocalProperties;

    fn social(seed: u64) -> Graph {
        sgr_gen::holme_kim(250, 3, 0.6, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    }

    fn sorted_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        e
    }

    #[test]
    fn matches_sequential_across_thread_counts() {
        // Whatever width the caller passes, the shim runs the engine.
        let g = social(1);
        let props = LocalProperties::compute(&g);
        let target: Vec<f64> = props
            .clustering_by_degree
            .iter()
            .map(|&c| c * 0.5)
            .collect();
        let edges: Vec<_> = g.edges().collect();
        let mut seq = RewireEngine::new(g.clone(), edges.clone(), &target);
        let want: Vec<_> = [1500, 700, 801]
            .iter()
            .map(|&n| seq.run_attempts(n, &mut Xoshiro256pp::seed_from_u64(42 + n)))
            .map(|s| (s.accepted, s.skipped, s.final_distance.to_bits()))
            .collect();
        let want_edges = sorted_edges(&seq.into_graph());
        for threads in [0, 1, 2, 4, usize::MAX] {
            let mut par = ParallelRewireEngine::new(g.clone(), edges.clone(), &target, threads);
            let got: Vec<_> = [1500, 700, 801]
                .iter()
                .map(|&n| par.run_attempts(n, &mut Xoshiro256pp::seed_from_u64(42 + n)))
                .map(|s| (s.accepted, s.skipped, s.final_distance.to_bits()))
                .collect();
            assert_eq!(got, want, "threads = {threads} changed the run");
            assert_eq!(sorted_edges(&par.into_graph()), want_edges);
        }
    }

    #[test]
    fn no_candidates_is_a_noop() {
        let g = social(5);
        let before = sorted_edges(&g);
        let target = vec![0.0; g.max_degree() + 1];
        let mut eng = ParallelRewireEngine::new(g, Vec::new(), &target, 4);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let stats = eng.run_attempts(500, &mut rng);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.skipped, 500);
        assert_eq!(sorted_edges(&eng.into_graph()), before);
    }

    #[test]
    fn single_worker_allocates_no_pool() {
        // Nor does any other width: the shim holds the engine and nothing
        // else.
        assert_eq!(
            std::mem::size_of::<ParallelRewireEngine>(),
            std::mem::size_of::<RewireEngine>()
        );
    }
}
