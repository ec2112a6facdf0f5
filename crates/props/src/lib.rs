//! # sgr-props
//!
//! The 12 structural properties of the paper's evaluation (§V-B) and the
//! normalized L1 accuracy measure (§V-C).
//!
//! Local properties:
//! 1. number of nodes `n`
//! 2. average degree `k̄`
//! 3. degree distribution `{P(k)}`
//! 4. neighbor connectivity `{k̄nn(k)}`
//! 5. network clustering coefficient `c̄`
//! 6. degree-dependent clustering coefficient `{c̄(k)}`
//! 7. edgewise shared-partner distribution `{P(s)}`
//!
//! Global properties (8–11 computed, as in the paper, on the largest
//! connected component):
//! 8. average shortest-path length `l̄`
//! 9. shortest-path length distribution `{P(l)}`
//! 10. diameter `l_max`
//! 11. degree-dependent betweenness centrality `{b̄(k)}`
//! 12. largest adjacency eigenvalue `λ1`, computed on the whole graph:
//!     the maximum over all components, which is the largest component's
//!     value only when that component also has the largest `λ1`
//!
//! The paper computes shortest-path properties with parallel exact
//! algorithms on a 40-core server; here [`PropsConfig`] selects exact
//! computation up to a size threshold and unbiased pivot sampling above it
//! (parallelized with std scoped threads either way), which preserves method rankings —
//! the quantity the reproduction targets.
//!
//! Every kernel is generic over [`sgr_graph::GraphView`], so callers can
//! pass the mutable [`sgr_graph::Graph`] directly or — the fast path —
//! freeze it once into a [`sgr_graph::CsrGraph`] and hand the snapshot to
//! all 12 computations. [`StructuralProperties::compute`] itself extracts
//! the largest component straight into a CSR snapshot
//! ([`sgr_graph::components::proper_largest_component_csr`]) before
//! running the BFS-heavy global kernels, unless that component is the
//! whole graph, which they then read as it is. Results are bitwise-identical across the two
//! backends when the snapshot is order-preserving
//! ([`sgr_graph::CsrGraph::freeze`]); the property tests in
//! `tests/backend_equivalence.rs` pin that guarantee.
//!
//! # Traversal model
//!
//! All BFS-heavy kernels (shortest paths, dissimilarity profiles,
//! component labeling, the Brandes phase setup) run on the shared [`bfs`]
//! engine: direction-optimizing single-source BFS (Beamer-style α/β
//! switching between top-down frontier expansion and bottom-up unvisited
//! scanning) and multi-source batched BFS (up to [`bfs::BATCH_WIDTH`]
//! sources per arena pass via per-node `u64` seen-masks), with all state
//! in a reusable allocation-free [`bfs::BfsScratch`]. The key contract:
//! **bottom-up preserves level sets exactly** — level `l + 1` is by
//! definition the set of unvisited nodes adjacent to level `l`, and which
//! endpoint discovers an edge changes only within-level discovery order,
//! never membership — and every engine output (per-level counts,
//! eccentricities, the "lowest id in the deepest level" far-node rule) is
//! a function of level sets alone. Combined with chunk-ordered reduction
//! over source chunks, that makes every kernel's result **bitwise
//! identical** across backends, batch compositions, and thread counts,
//! and equal to what the level-synchronous [`bfs::reference`] oracle
//! computes; `tests/bfs_equivalence.rs` pins the whole surface against
//! that oracle, which no property computation calls. See the [`bfs`]
//! module docs for the full determinism argument.

pub mod betweenness;
pub mod bfs;
pub mod dissimilarity;
pub mod distance;
pub mod local;
pub mod paths;
pub mod spectral;
pub mod triangles;

use sgr_graph::components::proper_largest_component_csr;
use sgr_graph::GraphView;

/// Names of the 12 properties in the paper's table order.
pub const PROPERTY_NAMES: [&str; 12] = [
    "n", "k_avg", "P(k)", "knn(k)", "c_avg", "c(k)", "P(s)", "l_avg", "P(l)", "l_max", "b(k)",
    "lambda1",
];

/// Computation knobs.
#[derive(Clone, Copy, Debug)]
pub struct PropsConfig {
    /// Graphs with at most this many nodes get exact shortest-path and
    /// betweenness computation; larger ones use `num_pivots` sampled
    /// sources.
    pub exact_threshold: usize,
    /// Number of BFS/Brandes pivots when sampling.
    pub num_pivots: usize,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Seed for pivot selection.
    pub seed: u64,
}

impl Default for PropsConfig {
    fn default() -> Self {
        Self {
            exact_threshold: 4_000,
            num_pivots: 512,
            threads: 0,
            seed: 0x5eed,
        }
    }
}

impl PropsConfig {
    /// Resolves the worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Properties 8–11 of a connected graph: the shortest-path properties
/// and `{b̄(k)}`.
fn path_properties<G: GraphView + Sync>(
    g: &G,
    cfg: &PropsConfig,
) -> (paths::ShortestPathProperties, Vec<f64>) {
    (
        paths::shortest_path_properties(g, cfg),
        betweenness::betweenness_by_degree(g, cfg),
    )
}

/// All 12 properties of one graph.
#[derive(Clone, Debug)]
pub struct StructuralProperties {
    /// (1) `n`.
    pub num_nodes: f64,
    /// (2) `k̄`.
    pub avg_degree: f64,
    /// (3) `{P(k)}` indexed by degree.
    pub degree_dist: Vec<f64>,
    /// (4) `{k̄nn(k)}` indexed by degree.
    pub knn: Vec<f64>,
    /// (5) `c̄`.
    pub mean_clustering: f64,
    /// (6) `{c̄(k)}` indexed by degree.
    pub clustering_by_degree: Vec<f64>,
    /// (7) `{P(s)}` indexed by shared-partner count.
    pub shared_partner_dist: Vec<f64>,
    /// (8) `l̄` (largest component).
    pub avg_path_length: f64,
    /// (9) `{P(l)}` indexed by path length (largest component).
    pub path_length_dist: Vec<f64>,
    /// (10) diameter (largest component).
    pub diameter: f64,
    /// (11) `{b̄(k)}` indexed by degree (largest component).
    pub betweenness_by_degree: Vec<f64>,
    /// (12) `λ1` of the whole graph — the maximum over all components,
    /// not the largest component's value — by Lanczos to relative
    /// tolerance 1e-10 (see [`spectral`]); one adjacency pass per step.
    pub lambda1: f64,
}

impl StructuralProperties {
    /// Computes all 12 properties of `g` (any [`GraphView`] backend).
    pub fn compute<G: GraphView + Sync>(g: &G, cfg: &PropsConfig) -> Self {
        let local = local::LocalProperties::compute(g);
        // Global properties on the largest connected component, as in the
        // paper (§V-B). A component short of the whole graph is extracted
        // straight into a CSR snapshot; a connected graph is its own
        // largest component, and the copy would change no list.
        let (sp, btw) = match proper_largest_component_csr(g) {
            Some((lcc, _)) => path_properties(&lcc, cfg),
            None => path_properties(g, cfg),
        };
        // λ1 alone reads the whole graph.
        let lambda1 = spectral::largest_eigenvalue(g, 1e-10, 1000);
        Self {
            num_nodes: g.num_nodes() as f64,
            avg_degree: g.average_degree(),
            degree_dist: local.degree_dist,
            knn: local.knn,
            mean_clustering: local.mean_clustering,
            clustering_by_degree: local.clustering_by_degree,
            shared_partner_dist: local.shared_partner_dist,
            avg_path_length: sp.average_length,
            path_length_dist: sp.length_dist,
            diameter: sp.diameter as f64,
            betweenness_by_degree: btw,
            lambda1,
        }
    }

    /// The normalized L1 distance of each of the 12 properties between an
    /// original graph's properties (`self`) and a generated graph's
    /// (`other`), in [`PROPERTY_NAMES`] order (§V-C).
    pub fn l1_distances(&self, other: &StructuralProperties) -> [f64; 12] {
        use distance::{normalized_l1, relative_error};
        [
            relative_error(self.num_nodes, other.num_nodes),
            relative_error(self.avg_degree, other.avg_degree),
            normalized_l1(&self.degree_dist, &other.degree_dist),
            normalized_l1(&self.knn, &other.knn),
            relative_error(self.mean_clustering, other.mean_clustering),
            normalized_l1(&self.clustering_by_degree, &other.clustering_by_degree),
            normalized_l1(&self.shared_partner_dist, &other.shared_partner_dist),
            relative_error(self.avg_path_length, other.avg_path_length),
            normalized_l1(&self.path_length_dist, &other.path_length_dist),
            relative_error(self.diameter, other.diameter),
            normalized_l1(&self.betweenness_by_degree, &other.betweenness_by_degree),
            relative_error(self.lambda1, other.lambda1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, cycle, path, star};

    #[test]
    fn complete_graph_all_properties() {
        let g = complete(10);
        let p = StructuralProperties::compute(&g, &PropsConfig::default());
        assert_eq!(p.num_nodes, 10.0);
        assert_eq!(p.avg_degree, 9.0);
        assert!((p.degree_dist[9] - 1.0).abs() < 1e-12);
        assert!((p.knn[9] - 9.0).abs() < 1e-12);
        assert!((p.mean_clustering - 1.0).abs() < 1e-12);
        assert!((p.clustering_by_degree[9] - 1.0).abs() < 1e-12);
        // Every edge has 8 shared partners.
        assert!((p.shared_partner_dist[8] - 1.0).abs() < 1e-12);
        assert!((p.avg_path_length - 1.0).abs() < 1e-12);
        assert_eq!(p.diameter, 1.0);
        // Betweenness: all zero (every pair adjacent).
        assert!(p.betweenness_by_degree.iter().all(|&b| b == 0.0));
        assert!((p.lambda1 - 9.0).abs() < 1e-6);
    }

    #[test]
    fn path_graph_distances() {
        let g = path(5); // diameter 4
        let p = StructuralProperties::compute(&g, &PropsConfig::default());
        assert_eq!(p.diameter, 4.0);
        // Pairs: 4×1 + 3×2 + 2×3 + 1×4 = 20; 10 pairs → l̄ = 2.0.
        assert!((p.avg_path_length - 2.0).abs() < 1e-12);
        assert!((p.path_length_dist[1] - 0.4).abs() < 1e-12);
        assert!((p.path_length_dist[4] - 0.1).abs() < 1e-12);
        assert_eq!(p.mean_clustering, 0.0);
    }

    #[test]
    fn star_betweenness_concentrates_on_center() {
        let g = star(6);
        let p = StructuralProperties::compute(&g, &PropsConfig::default());
        // Center (degree 6) lies on all C(6,2) = 15 pairs, both directions
        // in Brandes accumulation → b̄(6) = 30 under the directed-count
        // convention the paper's b_i definition uses.
        assert!((p.betweenness_by_degree[6] - 30.0).abs() < 1e-9);
        assert_eq!(p.betweenness_by_degree[1], 0.0);
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let g = cycle(12);
        let p1 = StructuralProperties::compute(&g, &PropsConfig::default());
        let p2 = StructuralProperties::compute(&g, &PropsConfig::default());
        for d in p1.l1_distances(&p2) {
            assert_eq!(d, 0.0);
        }
    }

    /// Every property as raw bits, in [`PROPERTY_NAMES`] order.
    fn bits(p: &StructuralProperties) -> Vec<u64> {
        let scalars = [p.num_nodes, p.avg_degree, p.mean_clustering];
        let lists = [
            &p.degree_dist,
            &p.knn,
            &p.clustering_by_degree,
            &p.shared_partner_dist,
            &p.path_length_dist,
            &p.betweenness_by_degree,
        ];
        let rest = [p.avg_path_length, p.diameter, p.lambda1];
        let lens = lists.iter().map(|l| l.len() as f64);
        scalars
            .into_iter()
            .chain(lens)
            .chain(lists.into_iter().flatten().copied())
            .chain(rest)
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn connected_graphs_skip_the_component_copy_bit_for_bit() {
        use sgr_graph::components::{is_connected, largest_component_csr};
        use sgr_graph::{CsrGraph, Graph, NodeId};
        use sgr_util::Xoshiro256pp;
        // The reference: properties 8–11 always read off the extracted
        // copy of the largest component.
        fn via_copy<G: GraphView + Sync>(g: &G, cfg: &PropsConfig) -> StructuralProperties {
            let (lcc, _) = largest_component_csr(g);
            let (sp, btw) = path_properties(&lcc, cfg);
            StructuralProperties {
                avg_path_length: sp.average_length,
                path_length_dist: sp.length_dist,
                diameter: sp.diameter as f64,
                betweenness_by_degree: btw,
                ..StructuralProperties::compute(g, cfg)
            }
        }
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut connected = sgr_gen::holme_kim(400, 3, 0.5, &mut rng).unwrap();
        for (u, v) in [(3, 3), (5, 9), (5, 9), (40, 41)] {
            connected.add_edge(u, v);
        }
        // The same graph with a second component and isolated nodes.
        let mut split = Graph::with_nodes(connected.num_nodes() + 8);
        for (u, v) in connected.edges() {
            split.add_edge(u, v);
        }
        let n = connected.num_nodes() as NodeId;
        for v in n..n + 4 {
            split.add_edge(v, v + 1);
        }
        assert!(is_connected(&connected) && !is_connected(&split));
        let exact = PropsConfig::default();
        let sampled = PropsConfig {
            exact_threshold: 100,
            num_pivots: 48,
            ..exact
        };
        for cfg in [exact, sampled] {
            for g in [&connected, &split] {
                let want = bits(&via_copy(g, &cfg));
                assert_eq!(bits(&StructuralProperties::compute(g, &cfg)), want);
                for csr in [CsrGraph::freeze(g), CsrGraph::freeze_sorted(g)] {
                    let got = StructuralProperties::compute(&csr, &cfg);
                    assert_eq!(bits(&got), bits(&via_copy(&csr, &cfg)));
                }
            }
        }
        let empty = Graph::with_nodes(0);
        let cfg = PropsConfig::default();
        assert_eq!(
            bits(&StructuralProperties::compute(&empty, &cfg)),
            bits(&via_copy(&empty, &cfg))
        );
    }

    #[test]
    fn names_cover_all_12() {
        assert_eq!(PROPERTY_NAMES.len(), 12);
    }
}
