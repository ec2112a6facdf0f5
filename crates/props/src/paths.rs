//! Shortest-path properties (8)–(10): average length, length distribution,
//! diameter.
//!
//! Exact mode runs one BFS per node; sampled mode runs BFS from
//! `num_pivots` uniformly chosen sources, an unbiased estimator of `l̄`
//! and `{P(l)}` (each pivot sees the exact distance profile from itself),
//! plus double-sweep refinement for the diameter. Both modes parallelize
//! over sources with std scoped threads — the role the paper's
//! parallel algorithms (its Ref. 62) play.
//!
//! Traversal runs on the shared [`crate::bfs`] engine: sources are
//! processed in multi-source batches (one arena pass advances up to
//! [`BATCH_WIDTH`] pivots) and the double-sweep refinement uses the
//! direction-optimizing single-source kernel, with all state in a
//! per-worker [`BfsScratch`] — no per-source allocations. Results are
//! bitwise-identical to [`crate::bfs::reference::shortest_path_properties`],
//! the oracle the equivalence suite compares against (see the crate-level
//! "Traversal model" docs). Parallel edges and self-loops never change a
//! distance, so the histogram is identical on deduplicated input.

use crate::bfs::{self, BfsScratch, BATCH_WIDTH};
use crate::PropsConfig;
use sgr_graph::{GraphView, NodeId};

/// Results of the shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPathProperties {
    /// `l̄` — average shortest-path length over connected pairs.
    pub average_length: f64,
    /// `{P(l)}` indexed by length (index 0 is always 0).
    pub length_dist: Vec<f64>,
    /// `l_max` — the diameter (exact in exact mode, a double-sweep lower
    /// bound in sampled mode).
    pub diameter: usize,
}

impl ShortestPathProperties {
    /// Builds the properties from a merged distance histogram (`hist[l]`
    /// = pairs at distance `l`) and the diameter, which may exceed the
    /// histogram's depth in sampled mode.
    pub(crate) fn from_histogram(mut hist: Vec<u64>, diameter: usize) -> Self {
        if hist.len() <= diameter {
            hist.resize(diameter + 1, 0);
        }
        let total: u64 = hist.iter().sum();
        let weighted: u128 = hist
            .iter()
            .enumerate()
            .map(|(l, &c)| l as u128 * c as u128)
            .sum();
        let average_length = if total > 0 {
            weighted as f64 / total as f64
        } else {
            0.0
        };
        let length_dist: Vec<f64> = hist
            .iter()
            .map(|&c| {
                if total > 0 {
                    c as f64 / total as f64
                } else {
                    0.0
                }
            })
            .collect();
        ShortestPathProperties {
            average_length,
            length_dist,
            diameter,
        }
    }
}

/// Computes the shortest-path properties of a **connected** graph (callers
/// pass the largest component, ideally as a frozen
/// [`sgr_graph::CsrGraph`]). Empty and single-node graphs yield zeros.
pub fn shortest_path_properties<G: GraphView + Sync>(
    g: &G,
    cfg: &PropsConfig,
) -> ShortestPathProperties {
    let n = g.num_nodes();
    if n < 2 {
        return ShortestPathProperties::from_histogram(Vec::new(), 0);
    }
    let (sources, exact) = bfs::pivot_sources(n, cfg, 0);
    // Merge chunk results in chunk order with the same first-max-wins far
    // rule each chunk applies internally, so the double-sweep seed (and
    // hence the sampled-mode diameter bound) does not depend on the
    // thread count.
    let mut hist: Vec<u64> = Vec::new();
    let mut far = sources.first().copied().unwrap_or(0);
    for (h, f) in bfs::run_source_chunks(g, &sources, cfg.effective_threads(), chunk_histogram) {
        merge_histogram(&mut hist, &mut far, &h, f);
    }

    // Diameter: exact when all sources used; otherwise refine with double
    // sweeps from the farthest node found.
    let mut diameter = hist.len().saturating_sub(1);
    if !exact {
        let mut scratch = BfsScratch::new();
        let mut frontier = far;
        for _ in 0..4 {
            let run = scratch.single_source(g, frontier);
            diameter = diameter.max(run.depth);
            if run.far == frontier {
                break;
            }
            frontier = run.far;
        }
    }
    ShortestPathProperties::from_histogram(hist, diameter)
}

/// Adds the histogram `h` (far node `f`) into `hist`, taking `f` as the
/// far node when `h` is strictly deeper than everything merged so far:
/// first-max-wins in merge order.
pub(crate) fn merge_histogram(hist: &mut Vec<u64>, far: &mut NodeId, h: &[u64], f: NodeId) {
    if h.len() > hist.len() {
        hist.resize(h.len(), 0);
        *far = f;
    }
    for (m, &c) in hist.iter_mut().zip(h) {
        *m += c;
    }
}

/// One worker's share of the sweep: merged histogram over `chunk`'s
/// sources plus the chunk's far node under first-max-wins in source order
/// (the far node of the first source reaching the chunk's maximum depth).
/// Histogram entries are level-set sizes and the far node is level-set
/// determined per source, so the pair equals the one the
/// [`crate::bfs::reference`] kernel gives over the same sources.
fn chunk_histogram<G: GraphView>(g: &G, chunk: &[NodeId]) -> (Vec<u64>, NodeId) {
    let mut merged: Vec<u64> = Vec::new();
    let mut far = chunk.first().copied().unwrap_or(0);
    let mut best = 0usize;
    let mut scratch = BfsScratch::new();
    for batch in chunk.chunks(BATCH_WIDTH) {
        let levels = scratch.batch(g, batch);
        if levels > merged.len() {
            merged.resize(levels, 0);
        }
        for i in 0..batch.len() {
            if scratch.batch_depth(i) + 1 > best {
                best = scratch.batch_depth(i) + 1;
                far = scratch.batch_far(i);
            }
        }
        for (l, m) in merged.iter_mut().enumerate().take(levels).skip(1) {
            let mut sum = 0u64;
            for i in 0..batch.len() {
                sum += scratch.batch_count(l, i);
            }
            *m += sum;
        }
    }
    (merged, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{barbell, complete, cycle, path, star};

    fn cfg() -> PropsConfig {
        PropsConfig::default()
    }

    #[test]
    fn path_graph_exact() {
        let g = path(6);
        let sp = shortest_path_properties(&g, &cfg());
        assert_eq!(sp.diameter, 5);
        // Σ over ordered pairs of l / count: same as unordered average.
        // Path P6: pairs by distance 1:5, 2:4, 3:3, 4:2, 5:1 → l̄ = 35/15.
        assert!((sp.average_length - 35.0 / 15.0).abs() < 1e-12);
        assert!((sp.length_dist[1] - 5.0 / 15.0).abs() < 1e-12);
        assert!((sp.length_dist[5] - 1.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = complete(7);
        let sp = shortest_path_properties(&g, &cfg());
        assert_eq!(sp.diameter, 1);
        assert!((sp.average_length - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_even() {
        let g = cycle(8);
        let sp = shortest_path_properties(&g, &cfg());
        assert_eq!(sp.diameter, 4);
        // Distances from any node: 1,1,2,2,3,3,4 → mean 16/7.
        assert!((sp.average_length - 16.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn star_diameter_two() {
        let g = star(9);
        let sp = shortest_path_properties(&g, &cfg());
        assert_eq!(sp.diameter, 2);
    }

    #[test]
    fn multi_edges_do_not_change_distances() {
        let mut g = path(4);
        g.add_edge(0, 1);
        g.add_edge(2, 2);
        let sp = shortest_path_properties(&g, &cfg());
        assert_eq!(sp.diameter, 3);
    }

    #[test]
    fn sampled_mode_close_to_exact() {
        let g = sgr_gen::holme_kim(2000, 3, 0.4, &mut sgr_util::Xoshiro256pp::seed_from_u64(1))
            .unwrap();
        let exact = shortest_path_properties(&g, &cfg());
        let sampled_cfg = PropsConfig {
            exact_threshold: 10, // force sampling
            num_pivots: 256,
            ..cfg()
        };
        let approx = shortest_path_properties(&g, &sampled_cfg);
        assert!(
            (approx.average_length - exact.average_length).abs() / exact.average_length < 0.05,
            "approx {} vs exact {}",
            approx.average_length,
            exact.average_length
        );
        // Diameter lower bound within 1 for double-sweep on small-worlds.
        assert!(approx.diameter <= exact.diameter);
        assert!(approx.diameter + 1 >= exact.diameter);
    }

    #[test]
    fn engines_agree_bitwise() {
        let g = sgr_gen::holme_kim(1200, 3, 0.3, &mut sgr_util::Xoshiro256pp::seed_from_u64(5))
            .unwrap();
        for exact_threshold in [0, 4000] {
            let cfg = PropsConfig {
                exact_threshold,
                num_pivots: 96,
                threads: 1,
                ..cfg()
            };
            let engine = shortest_path_properties(&g, &cfg);
            let reference = crate::bfs::reference::shortest_path_properties(&g, &cfg);
            assert_eq!(engine.diameter, reference.diameter);
            assert_eq!(
                engine.average_length.to_bits(),
                reference.average_length.to_bits()
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&engine.length_dist), bits(&reference.length_dist));
        }
    }

    #[test]
    fn barbell_diameter() {
        let g = barbell(5);
        let sp = shortest_path_properties(&g, &cfg());
        assert_eq!(sp.diameter, 3);
    }

    #[test]
    fn tiny_graphs() {
        let sp = shortest_path_properties(&sgr_graph::Graph::with_nodes(0), &cfg());
        assert_eq!(sp.diameter, 0);
        assert_eq!(sp.average_length, 0.0);
        let sp = shortest_path_properties(&sgr_graph::Graph::with_nodes(1), &cfg());
        assert_eq!(sp.diameter, 0);
    }
}
