//! Degree-dependent betweenness centrality (property 11).
//!
//! Brandes' algorithm, exact (all sources) below the size threshold and
//! pivot-sampled above it (Brandes–Pich estimation: accumulate dependencies
//! from `K` uniform sources and scale by `n / K`). The paper's definition
//! `b_i = Σ_{j≠i} Σ_{k≠i,j} σ_jk(i)/σ_jk` counts **ordered** pairs, which
//! is exactly what undirected Brandes accumulation produces without the
//! usual halving.
//!
//! Traversal reads neighbor slices straight through [`GraphView`] — no
//! deduplicated adjacency copy. The path-count semantics of the paper's σ
//! are over node *sequences*, so parallel edges must contribute once; a
//! per-node stamp suppresses duplicate neighbors in O(1) without
//! allocating or reordering (results follow each backend's neighbor
//! order, which [`sgr_graph::CsrGraph::freeze`] preserves).
//!
//! # Memory layout
//!
//! On large graphs the kernel waits on memory, not arithmetic: each
//! neighbor entry lands on a random node's state. So the state is laid
//! out for the cache:
//!
//! * **One record per node.** σ, δ, the level, the stamp and the
//!   predecessor extent share one 32-byte record, so a visit costs one
//!   cache line. The predecessor arena and `b` stay separate arrays.
//! * **Lazy stamp.** The stamp is written only when a neighbor is on the
//!   next level, the one case where a parallel copy would count twice, and
//!   is reset with the record for each source. Neighbors at the current
//!   level or above are only read.
//! * **Hints.** The BFS queue says which nodes come next, so both passes
//!   hint the lines they will need a few queue positions ahead
//!   ([`sgr_util::prefetch::prefetch_read`]; the schedule is on
//!   `accumulate_with`). Hints run only when the records and predecessor
//!   slots outgrow an L2-sized budget; on cache-resident graphs the hint
//!   loops only cost time.
//!
//! None of this moves a bit of `b`: the kernel performs the same float
//! additions in the same order as plain Brandes, and a hint reads nothing
//! the program sees. `tests/betweenness_oracle.rs` holds the kernel to
//! the plain accumulation, bit for bit.

use crate::bfs;
use crate::PropsConfig;
use sgr_graph::{GraphView, NodeId};
use sgr_util::prefetch::prefetch_read;

/// Per-node betweenness centrality.
pub fn betweenness<G: GraphView + Sync>(g: &G, cfg: &PropsConfig) -> Vec<f64> {
    let n = g.num_nodes();
    if n < 3 {
        return vec![0.0; n];
    }
    // Pivot selection and source-chunk dispatch are the shared BFS-phase
    // setup from the traversal engine (the historical `seed ^ 0xb7` pivot
    // stream is preserved); only the per-chunk kernel — Brandes
    // dependency accumulation — is betweenness-specific. Partial sums
    // come back in chunk order, so the merged result is thread-count
    // invariant up to float association, exactly as before.
    let (sources, exact) = bfs::pivot_sources(n, cfg, 0xb7);
    let scale = if exact {
        1.0
    } else {
        n as f64 / sources.len() as f64
    };
    let partials: Vec<Vec<f64>> =
        bfs::run_source_chunks(g, &sources, cfg.effective_threads(), accumulate);
    let mut b = vec![0.0f64; n];
    for part in partials {
        for (i, &x) in part.iter().enumerate() {
            b[i] += x;
        }
    }
    for x in &mut b {
        *x *= scale;
    }
    b
}

/// One node's Brandes state for the current source, packed so that a
/// visit touches one 32-byte record (half a cache line, never split
/// across two) instead of one line in each of several arrays.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
struct Record {
    /// σ: shortest paths from the source.
    sigma: f64,
    /// δ: dependency of the source on this node.
    delta: f64,
    /// BFS level; -1 while unreached.
    dist: i32,
    /// `u + 1` once `u` has counted itself as this node's predecessor
    /// (0: no one yet). Suppresses the parallel copies of an edge.
    stamp: u32,
    /// First predecessor slot (fixed: the cumulative degree).
    pred_off: u32,
    /// Predecessor slots in use.
    pred_len: u32,
}

/// Records plus predecessor slots beyond which the traversal hints the
/// nodes it reaches next: 4 MiB, an L2's worth. Below it the state stays
/// cache-resident and the hint loops cost time without saving a miss.
/// On a 4 MiB-L2 Xeon, single-threaded, hints cost 13% on a 20k-node
/// restored graph (1.2 MB of state) and ~5% at 47k (3.0 MB), and paid
/// ~5% at 106k (6.8 MB) and ~45% at 1M.
const HINT_BUDGET_BYTES: usize = 4 << 20;

/// Hint distance, in queue positions, of the nearest hint stage; the
/// farther stages sit at two and three times it.
const LOOKAHEAD: usize = 4;

/// Brandes dependency accumulation over the given sources, hinting ahead
/// only when the state outgrows [`HINT_BUDGET_BYTES`].
fn accumulate<G: GraphView>(g: &G, sources: &[NodeId]) -> Vec<f64> {
    let state = g.num_nodes() * std::mem::size_of::<Record>()
        + 2 * g.num_edges() * std::mem::size_of::<NodeId>();
    let ahead = if state > HINT_BUDGET_BYTES {
        LOOKAHEAD
    } else {
        0
    };
    accumulate_with(g, sources, ahead)
}

/// Brandes dependency accumulation over the given sources, with hints
/// `ahead` queue positions ahead (0: none).
///
/// Predecessor lists live in one flat arena indexed by cumulative degree
/// (every predecessor of `v` is a neighbor of `v`, so `deg(v)` slots
/// always suffice — parallel copies are suppressed before the push). Per
/// source only the previous source's queue is reset: any other node was
/// reset after the last source that reached it, or never reached. Stamps
/// must be reset too, or a stamp `u + 1` left by an earlier source would
/// suppress `u` as a predecessor.
///
/// Hint schedule, with `a = ahead`:
/// * forward, at queue position `h`: the neighbor slice of `order[h +
///   2a]`, and the records of `order[h + a]`'s neighbors (their slice
///   hinted `a` steps earlier);
/// * backward, at position `i`: the record of `order[i − 3a]`, the
///   predecessor slots of `order[i − 2a]` (found through its record),
///   and the records of `order[i − a]`'s predecessors.
///
/// σ and each predecessor list grow in queue order and neighbor-slice
/// order, δ in reverse queue order and predecessor order, and `b` once
/// per node per source — the order of plain Brandes — so `ahead` changes
/// timing only.
fn accumulate_with<G: GraphView>(g: &G, sources: &[NodeId], ahead: usize) -> Vec<f64> {
    let n = g.num_nodes();
    // Predecessor offsets are u32 to keep a record at 32 bytes — the same
    // limit CsrGraph::freeze asserts, enforced here too because the
    // mutable Graph backend carries no size cap of its own. Stamps are
    // `u + 1`, so node ids must leave room for one more.
    assert!(
        u32::try_from(2 * g.num_edges()).is_ok() && u32::try_from(n).is_ok(),
        "graph too large for u32 predecessor offsets ({} neighbor entries, {n} nodes)",
        2 * g.num_edges()
    );
    let mut rec: Vec<Record> = Vec::with_capacity(n);
    let mut off = 0u32;
    for u in g.nodes() {
        rec.push(Record {
            sigma: 0.0,
            delta: 0.0,
            dist: -1,
            stamp: 0,
            pred_off: off,
            pred_len: 0,
        });
        off += g.degree(u) as u32;
    }
    let mut pred: Vec<NodeId> = vec![0; off as usize];
    let mut b = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for &s in sources {
        for &v in &order {
            let r = &mut rec[v as usize];
            r.sigma = 0.0;
            r.delta = 0.0;
            r.dist = -1;
            r.stamp = 0;
            r.pred_len = 0;
        }
        order.clear();

        rec[s as usize].dist = 0;
        rec[s as usize].sigma = 1.0;
        order.push(s);
        let mut head = 0usize;
        while head < order.len() {
            if ahead > 0 {
                if let Some(first) = order
                    .get(head + 2 * ahead)
                    .and_then(|&x| g.neighbors(x).first())
                {
                    prefetch_read(first);
                }
                if let Some(&y) = order.get(head + ahead) {
                    for &v in g.neighbors(y) {
                        prefetch_read(&rec[v as usize]);
                    }
                }
            }
            let u = order[head];
            head += 1;
            let Record {
                dist: du,
                sigma: su,
                ..
            } = rec[u as usize];
            // A self-loop finds `dist == du` and changes nothing.
            for &v in g.neighbors(u) {
                let r = &mut rec[v as usize];
                if r.dist < 0 {
                    r.dist = du + 1;
                    order.push(v);
                }
                if r.dist == du + 1 && r.stamp != u + 1 {
                    r.stamp = u + 1;
                    r.sigma += su;
                    pred[(r.pred_off + r.pred_len) as usize] = u;
                    r.pred_len += 1;
                }
            }
        }
        for i in (0..order.len()).rev() {
            if ahead > 0 {
                if let Some(j) = i.checked_sub(3 * ahead) {
                    prefetch_read(&rec[order[j] as usize]);
                }
                if let Some(j) = i.checked_sub(2 * ahead) {
                    if let Some(first) = preds(&pred, &rec[order[j] as usize]).first() {
                        prefetch_read(first);
                    }
                }
                if let Some(j) = i.checked_sub(ahead) {
                    for &p in preds(&pred, &rec[order[j] as usize]) {
                        prefetch_read(&rec[p as usize]);
                    }
                }
            }
            let w = order[i];
            let rw = rec[w as usize];
            let coeff = (1.0 + rw.delta) / rw.sigma;
            for &p in preds(&pred, &rw) {
                let r = &mut rec[p as usize];
                r.delta += r.sigma * coeff;
            }
            if w != s {
                b[w as usize] += rw.delta;
            }
        }
    }
    b
}

/// The predecessors `r` has collected in the current source.
#[inline]
fn preds<'a>(pred: &'a [NodeId], r: &Record) -> &'a [NodeId] {
    &pred[r.pred_off as usize..(r.pred_off + r.pred_len) as usize]
}

/// `{b̄(k)}` — mean betweenness of the nodes with degree `k`, indexed by
/// degree (0 where no node of that degree exists).
pub fn betweenness_by_degree<G: GraphView + Sync>(g: &G, cfg: &PropsConfig) -> Vec<f64> {
    let b = betweenness(g, cfg);
    let kmax = g.max_degree();
    let mut sum = vec![0.0f64; kmax + 1];
    let mut cnt = vec![0u64; kmax + 1];
    for u in g.nodes() {
        let k = g.degree(u);
        sum[k] += b[u as usize];
        cnt[k] += 1;
    }
    sum.iter()
        .zip(cnt.iter())
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, path, star};
    use sgr_graph::Graph;

    fn cfg() -> PropsConfig {
        PropsConfig::default()
    }

    #[test]
    fn star_center_carries_everything() {
        let g = star(5);
        let b = betweenness(&g, &cfg());
        // Ordered pairs among 5 leaves: 5*4 = 20, all via the center.
        assert!((b[0] - 20.0).abs() < 1e-9);
        for &leaf_b in &b[1..=5] {
            assert_eq!(leaf_b, 0.0);
        }
    }

    #[test]
    fn path_interior_counts() {
        let g = path(5);
        let b = betweenness(&g, &cfg());
        // Node 2 (middle) separates {0,1} from {3,4}: 2*2 ordered pairs
        // each direction = 8; plus pairs (0,?) vs ... compute directly:
        // pairs through node 2: (0,3),(0,4),(1,3),(1,4) and reverses = 8.
        assert!((b[2] - 8.0).abs() < 1e-9);
        // Node 1 separates {0} from {2,3,4}: 3 ordered * 2 = 6.
        assert!((b[1] - 6.0).abs() < 1e-9);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn complete_graph_zero() {
        let g = complete(6);
        let b = betweenness(&g, &cfg());
        assert!(b.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn multiple_shortest_paths_split_weight() {
        // 4-cycle: two shortest paths between opposite corners; each
        // intermediate carries 1/2 per ordered pair => b = 1 for each node
        // (2 opposite ordered pairs × 1/2).
        let g = sgr_gen::classic::cycle(4);
        let b = betweenness(&g, &cfg());
        for &x in &b {
            assert!((x - 1.0).abs() < 1e-9, "b = {x}");
        }
    }

    #[test]
    fn by_degree_grouping() {
        let g = star(4);
        let bd = betweenness_by_degree(&g, &cfg());
        assert!((bd[4] - 12.0).abs() < 1e-9); // center: 4*3 ordered pairs
        assert_eq!(bd[1], 0.0);
    }

    #[test]
    fn sampled_close_to_exact() {
        let g = sgr_gen::holme_kim(1500, 3, 0.4, &mut sgr_util::Xoshiro256pp::seed_from_u64(2))
            .unwrap();
        let exact = betweenness_by_degree(&g, &cfg());
        let sampled = betweenness_by_degree(
            &g,
            &PropsConfig {
                exact_threshold: 10,
                num_pivots: 400,
                ..cfg()
            },
        );
        // Compare total normalized L1 over degrees: should be small.
        let sum_exact: f64 = exact.iter().sum();
        let l1: f64 = exact
            .iter()
            .zip(sampled.iter().chain(std::iter::repeat(&0.0)))
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        assert!(l1 / sum_exact < 0.35, "relative L1 = {}", l1 / sum_exact);
    }

    /// A small multigraph in two pieces with loops, parallel edges,
    /// unsorted lists and isolated nodes.
    fn messy(seed: u64) -> Graph {
        let mut rng = sgr_util::Xoshiro256pp::seed_from_u64(seed);
        let n = 4 + rng.gen_range(40);
        let split = 1 + rng.gen_range(n - 1);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..rng.gen_range(3 * n) {
            let (lo, len) = if rng.gen_range(2) == 0 {
                (0, split)
            } else {
                (split, n - split)
            };
            let u = (lo + rng.gen_range(len)) as NodeId;
            let v = (lo + rng.gen_range(len)) as NodeId;
            edges.push((u, v));
            if rng.gen_range(4) == 0 {
                edges.push((v, u));
            }
        }
        Graph::from_edges(n + rng.gen_range(4), &edges)
    }

    fn bits(b: &[f64]) -> Vec<u64> {
        b.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn hints_change_no_bit() {
        // Small graphs sit below the budget; force the hinted path on.
        for seed in 0..64 {
            let g = messy(seed);
            let csr = sgr_graph::CsrGraph::freeze_sorted(&g);
            let sources: Vec<NodeId> = g.nodes().collect();
            let plain = bits(&accumulate_with(&g, &sources, 0));
            let sorted = bits(&accumulate_with(&csr, &sources, 0));
            for ahead in [1, LOOKAHEAD] {
                assert_eq!(bits(&accumulate_with(&g, &sources, ahead)), plain);
                assert_eq!(bits(&accumulate_with(&csr, &sources, ahead)), sorted);
            }
        }
    }

    #[test]
    fn parallel_edges_and_loops_count_once() {
        // The 4-cycle with side (0, 1) tripled and a loop on every node has
        // the betweenness of the simple cycle: 1 everywhere. Counting the
        // copies would give the path through 1 more weight than the one
        // through 3.
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (0, 1)];
        edges.extend((0..4).map(|u| (u, u)));
        let g = Graph::from_edges(4, &edges);
        for ahead in [0, 1, LOOKAHEAD] {
            let b = accumulate_with(&g, &[0, 1, 2, 3], ahead);
            assert_eq!(b, vec![1.0; 4], "ahead = {ahead}");
        }
    }

    #[test]
    fn tiny_graphs_zero() {
        assert!(betweenness(&Graph::with_nodes(0), &cfg()).is_empty());
        assert_eq!(betweenness(&Graph::with_nodes(2), &cfg()), vec![0.0, 0.0]);
    }
}
