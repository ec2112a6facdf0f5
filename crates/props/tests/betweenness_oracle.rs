//! Brandes betweenness against a straightforward oracle.
//!
//! `sgr_props::betweenness` accumulates dependencies with a cache-tuned
//! kernel. This suite keeps the plain Brandes accumulation it replaced
//! (test-only, as the oracle): separate per-node arrays, a per-relaxation
//! token array for parallel edges, no hints. The oracle is driven through
//! the same public phase set-up, `bfs::pivot_sources` and
//! `bfs::run_source_chunks`, and its partials are merged as `betweenness`
//! merges them, so every `b` must match **bit for bit**: the kernel has to
//! perform the same float additions in the same order.
//!
//! Checked at threads 1, 2 and 4, in exact and sampled mode, on `Graph`
//! and on the order-preserving and sorted CSR snapshots of:
//! * random multigraphs with self-loops, parallel edges, unsorted
//!   neighbour lists, isolated nodes and several components;
//! * a Holme–Kim graph whose per-node state outgrows the kernel's cache
//!   budget, so the prefetching path runs too.

use proptest::prelude::*;
use sgr_graph::{CsrGraph, Graph, GraphView, NodeId};
use sgr_props::betweenness::betweenness;
use sgr_props::{bfs, PropsConfig};
use sgr_util::Xoshiro256pp;

/// Plain Brandes dependency accumulation over `sources`.
fn oracle_accumulate<G: GraphView>(g: &G, sources: &[NodeId]) -> Vec<f64> {
    let n = g.num_nodes();
    let mut b = vec![0.0f64; n];
    let mut dist = vec![-1i32; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut pred_off: Vec<u32> = Vec::with_capacity(n + 1);
    pred_off.push(0);
    for u in g.nodes() {
        pred_off.push(pred_off[u as usize] + g.degree(u) as u32);
    }
    let mut pred_data: Vec<NodeId> = vec![0; *pred_off.last().unwrap() as usize];
    let mut pred_len: Vec<u32> = vec![0; n];
    let mut relaxed = vec![0u64; n];
    let mut token = 0u64;
    for &s in sources {
        for &v in &order {
            dist[v as usize] = -1;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
            pred_len[v as usize] = 0;
        }
        dist[s as usize] = -1;
        sigma[s as usize] = 0.0;
        delta[s as usize] = 0.0;
        pred_len[s as usize] = 0;
        order.clear();

        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        order.push(s);
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let du = dist[u as usize];
            let su = sigma[u as usize];
            token += 1;
            for &v in g.neighbors(u) {
                if v == u || relaxed[v as usize] == token {
                    continue;
                }
                relaxed[v as usize] = token;
                if dist[v as usize] < 0 {
                    dist[v as usize] = du + 1;
                    order.push(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += su;
                    pred_data[(pred_off[v as usize] + pred_len[v as usize]) as usize] = u;
                    pred_len[v as usize] += 1;
                }
            }
        }
        for &w in order.iter().rev() {
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize];
            let lo = pred_off[w as usize] as usize;
            let hi = lo + pred_len[w as usize] as usize;
            for &p in &pred_data[lo..hi] {
                let p = p as usize;
                delta[p] += sigma[p] * coeff;
            }
            if w != s {
                b[w as usize] += delta[w as usize];
            }
        }
    }
    b
}

/// `betweenness` with the oracle as the per-chunk kernel: same pivots
/// (salt `0xb7`), same chunking, partials summed in chunk order, then
/// scaled.
fn oracle_betweenness<G: GraphView + Sync>(g: &G, cfg: &PropsConfig) -> Vec<f64> {
    let n = g.num_nodes();
    if n < 3 {
        return vec![0.0; n];
    }
    let (sources, exact) = bfs::pivot_sources(n, cfg, 0xb7);
    let scale = if exact {
        1.0
    } else {
        n as f64 / sources.len() as f64
    };
    let partials = bfs::run_source_chunks(g, &sources, cfg.effective_threads(), oracle_accumulate);
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts `betweenness` equals the oracle bit for bit on `g` at threads
/// 1, 2 and 4 under `base` (whose thread count is overridden).
fn check<G: GraphView + Sync>(name: &str, g: &G, base: &PropsConfig) {
    for threads in [1, 2, 4] {
        let cfg = PropsConfig { threads, ..*base };
        let want = oracle_betweenness(g, &cfg);
        let have = betweenness(g, &cfg);
        prop_assert_eq!(
            bits(&have),
            bits(&want),
            "{}: b differs from the oracle at threads = {}",
            name,
            threads
        );
    }
}

/// Checks `g` and its order-preserving and sorted CSR snapshots.
fn check_all_backends(g: &Graph, base: &PropsConfig) {
    check("graph", g, base);
    check("freeze", &CsrGraph::freeze(g), base);
    check("freeze_sorted", &CsrGraph::freeze_sorted(g), base);
}

/// Exact mode: every node a source.
fn exact() -> PropsConfig {
    PropsConfig::default()
}

/// Sampled mode: `pivots` of the nodes, scaled by `n / pivots`.
fn sampled(pivots: usize, seed: u64) -> PropsConfig {
    PropsConfig {
        exact_threshold: 0,
        num_pivots: pivots,
        seed,
        ..PropsConfig::default()
    }
}

/// A random multigraph in two pieces, `0..split` and `split..n`, with
/// edges in random order (so neighbour lists are unsorted), each piece's
/// pairs drawn with repeats (parallel edges) and `u == v` draws
/// (self-loops), some edges pushed again, and trailing nodes that no edge
/// touches (isolated).
fn arb_messy_graph() -> impl Strategy<Value = Graph> {
    (3usize..50, 0usize..6).prop_flat_map(|(n, isolated)| {
        (
            Just((n, isolated)),
            1..n,
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..140),
            proptest::collection::vec(0usize..140, 0..20),
        )
            .prop_map(|((n, isolated), split, pairs, doubled)| {
                let split = split as NodeId;
                // Fold each pair into the piece of its first endpoint.
                let mut edges: Vec<(NodeId, NodeId)> = pairs
                    .into_iter()
                    .map(|(u, v)| {
                        if u < split {
                            (u, v % split)
                        } else {
                            (u, split + v % (n as NodeId - split))
                        }
                    })
                    .collect();
                for i in doubled {
                    if let Some(&e) = edges.get(i) {
                        edges.push(e);
                    }
                }
                Graph::from_edges(n + isolated, &edges)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_matches_the_oracle_on_messy_multigraphs(g in arb_messy_graph()) {
        check_all_backends(&g, &exact());
    }

    #[test]
    fn sampled_matches_the_oracle_on_messy_multigraphs(
        g in arb_messy_graph(),
        pivots in 1usize..12,
        seed in 0u64..1000,
    ) {
        check_all_backends(&g, &sampled(pivots, seed));
    }
}

#[test]
fn fixed_multigraph_with_loops_and_parallel_edges() {
    // A 4-cycle with one doubled side, a loop on a cycle node, a pendant
    // path, a separate triangle with a tripled edge, and an isolated node.
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (2, 1),
        (1, 1),
        (3, 4),
        (4, 5),
        (6, 7),
        (7, 8),
        (8, 6),
        (8, 7),
        (7, 8),
    ];
    let g = Graph::from_edges(10, &edges);
    check_all_backends(&g, &exact());
    check_all_backends(&g, &sampled(4, 9));
}

/// A Holme–Kim graph of 100k nodes: its 32-byte per-node records and
/// 4-byte predecessor slots (6.4 MB) outgrow the kernel's 4 MiB cache
/// budget, so `betweenness` takes the prefetching path here.
#[test]
fn holme_kim_above_the_cache_budget() {
    let g = sgr_gen::holme_kim(100_000, 4, 0.5, &mut Xoshiro256pp::seed_from_u64(30)).unwrap();
    assert!(32 * g.num_nodes() + 8 * g.num_edges() > 4 << 20);
    let csr = CsrGraph::freeze(&g);
    check("freeze", &csr, &sampled(4, 0x5eed));
    check("freeze", &csr, &sampled(3, 0xb7));
}
