//! Random-walk crawlers.
//!
//! Each walk is one loop over [`AccessModel::query`]: a node's neighbour
//! list is fetched the first time the walk stands on it (queries cannot
//! fail, so there is nothing to retry), then the next step is drawn from
//! the walk RNG. The draws depend only on the neighbour lists, so a walk
//! is a function of the hidden graph, its seed node and its RNG stream.

use crate::access::AccessModel;
use crate::crawl::Crawl;
use sgr_graph::{GraphView, NodeId};
use sgr_util::Xoshiro256pp;

/// Simple random walk (§III-B): from the current node, move along an edge
/// chosen uniformly at random from `N(x_i)`. Runs until `target_queried`
/// distinct nodes have been queried, recording the *full* visit sequence
/// `x_1, …, x_r` (revisits included — the estimators need the Markov
/// chain, not the set).
///
/// A `max_steps` safety valve (1000 × target) guards against pathological
/// hidden graphs (e.g. a walk trapped next to a degree-0 neighbor set);
/// real social graphs never hit it.
pub fn random_walk<G: GraphView>(
    am: &mut AccessModel<'_, G>,
    seed: NodeId,
    target_queried: usize,
    rng: &mut Xoshiro256pp,
) -> Crawl {
    let mut crawl = Crawl::default();
    let max_steps = target_queried.saturating_mul(1000).max(1024);
    let mut current = seed;
    for _ in 0..max_steps {
        crawl
            .neighbors
            .entry(current)
            .or_insert_with(|| am.query(current).to_vec());
        crawl.seq.push(current);
        if crawl.neighbors.len() >= target_queried {
            break;
        }
        let nbrs = &crawl.neighbors[&current];
        if nbrs.is_empty() {
            break; // isolated seed: nowhere to go
        }
        current = nbrs[rng.gen_range(nbrs.len())];
    }
    crawl
}

/// Convenience wrapper used by the experiment harness: walk a hidden graph
/// from a uniformly random seed until `fraction` of its nodes have been
/// queried (the paper's stopping rule, §V-D).
pub fn random_walk_until_fraction<G: GraphView>(
    g: &G,
    fraction: f64,
    rng: &mut Xoshiro256pp,
) -> Crawl {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let mut am = AccessModel::new(g);
    let seed = am.random_seed(rng);
    let target = ((g.num_nodes() as f64 * fraction).round() as usize).max(1);
    random_walk(&mut am, seed, target, rng)
}

/// Non-backtracking random walk (Lee, Xu & Eun, SIGMETRICS 2012; paper
/// §II): like the simple walk but never immediately returns along the edge
/// it just crossed, unless the current node has degree 1. Improves query
/// efficiency while keeping the chain Markovian on directed edges.
pub fn non_backtracking_walk<G: GraphView>(
    am: &mut AccessModel<'_, G>,
    seed: NodeId,
    target_queried: usize,
    rng: &mut Xoshiro256pp,
) -> Crawl {
    let mut crawl = Crawl::default();
    let max_steps = target_queried.saturating_mul(1000).max(1024);
    let mut current = seed;
    let mut previous: Option<NodeId> = None;
    for _ in 0..max_steps {
        crawl
            .neighbors
            .entry(current)
            .or_insert_with(|| am.query(current).to_vec());
        crawl.seq.push(current);
        if crawl.neighbors.len() >= target_queried {
            break;
        }
        let nbrs = &crawl.neighbors[&current];
        if nbrs.is_empty() {
            break;
        }
        let next = if nbrs.len() == 1 {
            nbrs[0]
        } else {
            match previous {
                None => nbrs[rng.gen_range(nbrs.len())],
                Some(prev) => loop {
                    let cand = nbrs[rng.gen_range(nbrs.len())];
                    if cand != prev {
                        break cand;
                    }
                },
            }
        };
        previous = Some(current);
        current = next;
    }
    crawl
}

/// Metropolis–Hastings random walk targeting the uniform distribution:
/// propose a uniform neighbor `w`, accept with probability
/// `min(1, d(x)/d(w))`, else stay. The stationary distribution is uniform
/// over nodes, so sample means need no re-weighting (an alternative to
/// re-weighted RW discussed in the crawling literature the paper builds
/// on).
pub fn metropolis_hastings_walk<G: GraphView>(
    am: &mut AccessModel<'_, G>,
    seed: NodeId,
    target_queried: usize,
    rng: &mut Xoshiro256pp,
) -> Crawl {
    let mut crawl = Crawl::default();
    let max_steps = target_queried.saturating_mul(1000).max(1024);
    let mut current = seed;
    for _ in 0..max_steps {
        crawl
            .neighbors
            .entry(current)
            .or_insert_with(|| am.query(current).to_vec());
        crawl.seq.push(current);
        if crawl.neighbors.len() >= target_queried {
            break;
        }
        let d_cur = crawl.neighbors[&current].len();
        if d_cur == 0 {
            break;
        }
        let w = crawl.neighbors[&current][rng.gen_range(d_cur)];
        // Need d(w): querying it is exactly what a real MH walker must do.
        crawl
            .neighbors
            .entry(w)
            .or_insert_with(|| am.query(w).to_vec());
        let d_w = crawl.neighbors[&w].len();
        if d_w == 0 {
            break;
        }
        if rng.next_f64() < d_cur as f64 / d_w as f64 {
            current = w;
        }
    }
    crawl
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgr_gen::classic::{complete, cycle, path};
    use sgr_graph::Graph;
    use sgr_util::FxHashMap;

    fn social(seed: u64) -> Graph {
        sgr_gen::holme_kim(400, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn walk_reaches_target_and_is_contiguous() {
        let g = social(1);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut am = AccessModel::new(&g);
        let crawl = random_walk(&mut am, 0, 40, &mut rng);
        assert_eq!(crawl.num_queried(), 40);
        // Consecutive sampled nodes are adjacent in the hidden graph.
        for w in crawl.seq.windows(2) {
            assert!(g.neighbors(w[0]).contains(&w[1]), "walk steps not adjacent");
        }
        // Every node in the sequence was queried.
        for &x in &crawl.seq {
            assert!(crawl.is_queried(x));
            assert_eq!(crawl.neighbors_of(x).len(), g.degree(x));
        }
    }

    #[test]
    fn walk_visits_high_degree_nodes_more() {
        // The stationary distribution is ∝ degree: on a star, the center
        // is every second step.
        let g = sgr_gen::classic::star(20);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut am = AccessModel::new(&g);
        let crawl = random_walk(&mut am, 1, 15, &mut rng);
        let center_visits = crawl.seq.iter().filter(|&&x| x == 0).count();
        assert!(center_visits * 2 >= crawl.len() - 2);
    }

    #[test]
    fn walk_until_fraction_counts_queried_not_steps() {
        let g = social(4);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let crawl = random_walk_until_fraction(&g, 0.1, &mut rng);
        assert_eq!(crawl.num_queried(), 40);
        assert!(
            crawl.len() >= 40,
            "revisits make the sequence at least as long"
        );
    }

    #[test]
    fn walk_on_isolated_seed_stops() {
        let g = Graph::with_nodes(3); // no edges at all
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut am = AccessModel::new(&g);
        let crawl = random_walk(&mut am, 1, 10, &mut rng);
        assert_eq!(crawl.seq, vec![1]);
        assert_eq!(crawl.num_queried(), 1);
    }

    #[test]
    fn walk_trapped_in_component() {
        // Two components: the walk can only ever query its own.
        let mut g = path(3);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut am = AccessModel::new(&g);
        let crawl = random_walk(&mut am, a, 10, &mut rng);
        assert_eq!(crawl.num_queried(), 2);
    }

    #[test]
    fn nbtw_never_backtracks_above_degree_one() {
        let g = cycle(30);
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut am = AccessModel::new(&g);
        let crawl = non_backtracking_walk(&mut am, 0, 20, &mut rng);
        for w in crawl.seq.windows(3) {
            assert_ne!(w[0], w[2], "backtracked on a cycle");
        }
    }

    #[test]
    fn nbtw_backtracks_at_dead_ends() {
        let g = path(3);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut am = AccessModel::new(&g);
        let crawl = non_backtracking_walk(&mut am, 0, 3, &mut rng);
        assert_eq!(crawl.num_queried(), 3);
    }

    #[test]
    fn mh_walk_is_roughly_uniform_on_heterogeneous_graph() {
        // On a "lollipop" (clique + path) the simple walk oversamples the
        // clique; MH should visit path nodes much more uniformly.
        let g = sgr_gen::classic::lollipop(10, 10);
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let mut am = AccessModel::new(&g);
        let crawl = metropolis_hastings_walk(&mut am, 0, g.num_nodes(), &mut rng);
        let mut visits: FxHashMap<NodeId, usize> = FxHashMap::default();
        for &x in &crawl.seq {
            *visits.entry(x).or_insert(0) += 1;
        }
        assert_eq!(crawl.num_queried(), g.num_nodes());
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let g = social(11);
        let s1 = {
            let mut rng = Xoshiro256pp::seed_from_u64(12);
            let mut am = AccessModel::new(&g);
            random_walk(&mut am, 5, 30, &mut rng).seq
        };
        let s2 = {
            let mut rng = Xoshiro256pp::seed_from_u64(12);
            let mut am = AccessModel::new(&g);
            random_walk(&mut am, 5, 30, &mut rng).seq
        };
        assert_eq!(s1, s2);
    }

    #[test]
    fn complete_graph_walk_queries_everything_quickly() {
        let g = complete(12);
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let mut am = AccessModel::new(&g);
        let crawl = random_walk(&mut am, 0, 12, &mut rng);
        assert_eq!(crawl.num_queried(), 12);
    }
}
