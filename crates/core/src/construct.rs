//! Phase 3 — adding nodes and edges to the subgraph (§IV-D, Algorithm 5).

use crate::target_dv::TargetDv;
use crate::target_jdm::TargetJdm;
use sgr_dk::construct::{wire_stubs, ConstructScratch, MatchStats};
use sgr_dk::extract::JointDegreeMatrix;
use sgr_dk::DkError;
use sgr_graph::{Graph, NodeId};
use sgr_sample::Subgraph;
use sgr_util::{FxHashMap, Xoshiro256pp};

/// Output of the construction phase.
#[derive(Debug)]
pub struct Built {
    /// `G̃` — contains `G'` (dense ids `0..|V'|`) plus the added nodes.
    pub graph: Graph,
    /// The edges added on top of `E'` — the rewiring candidate set
    /// `Ẽ_rew = Ẽ \ E'`.
    pub added_edges: Vec<(NodeId, NodeId)>,
    /// Per-node target degrees actually used (subgraph nodes first).
    pub target_deg: Vec<u32>,
    /// Wall time spent inside stub matching proper (step 5), excluding
    /// node addition and degree-sequence shuffling — the
    /// `stub_matching_seconds` split `bench_construct` reports.
    pub stub_matching_secs: f64,
    /// Matcher counters (self-loop accounting; see
    /// [`sgr_dk::MatchStats`]).
    pub match_stats: MatchStats,
}

/// Algorithm 5: extend the subgraph so the result preserves `{n*(k)}` and
/// `{m*(k,k')}` exactly.
///
/// 1. start from `G̃ = G'`;
/// 2. append `Σ_k n*(k) − |V'|` fresh nodes;
/// 3. build the degree sequence in which `k` appears `n*(k) − n'(k)`
///    times, shuffle it, and assign it to the added nodes;
/// 4. give every node `d*_i − d'_i` free half-edges;
/// 5. for each `k ≤ k'`, wire `m*(k,k') − m'(k,k')` uniformly random
///    stub pairs between the degree classes.
///
/// Results never depend on the caller-owned `scratch` (see the
/// determinism model in [`sgr_dk::construct`]); a warm one makes stub
/// matching allocation-free across back-to-back generations.
pub fn extend_subgraph_with(
    sg: &Subgraph,
    dv: &TargetDv,
    jdm: &TargetJdm,
    rng: &mut Xoshiro256pp,
    scratch: &mut ConstructScratch,
) -> Result<Built, DkError> {
    let n_sub = sg.num_nodes();
    let n_total = dv.num_nodes() as usize;
    debug_assert!(n_total >= n_sub, "DV-3 guarantees room for the subgraph");

    // Degree sequence for the added nodes: k appears n*(k) - n'(k) times.
    // The subtraction is exactly condition DV-3; a violated invariant
    // must surface as an error, not wrap around in release mode and ask
    // the stub matcher for ~1.8e19 nodes.
    let mut dseq: Vec<u32> = Vec::with_capacity(n_total - n_sub);
    for k in 1..=dv.k_max {
        let free = dv.n_star[k]
            .checked_sub(dv.n_prime[k])
            .ok_or(DkError::DvDominanceViolated {
                k: k as u32,
                n_star: dv.n_star[k],
                n_prime: dv.n_prime[k],
            })?;
        for _ in 0..free {
            dseq.push(k as u32);
        }
    }
    debug_assert_eq!(dseq.len(), n_total - n_sub);
    sgr_util::sampling::shuffle(&mut dseq, rng);

    let mut target_deg: Vec<u32> = Vec::with_capacity(n_total);
    target_deg.extend_from_slice(&dv.d_star);
    target_deg.extend_from_slice(&dseq);

    // G̃ starts as G' over ids 0..n_sub, plus the added nodes. The final
    // degrees are already fixed, so the adjacency arena is laid out at
    // its exact target extents *before* the subgraph edges go in: both
    // the insertion below and the stub-matching fill wire into
    // pre-reserved slots with zero per-node reallocations. (Edge
    // insertion consumes no RNG, so hoisting the degree-sequence work
    // above it leaves the draw stream untouched.)
    let mut g = Graph::with_nodes(n_total);
    g.reserve_neighbors(&target_deg);
    for (u, v) in sg.graph.edges() {
        g.add_edge(u, v);
    }

    // Edges to add per degree-class pair: m*(k,k') − m'(k,k') is
    // condition JDM-4, guarded the same way.
    let mut add: JointDegreeMatrix = FxHashMap::default();
    for (k, k2, star, prime) in jdm.upper_entries() {
        let extra = star
            .checked_sub(prime)
            .ok_or(DkError::JdmDominanceViolated {
                k: k as u32,
                k2: k2 as u32,
                m_star: star,
                m_prime: prime,
            })?;
        if extra > 0 {
            add.insert((k as u32, k2 as u32), extra);
        }
    }

    let t = std::time::Instant::now();
    let (_, match_stats) = wire_stubs(&mut g, &target_deg, &add, rng, scratch)?;
    let stub_matching_secs = t.elapsed().as_secs_f64();
    // Move the edge list out of the scratch instead of copying the
    // borrowed slice — these edges outlive the scratch's next use.
    let added_edges = scratch.take_added();
    Ok(Built {
        graph: g,
        added_edges,
        target_deg,
        stub_matching_secs,
        match_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{target_dv, target_jdm};
    use sgr_dk::extract::joint_degree_matrix;
    use sgr_estimate::Estimates;
    use sgr_graph::index::MultiplicityIndex;
    use sgr_sample::{random_walk, AccessModel};

    fn setup(n: usize, frac: f64, seed: u64) -> (Subgraph, Estimates) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = sgr_gen::holme_kim(n, 3, 0.5, &mut rng).unwrap();
        let mut am = AccessModel::new(&g);
        let start = am.random_seed(&mut rng);
        let target = ((n as f64 * frac) as usize).max(3);
        let crawl = random_walk(&mut am, start, target, &mut rng);
        (
            crawl.subgraph(),
            sgr_estimate::estimate_all(&crawl).unwrap(),
        )
    }

    #[test]
    fn output_preserves_targets_exactly() {
        for seed in 0..4 {
            let (sg, est) = setup(500, 0.1, seed);
            let mut rng = Xoshiro256pp::seed_from_u64(seed + 70);
            let mut dv = target_dv::build(&sg, &est, &mut rng);
            let jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
            let built =
                extend_subgraph_with(&sg, &dv, &jdm, &mut rng, &mut ConstructScratch::new())
                    .unwrap();
            let g = &built.graph;
            g.validate().unwrap();

            // Degree vector preserved exactly.
            let measured = g.degree_vector();
            for k in 1..=dv.k_max {
                assert_eq!(
                    measured.get(k).copied().unwrap_or(0) as u64,
                    dv.n_star[k],
                    "n({k}) off (seed {seed})"
                );
            }
            // Joint degree matrix preserved exactly.
            let measured_jdm = joint_degree_matrix(g);
            for k in 1..=jdm.k_max {
                for k2 in k..=jdm.k_max {
                    assert_eq!(
                        measured_jdm
                            .get(&(k as u32, k2 as u32))
                            .copied()
                            .unwrap_or(0),
                        jdm.get(k, k2),
                        "m({k},{k2}) off (seed {seed})"
                    );
                }
            }
            // Subgraph contained edge-for-edge.
            let idx = MultiplicityIndex::build(g);
            for (u, v) in sg.graph.edges() {
                assert!(idx.get(u, v) >= 1);
            }
            // Added edges + subgraph edges = all edges.
            assert_eq!(built.added_edges.len() + sg.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn target_degrees_are_met_per_node() {
        let (sg, est) = setup(400, 0.12, 9);
        let mut rng = Xoshiro256pp::seed_from_u64(80);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
        let built =
            extend_subgraph_with(&sg, &dv, &jdm, &mut rng, &mut ConstructScratch::new()).unwrap();
        for (u, &d) in built.target_deg.iter().enumerate() {
            assert_eq!(
                built.graph.degree(u as NodeId),
                d as usize,
                "node {u} missed its target degree"
            );
        }
    }

    #[test]
    fn broken_dv_dominance_is_an_error_not_an_underflow() {
        // Corrupt DV-3 (n'(k) > n*(k)): in release mode the old raw
        // subtraction wrapped to ~1.8e19 and stub matching was asked for
        // that many nodes; it must now surface as a typed error.
        let (sg, est) = setup(300, 0.1, 3);
        let mut rng = Xoshiro256pp::seed_from_u64(81);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
        let k = (1..=dv.k_max)
            .find(|&k| dv.n_prime[k] > 0)
            .expect("subgraph assigns at least one target degree");
        dv.n_star[k] = dv.n_prime[k] - 1;
        match extend_subgraph_with(&sg, &dv, &jdm, &mut rng, &mut ConstructScratch::new()) {
            Err(DkError::DvDominanceViolated { k: ek, .. }) => {
                assert_eq!(ek as usize, k)
            }
            other => panic!("expected DvDominanceViolated, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_add_map_is_a_typed_out_of_stubs_error() {
        // Inflate one JDM cell so the derived `add` map requests more
        // `(k, k')` edges than the class's stub pool can supply. The
        // matcher must fail with a typed OutOfStubs carrying placement
        // context — never silently skip the remainder of the pair.
        let (sg, est) = setup(300, 0.1, 6);
        let mut rng = Xoshiro256pp::seed_from_u64(83);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let mut jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
        let (k, k2, star, _) = jdm
            .upper_entries()
            .find(|&(k, _, star, _)| k > 0 && star > 0)
            .expect("some populated cell");
        // Request far more edges of this class pair than stubs exist.
        jdm.set(k, k2, star + 1_000_000);
        match extend_subgraph_with(&sg, &dv, &jdm, &mut rng, &mut ConstructScratch::new()) {
            Err(DkError::OutOfStubs {
                k: ek,
                k2: ek2,
                placed,
                requested,
            }) => {
                assert_eq!((ek as usize, ek2 as usize), (k, k2));
                assert!(
                    placed < requested,
                    "error context inconsistent: placed {placed} of {requested}"
                );
            }
            other => panic!("expected OutOfStubs, got {other:?}"),
        }
    }

    #[test]
    fn stub_matching_stats_account_for_added_edges() {
        let (sg, est) = setup(400, 0.1, 8);
        let mut rng = Xoshiro256pp::seed_from_u64(84);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
        let built =
            extend_subgraph_with(&sg, &dv, &jdm, &mut rng, &mut ConstructScratch::new()).unwrap();
        assert_eq!(built.match_stats.edges, built.added_edges.len());
        // The subgraph is simple, so every self-loop in the result came
        // from the matcher and must be accounted.
        assert_eq!(built.match_stats.self_loops, built.graph.num_self_loops());
        assert!(built.stub_matching_secs >= 0.0);
    }

    #[test]
    fn broken_jdm_dominance_is_an_error_not_an_underflow() {
        // Corrupt JDM-4 (m'(k,k') > m*(k,k')): same hazard on the edge
        // side.
        let (sg, est) = setup(300, 0.1, 4);
        let mut rng = Xoshiro256pp::seed_from_u64(82);
        let mut dv = target_dv::build(&sg, &est, &mut rng);
        let mut jdm = target_jdm::build(&sg, &est, &mut dv).unwrap();
        let (k, k2, star, _) = jdm
            .upper_entries()
            .find(|&(k, _, star, _)| k > 0 && star > 0)
            .expect("some populated cell");
        jdm.set_prime(k, k2, star + 3);
        match extend_subgraph_with(&sg, &dv, &jdm, &mut rng, &mut ConstructScratch::new()) {
            Err(DkError::JdmDominanceViolated {
                k: ek,
                k2: ek2,
                m_star,
                m_prime,
            }) => {
                assert_eq!((ek as usize, ek2 as usize), (k, k2));
                assert_eq!(m_star, star);
                assert_eq!(m_prime, star + 3);
            }
            other => panic!("expected JdmDominanceViolated, got {other:?}"),
        }
    }
}
