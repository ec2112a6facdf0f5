//! Stub-matching construction: wiring free half-edges class by class.
//!
//! This is the engine behind both the paper's Algorithm 5 (extend the
//! sampled subgraph to the target degree vector / joint degree matrix) and
//! the from-empty construction used by Gjoka et al.'s method and the 2K
//! generator: each node with target degree `d*` and current degree `d`
//! gets `d* - d` free half-edges ("stubs"), and for every degree pair
//! `(k, k')` the requested number of edges is created by connecting a
//! uniformly random free stub of class `k` with one of class `k'`.
//!
//! Two engines implement that contract:
//!
//! * [`wire_stubs`] — the production engine. All
//!   per-class stub pools live in one flat arena
//!   ([`sgr_util::arena::FlatPools`]) with per-class offset ranges and
//!   swap-remove draws against per-class live lengths; every internal
//!   buffer sits in a reusable [`ConstructScratch`], so a warm call
//!   performs **zero heap allocations** inside the matcher.
//! * [`reference::wire_stubs`] — the original per-class `Vec<Vec<_>>`
//!   implementation, kept as the oracle the property suite
//!   (`crates/dk/tests/construct_proptests.rs`) holds the flat engine
//!   bitwise-equal to.
//!
//! # Determinism model
//!
//! The matcher's output is a pure function of `(graph, target_deg, add,
//! rng seed)`; both engines honor the same contract, draw for draw:
//!
//! * **Pair order.** Requested class pairs are wired in ascending
//!   `(k, k')` order over the upper-triangular keys of `add` (`k ≤ k'`;
//!   symmetric duplicates and zero counts are ignored), each pair's
//!   edges placed consecutively.
//! * **Stub pool order.** Class `k`'s pool initially holds each node's id
//!   repeated once per free stub, in ascending node order; removal is
//!   `swap_remove` (the class's last live stub fills the drawn slot).
//! * **RNG stream.** A diagonal edge (`k = k'`) consumes exactly two
//!   draws — `gen_range(len)` then `gen_range(len - 1)`, the second
//!   shifted past the first so the two *slots* are always distinct — and
//!   an off-diagonal edge consumes `gen_range(len_k)` then
//!   `gen_range(len_k')`. Nothing else consumes RNG, so the generator
//!   leaves the matcher in the same state under either engine (the
//!   end-to-end golden test in `crates/core/tests/pipeline_golden.rs`
//!   pins the whole downstream stream).
//! * **Retry policy: none.** Draws are committed as drawn. A pair of
//!   stubs that forms a parallel edge is kept, and a diagonal-class draw
//!   that picks two stubs of the *same* node (possible whenever a node
//!   holds ≥ 2 free stubs in its class) is kept as a self-loop; both are
//!   artifacts the rewiring phase resolves, and both are surfaced by
//!   [`MatchStats`] and the returned edge list rather than silently
//!   retried. Distinct *slots* are guaranteed, so a node with at most
//!   one free stub can never acquire a self-loop here — the no-self-loop
//!   invariant the property suite checks.
//! * **Saturation.** A class that cannot place a requested pair — fewer
//!   than two live stubs on a diagonal draw, an empty side on an
//!   off-diagonal draw, or a class beyond the largest target degree —
//!   fails with [`DkError::OutOfStubs`] carrying the pair, how many of
//!   its edges were already placed, and how many were requested; it
//!   never silently skips the remainder.

use crate::extract::JointDegreeMatrix;
use sgr_graph::{Graph, NodeId};
use sgr_util::arena::FlatPools;
use sgr_util::Xoshiro256pp;

pub mod reference;

/// Errors from stub matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DkError {
    /// A node's target degree is below its current degree.
    TargetBelowCurrent {
        node: NodeId,
        current: usize,
        target: usize,
    },
    /// A degree class ran out of free stubs while wiring `(k, k')`:
    /// `placed` of the `requested` edges were wired before the pool ran
    /// dry (also raised with `placed = 0` when a requested class exceeds
    /// the largest target degree, i.e. has no pool at all).
    OutOfStubs {
        k: u32,
        k2: u32,
        placed: u64,
        requested: u64,
    },
    /// Free stubs remained after wiring every requested edge, i.e. the
    /// inputs violated the marginal identity (JDM-3).
    LeftoverStubs { count: usize },
    /// A target degree vector failed its dominance condition (DV-3):
    /// `n'(k) > n*(k)`. Detected with `checked_sub` where the free-node
    /// count `n*(k) − n'(k)` is formed — in release mode the raw
    /// subtraction used to wrap around and request ~1.8e19 nodes.
    DvDominanceViolated { k: u32, n_star: u64, n_prime: u64 },
    /// A target joint degree matrix failed its dominance condition
    /// (JDM-4): `m'(k,k') > m*(k,k')`. Same wraparound hazard on the
    /// added-edge count `m*(k,k') − m'(k,k')`.
    JdmDominanceViolated {
        k: u32,
        k2: u32,
        m_star: u64,
        m_prime: u64,
    },
}

impl std::fmt::Display for DkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DkError::TargetBelowCurrent {
                node,
                current,
                target,
            } => write!(
                f,
                "node {node} has degree {current} above its target {target}"
            ),
            DkError::OutOfStubs {
                k,
                k2,
                placed,
                requested,
            } => {
                write!(
                    f,
                    "no free stub left while wiring degree pair ({k}, {k2}): \
                     placed {placed} of {requested} requested edges"
                )
            }
            DkError::LeftoverStubs { count } => {
                write!(f, "{count} free stubs left unwired (JDM-3 violated)")
            }
            DkError::DvDominanceViolated { k, n_star, n_prime } => write!(
                f,
                "degree vector dominance (DV-3) violated at k = {k}: \
                 n*(k) = {n_star} < n'(k) = {n_prime}"
            ),
            DkError::JdmDominanceViolated {
                k,
                k2,
                m_star,
                m_prime,
            } => write!(
                f,
                "joint degree matrix dominance (JDM-4) violated at ({k}, {k2}): \
                 m*(k,k') = {m_star} < m'(k,k') = {m_prime}"
            ),
        }
    }
}

impl std::error::Error for DkError {}

/// Counters from one stub-matching run (identical under both engines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Edges added (the length of the returned edge list).
    pub edges: usize,
    /// How many of those edges are self-loops — diagonal-class draws that
    /// picked two free stubs of the same node (see the module-level
    /// determinism model: such draws are kept, not retried).
    pub self_loops: usize,
}

/// Reusable buffers for [`wire_stubs`]: the flat stub arena, the
/// per-class stub counts, the sorted pair worklist, and the output edge
/// list. A warm scratch (one whose buffers have grown to the workload's
/// high-water mark) makes the matcher allocation-free, so callers that
/// construct in a loop keep one alive across calls. A single restoration
/// constructs once: `sgr_core`'s construct stage owns its scratch and
/// frees it before rewiring starts.
#[derive(Clone, Debug, Default)]
pub struct ConstructScratch {
    /// Free-stub pools, one class per target degree, in one flat arena.
    pools: FlatPools<NodeId>,
    /// Per-class free-stub counts (layout pass for `pools`).
    counts: Vec<usize>,
    /// Requested `((k, k'), count)` pairs, sorted ascending.
    pairs: Vec<((u32, u32), u64)>,
    /// Added edges, normalized `(min, max)`.
    added: Vec<(NodeId, NodeId)>,
}

impl ConstructScratch {
    /// Creates an empty scratch; the first call sizes every buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the last [`wire_stubs`] call's added-edge list out of
    /// the scratch, leaving an empty buffer behind (the next wiring call
    /// re-reserves it to exact size).
    ///
    /// For callers that need to *keep* the edges past the scratch's next
    /// use: a move here replaces the `to_vec()` copy they would
    /// otherwise make from the borrowed [`WireOutcome`] slice.
    pub fn take_added(&mut self) -> Vec<(NodeId, NodeId)> {
        std::mem::take(&mut self.added)
    }
}

/// Successful outcome of [`wire_stubs`]: the added-edge list (borrowing
/// the scratch until its next use) and the matcher counters.
pub type WireOutcome<'s> = (&'s [(NodeId, NodeId)], MatchStats);

/// Wires stubs on top of `g` (possibly non-empty), in place.
///
/// * `target_deg[u]` — the target degree `d*_u` of every node;
/// * `add[(k, k')]` — how many **new** edges to create between target-
///   degree classes `k` and `k'` (upper-triangular keys `k ≤ k'` are
///   read; symmetric duplicates are ignored).
///
/// Returns the list of added edges (the rewiring phase's candidate set)
/// and the matcher counters. On success the graph preserves `target_deg`
/// exactly, and its JDM (with respect to *target* degrees) equals the
/// prior JDM plus `add`.
///
/// Behaviorally identical to [`reference::wire_stubs`] — same RNG draw
/// sequence, same pair ordering, same errors, bitwise-identical output
/// (see the module-level determinism model) — but every internal buffer
/// lives in `scratch`, so a warm call performs zero heap allocations
/// inside the matcher. The returned edge slice borrows `scratch` and is
/// valid until its next use; [`ConstructScratch::take_added`] moves it
/// out.
pub fn wire_stubs<'s>(
    g: &mut Graph,
    target_deg: &[u32],
    add: &JointDegreeMatrix,
    rng: &mut Xoshiro256pp,
    scratch: &'s mut ConstructScratch,
) -> Result<WireOutcome<'s>, DkError> {
    assert_eq!(target_deg.len(), g.num_nodes(), "target length mismatch");
    let ConstructScratch {
        pools,
        counts,
        pairs,
        added,
    } = scratch;

    let k_max = target_deg.iter().copied().max().unwrap_or(0) as usize;
    // Layout pass: free-stub count per target-degree class, surfacing a
    // target below the current degree at the first offending node (the
    // same node the reference engine reports).
    counts.clear();
    counts.resize(k_max + 1, 0);
    let mut total_stubs = 0usize;
    for u in g.nodes() {
        let cur = g.degree(u);
        let tgt = target_deg[u as usize] as usize;
        if tgt < cur {
            return Err(DkError::TargetBelowCurrent {
                node: u,
                current: cur,
                target: tgt,
            });
        }
        counts[tgt] += tgt - cur;
        total_stubs += tgt - cur;
    }
    // Every node ends at exactly its target degree, so the adjacency
    // lists' final sizes are known now: reserving once up front turns
    // the wiring loop's ~log(deg) growth reallocations per node into
    // none at all (and is a no-op when the caller pre-reserved).
    g.reserve_neighbors(target_deg);
    // Fill pass: node id repeated once per free stub, ascending node
    // order within each class — the reference engine's pool order.
    pools.reset(counts);
    for u in g.nodes() {
        let tgt = target_deg[u as usize] as usize;
        for _ in 0..(tgt - g.degree(u)) {
            pools.push(tgt, u);
        }
    }

    // Deterministic iteration order over the requested pairs.
    pairs.clear();
    pairs.extend(
        add.iter()
            .filter(|(&(k, k2), &c)| k <= k2 && c > 0)
            .map(|(&kk, &c)| (kk, c)),
    );
    pairs.sort_unstable();

    added.clear();
    added.reserve(pairs.iter().map(|&(_, c)| c as usize).sum());
    let mut stats = MatchStats::default();
    for &((k, k2), count) in pairs.iter() {
        if k as usize > k_max || k2 as usize > k_max {
            // No node has this target degree: the class has no pool at
            // all, not merely an empty one.
            return Err(DkError::OutOfStubs {
                k,
                k2,
                placed: 0,
                requested: count,
            });
        }
        for placed in 0..count {
            let (u, v) = if k == k2 {
                let pool_len = pools.len(k as usize);
                if pool_len < 2 {
                    return Err(DkError::OutOfStubs {
                        k,
                        k2,
                        placed,
                        requested: count,
                    });
                }
                let i = rng.gen_range(pool_len);
                let mut j = rng.gen_range(pool_len - 1);
                if j >= i {
                    j += 1;
                }
                // Remove the higher index first so the lower stays valid.
                let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                let u = pools.swap_remove(k as usize, hi);
                let v = pools.swap_remove(k as usize, lo);
                (u, v)
            } else {
                if pools.is_empty(k as usize) || pools.is_empty(k2 as usize) {
                    return Err(DkError::OutOfStubs {
                        k,
                        k2,
                        placed,
                        requested: count,
                    });
                }
                let i = rng.gen_range(pools.len(k as usize));
                let j = rng.gen_range(pools.len(k2 as usize));
                let u = pools.swap_remove(k as usize, i);
                let v = pools.swap_remove(k2 as usize, j);
                (u, v)
            };
            g.add_edge(u, v);
            added.push(if u <= v { (u, v) } else { (v, u) });
            stats.edges += 1;
            stats.self_loops += usize::from(u == v);
            total_stubs -= 2;
        }
    }
    if total_stubs != 0 {
        return Err(DkError::LeftoverStubs { count: total_stubs });
    }
    Ok((&added[..], stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{jdm_matches_degree_vector, joint_degree_matrix};
    use sgr_util::FxHashMap;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(99)
    }

    /// [`wire_stubs`] on a fresh scratch and the fixed seed, keeping the
    /// added edges.
    fn wire(
        g: &mut Graph,
        target: &[u32],
        add: &JointDegreeMatrix,
    ) -> Result<Vec<(NodeId, NodeId)>, DkError> {
        let mut scratch = ConstructScratch::new();
        wire_stubs(g, target, add, &mut rng(), &mut scratch)?;
        Ok(scratch.take_added())
    }

    #[test]
    fn build_star_from_empty() {
        let mut g = Graph::with_nodes(5);
        let target = [4u32, 1, 1, 1, 1];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((1, 4), 4);
        add.insert((4, 1), 4); // symmetric duplicate must be ignored
        let edges = wire(&mut g, &target, &add).unwrap();
        assert_eq!(edges.len(), 4);
        assert_eq!(g.degree(0), 4);
        for u in 1..5 {
            assert_eq!(g.degree(u), 1);
        }
        g.validate().unwrap();
    }

    #[test]
    fn extend_existing_subgraph() {
        // Path 0-1-2 exists; extend so that all five nodes reach degree 2
        // by adding (2,2)-class edges.
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2)]);
        let target = [2u32, 2, 2, 2, 2];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((2, 2), 3); // 5·2/2 = 5 edges total, 2 exist
        wire(&mut g, &target, &add).unwrap();
        assert!(g.nodes().all(|u| g.degree(u) == 2));
        // Original path edges are still present.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        g.validate().unwrap();
    }

    #[test]
    fn jdm_of_result_matches_request() {
        // From empty: degree vector {n(1)=4, n(2)=2, n(3)=2}; JDM chosen
        // to satisfy the marginals: s(1)=4, s(2)=4, s(3)=6.
        let mut g = Graph::with_nodes(8);
        let target = [1u32, 1, 1, 1, 2, 2, 3, 3];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((1, 3), 4); // s(1): 4, s(3): 4
        add.insert((2, 2), 1); // s(2): 2
        add.insert((2, 3), 2); // s(2): +2 = 4, s(3): +2 = 6
        let added = wire(&mut g, &target, &add).unwrap();
        assert_eq!(added.len(), 7);
        let jdm = joint_degree_matrix(&g);
        // Degrees equal targets, so measured JDM = requested.
        assert_eq!(jdm.get(&(1, 3)).copied(), Some(4));
        assert_eq!(jdm.get(&(2, 2)).copied(), Some(1));
        assert_eq!(jdm.get(&(2, 3)).copied(), Some(2));
        assert!(jdm_matches_degree_vector(&jdm, &g.degree_vector()));
    }

    #[test]
    fn error_on_target_below_current() {
        let mut g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        let target = [1u32, 2];
        let add: JointDegreeMatrix = FxHashMap::default();
        match wire(&mut g, &target, &add) {
            Err(DkError::TargetBelowCurrent { node: 0, .. }) => {}
            other => panic!("expected TargetBelowCurrent, got {other:?}"),
        }
    }

    #[test]
    fn error_on_out_of_stubs() {
        let mut g = Graph::with_nodes(2);
        let target = [1u32, 1];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((1, 1), 2); // needs 4 stubs, only 2 exist
        match wire(&mut g, &target, &add) {
            Err(DkError::OutOfStubs {
                k: 1,
                k2: 1,
                placed: 1,
                requested: 2,
            }) => {}
            other => panic!("expected OutOfStubs with placement context, got {other:?}"),
        }
    }

    #[test]
    fn error_on_class_beyond_k_max() {
        // A requested class with no pool at all (beyond the largest
        // target degree) must be a typed error, not an index panic.
        let mut g = Graph::with_nodes(2);
        let target = [1u32, 1];
        let mut add: JointDegreeMatrix = FxHashMap::default();
        add.insert((1, 7), 1);
        match wire(&mut g, &target, &add) {
            Err(DkError::OutOfStubs {
                k: 1,
                k2: 7,
                placed: 0,
                requested: 1,
            }) => {}
            other => panic!("expected OutOfStubs, got {other:?}"),
        }
    }

    #[test]
    fn error_on_leftover_stubs() {
        let mut g = Graph::with_nodes(2);
        let target = [1u32, 1];
        let add: JointDegreeMatrix = FxHashMap::default(); // wire nothing
        assert!(matches!(
            wire(&mut g, &target, &add),
            Err(DkError::LeftoverStubs { count: 2 })
        ));
    }

    #[test]
    fn diagonal_class_needs_two_distinct_stub_slots() {
        // Two degree-1 nodes, one (1,1) edge: must connect them (never a
        // self-loop from picking the same stub twice).
        for seed in 0..20 {
            let mut g = Graph::with_nodes(2);
            let mut r = Xoshiro256pp::seed_from_u64(seed);
            let mut add: JointDegreeMatrix = FxHashMap::default();
            add.insert((1, 1), 1);
            wire_stubs(&mut g, &[1, 1], &add, &mut r, &mut ConstructScratch::new()).unwrap();
            assert!(g.has_edge(0, 1));
            assert_eq!(g.num_self_loops(), 0);
        }
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        // Same seed through a fresh scratch and a reused one: identical
        // output and stats.
        let mut scratch = ConstructScratch::new();
        let mut last: Option<(Vec<(NodeId, NodeId)>, MatchStats)> = None;
        for round in 0..3 {
            let mut g = Graph::with_nodes(8);
            let target = [1u32, 1, 1, 1, 2, 2, 3, 3];
            let mut add: JointDegreeMatrix = FxHashMap::default();
            add.insert((1, 3), 4);
            add.insert((2, 2), 1);
            add.insert((2, 3), 2);
            let mut r = Xoshiro256pp::seed_from_u64(1234);
            let (edges, stats) = wire_stubs(&mut g, &target, &add, &mut r, &mut scratch).unwrap();
            let run = (edges.to_vec(), stats);
            if let Some(prev) = &last {
                assert_eq!(prev, &run, "round {round} diverged under scratch reuse");
            }
            last = Some(run);
        }
    }

    use sgr_graph::Graph;
}
