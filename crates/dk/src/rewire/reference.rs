//! Apply-rollback reference implementation of the rewiring engine.
//!
//! This is the pre-optimization design kept on purpose: every swap attempt
//! applies all four edge toggles to the graph **and** the multiplicity
//! index (computing triangle deltas from common-neighbor scans as it
//! goes), allocates a fresh hash map for the touched nodes, and — in the
//! common rejected case — performs four more mutating toggles to roll
//! everything back. Its graph is its own (the production engine keeps
//! none), an adjacency maintained independently of the shared index.
//!
//! It exists for two jobs:
//!
//! * **Equivalence oracle.** [`ApplyRollbackEngine`] shares
//!   `EngineCore`'s swap picking (identical RNG-draw order) and
//!   `EngineCore::fold_decide` (a decision that is a pure function of the
//!   graph and the pick) with the production
//!   [`RewireEngine`](crate::rewire::RewireEngine), so for
//!   the same seed the two must produce the same accept/reject sequence,
//!   the same final edge multiset, and a bitwise-identical final distance.
//!   Property tests in `crates/dk/tests` assert exactly that.
//! * **Perf baseline.** The `rewire_attempts_per_sec` micro-benchmark
//!   measures both engines; the evaluate-then-commit engine must beat this
//!   one by the margin recorded in `BENCH_rewire.json`.

use super::{EngineCore, RewireStats, SwapPick};
use sgr_graph::{Graph, NodeId};
use sgr_util::scratch::ScratchAccum;
use sgr_util::{FxHashMap, Xoshiro256pp};

/// The apply-rollback engine; see the module docs.
pub struct ApplyRollbackEngine {
    /// The evolving graph, toggled alongside `core.idx`.
    graph: Graph,
    core: EngineCore,
    /// Per-degree changes `ΔT_k` for the shared decision fold.
    scratch_tk: ScratchAccum<i64>,
}

impl ApplyRollbackEngine {
    /// Mirror of [`RewireEngine::new`](crate::rewire::RewireEngine::new).
    pub fn new(graph: Graph, candidates: Vec<(NodeId, NodeId)>, target_c: &[f64]) -> Self {
        let core = EngineCore::new(graph.clone(), candidates, target_c);
        let degrees = core.tk.len();
        Self {
            graph,
            core,
            scratch_tk: ScratchAccum::with_keys(degrees),
        }
    }

    /// Current normalized distance `D`.
    pub fn distance(&self) -> f64 {
        self.core.distance()
    }

    /// Number of rewirable edge slots.
    pub fn num_candidates(&self) -> usize {
        self.core.slots.len()
    }

    /// Runs `R = ceil(rc · |Ẽ_rew|)` attempts.
    pub fn run(&mut self, rc: f64, rng: &mut Xoshiro256pp) -> RewireStats {
        let attempts = (rc * self.core.slots.len() as f64).ceil() as u64;
        self.run_attempts(attempts, rng)
    }

    /// Runs exactly `attempts` swap attempts.
    pub fn run_attempts(&mut self, attempts: u64, rng: &mut Xoshiro256pp) -> RewireStats {
        let mut stats = RewireStats {
            attempts,
            initial_distance: self.distance(),
            ..Default::default()
        };
        if self.core.slots.len() < 2 {
            stats.skipped = attempts;
            stats.final_distance = self.distance();
            return stats;
        }
        for _ in 0..attempts {
            if self.attempt(rng) {
                stats.accepted += 1;
            } else {
                stats.skipped += 1;
            }
        }
        stats.final_distance = self.distance();
        stats
    }

    /// One apply-rollback swap attempt; returns whether it was accepted.
    pub fn attempt(&mut self, rng: &mut Xoshiro256pp) -> bool {
        let Some(pick) = self.core.pick_swap(rng) else {
            return false;
        };
        let SwapPick {
            vi, vj, vi2, vj2, ..
        } = pick;

        // Apply the four edge toggles incrementally (mutating the graph
        // and the index), tracking Δt in a per-attempt hash map.
        let mut touched: FxHashMap<NodeId, i64> = FxHashMap::default();
        self.toggle_edge(vi, vj, -1, &mut touched);
        self.toggle_edge(vi2, vj2, -1, &mut touched);
        self.toggle_edge(vi, vj2, 1, &mut touched);
        self.toggle_edge(vi2, vj, 1, &mut touched);

        // Shared decision fold (the same decision as the
        // evaluate-then-commit engine's, in whatever order the map lists
        // the nodes).
        let pairs: Vec<(NodeId, i64)> = touched.iter().map(|(&n, &d)| (n, d)).collect();
        if self.core.fold_decide(&pairs, &mut self.scratch_tk) < 0.0 {
            self.core.commit_decision(&pairs, &self.scratch_tk);
            self.core.commit_slot_swap(&pick);
            true
        } else {
            // Reject: roll the graph and the index back with four more
            // mutating toggles (their scans are pure waste — that is the
            // point of this baseline).
            let mut untouched: FxHashMap<NodeId, i64> = FxHashMap::default();
            self.toggle_edge(vi, vj2, -1, &mut untouched);
            self.toggle_edge(vi2, vj, -1, &mut untouched);
            self.toggle_edge(vi, vj, 1, &mut untouched);
            self.toggle_edge(vi2, vj2, 1, &mut untouched);
            false
        }
    }

    /// Adds (`sign = +1`) or removes (`-1`) one copy of edge `{u, v}`,
    /// updating graph + index and accumulating triangle deltas into
    /// `touched`. Δt is computed on the state *without* the toggled copy.
    fn toggle_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        sign: i64,
        touched: &mut FxHashMap<NodeId, i64>,
    ) {
        let (graph, core) = (&mut self.graph, &mut self.core);
        if sign < 0 {
            graph.remove_edge(u, v);
            core.idx.remove_edge(u, v);
        }
        // Self-loops take part in no triangle.
        if u != v {
            // Scan the endpoint with the smaller degree (O(1) via deg[]).
            let (x, y) = if core.deg[u as usize] <= core.deg[v as usize] {
                (u, v)
            } else {
                (v, u)
            };
            let mut common = 0i64;
            // Collect to a fresh Vec (per-attempt allocation — baseline cost).
            let entries: Vec<(NodeId, u32)> = core
                .idx
                .entries(x)
                .filter(|&(w, _)| w != u && w != v)
                .collect();
            for (w, a_xw) in entries {
                let a_yw = core.idx.get(y, w);
                if a_yw > 0 {
                    let prod = a_xw as i64 * a_yw as i64;
                    common += prod;
                    *touched.entry(w).or_insert(0) += sign * prod;
                }
            }
            *touched.entry(u).or_insert(0) += sign * common;
            *touched.entry(v).or_insert(0) += sign * common;
        }
        if sign > 0 {
            graph.add_edge(u, v);
            core.idx.add_edge(u, v);
        }
    }

    /// Releases the rewired graph (this engine's own, in list order).
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Full consistency check: `EngineCore::validate`, then the index
    /// against this engine's own graph.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        self.core.idx.validate_against(&self.graph)
    }
}
