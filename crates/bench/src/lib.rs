//! # sgr-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§V–VI). One binary per artifact:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `fig3`   | Fig. 3 — average L1 vs % queried (Anybeat/Brightkite/Epinions) |
//! | `table2` | Table II — per-property L1 at 10% (Slashdot/Gowalla/Livemocha) |
//! | `table3` | Table III — avg ± SD of L1 at 10% (six datasets) |
//! | `table4` | Table IV — generation times at 10% (six datasets) |
//! | `table5` | Table V — YouTube at 1% (L1 + times) |
//! | `fig4`   | Fig. 4 — visual comparison SVGs (Anybeat) |
//! | `ablation` | design-choice ablations (candidate set, RC sweep, subgraph embedding) |
//!
//! The shared machinery lives in [`harness`]. The paper whose results
//! these binaries reproduce is cited in `PAPER.md` at the workspace root.

pub mod harness;

pub use harness::{Args, Method, MethodOutput, RunResult};
