//! # sgr-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§V–VI). The `repro` binary writes one artifact per run,
//! picked by `--artifact`:
//!
//! | `--artifact` | paper artifact |
//! |--------------|----------------|
//! | `table2` | Table II — per-property L1 at 10% (Slashdot/Gowalla/Livemocha) |
//! | `table3` | Table III — avg ± SD of L1 at 10% (six datasets) |
//! | `table4` | Table IV — generation times at 10% (six datasets) |
//! | `table5` | Table V — YouTube at 1% (L1 + times) |
//! | `fig3`   | Fig. 3 — average L1 vs % queried (Anybeat/Brightkite/Epinions) |
//! | `fig4`   | Fig. 4 — visual comparison SVGs (Anybeat) |
//! | `ablation` | design-choice ablations (candidate set, RC sweep, subgraph embedding) |
//!
//! The artifacts live in [`repro`], the shared machinery in [`harness`].
//! The paper whose results they reproduce is cited in `PAPER.md` at the
//! workspace root.

pub mod harness;
pub mod repro;

pub use harness::{Method, MethodOutput, RunResult};
pub use repro::Args;
