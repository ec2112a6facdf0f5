//! # sgr-gen
//!
//! Synthetic social-graph generators.
//!
//! The paper evaluates on seven public social graphs (Anybeat, Brightkite,
//! Epinions, Slashdot, Gowalla, Livemocha, YouTube). Those downloads are
//! unavailable in this offline reproduction, so this crate provides both
//! the classic generative models and **dataset analogues** — scaled
//! Holme–Kim power-law-cluster graphs whose size, average degree, and
//! clustering level mimic each dataset (the substitution rationale is in
//! the [`analogues`] module docs).
//!
//! Generators:
//! * [`erdos_renyi_gnm`] / [`erdos_renyi_gnp`] — uniform random graphs;
//! * [`barabasi_albert`] — preferential attachment (heavy-tailed degrees);
//! * [`holme_kim`] — preferential attachment + triad formation
//!   (heavy-tailed degrees *and* high clustering: the social-graph shape
//!   the paper's methods depend on);
//! * [`watts_strogatz`] — small-world ring rewiring;
//! * [`planted_partition`] — community structure;
//! * [`classic`] — deterministic families for tests (paths, stars,
//!   cliques, …);
//! * [`analogues`] — the seven dataset analogues.

pub mod analogues;
pub mod classic;

mod models;

pub use analogues::{dataset_analogue, AnalogueSpec, Dataset};
pub use models::{
    barabasi_albert, erdos_renyi_gnm, erdos_renyi_gnp, holme_kim, planted_partition,
    watts_strogatz, GenError,
};
