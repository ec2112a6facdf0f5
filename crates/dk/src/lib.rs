//! # sgr-dk
//!
//! The dK-series substrate (§III-C of the paper; Mahadevan et al. 2006,
//! Gjoka et al. 2013, Orsini et al. 2015).
//!
//! The dK-series is the family of random graphs preserving the joint
//! degree structure of subgraphs of size ≤ d:
//!
//! * **0K** — node count and average degree;
//! * **1K** — plus the degree distribution (degree vector `{n(k)}`);
//! * **2K** — plus the joint degree distribution (joint degree matrix
//!   `{m(k,k')}`);
//! * **2.5K** — plus the degree-dependent clustering `{c̄(k)}`, targeted
//!   by rewiring.
//!
//! This crate provides the machinery the restoration method (and its
//! Gjoka-et-al. baseline) are built from:
//!
//! * [`extract`] — measuring `{n(k)}` / `{m(k,k')}` of a graph and the
//!   realizability conditions (DV-1/2, JDM-1/2/3 of §IV);
//! * [`construct`] — stub-matching construction: attach free half-edges
//!   ("stubs") to nodes and wire them class-by-class, starting from an
//!   empty graph *or extending an existing subgraph* (the generalization
//!   Algorithm 5 of the paper needs);
//! * [`rewire`] — the 2.5K rewiring engine with incremental per-node
//!   triangle maintenance (O(k̄²) per attempt, §IV-E), supporting a
//!   protected-edge set so the proposed method can exclude `E'`;
//! * [`series`] — standalone 0K/1K/2K/2.5K generators built from the
//!   above (extension features; also the reference implementations the
//!   property tests check against).

pub mod construct;
pub mod extract;
pub mod rewire;
pub mod series;

pub use construct::{wire_stubs, ConstructScratch, DkError, MatchStats};
pub use extract::{joint_degree_matrix, JointDegreeMatrix};
pub use rewire::{RewireEngine, RewireStats};
