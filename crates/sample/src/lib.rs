//! # sgr-sample
//!
//! The crawling layer: everything between the hidden graph and the
//! estimators/restorers.
//!
//! The paper's access model (§III-A) is: querying a node returns its full
//! neighbor list; global or random access to the graph is impossible; the
//! graph is static. [`access::AccessModel`] enforces exactly that interface
//! over any in-memory [`sgr_graph::GraphView`] backend — the mutable
//! [`sgr_graph::Graph`] by default, or a frozen [`sgr_graph::CsrGraph`]
//! when a harness crawls the same hidden graph many times — and counts
//! queries, so every crawler in this crate — and everything downstream —
//! can only see the data a real third-party crawler would see.
//!
//! Crawlers (§II, §V-D):
//! * [`random_walk`] / [`random_walk_until_fraction`] — simple random walk
//!   (the proposed method's crawler);
//! * [`bfs`] — breadth-first search;
//! * [`snowball`] — snowball sampling with per-node fan-out cap `k`;
//! * [`forest_fire`] — forest-fire sampling with burn parameter `p_f`;
//! * [`non_backtracking_walk`], [`metropolis_hastings_walk`] — the improved
//!   walks discussed in Related Work (extension features).
//!
//! Every crawler produces a [`Crawl`]: the ordered sequence of sampled
//! nodes (with revisits, for walks) plus the neighbor lists of all queried
//! nodes — the paper's sampling list `L = ((x_i, N(x_i)))_{i=1..r}`. A
//! [`Subgraph`] (`G'` in the paper, §III-D) is induced from the union of
//! the queried nodes' edge sets.
//!
//! Front ends don't call the crawlers directly: [`strategy`] packages a
//! crawler choice plus its parameters into a [`CrawlSpec`] and
//! [`run_crawl`] dispatches it under a pinned RNG discipline, so the CLI
//! and the `sgr serve` job server produce bit-identical crawls from the
//! same seed.
//!
//! Every crawler runs against the access model above and nothing else: a
//! query cannot fail, so each walk is one loop that fetches a node's
//! neighbour list the first time it stands on it and then draws its next
//! step. A crawler for a real, rate-limited API would need failure
//! handling measured against that API's traffic; none is modelled here.

pub mod access;
pub mod crawl;
pub mod strategy;
pub mod subgraph;
pub mod walks;

pub use access::AccessModel;
pub use crawl::{bfs, forest_fire, snowball, Crawl};
pub use strategy::{run_crawl, CrawlOutcome, CrawlSpec, WalkKind};
pub use subgraph::Subgraph;
pub use walks::{
    metropolis_hastings_walk, non_backtracking_walk, random_walk, random_walk_until_fraction,
};
