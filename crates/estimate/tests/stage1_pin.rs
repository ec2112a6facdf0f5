//! Bit-level pin of the pipeline's first stage: the §III-E estimates and
//! the induced subgraph `G'` (§III-D) of fixed-seed walks.
//!
//! Every later stage (targets, construction, rewiring) reads only these
//! two values, so an estimator or induction rewrite that keeps these
//! checksums keeps every downstream byte. The checksums cover every float
//! bit of `n̂`, `k̄̂`, `P̂(k)`, the JDD (entries sorted by key) and
//! `ĉ̄(k)`, and the subgraph's `orig_id`, `queried` flags and every
//! neighbour list in order. If one fails on an *intentional* change,
//! regenerate the constant deliberately and say so in the commit.

use sgr_estimate::{estimate_all, Estimates};
use sgr_sample::{run_crawl, Crawl, CrawlSpec, Subgraph, WalkKind};
use sgr_util::rng::SplitMix64;
use sgr_util::Xoshiro256pp;

/// Chained SplitMix64 over a word stream.
struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Self(0x5851_f42d_4c95_7f2d)
    }

    fn word(&mut self, w: u64) {
        self.0 = SplitMix64::new(self.0 ^ w).next_u64();
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

fn estimates_checksum(est: &Estimates) -> u64 {
    let mut h = Checksum::new();
    h.word(est.n_hat.to_bits());
    h.word(est.avg_degree_hat.to_bits());
    h.floats(&est.degree_dist);
    let mut jdd: Vec<((u32, u32), f64)> = est.jdd.iter().map(|(&k, &p)| (k, p)).collect();
    jdd.sort_unstable_by_key(|&(k, _)| k);
    h.word(jdd.len() as u64);
    for ((k, k2), p) in jdd {
        h.word(((k as u64) << 32) | k2 as u64);
        h.word(p.to_bits());
    }
    h.floats(&est.clustering);
    h.0
}

fn subgraph_checksum(sg: &Subgraph) -> u64 {
    let mut h = Checksum::new();
    h.word(sg.orig_id.len() as u64);
    for (&orig, &q) in sg.orig_id.iter().zip(&sg.queried) {
        h.word(((orig as u64) << 1) | q as u64);
    }
    for u in 0..sg.num_nodes() as u32 {
        let ns = sg.graph.neighbors(u);
        h.word(ns.len() as u64);
        for &v in ns {
            h.word(v as u64);
        }
    }
    h.0
}

/// A 10% crawl of a fixed-seed 20k-node Holme–Kim graph.
fn fixed_crawl(walk: WalkKind) -> Crawl {
    let g = sgr_gen::holme_kim(20_000, 4, 0.5, &mut Xoshiro256pp::seed_from_u64(14)).unwrap();
    let spec = CrawlSpec {
        walk,
        fraction: 0.1,
        ..CrawlSpec::default()
    };
    run_crawl(&g, &spec, &mut Xoshiro256pp::seed_from_u64(1))
        .unwrap()
        .crawl
}

fn check(walk: WalkKind, want_estimates: u64, want_subgraph: u64) {
    let crawl = fixed_crawl(walk);
    let est = estimate_all(&crawl).unwrap();
    let sg = crawl.subgraph();
    let got = (estimates_checksum(&est), subgraph_checksum(&sg));
    assert_eq!(
        got,
        (want_estimates, want_subgraph),
        "{} stage-1 output changed: estimates {:#018x}, subgraph {:#018x} \
         (n̂ {}, |V'| {}, |E'| {})",
        walk.name(),
        got.0,
        got.1,
        est.n_hat,
        sg.num_nodes(),
        sg.num_edges()
    );
}

#[test]
fn rw_stage1_matches_committed_checksums() {
    check(
        WalkKind::RandomWalk,
        0xf2b5_fdce_dec1_ac40,
        0x2ff6_6bbf_e345_9b2e,
    );
}

#[test]
fn nbrw_stage1_matches_committed_checksums() {
    check(
        WalkKind::NonBacktracking,
        0xf58c_7392_3120_098b,
        0x5cc0_3588_5557_d02a,
    );
}
