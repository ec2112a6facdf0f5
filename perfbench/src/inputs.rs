//! Workload inputs and the checks every restored graph must pass.
//!
//! Hidden graphs are fixed per workload (their generator seed does not
//! depend on the workload seed) and cached as snapshots through
//! `sgr_bench::harness::load_or_generate_hidden`. Each hidden graph is
//! the parse of its generator's edge list — what `sgr restore --graph`
//! and the job server see — so a job that uploads that edge list
//! reproduces a local run bit for bit. The crawl is fixed per workload
//! too ([`CRAWL_SEED`]); the workload seed drives the restoration's
//! random stream. The work a restoration does scales with the crawl
//! (`R_C` times the edges it adds), so a seed-dependent crawl would make
//! run-to-run spread mostly input variance.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use sgr_bench::harness::load_or_generate_hidden;
use sgr_graph::io::{read_edge_list, write_edge_list};
use sgr_graph::snapshot::{
    checksum, encode_csr, read_section, write_section, PayloadReader, PayloadWriter, SnapshotError,
};
use sgr_graph::{CsrGraph, Graph};
use sgr_props::{PropsConfig, StructuralProperties};
use sgr_sample::{run_crawl, CrawlOutcome, CrawlSpec, Subgraph, WalkKind};
use sgr_util::alloc::{live_model_bytes, peak_model_bytes, reset_peak};
use sgr_util::Xoshiro256pp;

/// Everything the benchmark writes lives under this directory of the
/// checkout (hidden-graph cache, results, temporary server state).
pub const DATA_DIR: &str = ".bench_build/perfbench-data";

/// Generator seed of every hidden graph.
const HIDDEN_SEED: u64 = 14;

/// Seed of every workload's crawl (and of the job that replays it).
pub const CRAWL_SEED: u64 = 1;

/// Section kind of the cached hidden-graph properties.
const KIND_HIDDEN_PROPS: u32 = 0x7062_0001;

const MIB: f64 = (1u64 << 20) as f64;

pub fn data_dir(sub: &str) -> PathBuf {
    Path::new(DATA_DIR).join(sub)
}

/// A hidden graph the crawler walks: Holme–Kim with `n` nodes, `m = 4`,
/// `p_t = 0.5`.
#[derive(Clone, Copy, Debug)]
pub struct Hidden {
    pub n: usize,
}

impl Hidden {
    fn key(self) -> String {
        format!("perfbench-hk-n{}-m4-pt0.5-s{HIDDEN_SEED}", self.n)
    }

    fn generate(self) -> Graph {
        let mut rng = Xoshiro256pp::seed_from_u64(HIDDEN_SEED);
        sgr_gen::holme_kim(self.n, 4, 0.5, &mut rng).expect("valid Holme-Kim parameters")
    }

    fn blob_path(self) -> PathBuf {
        data_dir("cache").join(format!("{}.el", self.key()))
    }

    /// The generator's edge list, as uploaded to the job server. Cached
    /// next to the snapshot.
    pub fn edge_list(self) -> Vec<u8> {
        if let Ok(bytes) = std::fs::read(self.blob_path()) {
            return bytes;
        }
        let mut blob = Vec::new();
        write_edge_list(&self.generate(), &mut blob).expect("writing to memory");
        if let Err(e) = std::fs::create_dir_all(data_dir("cache"))
            .and_then(|()| std::fs::write(self.blob_path(), &blob))
        {
            eprintln!("perfbench: edge list cache write failed ({e}), continuing");
        }
        blob
    }

    /// Loads the hidden graph from the snapshot cache, or builds it (and
    /// fills the cache). Returns the graph and whether it was rebuilt.
    pub fn load(self) -> (Graph, bool) {
        load_or_generate_hidden(&self.key(), || {
            parse(&self.edge_list()).expect("generated edge list parses")
        })
    }

    /// The hidden graph's properties at `pivots` sampled sources: a pure
    /// function of the graph, so they are computed once and cached next
    /// to it. Returns them and whether they were computed.
    pub fn props(self, g: &Graph, pivots: usize) -> (StructuralProperties, bool) {
        let path = data_dir("cache").join(format!("{}-props-p{pivots}.sgrsnap", self.key()));
        if let Ok(p) = read_section(&path, KIND_HIDDEN_PROPS).and_then(|b| decode_props(&b)) {
            return (p, false);
        }
        let p = StructuralProperties::compute(&g.freeze(), &props_cfg(pivots));
        if let Err(e) = std::fs::create_dir_all(data_dir("cache"))
            .map_err(SnapshotError::Io)
            .and_then(|()| write_section(&path, KIND_HIDDEN_PROPS, &encode_props(&p)))
        {
            eprintln!("perfbench: property cache write failed ({e}), continuing");
        }
        (p, true)
    }
}

fn encode_props(p: &StructuralProperties) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    for x in [
        p.num_nodes,
        p.avg_degree,
        p.mean_clustering,
        p.avg_path_length,
        p.diameter,
        p.lambda1,
    ] {
        w.put_f64(x);
    }
    for v in [
        &p.degree_dist,
        &p.knn,
        &p.clustering_by_degree,
        &p.shared_partner_dist,
        &p.path_length_dist,
        &p.betweenness_by_degree,
    ] {
        w.put_f64_slice(v);
    }
    w.into_bytes()
}

fn decode_props(bytes: &[u8]) -> Result<StructuralProperties, SnapshotError> {
    let mut r = PayloadReader::new(bytes);
    let (num_nodes, avg_degree, mean_clustering) = (r.get_f64()?, r.get_f64()?, r.get_f64()?);
    let (avg_path_length, diameter, lambda1) = (r.get_f64()?, r.get_f64()?, r.get_f64()?);
    let p = StructuralProperties {
        num_nodes,
        avg_degree,
        mean_clustering,
        avg_path_length,
        diameter,
        lambda1,
        degree_dist: r.get_f64_slice()?,
        knn: r.get_f64_slice()?,
        clustering_by_degree: r.get_f64_slice()?,
        shared_partner_dist: r.get_f64_slice()?,
        path_length_dist: r.get_f64_slice()?,
        betweenness_by_degree: r.get_f64_slice()?,
    };
    r.finish()?;
    Ok(p)
}

pub fn parse(blob: &[u8]) -> Result<Graph, String> {
    read_edge_list(Cursor::new(blob))
        .map(|(g, _)| g)
        .map_err(|e| format!("edge list: {e}"))
}

/// Crawls `g` by a simple random walk the way `sgr restore` and the job
/// server do: one generator seeded with `seed` drives the crawl and then
/// the restoration, so the returned generator is the one to restore with.
pub fn crawl(g: &Graph, fraction: f64, seed: u64) -> (CrawlOutcome, Xoshiro256pp) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let spec = CrawlSpec {
        walk: WalkKind::RandomWalk,
        fraction,
        ..CrawlSpec::default()
    };
    let outcome = run_crawl(g, &spec, &mut rng).expect("valid crawl spec");
    (outcome, rng)
}

/// Property computation settings: the library defaults on one thread,
/// with `pivots` sampled sources for the path and betweenness kernels.
pub fn props_cfg(pivots: usize) -> PropsConfig {
    PropsConfig {
        threads: 1,
        num_pivots: pivots,
        ..PropsConfig::default()
    }
}

/// Mean of the 12 normalized L1 distances (the paper's accuracy metric).
pub fn mean_l1(hidden: &StructuralProperties, restored: &StructuralProperties) -> f64 {
    let d = hidden.l1_distances(restored);
    d.iter().sum::<f64>() / d.len() as f64
}

/// Every property value as raw bits, for exact comparison.
pub fn props_bits(p: &StructuralProperties) -> Vec<u64> {
    let scalars = [
        p.num_nodes,
        p.avg_degree,
        p.mean_clustering,
        p.avg_path_length,
        p.diameter,
        p.lambda1,
    ];
    let vectors = [
        &p.degree_dist,
        &p.knn,
        &p.clustering_by_degree,
        &p.shared_partner_dist,
        &p.path_length_dist,
        &p.betweenness_by_degree,
    ];
    let mut bits: Vec<u64> = scalars.iter().map(|x| x.to_bits()).collect();
    for v in vectors {
        bits.push(v.len() as u64);
        bits.extend(v.iter().map(|x| x.to_bits()));
    }
    bits
}

/// Hash of a graph's exact adjacency (order included).
pub fn graph_hash(g: &CsrGraph) -> u64 {
    checksum(&encode_csr(g))
}

/// The restored graph must contain `G'` as nodes `0..|V'|` with its exact
/// edges, and every queried node must keep its true degree.
pub fn check_embedding(sub: &Subgraph, out: &CsrGraph) -> Result<(), String> {
    if out.num_nodes() < sub.num_nodes() {
        return Err(format!(
            "restored graph has {} nodes, fewer than the subgraph's {}",
            out.num_nodes(),
            sub.num_nodes()
        ));
    }
    let mut have: Vec<u32> = Vec::new();
    let mut want: Vec<u32> = Vec::new();
    for u in 0..sub.num_nodes() as u32 {
        have.clear();
        have.extend_from_slice(out.neighbors(u));
        have.sort_unstable();
        want.clear();
        want.extend_from_slice(sub.graph.neighbors(u));
        want.sort_unstable();
        // Multiset inclusion of the sorted neighbor lists.
        let mut i = 0;
        for &v in &want {
            while i < have.len() && have[i] < v {
                i += 1;
            }
            if i == have.len() || have[i] != v {
                return Err(format!(
                    "subgraph edge ({u},{v}) missing from the restored graph"
                ));
            }
            i += 1;
        }
        if sub.queried[u as usize] && have.len() != want.len() {
            return Err(format!(
                "queried node {u} has degree {} instead of {}",
                have.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Peak heap growth over a region, read from the tracking allocator.
pub struct HeapProbe {
    base: u64,
}

impl HeapProbe {
    pub fn start() -> Self {
        reset_peak();
        Self {
            base: live_model_bytes(),
        }
    }

    pub fn peak_mib(&self) -> f64 {
        peak_model_bytes().saturating_sub(self.base) as f64 / MIB
    }
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty temporary directory under the data directory.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = data_dir("state").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create a state directory in the checkout");
    dir
}
