//! Shared experiment machinery: the six compared methods, the evaluation
//! loop, and a tiny CLI-argument parser for the experiment binaries.

use sgr_core::{gjoka, restore, RestoreConfig};
use sgr_gen::Dataset;
use sgr_graph::Graph;
use sgr_props::{PropsConfig, StructuralProperties};
use sgr_sample::{bfs, forest_fire, random_walk, snowball, AccessModel};
use sgr_util::Xoshiro256pp;

/// The six methods of the paper's comparison (§V-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Subgraph sampling via breadth-first search.
    Bfs,
    /// Subgraph sampling via snowball sampling (`k = 50`).
    Snowball,
    /// Subgraph sampling via forest fire (`p_f = 0.7`).
    ForestFire,
    /// Subgraph sampling via random walk.
    Rw,
    /// Gjoka et al.'s 2.5K method (Appendix B).
    Gjoka,
    /// The proposed restoration method.
    Proposed,
}

impl Method {
    /// All six, in the paper's column order.
    pub const ALL: [Method; 6] = [
        Method::Bfs,
        Method::Snowball,
        Method::ForestFire,
        Method::Rw,
        Method::Gjoka,
        Method::Proposed,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Bfs => "BFS",
            Method::Snowball => "Snowball",
            Method::ForestFire => "FF",
            Method::Rw => "RW",
            Method::Gjoka => "Gjoka et al.",
            Method::Proposed => "Proposed",
        }
    }
}

/// One method's generated graph plus timing.
#[derive(Debug)]
pub struct MethodOutput {
    /// Which method produced it.
    pub method: Method,
    /// The generated graph (for subgraph sampling, the subgraph itself).
    pub graph: Graph,
    /// An order-preserving CSR snapshot of `graph`, frozen exactly once
    /// (reused from the restoration pipelines, which freeze after their
    /// last mutation) — this is what property computation consumes.
    pub snapshot: sgr_graph::CsrGraph,
    /// Total generation time in seconds (crawling excluded, as in the
    /// paper's Table IV, which times *generation*).
    pub total_secs: f64,
    /// Rewiring time in seconds (0 for subgraph sampling).
    pub rewire_secs: f64,
}

impl MethodOutput {
    fn new(method: Method, graph: Graph, total_secs: f64, rewire_secs: f64) -> Self {
        let snapshot = graph.freeze();
        Self {
            method,
            graph,
            snapshot,
            total_secs,
            rewire_secs,
        }
    }
}

/// The L1 distances of one method in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Which method.
    pub method: Method,
    /// The 12 distances in `sgr_props::PROPERTY_NAMES` order.
    pub distances: [f64; 12],
    /// Total / rewiring generation times.
    pub total_secs: f64,
    /// Rewiring seconds.
    pub rewire_secs: f64,
}

impl RunResult {
    /// Mean of the 12 distances (the paper's "average L1 distance").
    pub fn mean_distance(&self) -> f64 {
        sgr_util::stats::mean(&self.distances)
    }
}

/// Runs all six methods on one hidden graph with the §V-D protocol:
/// one uniform seed node; BFS / snowball / FF crawl from that seed; a
/// single random walk serves RW subgraph sampling, Gjoka et al., and the
/// proposed method.
pub fn run_all_methods(
    g: &Graph,
    fraction: f64,
    rc: f64,
    rng: &mut Xoshiro256pp,
) -> Vec<MethodOutput> {
    let target = ((g.num_nodes() as f64 * fraction).round() as usize).max(2);
    let seed_node = {
        let am = AccessModel::new(g);
        am.random_seed(rng)
    };
    let mut out = Vec::with_capacity(6);

    // --- BFS subgraph sampling.
    let t = std::time::Instant::now();
    let crawl = {
        let mut am = AccessModel::new(g);
        bfs(&mut am, seed_node, target)
    };
    let sg = crawl.subgraph();
    out.push(MethodOutput::new(
        Method::Bfs,
        sg.graph,
        t.elapsed().as_secs_f64(),
        0.0,
    ));

    // --- Snowball subgraph sampling (k = 50).
    let t = std::time::Instant::now();
    let crawl = {
        let mut am = AccessModel::new(g);
        snowball(&mut am, seed_node, 50, target, rng)
    };
    let sg = crawl.subgraph();
    out.push(MethodOutput::new(
        Method::Snowball,
        sg.graph,
        t.elapsed().as_secs_f64(),
        0.0,
    ));

    // --- Forest fire subgraph sampling (p_f = 0.7).
    let t = std::time::Instant::now();
    let crawl = {
        let mut am = AccessModel::new(g);
        forest_fire(&mut am, seed_node, 0.7, target, rng)
    };
    let sg = crawl.subgraph();
    out.push(MethodOutput::new(
        Method::ForestFire,
        sg.graph,
        t.elapsed().as_secs_f64(),
        0.0,
    ));

    // --- One random walk shared by RW / Gjoka / Proposed (§V-D: "we
    // perform these methods for the same RW to achieve a fair
    // comparison").
    let rw_crawl = {
        let mut am = AccessModel::new(g);
        random_walk(&mut am, seed_node, target, rng)
    };
    let t = std::time::Instant::now();
    let sg = rw_crawl.subgraph();
    out.push(MethodOutput::new(
        Method::Rw,
        sg.graph,
        t.elapsed().as_secs_f64(),
        0.0,
    ));

    // Both run the same staged pipeline; the baseline on an empty
    // subgraph.
    let cfg = RestoreConfig {
        rewiring_coefficient: rc,
        ..RestoreConfig::default()
    };
    let gj = gjoka::generate(&rw_crawl, &cfg, rng).expect("gjoka generation failed");
    let rs = restore(&rw_crawl, &cfg, rng).expect("proposed restoration failed");
    for (method, r) in [(Method::Gjoka, gj), (Method::Proposed, rs)] {
        out.push(MethodOutput {
            method,
            graph: r.graph,
            snapshot: r.snapshot,
            total_secs: r.stats.total_secs(),
            rewire_secs: r.stats.rewire_secs,
        });
    }

    out
}

/// Evaluates one run: generates with all methods and measures the 12
/// distances against precomputed original properties.
pub fn evaluate_run(
    g: &Graph,
    orig: &StructuralProperties,
    fraction: f64,
    rc: f64,
    props_cfg: &PropsConfig,
    rng: &mut Xoshiro256pp,
) -> Vec<RunResult> {
    run_all_methods(g, fraction, rc, rng)
        .into_iter()
        .map(|mo| {
            // The 12 property kernels are read-only: consume the CSR
            // snapshot each method froze exactly once.
            let props = StructuralProperties::compute(&mo.snapshot, props_cfg);
            RunResult {
                method: mo.method,
                distances: orig.l1_distances(&props),
                total_secs: mo.total_secs,
                rewire_secs: mo.rewire_secs,
            }
        })
        .collect()
}

/// Averages per-method results across runs: returns, per method, the
/// element-wise mean of the 12 distances plus mean times.
pub fn average_runs(runs: &[Vec<RunResult>]) -> Vec<RunResult> {
    assert!(!runs.is_empty());
    Method::ALL
        .iter()
        .map(|&method| {
            let mut distances = [0.0f64; 12];
            let mut total = 0.0;
            let mut rewire = 0.0;
            let mut count = 0usize;
            for run in runs {
                for r in run.iter().filter(|r| r.method == method) {
                    for (d, &x) in distances.iter_mut().zip(r.distances.iter()) {
                        *d += x;
                    }
                    total += r.total_secs;
                    rewire += r.rewire_secs;
                    count += 1;
                }
            }
            assert!(count > 0, "method {method:?} missing from runs");
            for d in &mut distances {
                *d /= count as f64;
            }
            RunResult {
                method,
                distances,
                total_secs: total / count as f64,
                rewire_secs: rewire / count as f64,
            }
        })
        .collect()
}

/// Generates the analogue for `ds` at `scale`, deterministic in `seed`.
pub fn analogue(ds: Dataset, scale: f64, seed: u64) -> Graph {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xda7a);
    ds.spec().scaled(scale).generate(&mut rng)
}

/// CLI arguments shared by the experiment binaries. Hand-rolled parser —
/// the binaries take only `--key value` pairs.
#[derive(Clone, Debug)]
pub struct Args {
    /// Independent runs to average (paper: 10; default here: 3).
    pub runs: usize,
    /// Rewiring coefficient `R_C` (paper: 500; default here: 60 so the
    /// whole suite fits a session — see EXPERIMENTS.md).
    pub rc: f64,
    /// Analogue size multiplier.
    pub scale: f64,
    /// Output directory for TSV/SVG artifacts.
    pub out_dir: std::path::PathBuf,
    /// Base seed.
    pub seed: u64,
    /// Exact-computation node threshold for properties.
    pub exact_threshold: usize,
    /// Pivot count for sampled shortest paths / betweenness.
    pub pivots: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            runs: 3,
            rc: 60.0,
            scale: 1.0,
            out_dir: std::path::PathBuf::from("out"),
            seed: 20220512,
            exact_threshold: 2_000,
            pivots: 384,
        }
    }
}

impl Args {
    /// Parses `--runs N --rc X --scale X --out DIR --seed N
    /// --exact-threshold N --pivots N` from `std::env::args`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed input.
    pub fn parse() -> Self {
        let mut args = Self::default();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].as_str();
            let val = argv
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing value for {key}"));
            match key {
                "--runs" => args.runs = val.parse().expect("--runs expects an integer"),
                "--rc" => args.rc = val.parse().expect("--rc expects a number"),
                "--scale" => args.scale = val.parse().expect("--scale expects a number"),
                "--out" => args.out_dir = val.into(),
                "--seed" => args.seed = val.parse().expect("--seed expects an integer"),
                "--exact-threshold" => {
                    args.exact_threshold =
                        val.parse().expect("--exact-threshold expects an integer")
                }
                "--pivots" => args.pivots = val.parse().expect("--pivots expects an integer"),
                other => panic!("unknown argument {other}"),
            }
            i += 2;
        }
        args
    }

    /// The properties configuration implied by these arguments.
    pub fn props_cfg(&self) -> PropsConfig {
        PropsConfig {
            exact_threshold: self.exact_threshold,
            num_pivots: self.pivots,
            threads: 0,
            seed: self.seed ^ 0x9999,
        }
    }

    /// Ensures the output directory exists and returns it.
    pub fn ensure_out_dir(&self) -> &std::path::Path {
        std::fs::create_dir_all(&self.out_dir).expect("cannot create output directory");
        &self.out_dir
    }
}

/// Times one checkpoint round trip of a frozen graph through the on-disk
/// snapshot container (the same container the restore checkpoints use)
/// and gates on bitwise fidelity: the loaded snapshot must re-encode to
/// exactly the bytes that were written.
///
/// Returns `(write_secs, load_secs, file_bytes)`.
pub fn checkpoint_round_trip(csr: &sgr_graph::CsrGraph, path: &std::path::Path) -> (f64, f64, u64) {
    use sgr_graph::snapshot;
    let t = std::time::Instant::now();
    snapshot::write_csr(csr, path).expect("checkpoint write failed");
    let write_secs = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path)
        .expect("checkpoint file missing")
        .len();
    let t = std::time::Instant::now();
    let loaded = snapshot::read_csr(path).expect("checkpoint load failed");
    let load_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        snapshot::encode_csr(&loaded),
        snapshot::encode_csr(csr),
        "checkpoint round trip lost information"
    );
    (write_secs, load_secs, bytes)
}

/// Loads a bench binary's hidden graph from its on-disk snapshot cache,
/// or generates it and populates the cache for the next run.
///
/// The cache lives in `$SGR_BENCH_CACHE` (default `bench_cache/` under
/// the working directory, gitignored), one `<key>.sgrsnap` CSR container
/// per workload — the key must encode every generation parameter
/// (generator, size, seed). Hidden graphs are the dominant setup cost of
/// the large bench rows (a 1M-node Holme–Kim generation dwarfs some of
/// the phases being measured), and they are pure functions of their
/// seed, so regenerating them every harness run is waste.
///
/// The load path is **order-preserving** — the snapshot was frozen from
/// the generated graph (freeze keeps neighbor order) and is thawed with
/// [`Graph::from_view`] (which keeps it too, unlike `CsrGraph::thaw`) —
/// so a cached run and a regenerated run hand byte-identical adjacency
/// to everything downstream, and every bench number is comparable across
/// the two. The returned flag is `true` when the graph was regenerated
/// (reported as `"regenerated"` in the bench JSON so a timing read off a
/// cold-cache run can be told apart).
///
/// A corrupt or unreadable cache entry falls back to regeneration; a
/// failed cache write is reported to stderr but never fails the bench.
pub fn load_or_generate_hidden(key: &str, generate: impl FnOnce() -> Graph) -> (Graph, bool) {
    use sgr_graph::snapshot;
    let dir = std::env::var_os("SGR_BENCH_CACHE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("bench_cache"));
    let path = dir.join(format!("{key}.sgrsnap"));
    match snapshot::read_csr(&path) {
        Ok(csr) => {
            eprintln!("  hidden graph: cached ({})", path.display());
            (Graph::from_view(&csr), false)
        }
        Err(sgr_graph::SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            let g = generate();
            if let Err(e) = std::fs::create_dir_all(&dir)
                .map_err(sgr_graph::SnapshotError::Io)
                .and_then(|()| snapshot::write_csr(&g.freeze(), &path))
            {
                eprintln!("  hidden graph: cache write failed ({e}), continuing uncached");
            } else {
                eprintln!("  hidden graph: generated, cached to {}", path.display());
            }
            (g, true)
        }
        Err(e) => {
            eprintln!("  hidden graph: cache unreadable ({e}), regenerating");
            (generate(), true)
        }
    }
}

/// Formats a row of f64 cells with a label, TSV.
pub fn tsv_row(label: &str, cells: &[f64]) -> String {
    let mut row = String::from(label);
    for c in cells {
        row.push('\t');
        row.push_str(&format!("{c:.3}"));
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_produce_graphs() {
        let g = sgr_gen::holme_kim(400, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(1)).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let outs = run_all_methods(&g, 0.1, 5.0, &mut rng);
        assert_eq!(outs.len(), 6);
        for mo in &outs {
            assert!(mo.graph.num_nodes() > 0, "{} empty", mo.method.name());
            assert!(mo.graph.num_edges() > 0, "{} edgeless", mo.method.name());
        }
        // Subgraph sampling keeps only the observed edges; restoration
        // regenerates close to the full edge count.
        let by = |m: Method| outs.iter().find(|o| o.method == m).unwrap();
        assert!(by(Method::Bfs).graph.num_edges() < by(Method::Proposed).graph.num_edges());
    }

    #[test]
    fn evaluate_and_average() {
        let g = sgr_gen::holme_kim(300, 3, 0.5, &mut Xoshiro256pp::seed_from_u64(3)).unwrap();
        let cfg = PropsConfig::default();
        let orig = StructuralProperties::compute(&g, &cfg);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let runs: Vec<Vec<RunResult>> = (0..2)
            .map(|_| evaluate_run(&g, &orig, 0.1, 3.0, &cfg, &mut rng))
            .collect();
        let avg = average_runs(&runs);
        assert_eq!(avg.len(), 6);
        for r in &avg {
            assert!(r.mean_distance().is_finite());
            assert!(r.distances.iter().all(|d| d.is_finite() && *d >= 0.0));
        }
    }

    #[test]
    fn tsv_row_formats() {
        assert_eq!(tsv_row("x", &[1.0, 0.25]), "x\t1.000\t0.250");
    }

    #[test]
    fn checkpoint_round_trip_is_lossless() {
        let g = sgr_gen::holme_kim(500, 4, 0.5, &mut Xoshiro256pp::seed_from_u64(5)).unwrap();
        let path = std::env::temp_dir().join(format!(
            "sgr_bench_roundtrip_{}.sgrsnap",
            std::process::id()
        ));
        let (w, l, bytes) = checkpoint_round_trip(&g.freeze(), &path);
        assert!(w >= 0.0 && l >= 0.0);
        assert!(bytes > 32, "payload missing beyond the header");
        let _ = std::fs::remove_file(&path);
    }
}
