//! The paper's evaluation (§V), one function per artifact, behind the
//! `repro` binary: `repro --artifact NAME [--key value ...]`.
//!
//! Every artifact writes `<out>/<artifact>.tsv` (`fig4` writes
//! `<out>/fig4/`), printing each line as it goes. Each run draws from its
//! own generator, seeded from `--seed`, the run index and an
//! artifact-specific salt, so one artifact's numbers do not depend on
//! which others ran.

use crate::harness::{self, Method, RunResult};
use sgr_core::{restore, RestoreConfig};
use sgr_dk::rewire::RewireEngine;
use sgr_gen::Dataset;
use sgr_graph::Graph;
use sgr_props::{PropsConfig, StructuralProperties, PROPERTY_NAMES};
use sgr_sample::random_walk_until_fraction;
use sgr_util::stats::{mean, mean_std};
use sgr_util::Xoshiro256pp;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One artifact: runs it and writes its files under `--out`.
pub type Artifact = fn(&Args);

/// The artifacts by name, in the paper's order.
pub const ARTIFACTS: [(&str, Artifact); 7] = [
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig3", fig3),
    ("fig4", fig4),
    ("ablation", ablation),
];

/// The usage line `repro` prints when it refuses its arguments.
pub const USAGE: &str = "usage: repro --artifact table2|table3|table4|table5|fig3|fig4|ablation \
     [--runs N (>= 1)] [--rc X] [--scale X] [--out DIR] [--seed N] \
     [--exact-threshold N] [--pivots N]";

/// The options every artifact shares.
#[derive(Clone, Debug)]
pub struct Args {
    /// Independent runs to average (paper: 10; default here: 3).
    pub runs: usize,
    /// Rewiring coefficient `R_C` (paper: 500; default here: 60, which
    /// keeps the whole suite short; pass `--rc 500` for the paper's
    /// setting).
    pub rc: f64,
    /// Analogue size multiplier.
    pub scale: f64,
    /// Output directory for TSV/SVG artifacts.
    pub out_dir: PathBuf,
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
            out_dir: PathBuf::from("out"),
            seed: 20220512,
            exact_threshold: 2_000,
            pivots: 384,
        }
    }
}

impl Args {
    /// The properties configuration implied by these arguments.
    fn props_cfg(&self) -> PropsConfig {
        PropsConfig {
            exact_threshold: self.exact_threshold,
            num_pivots: self.pivots,
            threads: 0,
            seed: self.seed ^ 0x9999,
        }
    }
}

/// Parses `--artifact NAME` and the shared `--key value` options into the
/// artifact to run and its arguments. Refuses a missing or unknown
/// artifact, an unknown key, a missing or malformed value and
/// `--runs 0`.
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<(Artifact, Args), String> {
    let mut args = Args::default();
    let mut artifact = None;
    let mut argv = argv.into_iter();
    while let Some(key) = argv.next() {
        let val = argv
            .next()
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key.as_str() {
            "--artifact" => {
                let found = ARTIFACTS.iter().find(|(name, _)| *name == val);
                artifact = Some(found.ok_or_else(|| format!("unknown artifact {val:?}"))?.1);
            }
            "--runs" => args.runs = num(&key, &val)?,
            "--rc" => args.rc = num(&key, &val)?,
            "--scale" => args.scale = num(&key, &val)?,
            "--out" => args.out_dir = val.into(),
            "--seed" => args.seed = num(&key, &val)?,
            "--exact-threshold" => args.exact_threshold = num(&key, &val)?,
            "--pivots" => args.pivots = num(&key, &val)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok((artifact.ok_or("--artifact is required")?, args))
}

fn num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{key} expects a number, got {val:?}"))
}

/// A TSV file that echoes every line it writes to stdout.
struct Tsv(std::fs::File);

impl Tsv {
    /// Prints `title` (to stdout only) and creates `dir/name.tsv`.
    fn create(dir: &Path, name: &str, title: &str) -> Self {
        println!("{title}");
        std::fs::create_dir_all(dir).expect("cannot create output directory");
        let path = dir.join(format!("{name}.tsv"));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        Self(file)
    }

    fn line(&mut self, line: &str) {
        println!("{line}");
        writeln!(self.0, "{line}").expect("cannot write TSV line");
    }
}

/// The generator of run `run`: `--seed` XOR `run << 32` XOR the
/// artifact's `salt`.
fn run_rng(args: &Args, run: usize, salt: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(args.seed ^ (run as u64) << 32 ^ salt)
}

/// The analogue of `ds` at `--scale` and its 12 properties.
fn analogue_with_props(args: &Args, ds: Dataset) -> (Graph, StructuralProperties) {
    let g = harness::analogue(ds, args.scale, args.seed);
    let orig = StructuralProperties::compute(&g, &args.props_cfg());
    (g, orig)
}

/// Runs [`harness::evaluate_run`] `--runs` times, run `i` on
/// `run_rng(args, i, salt)`.
fn evaluate_runs(
    args: &Args,
    g: &Graph,
    orig: &StructuralProperties,
    fraction: f64,
    salt: u64,
) -> Vec<Vec<RunResult>> {
    (0..args.runs)
        .map(|run| {
            let mut rng = run_rng(args, run, salt);
            harness::evaluate_run(g, orig, fraction, args.rc, &args.props_cfg(), &mut rng)
        })
        .collect()
}

/// Table II: the L1 distance of each of the 12 properties at 10% queried
/// nodes, Slashdot, Gowalla and Livemocha analogues. One row per
/// (dataset, method), averaged over `--runs`.
fn table2(args: &Args) {
    let mut tsv = Tsv::create(
        &args.out_dir,
        "table2",
        &format!(
            "# Table II — per-property L1 at 10% queried (runs = {})",
            args.runs
        ),
    );
    tsv.line(&format!("dataset\tmethod\t{}", PROPERTY_NAMES.join("\t")));
    for ds in [Dataset::Slashdot, Dataset::Gowalla, Dataset::Livemocha] {
        let (g, orig) = analogue_with_props(args, ds);
        let runs = evaluate_runs(args, &g, &orig, 0.10, (ds as u64) << 8);
        for r in harness::average_runs(&runs) {
            let label = format!("{}\t{}", ds.name(), r.method.name());
            tsv.line(&harness::tsv_row(&label, &r.distances));
        }
    }
}

/// Table III: average ± standard deviation of the L1 distance over the
/// 12 properties at 10% queried nodes, six smaller analogues. The ± is
/// the spread over the 12 properties in one run; both are averaged over
/// `--runs`. One row per dataset, (avg, sd) per method.
fn table3(args: &Args) {
    let cols: Vec<String> = Method::ALL
        .iter()
        .flat_map(|m| [format!("{}_avg", m.name()), format!("{}_sd", m.name())])
        .collect();
    let mut tsv = Tsv::create(
        &args.out_dir,
        "table3",
        &format!(
            "# Table III — avg ± SD of L1 over 12 properties at 10% queried (runs = {})",
            args.runs
        ),
    );
    tsv.line(&format!("dataset\t{}", cols.join("\t")));
    let n = args.runs as f64;
    for ds in Dataset::SMALL_SIX {
        let (g, orig) = analogue_with_props(args, ds);
        let runs = evaluate_runs(args, &g, &orig, 0.10, (ds as u64) << 8);
        let cells: Vec<f64> = (0..Method::ALL.len())
            .flat_map(|m| {
                let (avg, sd) = runs
                    .iter()
                    .map(|run| mean_std(&run[m].distances))
                    .fold((0.0, 0.0), |acc, (a, s)| (acc.0 + a, acc.1 + s));
                [avg / n, sd / n]
            })
            .collect();
        tsv.line(&harness::tsv_row(ds.name(), &cells));
    }
}

/// Table IV: generation times in seconds at 10% queried nodes, six
/// smaller analogues, averaged over `--runs`. The restoration methods
/// show total and rewiring time; the paper's headline is that the
/// proposed method is several times faster than Gjoka et al.'s because
/// its rewiring candidates exclude the subgraph's edges.
fn table4(args: &Args) {
    let mut tsv = Tsv::create(
        &args.out_dir,
        "table4",
        &format!(
            "# Table IV — generation times in seconds at 10% queried (runs = {}, RC = {})",
            args.runs, args.rc
        ),
    );
    tsv.line(
        "dataset\tBFS\tSnowball\tFF\tRW\tGjoka_total\tGjoka_rewire\tProposed_total\t\
         Proposed_rewire\tspeedup",
    );
    for ds in Dataset::SMALL_SIX {
        let g = harness::analogue(ds, args.scale, args.seed);
        // Per method in `Method::ALL` order: total seconds, then rewiring
        // seconds for the two restoration methods.
        let mut s = [0.0f64; 8];
        for run in 0..args.runs {
            let mut rng = run_rng(args, run, (ds as u64) << 8);
            let outs = harness::run_all_methods(&g, 0.10, args.rc, &mut rng);
            let times = outs.iter().flat_map(|o| match o.method {
                Method::Gjoka | Method::Proposed => vec![o.total_secs, o.rewire_secs],
                _ => vec![o.total_secs],
            });
            for (sum, t) in s.iter_mut().zip(times) {
                *sum += t;
            }
        }
        let s = s.map(|x| x / args.runs as f64);
        let speedup = if s[6] > 0.0 { s[4] / s[6] } else { f64::NAN };
        let mut row = ds.name().to_string();
        for (i, secs) in s.iter().enumerate() {
            // Subgraph sampling at 4 decimals, restoration at 3.
            row += &format!("\t{secs:.*}", if i < 4 { 4 } else { 3 });
        }
        tsv.line(&format!("{row}\t{speedup:.2}"));
    }
}

/// Table V: the YouTube analogue at 1% queried nodes. Per method, the 12
/// per-property L1 distances, their average ± SD and the generation time,
/// averaged over `--runs`.
fn table5(args: &Args) {
    let mut tsv = Tsv::create(
        &args.out_dir,
        "table5",
        &format!(
            "# Table V — YouTube analogue at 1% queried (runs = {}, RC = {})",
            args.runs, args.rc
        ),
    );
    tsv.line(&format!(
        "method\t{}\tavg\tsd\ttime_sec",
        PROPERTY_NAMES.join("\t")
    ));
    let (g, orig) = analogue_with_props(args, Dataset::YouTube);
    eprintln!(
        "YouTube analogue: n = {}, m = {}",
        g.num_nodes(),
        g.num_edges()
    );
    let runs = evaluate_runs(args, &g, &orig, 0.01, 0x7b3);
    for r in harness::average_runs(&runs) {
        let (avg, sd) = mean_std(&r.distances);
        let cells: Vec<f64> = r
            .distances
            .into_iter()
            .chain([avg, sd, r.total_secs])
            .collect();
        tsv.line(&harness::tsv_row(r.method.name(), &cells));
    }
}

/// Fig. 3: the average L1 distance over the 12 properties against the
/// percentage of queried nodes (1%–10%), Anybeat, Brightkite and Epinions
/// analogues. One row per (dataset, percentage), one column per method,
/// averaged over `--runs`.
fn fig3(args: &Args) {
    let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
    let mut tsv = Tsv::create(
        &args.out_dir,
        "fig3",
        &format!(
            "# Fig. 3 — average L1 distance vs % queried (runs = {})",
            args.runs
        ),
    );
    tsv.line(&format!("dataset\tpct_queried\t{}", names.join("\t")));
    for ds in [Dataset::Anybeat, Dataset::Brightkite, Dataset::Epinions] {
        let (g, orig) = analogue_with_props(args, ds);
        for pct in 1..=10u64 {
            let fraction = pct as f64 / 100.0;
            let runs = evaluate_runs(args, &g, &orig, fraction, pct ^ (ds as u64) << 16);
            let cells: Vec<f64> = harness::average_runs(&runs)
                .iter()
                .map(RunResult::mean_distance)
                .collect();
            tsv.line(&harness::tsv_row(&format!("{}\t{pct}", ds.name()), &cells));
        }
    }
}

/// Fig. 4: SVG renderings of the Anybeat analogue and of each method's
/// output at 10% queried nodes (the offline substitute for the paper's
/// Gephi figures), in `<out>/fig4/`. `summary.tsv` gives each graph's
/// size, share of degree-≤1 nodes and maximum degree, so the figure's
/// claims can be checked numerically: subgraph sampling misses most
/// low-degree periphery nodes; the proposed method restores them.
fn fig4(args: &Args) {
    let dir = args.out_dir.join("fig4");
    let mut tsv = Tsv::create(
        &dir,
        "summary",
        "# Fig. 4 — visual comparison, Anybeat analogue at 10% queried",
    );
    tsv.line("graph\tnodes\tedges\tdeg1_frac\tmax_degree");
    let mut draw = |name: &str, file: &str, graph: &Graph| {
        sgr_viz::write_svg(graph, dir.join(format!("{file}.svg"))).expect("cannot write SVG");
        let deg1 = graph.nodes().filter(|&u| graph.degree(u) <= 1).count();
        tsv.line(&format!(
            "{name}\t{}\t{}\t{:.3}\t{}",
            graph.num_nodes(),
            graph.num_edges(),
            deg1 as f64 / graph.num_nodes().max(1) as f64,
            graph.max_degree()
        ));
    };
    let g = harness::analogue(Dataset::Anybeat, args.scale, args.seed);
    draw("original", "original", &g);
    let mut rng = run_rng(args, 0, 0xf164);
    for mo in harness::run_all_methods(&g, 0.10, args.rc, &mut rng) {
        let name = mo.method.name();
        draw(name, &name.replace([' ', '.'], "_"), &mo.graph);
    }
}

/// Ablations of the proposed method's design choices (§IV), on the
/// Anybeat analogue at 10% queried nodes, as three sections of
/// `ablation.tsv`:
///
/// 1. **Rewiring candidate set**: `Ẽ \ E'` (proposed) vs `Ẽ` (Gjoka
///    style), rewiring one constructed graph: `c̄(k)` accuracy and time.
/// 2. **`R_C` sweep**: rewiring budget vs clustering distance and time.
/// 3. **Subgraph embedding on/off**: the proposed pipeline vs the Gjoka
///    baseline, which uses no subgraph at all (plain targets, no
///    embedding), averaged over `--runs`.
fn ablation(args: &Args) {
    let props_cfg = args.props_cfg();
    let (g, orig) = analogue_with_props(args, Dataset::Anybeat);
    let avg_l1 = |graph: &Graph| {
        let props = StructuralProperties::compute(graph, &props_cfg);
        mean(&orig.l1_distances(&props))
    };

    // 1. Build once with the proposed pipeline's first three stages, then
    // rewire the constructed graph from the same generator state with (a)
    // only the added edges and (b) every edge as candidates.
    let mut tsv = Tsv::create(
        &args.out_dir,
        "ablation",
        "# Ablations of the proposed method (Anybeat analogue)",
    );
    tsv.line("## ablation 1: rewiring candidate set (Anybeat analogue, 10% queried)");
    tsv.line("candidates\tnum_candidates\trewire_sec\tD_initial\tD_final\tc(k)_L1_vs_orig");
    let mut rng = run_rng(args, 0, 0xab1);
    let crawl = random_walk_until_fraction(&g, 0.10, &mut rng);
    let cfg = RestoreConfig {
        rewiring_coefficient: 0.0,
        rewire: false,
        ..RestoreConfig::default()
    };
    let built = restore(&crawl, &cfg, &mut rng).expect("construction failed");
    let sub_edges: sgr_util::FxHashSet<(u32, u32)> = built.subgraph.graph.edges().collect();
    let mut target_c = built.estimates.clustering.clone();
    let kmax = built.graph.max_degree() + 1;
    target_c.resize(kmax.max(target_c.len()), 0.0);
    for (exclude_subgraph, label) in [
        (true, "E_tilde \\ E' (proposed)"),
        (false, "E_tilde (Gjoka-style)"),
    ] {
        // Added edges = all edges minus the subgraph's. One subgraph copy
        // of each edge is protected; extra copies (multi-edges from
        // construction) stay rewirable.
        let mut seen: sgr_util::FxHashSet<(u32, u32)> = Default::default();
        let candidates: Vec<(u32, u32)> = built
            .graph
            .edges()
            .filter(|e| !(exclude_subgraph && sub_edges.contains(e) && seen.insert(*e)))
            .collect();
        let num_candidates = candidates.len();
        let mut engine = RewireEngine::new(built.graph.clone(), candidates, &target_c);
        let t = std::time::Instant::now();
        let stats = engine.run(args.rc, &mut rng.clone());
        let secs = t.elapsed().as_secs_f64();
        let props = StructuralProperties::compute(&engine.into_graph(), &props_cfg);
        let ck_l1 = sgr_props::distance::normalized_l1(
            &orig.clustering_by_degree,
            &props.clustering_by_degree,
        );
        tsv.line(&format!(
            "{label}\t{num_candidates}\t{secs:.3}\t{:.4}\t{:.4}\t{ck_l1:.4}",
            stats.initial_distance, stats.final_distance
        ));
    }

    // 2. Every row runs the rewiring stage, so that at R_C = 0 (no
    // attempts) D_final is the constructed graph's D.
    tsv.line("\n## ablation 2: rewiring coefficient R_C sweep");
    tsv.line("rc\ttotal_sec\trewire_sec\tD_final\tavg_L1");
    for rc in [0.0, 10.0, 30.0, 100.0, 300.0] {
        let mut rng = run_rng(args, 0, 0xab2);
        let crawl = random_walk_until_fraction(&g, 0.10, &mut rng);
        let cfg = RestoreConfig {
            rewiring_coefficient: rc,
            rewire: true,
            ..RestoreConfig::default()
        };
        let r = restore(&crawl, &cfg, &mut rng).expect("restore failed");
        tsv.line(&format!(
            "{rc}\t{:.3}\t{:.3}\t{:.4}\t{:.4}",
            r.stats.total_secs(),
            r.stats.rewire_secs,
            r.stats.rewire_stats.final_distance,
            avg_l1(&r.graph)
        ));
    }

    // 3. "Off" runs the Gjoka baseline (no subgraph at all), "on" the
    // full proposed pipeline: the difference is what embedding the
    // sampled subgraph buys.
    tsv.line("\n## ablation 3: subgraph embedding on/off (avg L1 over 12 properties)");
    tsv.line("variant\tavg_L1\ttotal_sec");
    let cfg = RestoreConfig {
        rewiring_coefficient: args.rc,
        ..RestoreConfig::default()
    };
    for (proposed, label) in [
        (true, "with subgraph (proposed)"),
        (false, "without subgraph (Gjoka)"),
    ] {
        let generate = if proposed {
            restore
        } else {
            sgr_core::gjoka::generate
        };
        let (mut l1, mut secs) = (0.0, 0.0);
        for run in 0..args.runs {
            // This section keeps its own run shift, `run << 20`.
            let mut rng = run_rng(args, 0, 0xab3 ^ (run as u64) << 20);
            let crawl = random_walk_until_fraction(&g, 0.10, &mut rng);
            let r = generate(&crawl, &cfg, &mut rng).expect("restoration failed");
            l1 += avg_l1(&r.graph);
            secs += r.stats.total_secs();
        }
        let n = args.runs as f64;
        tsv.line(&format!("{label}\t{:.4}\t{:.3}", l1 / n, secs / n));
    }
}
