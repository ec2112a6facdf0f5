//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! 1. **Rewiring candidate set** — `Ẽ \ E'` (proposed) vs `Ẽ` (Gjoka
//!    style), holding everything else fixed: accuracy of `c̄(k)` and
//!    rewiring time.
//! 2. **`R_C` sweep** — rewiring budget vs clustering distance and time.
//! 3. **Modification steps on/off** — skip Algorithms 2 and 4 (i.e. use
//!    the Gjoka-style targets) but still embed the subgraph: isolates the
//!    value of the subgraph-aware targets.
//!
//! Output: three TSV sections, written to `out/ablation.tsv`.

use sgr_bench::harness::{self, Args};
use sgr_core::{restore, RestoreConfig};
use sgr_dk::rewire::RewireEngine;
use sgr_gen::Dataset;
use sgr_props::{PropsConfig, StructuralProperties};
use sgr_sample::random_walk_until_fraction;
use sgr_util::Xoshiro256pp;
use std::io::Write;

fn main() {
    let args = Args::parse();
    let out_dir = args.ensure_out_dir().to_path_buf();
    let props_cfg: PropsConfig = args.props_cfg();
    let mut file =
        std::fs::File::create(out_dir.join("ablation.tsv")).expect("create ablation.tsv");

    let g = harness::analogue(Dataset::Anybeat, args.scale, args.seed);
    let orig = StructuralProperties::compute(&g, &props_cfg);

    // ------------------------------------------------------------------
    // Ablation 1: candidate set. Build once with the proposed pipeline
    // (phases 1–3), then rewire the same constructed graph with (a) only
    // the added edges and (b) every edge as candidates.
    // ------------------------------------------------------------------
    let section1 = "## ablation 1: rewiring candidate set (Anybeat analogue, 10% queried)";
    println!("{section1}");
    writeln!(file, "{section1}").unwrap();
    let header = "candidates\tnum_candidates\trewire_sec\tD_initial\tD_final\tc(k)_L1_vs_orig";
    println!("{header}");
    writeln!(file, "{header}").unwrap();
    for exclude_subgraph in [true, false] {
        let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ 0xab1);
        let crawl = random_walk_until_fraction(&g, 0.10, &mut rng);
        let cfg = RestoreConfig {
            rewiring_coefficient: 0.0,
            rewire: false,
            ..RestoreConfig::default()
        };
        let built = restore(&crawl, &cfg, &mut rng).expect("construction failed");
        // Recover the candidate sets: added edges = all edges minus the
        // subgraph's (the restore API rewires internally; here we rewire
        // explicitly to control the candidate set).
        let sub_edges: sgr_util::FxHashSet<(u32, u32)> = built.subgraph.graph.edges().collect();
        let all_edges: Vec<(u32, u32)> = built.graph.edges().collect();
        let candidates: Vec<(u32, u32)> = if exclude_subgraph {
            // One subgraph copy of each edge is protected; extra copies
            // (multi-edges from construction) stay rewirable.
            let mut seen: sgr_util::FxHashSet<(u32, u32)> = Default::default();
            all_edges
                .iter()
                .copied()
                .filter(|e| !(sub_edges.contains(e) && seen.insert(*e)))
                .collect()
        } else {
            all_edges.clone()
        };
        let mut target_c = built.estimates.clustering.clone();
        let kmax = built.graph.max_degree() + 1;
        target_c.resize(kmax.max(target_c.len()), 0.0);
        let num_candidates = candidates.len();
        let mut engine = RewireEngine::new(built.graph.clone(), candidates, &target_c);
        let t = std::time::Instant::now();
        let stats = engine.run(args.rc, &mut rng);
        let secs = t.elapsed().as_secs_f64();
        let rewired = engine.into_graph();
        let props = StructuralProperties::compute(&rewired, &props_cfg);
        let ck_l1 = sgr_props::distance::normalized_l1(
            &orig.clustering_by_degree,
            &props.clustering_by_degree,
        );
        let label = if exclude_subgraph {
            "E_tilde \\ E' (proposed)"
        } else {
            "E_tilde (Gjoka-style)"
        };
        let row = format!(
            "{label}\t{num_candidates}\t{secs:.3}\t{:.4}\t{:.4}\t{ck_l1:.4}",
            stats.initial_distance, stats.final_distance
        );
        println!("{row}");
        writeln!(file, "{row}").unwrap();
    }

    // ------------------------------------------------------------------
    // Ablation 2: R_C sweep.
    // ------------------------------------------------------------------
    let section2 = "\n## ablation 2: rewiring coefficient R_C sweep";
    println!("{section2}");
    writeln!(file, "{section2}").unwrap();
    let header = "rc\ttotal_sec\trewire_sec\tD_final\tavg_L1";
    println!("{header}");
    writeln!(file, "{header}").unwrap();
    for rc in [0.0, 10.0, 30.0, 100.0, 300.0] {
        let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ 0xab2);
        let crawl = random_walk_until_fraction(&g, 0.10, &mut rng);
        let cfg = RestoreConfig {
            rewiring_coefficient: rc,
            rewire: rc > 0.0,
            ..RestoreConfig::default()
        };
        let r = restore(&crawl, &cfg, &mut rng).expect("restore failed");
        let props = StructuralProperties::compute(&r.graph, &props_cfg);
        let avg_l1 = sgr_util::stats::mean(&orig.l1_distances(&props));
        let row = format!(
            "{rc}\t{:.3}\t{:.3}\t{:.4}\t{avg_l1:.4}",
            r.stats.total_secs(),
            r.stats.rewire_secs,
            r.stats.rewire_stats.final_distance
        );
        println!("{row}");
        writeln!(file, "{row}").unwrap();
    }

    // ------------------------------------------------------------------
    // Ablation 3: subgraph-aware target modification on/off. "Off" runs
    // the Gjoka baseline (no subgraph at all); "on" runs the full
    // proposed pipeline; the difference isolates what embedding the
    // sampled subgraph buys.
    // ------------------------------------------------------------------
    let section3 = "\n## ablation 3: subgraph embedding on/off (avg L1 over 12 properties)";
    println!("{section3}");
    writeln!(file, "{section3}").unwrap();
    let header = "variant\tavg_L1\ttotal_sec";
    println!("{header}");
    writeln!(file, "{header}").unwrap();
    for proposed in [true, false] {
        let mut avg_acc = 0.0;
        let mut time_acc = 0.0;
        for run in 0..args.runs {
            let mut rng = Xoshiro256pp::seed_from_u64(args.seed ^ 0xab3 ^ (run as u64) << 20);
            let crawl = random_walk_until_fraction(&g, 0.10, &mut rng);
            let generate = if proposed {
                restore
            } else {
                sgr_core::gjoka::generate
            };
            let cfg = RestoreConfig {
                rewiring_coefficient: args.rc,
                ..RestoreConfig::default()
            };
            let r = generate(&crawl, &cfg, &mut rng).expect("restoration failed");
            let props = StructuralProperties::compute(&r.graph, &props_cfg);
            avg_acc += sgr_util::stats::mean(&orig.l1_distances(&props));
            time_acc += r.stats.total_secs();
        }
        let label = if proposed {
            "with subgraph (proposed)"
        } else {
            "without subgraph (Gjoka)"
        };
        let row = format!(
            "{label}\t{:.4}\t{:.3}",
            avg_acc / args.runs as f64,
            time_acc / args.runs as f64
        );
        println!("{row}");
        writeln!(file, "{row}").unwrap();
    }
    eprintln!("wrote {}", out_dir.join("ablation.tsv").display());
}
