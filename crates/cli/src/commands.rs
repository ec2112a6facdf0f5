//! Subcommand implementations.

use std::path::{Path, PathBuf};

use crate::args::Opts;
use crate::error::CliError;
use sgr_core::{CheckpointPolicy, NoopObserver, RestoreConfig, Restored};
use sgr_graph::io::{read_edge_list_file, write_edge_list_file};
use sgr_graph::Graph;
use sgr_props::{PropsConfig, StructuralProperties, PROPERTY_NAMES};
use sgr_sample::{Crawl, CrawlSpec, WalkKind};
use sgr_serve::{Client, JobStatus, ServeConfig, SubmitRequest};
use sgr_util::Xoshiro256pp;

/// Wraps a fallible command body: prints the typed error's diagnostic
/// (plus usage for usage mistakes) and returns its exit code.
fn run(
    argv: &[String],
    usage: &str,
    allowed: &[&str],
    body: impl FnOnce(&Opts) -> Result<(), CliError>,
) -> i32 {
    let opts = match Opts::parse(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            return 2;
        }
    };
    if opts.help {
        eprintln!("{usage}");
        return 0;
    }
    if let Err(e) = opts.ensure_only(allowed) {
        eprintln!("error: {e}\n{usage}");
        return 2;
    }
    match body(&opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{usage}");
            }
            e.exit_code()
        }
    }
}

fn load(path: &str) -> Result<Graph, CliError> {
    let (g, _) = read_edge_list_file(path).map_err(|e| CliError::io(path, e))?;
    Ok(g)
}

/// `--checkpoint-dir` / `--checkpoint-every` (shared by `restore` and
/// `resume`): `None` when checkpointing was not requested.
fn checkpoint_policy(o: &Opts) -> Result<Option<CheckpointPolicy>, CliError> {
    let Some(dir) = o.opt("checkpoint-dir") else {
        if o.opt("checkpoint-every").is_some() {
            return Err(CliError::Usage(
                "--checkpoint-every requires --checkpoint-dir".into(),
            ));
        }
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
    Ok(Some(CheckpointPolicy {
        dir: PathBuf::from(dir),
        every: o.get_or("checkpoint-every", 0u64)?,
        abort_after: None,
    }))
}

fn write_restored(r: &Restored, out: &str, verb: &str) -> Result<(), CliError> {
    write_edge_list_file(&r.graph, out).map_err(|e| CliError::io(out, e))?;
    eprintln!(
        "{verb} {out}: n = {}, m = {} (total {:.2}s, rewiring {:.2}s over {} candidates, \
         {} checkpoints, {:.2}s checkpoint I/O)",
        r.graph.num_nodes(),
        r.graph.num_edges(),
        r.stats.total_secs(),
        r.stats.rewire_secs,
        r.stats.candidate_edges,
        r.stats.checkpoints_written,
        r.stats.checkpoint_secs
    );
    Ok(())
}

/// The property options of `props`, `compare` and `dissim`. A zero pivot
/// count is refused: sampled paths and betweenness would average over no
/// sources at all.
fn props_cfg(opts: &Opts) -> Result<PropsConfig, String> {
    let d = PropsConfig::default();
    let num_pivots = opts.get_or("pivots", d.num_pivots)?;
    if num_pivots == 0 {
        return Err("--pivots must be at least 1".into());
    }
    Ok(PropsConfig {
        exact_threshold: opts.get_or("exact-threshold", d.exact_threshold)?,
        num_pivots,
        threads: opts.get_or("threads", d.threads)?,
        seed: opts.get_or("seed", d.seed)?,
    })
}

/// `sgr generate`.
pub fn generate(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr generate --model <hk|ba|er|ws|analogue> --out FILE
  hk:        --nodes N --m M --pt P
  ba:        --nodes N --m M
  er:        --nodes N --edges M
  ws:        --nodes N --k K --beta B
  analogue:  --dataset <anybeat|brightkite|epinions|slashdot|gowalla|livemocha|youtube> [--scale X]
  common:    --seed N";
    run(
        argv,
        USAGE,
        &[
            "model", "out", "nodes", "m", "pt", "edges", "k", "beta", "dataset", "scale", "seed",
        ],
        |o| {
            let mut rng = Xoshiro256pp::seed_from_u64(o.get_or("seed", 42u64)?);
            let model = o.req("model")?;
            let g = match model {
                "hk" => sgr_gen::holme_kim(
                    o.get_req("nodes")?,
                    o.get_req("m")?,
                    o.get_or("pt", 0.5)?,
                    &mut rng,
                )
                .map_err(|e| e.to_string())?,
                "ba" => sgr_gen::barabasi_albert(o.get_req("nodes")?, o.get_req("m")?, &mut rng)
                    .map_err(|e| e.to_string())?,
                "er" => {
                    sgr_gen::erdos_renyi_gnm(o.get_req("nodes")?, o.get_req("edges")?, &mut rng)
                        .map_err(|e| e.to_string())?
                }
                "ws" => sgr_gen::watts_strogatz(
                    o.get_req("nodes")?,
                    o.get_req("k")?,
                    o.get_or("beta", 0.1)?,
                    &mut rng,
                )
                .map_err(|e| e.to_string())?,
                "analogue" => {
                    let ds = parse_dataset(o.req("dataset")?)?;
                    ds.spec().scaled(o.get_or("scale", 1.0)?).generate(&mut rng)
                }
                other => return Err(format!("unknown model {other}").into()),
            };
            let out = o.req("out")?;
            write_edge_list_file(&g, out).map_err(|e| CliError::io(out, e))?;
            eprintln!("wrote {out}: n = {}, m = {}", g.num_nodes(), g.num_edges());
            Ok(())
        },
    )
}

fn parse_dataset(name: &str) -> Result<sgr_gen::Dataset, String> {
    use sgr_gen::Dataset::*;
    Ok(match name.to_ascii_lowercase().as_str() {
        "anybeat" => Anybeat,
        "brightkite" => Brightkite,
        "epinions" => Epinions,
        "slashdot" => Slashdot,
        "gowalla" => Gowalla,
        "livemocha" => Livemocha,
        "youtube" => YouTube,
        other => return Err(format!("unknown dataset {other}")),
    })
}

/// `--fraction` / `--walk` / `--k` / `--pf` as a [`CrawlSpec`] — the same
/// decoding `sgr submit` applies, so a submitted job and a local run
/// crawl identically.
fn crawl_spec(opts: &Opts) -> Result<CrawlSpec, String> {
    let walk_name = opts.opt("walk").unwrap_or("rw");
    let walk = WalkKind::from_name(walk_name).ok_or_else(|| format!("unknown walk {walk_name}"))?;
    Ok(CrawlSpec {
        walk,
        fraction: opts.get_or("fraction", 0.1)?,
        snowball_k: opts.get_or("k", 50usize)?,
        burn_prob: opts.get_or("pf", 0.7)?,
    })
}

fn do_crawl(g: &Graph, opts: &Opts, rng: &mut Xoshiro256pp) -> Result<Crawl, String> {
    let outcome = sgr_sample::run_crawl(g, &crawl_spec(opts)?, rng)?;
    eprintln!(
        "crawled {} nodes ({} queries, {:.1}% of the graph)",
        outcome.crawl.num_queried(),
        outcome.query_calls,
        100.0 * outcome.queried_fraction
    );
    Ok(outcome.crawl)
}

/// `sgr crawl`.
pub fn crawl(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr crawl --graph FILE --out FILE
  [--fraction F=0.1] [--walk rw|bfs|snowball|ff|nbrw|mhrw] [--k 50] [--pf 0.7] [--seed N]";
    run(
        argv,
        USAGE,
        &["graph", "out", "fraction", "walk", "k", "pf", "seed"],
        |o| {
            let g = load(o.req("graph")?)?;
            let mut rng = Xoshiro256pp::seed_from_u64(o.get_or("seed", 42u64)?);
            let crawl = do_crawl(&g, o, &mut rng)?;
            let sg = crawl.subgraph();
            let out = o.req("out")?;
            write_edge_list_file(&sg.graph, out).map_err(|e| CliError::io(out, e))?;
            eprintln!(
                "wrote {out}: subgraph with {} nodes ({} queried, {} visible), {} edges",
                sg.num_nodes(),
                sg.num_queried(),
                sg.num_visible(),
                sg.num_edges()
            );
            Ok(())
        },
    )
}

/// `sgr restore`.
pub fn restore(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr restore --graph FILE --out FILE
  [--fraction F=0.1] [--rc 500] [--no-rewire true] [--seed N]
  [--checkpoint-dir DIR] [--checkpoint-every ATTEMPTS]
  (--checkpoint-dir persists resumable state at every stage boundary —
   plus every ATTEMPTS rewiring attempts — for `sgr resume`)";
    run(
        argv,
        USAGE,
        &[
            "graph",
            "out",
            "fraction",
            "rc",
            "no-rewire",
            "seed",
            "checkpoint-dir",
            "checkpoint-every",
        ],
        |o| {
            let cfg = RestoreConfig {
                rewiring_coefficient: o.get_or("rc", 500.0)?,
                rewire: !o.get_or("no-rewire", false)?,
                ..RestoreConfig::default()
            };
            cfg.validate()
                .map_err(|e| CliError::Usage(format!("--rc: {e}")))?;
            let g = load(o.req("graph")?)?;
            let mut rng = Xoshiro256pp::seed_from_u64(o.get_or("seed", 42u64)?);
            let crawl = do_crawl(&g, o, &mut rng)?;
            let policy = checkpoint_policy(o)?;
            let r = sgr_core::run(&crawl, &cfg, &mut rng, policy.as_ref(), &mut NoopObserver)?;
            write_restored(&r, o.req("out")?, "wrote")
        },
    )
}

/// `sgr resume`.
pub fn resume(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr resume --checkpoint FILE --out FILE
  [--checkpoint-dir DIR] [--checkpoint-every ATTEMPTS]
  (continues an interrupted `sgr restore --checkpoint-dir ...` run; the
   output is bitwise-identical to the uninterrupted run.)";
    run(
        argv,
        USAGE,
        &["checkpoint", "out", "checkpoint-dir", "checkpoint-every"],
        |o| {
            let ckpt = o.req("checkpoint")?;
            let policy = checkpoint_policy(o)?;
            let r = sgr_core::resume(Path::new(ckpt), policy.as_ref(), &mut NoopObserver)?;
            write_restored(&r, o.req("out")?, "resumed and wrote")
        },
    )
}

/// `sgr serve`.
pub fn serve(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr serve --dir DIR [--listen ADDR=127.0.0.1:7070] [--workers N=2]
  [--memory-budget BYTES] [--max-frame-bytes BYTES] [--checkpoint-every N=0]
  (--resume-dir DIR is an alias for --dir; either way the server re-adopts
   every non-terminal job found under the state root on startup, resuming
   from each job's newest durable checkpoint. --checkpoint-every is the
   mid-rewire cadence, in attempts, for jobs that set none; 0 sizes it per
   job at 64 attempts per edge of the submitted graph. Runs until a
   shutdown request arrives over the wire.)";
    run(
        argv,
        USAGE,
        &[
            "dir",
            "resume-dir",
            "listen",
            "workers",
            "memory-budget",
            "max-frame-bytes",
            "checkpoint-every",
        ],
        |o| {
            let dir = match (o.opt("dir"), o.opt("resume-dir")) {
                (Some(_), Some(_)) => {
                    return Err(CliError::Usage(
                        "--dir and --resume-dir are aliases; give exactly one".into(),
                    ))
                }
                (Some(d), None) | (None, Some(d)) => d.to_string(),
                (None, None) => {
                    return Err(CliError::Usage(
                        "missing required option --dir (or --resume-dir)".into(),
                    ))
                }
            };
            let defaults = ServeConfig::default();
            let cfg = ServeConfig {
                addr: o.opt("listen").unwrap_or(&defaults.addr).to_string(),
                workers: o.get_or("workers", defaults.workers)?,
                dir: PathBuf::from(&dir),
                max_frame_bytes: o.get_or("max-frame-bytes", defaults.max_frame_bytes)?,
                memory_budget: o.get_or("memory-budget", defaults.memory_budget)?,
                default_checkpoint_every: o
                    .get_or("checkpoint-every", defaults.default_checkpoint_every)?,
            };
            let workers = cfg.workers.max(1);
            let handle = sgr_serve::start(cfg).map_err(|e| CliError::io(&dir, e))?;
            eprintln!(
                "sgr serve: listening on {} ({workers} workers, state root {dir})",
                handle.addr()
            );
            handle.join();
            eprintln!("sgr serve: shut down");
            Ok(())
        },
    )
}

/// Connects to the job server named by `--addr`.
fn connect(o: &Opts) -> Result<Client, CliError> {
    Ok(Client::connect(o.req("addr")?)?)
}

/// `sgr submit`.
pub fn submit(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr submit --addr HOST:PORT --graph FILE
  [--fraction F=0.1] [--walk rw|nbrw]
  [--rc 500] [--no-rewire true] [--seed N=42] [--tenant NAME]
  [--checkpoint-every N] [--abort-after N]
  (submits a crawl-and-restore job; the fetched result is byte-identical
   to `sgr restore` on the same inputs and seed. The job id is printed on
   stdout. The server refuses walks other than rw and nbrw: restoration
   weighs a crawl by degree. --checkpoint-every 0 (the default) takes the
   server's cadence. --abort-after is a fault-injection hook: simulate a
   crash after N checkpoints.)";
    run(
        argv,
        USAGE,
        &[
            "addr",
            "graph",
            "fraction",
            "walk",
            "rc",
            "no-rewire",
            "seed",
            "tenant",
            "checkpoint-every",
            "abort-after",
        ],
        |o| {
            let spec = crawl_spec(o)?;
            let path = o.req("graph")?;
            let edges = std::fs::read(path).map_err(|e| CliError::io(path, e))?;
            let req = SubmitRequest {
                tenant: o.opt("tenant").unwrap_or("").to_string(),
                walk_code: spec.walk.code(),
                fraction: spec.fraction,
                // Neither admitted walk reads these: they carry the
                // CrawlSpec defaults until the wire format drops them.
                snowball_k: spec.snowball_k as u64,
                burn_prob: spec.burn_prob,
                rewiring_coefficient: o.get_or("rc", 500.0)?,
                rewire: !o.get_or("no-rewire", false)?,
                threads: 1,
                seed: o.get_or("seed", 42u64)?,
                checkpoint_every: o.get_or("checkpoint-every", 0u64)?,
                abort_after: o.get_or("abort-after", 0u64)?,
                edges,
            };
            let id = connect(o)?.submit(&req)?;
            println!("{id}");
            eprintln!("submitted job {id}");
            Ok(())
        },
    )
}

fn print_status(s: &JobStatus) {
    let tenant = if s.tenant.is_empty() { "-" } else { &s.tenant };
    print!(
        "job {} tenant={tenant} state={} stage={} attempts={}/{} checkpoints={}",
        s.id,
        s.state.name(),
        if s.stage.is_empty() { "-" } else { &s.stage },
        s.attempts_done,
        s.attempts_total,
        s.checkpoints
    );
    if s.nodes > 0 {
        print!(" n={} m={}", s.nodes, s.edges);
    }
    if s.message.is_empty() {
        println!();
    } else {
        println!(" ({})", s.message);
    }
}

/// `sgr status`.
pub fn status(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr status --addr HOST:PORT [--job N]
  (one line per job: lifecycle state, pipeline stage, committed rewiring
   attempts, checkpoints; omit --job to list every job)";
    run(argv, USAGE, &["addr", "job"], |o| {
        let mut client = connect(o)?;
        match o.opt("job") {
            Some(_) => print_status(&client.status(o.get_req("job")?)?),
            None => {
                for s in client.list()? {
                    print_status(&s);
                }
            }
        }
        Ok(())
    })
}

/// `sgr fetch`.
pub fn fetch(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr fetch --addr HOST:PORT --job N --out FILE.sgrsnap [--edges FILE]
  (writes the completed job's restored graph as a CSR snapshot — the
   fetched bytes ARE the snapshot container, usable with `sgr load` —
   and optionally thaws it to an edge-list file)";
    run(argv, USAGE, &["addr", "job", "out", "edges"], |o| {
        let job: u64 = o.get_req("job")?;
        let out = o.req("out")?;
        let bytes = connect(o)?.fetch(job)?;
        std::fs::write(out, &bytes).map_err(|e| CliError::io(out, e))?;
        eprintln!("fetched job {job} -> {out} ({} bytes)", bytes.len());
        if let Some(edges) = o.opt("edges") {
            let csr = sgr_graph::snapshot::read_csr(out).map_err(|e| CliError::io(out, e))?;
            let g = csr.thaw();
            write_edge_list_file(&g, edges).map_err(|e| CliError::io(edges, e))?;
            eprintln!(
                "wrote {edges}: n = {}, m = {}",
                g.num_nodes(),
                g.num_edges()
            );
        }
        Ok(())
    })
}

/// `sgr props`.
pub fn props(argv: &[String]) -> i32 {
    const USAGE: &str =
        "sgr props --graph FILE [--exact-threshold N] [--pivots N] [--threads N=0] [--seed N]";
    run(
        argv,
        USAGE,
        &["graph", "exact-threshold", "pivots", "threads", "seed"],
        |o| {
            let g = load(o.req("graph")?)?.freeze();
            let p = StructuralProperties::compute(&g, &props_cfg(o)?);
            println!("n        {}", p.num_nodes);
            println!("k_avg    {:.4}", p.avg_degree);
            println!("c_avg    {:.4}", p.mean_clustering);
            println!("l_avg    {:.4}", p.avg_path_length);
            println!("l_max    {}", p.diameter);
            println!("lambda1  {:.4}", p.lambda1);
            println!("k_max    {}", p.degree_dist.len().saturating_sub(1));
            println!(
                "P(k) head: {:?}",
                &p.degree_dist[..p.degree_dist.len().min(8)]
                    .iter()
                    .map(|v| (v * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>()
            );
            Ok(())
        },
    )
}

/// `sgr compare`.
pub fn compare(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr compare --original FILE --generated FILE
  [--exact-threshold N] [--pivots N] [--threads N=0] [--seed N]";
    run(
        argv,
        USAGE,
        &[
            "original",
            "generated",
            "exact-threshold",
            "pivots",
            "threads",
            "seed",
        ],
        |o| {
            let orig = load(o.req("original")?)?.freeze();
            let gen = load(o.req("generated")?)?.freeze();
            let cfg = props_cfg(o)?;
            let po = StructuralProperties::compute(&orig, &cfg);
            let pg = StructuralProperties::compute(&gen, &cfg);
            let dists = po.l1_distances(&pg);
            println!("property\tL1");
            for (name, d) in PROPERTY_NAMES.iter().zip(dists) {
                println!("{name}\t{d:.4}");
            }
            let (mean, sd) = sgr_util::stats::mean_std(&dists);
            println!("average\t{mean:.4}");
            println!("sd\t{sd:.4}");
            Ok(())
        },
    )
}

/// `sgr dissim`.
pub fn dissim(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr dissim --original FILE --generated FILE
  [--exact-threshold N] [--pivots N] [--threads N=0] [--seed N]";
    run(
        argv,
        USAGE,
        &[
            "original",
            "generated",
            "exact-threshold",
            "pivots",
            "threads",
            "seed",
        ],
        |o| {
            let orig = load(o.req("original")?)?.freeze();
            let gen = load(o.req("generated")?)?.freeze();
            let d = sgr_props::dissimilarity::dissimilarity(&orig, &gen, &props_cfg(o)?);
            println!("{d:.6}");
            Ok(())
        },
    )
}

/// `sgr freeze` — cache a graph as an on-disk CSR snapshot.
pub fn freeze(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr freeze --graph FILE --out FILE.sgrsnap
  Freezes an edge-list graph into the versioned, checksummed CSR
  snapshot container (sgr_graph::snapshot). `sgr load` restores it.";
    run(argv, USAGE, &["graph", "out"], |o| {
        let g = load(o.req("graph")?)?;
        let out = o.req("out")?;
        let csr = g.freeze();
        sgr_graph::snapshot::write_csr(&csr, out).map_err(|e| CliError::io(out, e))?;
        eprintln!(
            "froze {out}: n = {}, m = {}",
            csr.num_nodes(),
            csr.num_edges()
        );
        Ok(())
    })
}

/// `sgr load` — thaw a CSR snapshot back into an edge-list file.
pub fn load_snapshot(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr load --snapshot FILE.sgrsnap --out FILE
  Loads a CSR snapshot written by `sgr freeze` (checksum and header
  validated) and writes the graph back out as an edge list.";
    run(argv, USAGE, &["snapshot", "out"], |o| {
        let path = o.req("snapshot")?;
        let csr = sgr_graph::snapshot::read_csr(path).map_err(|e| CliError::io(path, e))?;
        let g = csr.thaw();
        let out = o.req("out")?;
        write_edge_list_file(&g, out).map_err(|e| CliError::io(out, e))?;
        eprintln!(
            "loaded {path} -> {out}: n = {}, m = {}",
            g.num_nodes(),
            g.num_edges()
        );
        Ok(())
    })
}

/// `sgr render`.
pub fn render(argv: &[String]) -> i32 {
    const USAGE: &str = "sgr render --graph FILE --out FILE.svg";
    run(argv, USAGE, &["graph", "out"], |o| {
        let g = load(o.req("graph")?)?;
        let out = o.req("out")?;
        sgr_viz::write_svg(&g, out).map_err(|e| CliError::io(out, e))?;
        eprintln!("wrote {out}");
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sgr_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_crawl_restore_compare_roundtrip() {
        let g_path = tmp("g.edges");
        assert_eq!(
            generate(&argv(&[
                "--model", "hk", "--nodes", "400", "--m", "3", "--pt", "0.5", "--out", &g_path,
            ])),
            0
        );
        let sub_path = tmp("sub.edges");
        assert_eq!(
            crawl(&argv(&[
                "--graph",
                &g_path,
                "--fraction",
                "0.1",
                "--out",
                &sub_path,
            ])),
            0
        );
        let r_path = tmp("restored.edges");
        assert_eq!(
            restore(&argv(&[
                "--graph",
                &g_path,
                "--fraction",
                "0.1",
                "--rc",
                "3",
                "--out",
                &r_path,
            ])),
            0
        );
        assert_eq!(
            compare(&argv(&["--original", &g_path, "--generated", &r_path])),
            0
        );
        assert_eq!(
            dissim(&argv(&["--original", &g_path, "--generated", &r_path])),
            0
        );
        assert_eq!(props(&argv(&["--graph", &r_path])), 0);
        let svg_path = tmp("g.svg");
        assert_eq!(render(&argv(&["--graph", &g_path, "--out", &svg_path])), 0);
        assert!(std::fs::metadata(&svg_path).unwrap().len() > 100);
    }

    #[test]
    fn generate_all_models_and_analogues() {
        for (model, extra) in [
            ("ba", vec!["--nodes", "100", "--m", "2"]),
            ("er", vec!["--nodes", "100", "--edges", "200"]),
            ("ws", vec!["--nodes", "100", "--k", "3", "--beta", "0.1"]),
            ("analogue", vec!["--dataset", "anybeat", "--scale", "0.02"]),
        ] {
            let out = tmp(&format!("{model}.edges"));
            let mut a = vec!["--model", model, "--out", &out];
            a.extend(extra);
            assert_eq!(generate(&argv(&a)), 0, "model {model} failed");
        }
    }

    #[test]
    fn bad_input_returns_nonzero() {
        assert_ne!(
            generate(&argv(&["--model", "nosuch", "--out", "/dev/null"])),
            0
        );
        assert_ne!(crawl(&argv(&["--graph", "/nonexistent/file"])), 0);
        assert_ne!(props(&argv(&["--graph", "/nonexistent/file"])), 0);
        assert_ne!(generate(&argv(&["--unknown-flag", "x"])), 0);
        // --help exits 0 without doing work.
        assert_eq!(generate(&argv(&["--help"])), 0);
        assert_eq!(restore(&argv(&["-h"])), 0);
    }

    #[test]
    fn restore_rejects_an_invalid_rc_as_a_usage_error() {
        let g_path = tmp("rc_g.edges");
        assert_eq!(
            generate(&argv(&[
                "--model", "hk", "--nodes", "300", "--m", "3", "--pt", "0.5", "--out", &g_path,
            ])),
            0
        );
        let r_path = tmp("rc_restored.edges");
        // NaN and negative come first: without the check they exit 0
        // after zero rewiring attempts, while infinity would hang.
        for rc in ["nan", "-3", "inf"] {
            assert_eq!(
                restore(&argv(&[
                    "--graph",
                    &g_path,
                    "--rc",
                    rc,
                    "--out",
                    &r_path,
                    "--fraction",
                    "0.1",
                ])),
                2,
                "--rc {rc} was not a usage error"
            );
        }
    }

    #[test]
    fn restore_with_checkpoints_then_resume_reproduces_the_output() {
        let g_path = tmp("ckpt_g.edges");
        assert_eq!(
            generate(&argv(&[
                "--model", "hk", "--nodes", "400", "--m", "3", "--pt", "0.5", "--out", &g_path,
            ])),
            0
        );
        let ck_dir = tmp("ckpt_dir");
        let _ = std::fs::remove_dir_all(&ck_dir);
        let out_full = tmp("ckpt_full.edges");
        assert_eq!(
            restore(&argv(&[
                "--graph",
                &g_path,
                "--fraction",
                "0.1",
                "--rc",
                "3",
                "--out",
                &out_full,
                "--checkpoint-dir",
                &ck_dir,
                "--checkpoint-every",
                "500",
            ])),
            0
        );
        // Resume from the post-construction checkpoint: the rewiring is
        // replayed from the recorded RNG position, so the written edge
        // list is byte-for-byte the uninterrupted run's.
        let constructed = std::fs::read_dir(&ck_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.to_string_lossy().contains("constructed"))
            .expect("no constructed-stage checkpoint written");
        let out_resumed = tmp("ckpt_resumed.edges");
        assert_eq!(
            resume(&argv(&[
                "--checkpoint",
                constructed.to_str().unwrap(),
                "--out",
                &out_resumed,
            ])),
            0
        );
        assert_eq!(
            std::fs::read(&out_full).unwrap(),
            std::fs::read(&out_resumed).unwrap(),
            "resumed output differs from the uninterrupted run"
        );
    }

    #[test]
    fn freeze_load_roundtrip_preserves_the_graph() {
        let g_path = tmp("fl_g.edges");
        assert_eq!(
            generate(&argv(&[
                "--model", "hk", "--nodes", "400", "--m", "3", "--pt", "0.5", "--out", &g_path,
            ])),
            0
        );
        let snap_path = tmp("fl_g.sgrsnap");
        assert_eq!(freeze(&argv(&["--graph", &g_path, "--out", &snap_path])), 0);
        let thawed_path = tmp("fl_thawed.edges");
        assert_eq!(
            load_snapshot(&argv(&["--snapshot", &snap_path, "--out", &thawed_path])),
            0
        );
        // The edge-list reader relabels nodes by first appearance, so
        // byte equality is not the contract; the graph itself must
        // survive the round trip. Compare relabel-invariant structure:
        // the header (node/edge counts) and the sorted degree sequence.
        let header = |p: &str| {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(header(&g_path), header(&thawed_path));
        let degree_seq = |p: &str| {
            let (g, _) = read_edge_list_file(p).unwrap();
            let mut d: Vec<usize> = (0..g.num_nodes()).map(|u| g.degree(u as u32)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(
            degree_seq(&g_path),
            degree_seq(&thawed_path),
            "freeze/load round trip altered the degree sequence"
        );
        // A non-snapshot input fails with a diagnostic, not a panic.
        assert_eq!(
            load_snapshot(&argv(&["--snapshot", &g_path, "--out", "/dev/null"])),
            1
        );
    }

    #[test]
    fn resume_failures_are_clean_and_typed() {
        // Missing checkpoint file: diagnostic + exit 1, no panic.
        assert_eq!(
            resume(&argv(&[
                "--checkpoint",
                "/nonexistent/ckpt",
                "--out",
                "/dev/null"
            ])),
            1
        );
        // Corrupted checkpoint: flip a payload byte in a real checkpoint.
        let ck_dir = tmp("ckpt_corrupt_dir");
        let _ = std::fs::remove_dir_all(&ck_dir);
        let g_path = tmp("ckpt_corrupt_g.edges");
        generate(&argv(&[
            "--model", "hk", "--nodes", "300", "--m", "3", "--pt", "0.5", "--out", &g_path,
        ]));
        assert_eq!(
            restore(&argv(&[
                "--graph",
                &g_path,
                "--rc",
                "2",
                "--out",
                &tmp("ckpt_corrupt_out.edges"),
                "--checkpoint-dir",
                &ck_dir,
            ])),
            0
        );
        let ckpt = std::fs::read_dir(&ck_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .next()
            .unwrap();
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = 32 + (bytes.len() - 32) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ckpt, &bytes).unwrap();
        assert_eq!(
            resume(&argv(&[
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--out",
                "/dev/null"
            ])),
            1
        );
        // Usage mistakes exit 2.
        assert_eq!(
            restore(&argv(&[
                "--graph",
                &g_path,
                "--out",
                "/dev/null",
                "--checkpoint-every",
                "100",
            ])),
            2
        );
        // Missing input file: diagnostic + exit 1.
        assert_eq!(
            restore(&argv(&[
                "--graph",
                "/nonexistent/file",
                "--out",
                "/dev/null"
            ])),
            1
        );
    }

    #[test]
    fn dataset_names_parse() {
        for name in [
            "anybeat",
            "brightkite",
            "epinions",
            "slashdot",
            "gowalla",
            "livemocha",
            "youtube",
            "YouTube",
        ] {
            assert!(parse_dataset(name).is_ok(), "{name}");
        }
        assert!(parse_dataset("facebook").is_err());
    }

    #[test]
    fn alternate_walks_via_cli() {
        let g_path = tmp("walks.edges");
        generate(&argv(&[
            "--model", "hk", "--nodes", "300", "--m", "3", "--pt", "0.4", "--out", &g_path,
        ]));
        for walk in ["bfs", "snowball", "ff", "nbrw", "mhrw"] {
            let out = tmp(&format!("sub_{walk}.edges"));
            assert_eq!(
                crawl(&argv(&[
                    "--graph",
                    &g_path,
                    "--walk",
                    walk,
                    "--fraction",
                    "0.1",
                    "--out",
                    &out,
                ])),
                0,
                "walk {walk} failed"
            );
        }
    }
}
