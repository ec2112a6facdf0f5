//! What one run collects, and the set-up phase every workload shares.

use std::time::Instant;

use sgr_graph::snapshot::checksum;
use sgr_graph::Graph;
use sgr_props::StructuralProperties;
use sgr_sample::CrawlOutcome;
use sgr_util::Xoshiro256pp;

use crate::inputs::{crawl, data_dir, Hidden, CRAWL_SEED};
use crate::layers::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// The set-up is repeated at least `SETUP_REPS.0` times, and on until it
/// has taken a second or `SETUP_REPS.1` repetitions; `setup_s` is the
/// median.
const SETUP_REPS: (usize, usize) = (3, 200);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's self-test.
    pub toy: bool,
    /// Damage the first output before it is checked, for the self-test.
    pub corrupt: bool,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Extra fields of the results file, as encoded JSON values.
    pub info: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

impl Report {
    pub fn new(origin: Instant) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            end_to_end: Metrics::default(),
            per_layer: Metrics::default(),
            info: Vec::new(),
            tracer: Tracer::new(origin),
        }
    }

    /// Counts one operation; a failure is logged and yields no timing.
    pub fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}

/// The hidden graph, its crawl, and its properties.
pub struct Setup {
    pub graph: Graph,
    pub crawl: CrawlOutcome,
    /// The generator after the crawl: what `sgr restore` and the job
    /// server continue the restoration with.
    pub rng: Xoshiro256pp,
    pub hidden_props: StructuralProperties,
}

/// Loads the hidden graph and its properties and crawls it, repeatedly
/// (see [`SETUP_REPS`]); reports the median as `setup_s`. Both caches are
/// filled beforehand, so every timed repetition loads them.
pub fn setup(hidden: Hidden, fraction: f64, pivots: usize, r: &mut Report) -> Setup {
    let (graph, regenerated) = hidden.load();
    let (_, recomputed) = hidden.props(&graph, pivots);
    drop(graph);
    r.info
        .push(("regenerated", (regenerated || recomputed).to_string()));
    let mut samples = Vec::new();
    let mut last: Option<Setup> = None;
    let started = Instant::now();
    while samples.len() < SETUP_REPS.0
        || (samples.len() < SETUP_REPS.1 && started.elapsed().as_secs_f64() < 1.0)
    {
        // Free the previous repetition's graphs before building the next.
        drop(last.take());
        let t = &mut r.tracer;
        let root = t.enter("setup");
        let (graph, _) = t.time("hidden.load", || hidden.load());
        let (crawl, rng) = t.time("sample.crawl", || crawl(&graph, fraction, CRAWL_SEED));
        let (hidden_props, _) = t.time("hidden.props", || hidden.props(&graph, pivots));
        samples.push(t.exit(root));
        last = Some(Setup {
            graph,
            crawl,
            rng,
            hidden_props,
        });
    }
    let s = last.expect("at least one set-up repetition");
    r.end_to_end.push("setup_s", median(&samples), "s");
    r.per_layer.push(
        "sample.crawl_s",
        median(&r.tracer.durations("sample.crawl")),
        "s",
    );
    r.per_layer.push(
        "sample.queried",
        s.crawl.crawl.num_queried() as f64,
        "count",
    );
    s
}

/// Fails when an earlier run of the same build, workload and seed left a
/// different output hash; otherwise records this one.
pub fn check_repeatable(key: &str, hash: u64) -> Result<(), String> {
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| checksum(&bytes))
        .map_err(|e| format!("cannot fingerprint the benchmark binary: {e}"))?;
    let dir = data_dir("hashes");
    let path = dir.join(format!("{key}-{build:016x}"));
    let ours = format!("{hash:016x}");
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == ours => Ok(()),
        Ok(earlier) => Err(format!(
            "output hash {ours} differs from {} of an earlier run of the same seed",
            earlier.trim()
        )),
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, ours))
            .map_err(|e| format!("cannot record the output hash: {e}")),
    }
}
