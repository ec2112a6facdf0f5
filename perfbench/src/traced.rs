//! The parts of a traced run that both workload kinds share.

use sgr_graph::Graph;
use sgr_sample::Crawl;
use sgr_util::Xoshiro256pp;

use crate::inputs::{graph_hash, parse, props_bits, props_cfg};
use crate::layers::{
    parallel_probe, push_props_metrics, staged_props, staged_restore, trace_summary,
};
use crate::report::Report;

/// What the traced replay must reproduce.
pub struct Untraced {
    pub hash: u64,
    pub props: Vec<u64>,
    pub restore_s: f64,
}

/// Replays the restoration stage by stage and its analysis kernel by
/// kernel, each checked bit for bit against the untraced run, then runs
/// the parallel-engine probe from the replay's rewiring start.
pub fn replay(
    crawl: &Crawl,
    rc: f64,
    mut rng: Xoshiro256pp,
    pivots: usize,
    untraced: &Untraced,
    r: &mut Report,
) {
    let staged =
        staged_restore(crawl, rc, &mut rng, &mut r.tracer, &mut r.per_layer).and_then(|st| {
            match graph_hash(&st.snapshot) == untraced.hash {
                true => Ok(st),
                false => Err("staged replay differs from the untraced restore".into()),
            }
        });
    let Some(st) = r.check("staged replay", staged) else {
        return;
    };
    let series = trace_summary(&st, untraced.restore_s, &mut r.per_layer);
    r.info.push(("rewire_trace", series));
    let props = staged_props(&st.snapshot, &props_cfg(pivots), &mut r.tracer);
    push_props_metrics(&r.tracer, &mut r.per_layer);
    let same = match props_bits(&props) == untraced.props {
        true => Ok(()),
        false => Err("staged analysis differs from StructuralProperties::compute".to_string()),
    };
    r.check("staged analysis", same);
    if let Some(start) = st.rewire_start {
        let probe = parallel_probe(start, &mut r.per_layer);
        r.check("parallel probe", probe);
    }
}

/// Parses the uploaded edge list as the job server does (`io.parse_s`);
/// fails unless it yields the hidden graph.
pub fn parse_upload(blob: &[u8], hidden: &Graph, r: &mut Report) {
    let parsed = r.tracer.time("io.parse", || parse(blob));
    r.per_layer
        .push("io.parse_s", r.tracer.total("io.parse"), "s");
    let same = parsed.and_then(
        |g| match graph_hash(&g.freeze()) == graph_hash(&hidden.freeze()) {
            true => Ok(()),
            false => Err("the uploaded edge list does not parse to the hidden graph".to_string()),
        },
    );
    r.check("upload parse", same);
}
