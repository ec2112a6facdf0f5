//! Usage errors of the property verbs `props`, `compare` and `dissim`.
//!
//! They take no traversal-engine option: every property computation runs
//! on the one BFS engine, so `--bfs-engine` is an unknown option like any
//! other. A zero `--pivots` is refused too: sampled shortest paths and
//! betweenness would average over no sources.

use std::process::Command;

fn sgr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sgr"))
        .args(args)
        .output()
        .unwrap()
}

/// Writes a 200-node Holme–Kim graph and checks that each verb analyzes
/// it without error; returns the scratch directory and the graph path.
fn sample_graph(tag: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("sgr-cli-props-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.el").to_str().unwrap().to_string();
    let gen = sgr(&[
        "generate", "--model", "hk", "--nodes", "200", "--m", "3", "--out", &graph,
    ]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    (dir, graph)
}

/// Runs each property verb on `graph` with `extra` appended and asserts a
/// usage error (exit 2, no results, the verb's usage) whose diagnostic
/// contains `diagnostic`. Each verb must succeed without `extra`, so the
/// refusal is `extra`'s alone.
fn assert_usage_error(graph: &str, extra: &[&str], diagnostic: &str) {
    for verb_args in [
        vec!["props", "--graph", graph],
        vec!["compare", "--original", graph, "--generated", graph],
        vec!["dissim", "--original", graph, "--generated", graph],
    ] {
        assert!(sgr(&verb_args).status.success(), "{verb_args:?}");
        let mut args = verb_args.clone();
        args.extend(extra);
        let out = sgr(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(diagnostic), "{args:?}: {stderr}");
        let usage = format!("sgr {} --", verb_args[0]);
        assert!(
            stderr.contains(&usage),
            "{args:?} printed no usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
}

#[test]
fn bfs_engine_flag_is_a_usage_error() {
    let (dir, graph) = sample_graph("engine");
    assert_usage_error(
        &graph,
        &["--bfs-engine", "reference"],
        "unknown option --bfs-engine",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Sampled mode (`--exact-threshold 0`) is where the pivots are used, and
/// exact mode refuses the same value so that a flag's validity does not
/// depend on the graph's size.
#[test]
fn zero_pivots_is_a_usage_error() {
    let (dir, graph) = sample_graph("pivots");
    for mode in [&["--exact-threshold", "0"][..], &[]] {
        let mut extra = mode.to_vec();
        extra.extend(["--pivots", "0"]);
        assert_usage_error(&graph, &extra, "--pivots must be at least 1");
    }
    std::fs::remove_dir_all(&dir).ok();
}
