//! The property verbs take no traversal-engine option: every property
//! computation runs on the one BFS engine, so `--bfs-engine` is an
//! unknown option like any other and is refused as a usage error.

use std::process::Command;

fn sgr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sgr"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn bfs_engine_flag_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("sgr-cli-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.el");
    let graph = graph.to_str().unwrap();
    let gen = sgr(&[
        "generate", "--model", "hk", "--nodes", "200", "--m", "3", "--out", graph,
    ]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    // The same graph analyzes fine without the flag, so the refusal below
    // is the flag's alone.
    assert!(sgr(&["props", "--graph", graph]).status.success());

    for verb_args in [
        vec!["props", "--graph", graph],
        vec!["compare", "--original", graph, "--generated", graph],
        vec!["dissim", "--original", graph, "--generated", graph],
    ] {
        let mut args = verb_args.clone();
        args.extend(["--bfs-engine", "reference"]);
        let out = sgr(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown option --bfs-engine"),
            "{args:?}: {stderr}"
        );
        let usage = format!("sgr {} --", verb_args[0]);
        assert!(
            stderr.contains(&usage),
            "{args:?} printed no usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
    std::fs::remove_dir_all(&dir).ok();
}
