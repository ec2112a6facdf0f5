//! End-to-end determinism through the real binary: a job submitted with
//! `sgr submit` and downloaded with `sgr fetch --edges` must be
//! byte-for-byte identical to `sgr restore` run locally on the same
//! graph, parameters, and seed — the served pipeline is the local
//! pipeline, not an approximation of it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn sgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sgr"))
}

fn run_ok(args: &[&str]) -> String {
    let out = sgr().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "sgr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgr-cli-serve-{}-{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn p(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Spawns `sgr serve` on an ephemeral port and scrapes the bound address
/// from its startup line.
fn spawn_server(state_dir: &Path) -> (Child, String) {
    let mut child = sgr()
        .args([
            "serve",
            "--dir",
            p(state_dir),
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("sgr serve: listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn served_job_bytes_match_local_sgr_restore() {
    let dir = tmp("e2e");
    let graph = dir.join("g.edges");
    let local = dir.join("local.edges");
    let fetched_snap = dir.join("fetched.sgrsnap");
    let fetched_edges = dir.join("fetched.edges");

    run_ok(&[
        "generate",
        "--model",
        "hk",
        "--nodes",
        "300",
        "--m",
        "4",
        "--pt",
        "0.5",
        "--seed",
        "31",
        "--out",
        p(&graph),
    ]);
    run_ok(&[
        "restore",
        "--graph",
        p(&graph),
        "--fraction",
        "0.1",
        "--rc",
        "10",
        "--seed",
        "7",
        "--out",
        p(&local),
    ]);

    let (mut child, addr) = spawn_server(&dir.join("jobs"));
    let id = run_ok(&[
        "submit",
        "--addr",
        &addr,
        "--graph",
        p(&graph),
        "--fraction",
        "0.1",
        "--rc",
        "10",
        "--seed",
        "7",
    ]);
    let id = id.trim().to_string();

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = run_ok(&["status", "--addr", &addr, "--job", &id]);
        if status.contains("state=completed") {
            break;
        }
        assert!(
            !status.contains("state=failed") && Instant::now() < deadline,
            "job never completed: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    run_ok(&[
        "fetch",
        "--addr",
        &addr,
        "--job",
        &id,
        "--out",
        p(&fetched_snap),
        "--edges",
        p(&fetched_edges),
    ]);
    assert_eq!(
        std::fs::read(&fetched_edges).unwrap(),
        std::fs::read(&local).unwrap(),
        "served restoration must be byte-identical to local `sgr restore`"
    );

    sgr_serve::Client::connect(&addr)
        .unwrap()
        .shutdown_server()
        .unwrap();
    let status = child.wait().unwrap();
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_refuses_the_snowball_and_forest_fire_options() {
    // The server admits only rw and nbrw, which read neither --k nor
    // --pf, so `sgr submit` does not take them. The option check runs
    // before any file is read or connection made.
    for opt in ["--k", "--pf"] {
        let out = sgr()
            .args([
                "submit",
                "--addr",
                "127.0.0.1:9",
                "--graph",
                "g.edges",
                opt,
                "10",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{opt}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {opt}")),
            "{opt}: {stderr}"
        );
    }
}
