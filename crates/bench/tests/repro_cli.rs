//! `repro` refuses arguments it cannot run: each refusal prints the usage
//! line and exits with code 2 before any work starts.

use std::process::Command;

fn refuses(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--out", "/nonexistent/repro-cli-test"])
        .output()
        .expect("cannot start repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: repro --artifact"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} started work");
}

#[test]
fn zero_runs_are_refused() {
    refuses(&["--artifact", "table2", "--runs", "0"]);
    refuses(&["--artifact", "table3", "--runs", "0"]);
}

#[test]
fn an_unknown_or_missing_artifact_is_refused() {
    refuses(&["--artifact", "table6"]);
    refuses(&["--runs", "1"]);
}

#[test]
fn malformed_options_are_refused() {
    refuses(&["--artifact", "table2", "--runs", "many"]);
    refuses(&["--artifact", "table2", "--bogus", "1"]);
    refuses(&["--artifact", "table2", "--runs"]);
}
