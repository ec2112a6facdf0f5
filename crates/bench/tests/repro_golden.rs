//! Fixed-seed goldens of every `repro` artifact at a small scale.
//!
//! Each test runs one artifact in-process and checks an FNV-1a checksum
//! of its output with the timing columns masked: every column of
//! `table4` after `dataset`, `table5`'s `time_sec` and the ablation's
//! `*_sec` columns. `fig4` is checked over `summary.tsv` and its seven
//! SVGs. The constants were taken from the seven per-artifact binaries
//! that `repro` replaced, so a pass shows that `repro` writes their
//! bytes. One cell is new on purpose: the ablation's R_C = 0 row now runs
//! the rewiring stage with no attempts and reports the constructed
//! graph's D, where the old binary printed 0; it is pinned on its own.

use sgr_bench::repro::{Args, ARTIFACTS};
use std::path::PathBuf;

/// FNV-1a, 64-bit.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `text` with every timing cell replaced by `*`. A header is the first
/// line after the start, a blank line or a `#` line; a column is timing
/// if its header ends in `_sec`, or for `table4`, if it is not the first.
fn masked(artifact: &str, text: &str) -> String {
    let mut timing: Option<Vec<bool>> = None;
    let lines: Vec<String> = text
        .split('\n')
        .map(|line| {
            if line.is_empty() || line.starts_with('#') {
                timing = None;
                return line.to_string();
            }
            let Some(mask) = &timing else {
                let mask = line
                    .split('\t')
                    .enumerate()
                    .map(|(i, c)| (artifact == "table4" && i > 0) || c.ends_with("_sec"))
                    .collect();
                timing = Some(mask);
                return line.to_string();
            };
            let cells: Vec<&str> = line
                .split('\t')
                .enumerate()
                .map(|(i, c)| if mask.get(i) == Some(&true) { "*" } else { c })
                .collect();
            cells.join("\t")
        })
        .collect();
    lines.join("\n")
}

/// Runs `artifact` into a fresh directory and returns that directory.
fn run(artifact: &str) -> PathBuf {
    let out_dir = std::env::temp_dir().join(format!(
        "sgr_repro_golden_{artifact}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out_dir);
    let args = Args {
        runs: 2,
        rc: 2.0,
        scale: 0.1,
        out_dir: out_dir.clone(),
        ..Args::default()
    };
    let (_, f) = ARTIFACTS
        .iter()
        .find(|(name, _)| *name == artifact)
        .unwrap();
    f(&args);
    out_dir
}

/// The masked `<artifact>.tsv` of a fresh run.
fn masked_output(artifact: &str) -> String {
    let dir = run(artifact);
    let text = std::fs::read_to_string(dir.join(format!("{artifact}.tsv"))).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    masked(artifact, &text)
}

fn check_text(artifact: &str, text: &str, want: u64) {
    let got = fnv1a(FNV_OFFSET, text.as_bytes());
    assert_eq!(
        got, want,
        "{artifact} output changed ({got:#018x}):\n{text}"
    );
}

fn check(artifact: &str, want: u64) {
    check_text(artifact, &masked_output(artifact), want);
}

#[test]
fn table2() {
    check("table2", 0x06d0_1969_0b28_bd63);
}

#[test]
fn table3() {
    check("table3", 0x2d01_4116_c60e_6e3a);
}

#[test]
fn table4() {
    check("table4", 0x0bfb_12cc_87e7_fc39);
}

#[test]
fn table5() {
    check("table5", 0x1a86_fd64_93c6_86b7);
}

#[test]
fn fig3() {
    check("fig3", 0x0254_c249_a667_afd4);
}

#[test]
fn fig4() {
    let dir = run("fig4").join("fig4");
    let mut h = FNV_OFFSET;
    for file in [
        "summary.tsv",
        "original.svg",
        "BFS.svg",
        "Snowball.svg",
        "FF.svg",
        "RW.svg",
        "Gjoka_et_al_.svg",
        "Proposed.svg",
    ] {
        h = fnv1a(h, &std::fs::read(dir.join(file)).unwrap());
    }
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    assert_eq!(h, 0x98cb_fa62_d86c_aaf6, "fig4 output changed ({h:#018x})");
}

#[test]
fn ablation() {
    let text = masked_output("ablation");
    // The R_C = 0 row of the sweep: rc, total_sec, rewire_sec, D_final,
    // avg_L1. With the old 0 put back, the output is the old binary's.
    let row = text.lines().find(|l| l.starts_with("0\t")).unwrap();
    let mut cells: Vec<&str> = row.split('\t').collect();
    assert_eq!(
        cells[3], "0.9949",
        "R_C = 0 must report the constructed graph's D"
    );
    cells[3] = "0.0000";
    let old = text.replace(row, &cells.join("\t"));
    check_text("ablation", &old, 0x51ee_3159_d632_468a);
}
