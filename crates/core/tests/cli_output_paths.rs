//! CLI tests for `das_experiment run`/`replay` output paths: a path whose
//! parent directory does not exist is rejected before any simulation
//! runs, and nothing is written.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn das_experiment(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_das_experiment"))
        .args(args)
        .output()
        .expect("spawn das_experiment")
}

/// A scratch dir under the temp root, cleaned on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("das_cli_output_paths").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The small two-policy config the CI record/replay smoke uses.
fn smoke_config() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/ci/replay_smoke.config.json")
        .to_str()
        .unwrap()
        .to_owned()
}

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
}

/// Exit 1 with the offending path on stderr and no report on stdout (the
/// report is printed only after the simulations).
fn assert_rejected_early(out: &Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(path.to_str().unwrap()), "stderr: {stderr}");
    assert!(
        !stderr.contains("running `") && !stderr.contains("replaying"),
        "simulation started: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "report printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn run_rejects_missing_output_directories_before_simulating() {
    let dir = scratch("run");
    let config = smoke_config();
    let missing = dir.join("missing_dir");
    let workload = dir.join("workload.jsonl");
    for (flag, bad) in [
        ("--trace", missing.join("x")),
        ("--out", missing.join("summaries")),
        ("--record-workload", missing.join("w.jsonl")),
    ] {
        // A valid --record-workload rides along: it must not be written
        // either, because the run never starts.
        let mut args = vec!["run", config.as_str(), flag, bad.to_str().unwrap()];
        if flag != "--record-workload" {
            args.extend(["--record-workload", workload.to_str().unwrap()]);
        }
        let out = das_experiment(&args);
        assert_rejected_early(&out, &bad);
        assert!(
            files_under(&dir).is_empty(),
            "{flag}: {:?}",
            files_under(&dir)
        );
    }
}

#[test]
fn replay_rejects_missing_output_directories_before_simulating() {
    let dir = scratch("replay");
    let config = smoke_config();
    let workload = dir.join("workload.jsonl");
    let out = das_experiment(&["trace", config.as_str(), workload.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let missing = dir.join("missing_dir");
    for (flag, bad) in [
        ("--trace", missing.join("x")),
        ("--out", missing.join("summaries")),
    ] {
        let out = das_experiment(&[
            "replay",
            config.as_str(),
            workload.to_str().unwrap(),
            flag,
            bad.to_str().unwrap(),
        ]);
        assert_rejected_early(&out, &bad);
        assert_eq!(files_under(&dir), vec![workload.clone()], "{flag}");
    }
}
