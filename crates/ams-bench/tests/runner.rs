//! The `ams-bench` runner's exit codes.

use std::process::Command;

/// A run that cannot write its results exits 1 and names the path instead
/// of exiting 0 with nothing on disk. `results-smoke` is a regular file
/// here, so creating the directory fails even for root.
#[test]
fn an_unwritable_results_dir_exits_1_and_names_the_path() {
    let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("runner-unwritable");
    std::fs::create_dir_all(&cwd).unwrap();
    std::fs::write(cwd.join("results-smoke"), "").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ams-bench"))
        .args(["--smoke", "table1_zoo"])
        .current_dir(&cwd)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("results-smoke/table1_zoo.txt"), "{stderr}");
}
