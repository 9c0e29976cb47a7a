//! The experiment CLI must fail when it cannot write its outputs: CI
//! compares the files it writes against the committed copies, so a run
//! that reports a write error and still exits 0 lets stale files pass.

use std::process::Command;

#[test]
fn unwritable_results_dir_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("nvsim_cli_exit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // A regular file where the `results/` directory should go.
    std::fs::write(dir.join("results"), b"not a directory").expect("create blocker file");

    let out = Command::new(env!("CARGO_BIN_EXE_nvsim-bench"))
        .args(["tab4", "--jobs", "1"])
        .current_dir(&dir)
        .output()
        .expect("run nvsim-bench");
    std::fs::remove_dir_all(&dir).ok();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a failed results write must exit 1; stderr:\n{stderr}"
    );
    assert!(stderr.contains("could not write"), "stderr:\n{stderr}");
}
