//! `mroam-served` refuses command lines it would otherwise misread: an
//! unknown `--key` (a misspelt or retired flag) and a `--wal-sync` other
//! than `record` both exit 2 before the daemon builds or binds anything,
//! and stderr names the offending key or value.

use std::process::{Command, Stdio};

/// Runs the daemon with `args`; returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mroam-served"))
        .args(args)
        .stdout(Stdio::null())
        .output()
        .expect("run mroam-served");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_keys_exit_2_and_are_named() {
    let (code, stderr) = run(&["--addr", "127.0.0.1:0", "--shards", "4"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--shards"), "stderr: {stderr}");
    assert!(
        stderr.contains("--wal-sync"),
        "lists accepted keys: {stderr}"
    );
}

#[test]
fn only_the_record_sync_rule_is_accepted() {
    let dir = std::env::temp_dir().join(format!("mroam-cli-refusals-{}", std::process::id()));
    for policy in ["batch", "interval:5"] {
        let (code, stderr) = run(&[
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            dir.to_str().unwrap(),
            "--wal-sync",
            policy,
        ]);
        assert_eq!(code, Some(2), "{policy}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("bad --wal-sync {policy:?}")),
            "{policy}: stderr: {stderr}"
        );
    }
    assert!(!dir.exists(), "a refused command line touches no disk");
}
