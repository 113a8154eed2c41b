//! End-to-end tests of the real `pdw` binary (`CARGO_BIN_EXE_pdw`): exit
//! codes and error lines for user input the command line must refuse
//! without a panic.

use std::process::{Command, Output};

fn pdw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdw"))
        .args(args)
        .output()
        .expect("run pdw")
}

/// Asserts `pdw` failed with exit code 1 and an error line that contains
/// `needle`, and did not panic (a panic exits 101).
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("pdw: ") && first.contains(needle),
        "first stderr line {first:?} should name {needle:?}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn serve_refuses_a_memo_path_it_cannot_open_in_both_modes() {
    let path = missing_memo_path();
    let replay = pdw(&["serve", "--requests", "5", "--memo-path", &path]);
    assert_refused(&replay, &path);
    // The store opens before the socket binds, so no listener is left
    // behind either.
    let listen = pdw(&["serve", "--listen", "127.0.0.1:0", "--memo-path", &path]);
    assert_refused(&listen, &path);
}

/// A path under a directory that does not exist, unique to this process.
fn missing_memo_path() -> String {
    std::env::temp_dir()
        .join(format!("pdw-cli-{}-no-such-dir", std::process::id()))
        .join("memo.log")
        .to_str()
        .expect("utf-8 temp path")
        .to_string()
}

#[test]
fn a_runtime_error_prints_one_line_and_no_usage() {
    let path = missing_memo_path();
    let out = pdw(&["serve", "--requests", "5", "--memo-path", &path]);
    assert_refused(&out, &path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn an_unknown_command_prints_the_usage() {
    let out = pdw(&["wibble"]);
    assert_refused(&out, "unknown command `wibble`");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_stderr_still_exits_1() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let path = missing_memo_path();
    let out = Command::new(env!("CARGO_BIN_EXE_pdw"))
        .args(["serve", "--memo-path", &path])
        .stderr(full)
        .output()
        .expect("run pdw");
    assert_eq!(out.status.code(), Some(1), "a failed error write panics");
}

#[test]
fn region_worker_command_and_flags_are_gone() {
    assert_refused(&pdw(&["worker"]), "unknown command `worker`");
    let out = pdw(&["run", "demo", "--partitions", "2", "--subprocess", "1"]);
    assert_refused(&out, "unknown option `--subprocess`");
}

#[test]
fn partitioned_run_serves_from_the_partitioned_rung() {
    let out = pdw(&["run", "demo", "--partitions", "2", "--no-ilp", "--validate"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("ladder: partitioned served"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("validate: both schedules physically valid and oracle-clean"),
        "stdout: {stdout}"
    );
}
