//! The `mqo_cli` binary as a process: each subcommand accepts only the
//! flags its usage line lists, and any other flag is a usage error (exit
//! status 2) instead of being silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mqo_cli"))
        .args(args)
        .output()
        .expect("run mqo_cli")
}

/// Asserts a usage error: exit status 2 and `message` on stderr.
fn assert_usage_error(output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "expected {message:?} in {stderr:?}"
    );
}

/// A small random instance written by `mqo_cli generate`.
fn instance(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let path_str = path.to_str().expect("UTF-8 temp path");
    let output = run(&[
        "generate",
        "--kind",
        "random",
        "--queries",
        "4",
        "--plans",
        "2",
        "--seed",
        "3",
        "--out",
        path_str,
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    path
}

#[test]
fn unknown_and_removed_flags_are_rejected() {
    let path = instance("unknown_flags.json");
    let file = path.to_str().unwrap();
    let misspelt = run(&["solve", file, "--algo", "climb", "--reeds", "5"]);
    assert_usage_error(&misspelt, "unknown flag --reeds");
    let removed = run(&[
        "solve",
        file,
        "--algo",
        "qa",
        "--graph",
        "2x2",
        "--reads",
        "20",
        "--fault-rate",
        "0.5",
    ]);
    assert_usage_error(&removed, "unknown flag --fault-rate");
    // `qa` embeds the way the server does; the heuristic-only mode is gone.
    let sparse = run(&["solve", file, "--algo", "qa-sparse", "--graph", "2x2"]);
    assert_usage_error(&sparse, "unknown algorithm qa-sparse");
    // Flags belong to their subcommand: `--algo` means nothing to generate.
    let foreign = run(&["generate", "--kind", "random", "--algo", "qa"]);
    assert_usage_error(&foreign, "unknown flag --algo");
    assert!(misspelt.stdout.is_empty() && removed.stdout.is_empty() && sparse.stdout.is_empty());
}

#[test]
fn a_valid_solve_still_answers() {
    let path = instance("valid_solve.json");
    let output = run(&[
        "solve",
        path.to_str().unwrap(),
        "--algo",
        "climb",
        "--budget-ms",
        "50",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let answer: serde_json::Value = serde_json::from_str(stdout.trim()).expect("JSON answer");
    assert_eq!(answer["algorithm"], "climb");
    assert!(answer["cost"].is_number(), "{answer}");
}
