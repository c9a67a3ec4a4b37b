//! Argument handling of the `mqo_serve` and `mqo_router` binaries: the
//! flag set each one accepts, and the typed exit code 2 for bad command
//! lines. Every case fails during parsing, before anything binds or spawns.

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
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

/// Every `--flag` token `--help` prints.
fn help_flags(bin: &str) -> BTreeSet<String> {
    let output = run(bin, &["--help"]);
    assert_eq!(output.status.code(), Some(0));
    String::from_utf8_lossy(&output.stdout)
        .split_whitespace()
        .filter(|token| token.starts_with("--"))
        .map(str::to_string)
        .collect()
}

fn set(flags: &[&str]) -> BTreeSet<String> {
    flags.iter().map(|flag| flag.to_string()).collect()
}

#[test]
fn help_lists_exactly_the_accepted_flags() {
    assert_eq!(
        help_flags(env!("CARGO_BIN_EXE_mqo_serve")),
        set(&[
            "--addr",
            "--small",
            "--reads",
            "--gauges",
            "--cache-capacity",
            "--breaker-threshold",
            "--chaos-seed",
            "--chaos-panic-rate",
            "--chaos-kill-rate",
            "--chaos-backend-failure-rate",
            "--chaos-corruption-rate",
            "--packing",
            "--max-tenants",
        ])
    );
    assert_eq!(
        help_flags(env!("CARGO_BIN_EXE_mqo_router")),
        set(&[
            "--cells",
            "--addr",
            "--breaker-threshold",
            "--breaker-open-ms",
            "--supervise",
            "--supervise-cell",
            "--backoff-initial-ms",
            "--backoff-max-ms",
            "--chaos-kill-seed",
            "--chaos-kills",
            "--chaos-kill-min-ms",
            "--chaos-kill-max-ms",
        ])
    );
}

#[test]
fn removed_flags_are_unknown() {
    let serve = run(env!("CARGO_BIN_EXE_mqo_serve"), &["--accept-shards", "2"]);
    assert_usage_error(&serve, "unknown flag --accept-shards");
    let router = run(
        env!("CARGO_BIN_EXE_mqo_router"),
        &["--cells", "127.0.0.1:1", "--epsilon", "0.5"],
    );
    assert_usage_error(&router, "unknown flag --epsilon");
}

#[test]
fn supervise_cell_needs_supervise_and_an_index_in_range() {
    let router = env!("CARGO_BIN_EXE_mqo_router");
    let cells = "127.0.0.1:1,127.0.0.1:2";
    let unsupervised = run(router, &["--cells", cells, "--supervise-cell", "0:cell"]);
    assert_usage_error(&unsupervised, "--supervise-cell requires --supervise");
    let out_of_range = run(
        router,
        &[
            "--cells",
            cells,
            "--supervise",
            "cell --addr {addr}",
            "--supervise-cell",
            "2:cell",
        ],
    );
    assert_usage_error(&out_of_range, "--supervise-cell index 2 out of range");
}
