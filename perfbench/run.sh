#!/usr/bin/env bash
# Builds the serving binaries and the benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Cargo output goes to stderr; the last line
# of stdout is the result JSON. Build outputs land in $CARGO_TARGET_DIR
# (default .bench_build), run logs, records and spans under
# $CARGO_TARGET_DIR/perfbench-out.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline -q --manifest-path Cargo.toml \
    -p mqo-service --bin mqo_serve --bin mqo_router >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml --bin load >&2
for arg in "$@"; do
    if [[ "$arg" == "--trace" ]]; then
        trace_next=1
    elif [[ "${trace_next:-}" == 1 ]]; then
        trace_next=
        # Only the traced run needs the staged replay.
        if [[ "$arg" == 1 ]]; then
            cargo build --release --offline -q --manifest-path perfbench/Cargo.toml --bin stages >&2
        fi
    fi
done

exec "$target/release/load" \
    --bin-dir "$target/release" --out-dir "$target/perfbench-out" "$@"
