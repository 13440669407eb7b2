#!/usr/bin/env bash
# Builds cnp_server and the benchmark from source, then runs one workload:
#
#   bash benchmark/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the benchmark's own files go to .bench_state.
# Build messages go to stderr, so the last line of stdout is the result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cnp_server --bin cnp_server 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/cnp_repobench" \
    --server "$CARGO_TARGET_DIR/release/cnp_server" "$@"
