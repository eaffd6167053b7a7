#!/usr/bin/env bash
# Build the daemon and the load generator from source, then run one
# benchmark workload. Usage (from the repository root):
#
#   bash servebench/run.sh --workload <cold_circuits|warm_stream|small_requests> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Both builds happen before anything is timed: the benchmark runs the
# prebuilt release binaries, never `cargo run`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p unigen-net --bin unigen_cli >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --daemon "$CARGO_TARGET_DIR/release/unigen_cli" "$@"
