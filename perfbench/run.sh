#!/usr/bin/env bash
# Builds the `sfo` binary and the benchmark from source, then runs one benchmark
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build); snapshots and span
# traces go to .bench_work. Build progress goes to stderr; the result object is the
# last line of stdout.
set -euo pipefail
bench_dir="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$bench_dir/../Cargo.toml" --bin sfo >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/perfbench" --bench-dir "$bench_dir" --work-dir .bench_work \
    --sfo "$target/release/sfo" "$@"
