#!/usr/bin/env bash
# Build the release server and the benchmark from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-validate --seed 1 --seconds 14 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin tangled
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
