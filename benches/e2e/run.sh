#!/usr/bin/env bash
# Builds the khist binary and this benchmark from source, then runs one
# benchmark invocation from the repository root:
#
#   bash benches/e2e/run.sh --workload watch-learn --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin khist >&2
cargo build --release --offline --quiet --manifest-path benches/e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/khist-e2ebench" --khist "$CARGO_TARGET_DIR/release/khist" "$@"
