#!/usr/bin/env bash
# Build `figures` and the harness, then hand every argument to the harness:
#
#   benchmark/run.sh [--seed N]            all four workloads, tracing off
#   benchmark/run.sh --trace               the traced run: per-layer metrics
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; result on the last line
#   benchmark/run.sh bless | compare A B | repeat
#
# Both builds share one target directory ($CARGO_TARGET_DIR, or `target`
# at the root of the checkout), so the harness drives the `figures` that
# was built from the same sources as the crates it links.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p clover-bench --bin figures
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/harness" "$@"
