#!/usr/bin/env bash
# Builds the `disc` binary and the benchmark harness from source, then
# runs one benchmark workload:
#
#   bash discbench/run.sh --workload zoom-cold-dense --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the harness prints its report and, as
# the last line of stdout, one JSON result object.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p disc-cli --features parallel --bin disc 1>&2
cargo build --release --offline --quiet --manifest-path discbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/discbench" --disc "$CARGO_TARGET_DIR/release/disc" "$@"
