#!/usr/bin/env bash
# Builds maps-perf and the binaries it drives, then runs one workload:
#
#   bash crates/bench/src/bin/maps-perf/bench.sh \
#       --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Cargo output goes to stderr; the last line
# on stdout is the JSON result. Honours CARGO_TARGET_DIR.
set -euo pipefail
cargo build --release --offline --quiet \
    -p maps-bench --bin maps-perf --bin fig2 \
    -p maps-farm --bin maps-farm --bin maps-farmd 1>&2
exec "${CARGO_TARGET_DIR:-target}/release/maps-perf" bench "$@"
