#!/usr/bin/env bash
# The one command of the DIALITE pipeline benchmark (see README.md).
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke] [--sets N]
#       the whole suite: every workload in its own process, untraced then
#       traced; metrics on stdout, results in benchmark/out/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object of BENCHMARK.json
#   benchmark/run.sh --manifest
#       print BENCHMARK.json as generated from src/metrics.rs
#
# Builds the benchmark package (release, offline) first; build output goes
# to stderr so stdout stays the benchmark's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/dialite-benchmark" "$@"
