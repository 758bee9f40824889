#!/usr/bin/env bash
# The repo benchmark's single command: build, run, check, report.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--workload W]
#   benchmark/run.sh --compare A.json B.json
#
# Builds the standalone package in this directory (offline, release) and
# hands every argument to it. See README.md beside this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ldft-benchmark" --out "$here/out" "$@"
