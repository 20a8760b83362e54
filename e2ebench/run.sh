#!/usr/bin/env bash
# Builds `repro` and the benchmark from source, then runs one workload.
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output and scratch files go under
# $CARGO_TARGET_DIR (default `.bench_build`); cargo's messages go to stderr,
# so the last line on stdout is the benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p anneal-experiments --bin repro >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2ebench" \
  --repro "$target/release/repro" \
  --work-dir "$target/e2ebench" \
  "$@"
