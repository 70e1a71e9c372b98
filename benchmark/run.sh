#!/usr/bin/env bash
# Build the shipped pbo-server binary and the benchmark from source, then
# run the benchmark from the repository root.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--repeat K] [--smoke]
#
# W is one of paper_uphes_q4, acq_q16, serve_journal, serve_bo (default:
# all four). Builds, result files and span traces go to $CARGO_TARGET_DIR
# (default target/pbo-benchmark). The last line of stdout is the JSON
# summary; build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target/pbo-benchmark}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --locked --quiet --manifest-path "$root/Cargo.toml" -p pbo-server 1>&2
cargo build --release --offline --locked --quiet --manifest-path "$root/benchmark/Cargo.toml" 1>&2

PBO_BENCH_RUSTC="$(rustc --version)"
PBO_BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export PBO_BENCH_RUSTC PBO_BENCH_COMMIT

exec "$target/release/pbo-benchmark" \
  --server-bin "$target/release/pbo-server" --out-dir "$target" "$@"
