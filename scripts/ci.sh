#!/bin/bash
# Tier-1 verification gate: release build + full test suite, with
# warnings promoted to errors. Run from anywhere inside the repo.
#
#   scripts/ci.sh            # build + test
#   scripts/ci.sh --quick    # skip the release build (debug tests only)
#
# This is the same gate scripts/run_experiments.sh assumes has passed
# before a reproduction sweep is launched.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# The code style is recorded in rustfmt.toml; any unformatted hunk fails.
echo "== cargo fmt --check =="
cargo fmt --all -- --check

if [[ "${1:-}" != "--quick" ]]; then
  echo "== cargo build --release (warnings are errors) =="
  cargo build --release
fi

# The root manifest's default-members make plain `cargo test` run every
# workspace suite (unit, integration and doc tests of the facade and all
# crates/*). Fail if that coverage shrinks: a suite that silently drops
# out of the default set is a gate that no longer runs.
MIN_SUITES=47
echo "== cargo test -q (workspace, warnings are errors) =="
test_log="$(mktemp)"
cargo test -q 2>&1 | tee "$test_log"
suites="$(grep -c '^test result: ' "$test_log" || true)"
rm -f "$test_log"
if (( suites < MIN_SUITES )); then
  echo "cargo test ran $suites suites; expected at least $MIN_SUITES" >&2
  exit 1
fi
echo "cargo test ran $suites suites (floor $MIN_SUITES)"

# --all-targets lints tests, benches and examples too, not only the
# library and binary code.
echo "== cargo clippy (workspace, all targets, -D warnings -W clippy::perf) =="
cargo clippy --workspace --all-targets -- -D warnings -W clippy::perf

# The acquisition multistart is parallel but must be bit-identical for
# any compute-thread count; replay the determinism suite and the
# cross-commit trajectory pins under two global thread settings
# (PBO_NUM_THREADS is the env-level override of
# pbo_linalg::parallel::set_num_threads).
echo "== determinism suite and trajectory pins at 1 and 4 compute threads =="
for threads in 1 4; do
  PBO_NUM_THREADS=$threads cargo test -q --test determinism
  PBO_NUM_THREADS=$threads cargo test -q --test trajectory_pins
done

if [[ "${1:-}" != "--quick" ]]; then
  # Seconds-scale smoke pass over the perf benches: catches bench-code
  # rot and the in-bench pre-PR equivalence guards without paying for a
  # full measurement run.
  echo "== bench smoke (PBO_BENCH_SMOKE=1) =="
  PBO_BENCH_SMOKE=1 cargo bench -q -p pbo-bench --bench acquisition_scaling

  # fit_scaling runs inside the regression gate's smoke mode, which
  # also validates the baseline-capture/compare plumbing.
  echo "== bench_gate smoke =="
  scripts/bench_gate.sh smoke

  # Trace smoke: run a seeded traced optimization, validate that every
  # JSONL line parses and that the event stream reconciles with the run
  # record (the example exits non-zero on any mismatch).
  echo "== observability trace smoke =="
  cargo run --release -q --example observability >/dev/null

  # Orchestrator smoke: a tiny real grid must produce byte-identical
  # artifacts (a) sequentially vs. with a 2-worker pool, and (b) after
  # deleting a checkpoint mid-campaign and resuming — the crash-safety
  # contract of pbo_bench::orchestrate.
  echo "== orchestrator smoke: --jobs / --resume reproduce sequential =="
  orch=target/ci-orch
  rm -rf "$orch"
  grid=(table5 --profile smoke --runs 1 --batches 2 --minutes 0.5)
  cargo run --release -q -p pbo-bench --bin repro -- \
    "${grid[@]}" --jobs 1 --out "$orch/seq" >/dev/null
  cargo run --release -q -p pbo-bench --bin repro -- \
    "${grid[@]}" --jobs 2 --out "$orch/par" >/dev/null
  cmp "$orch/seq/ackley_final.csv" "$orch/par/ackley_final.csv"
  cmp "$orch/seq/ackley_evals_by_batch.csv" "$orch/par/ackley_evals_by_batch.csv"
  # Simulate a crash: drop one checkpoint, resume, re-diff.
  rm "$(ls "$orch/par/checkpoints/ackley/"*.json | head -1)"
  cargo run --release -q -p pbo-bench --bin repro -- \
    "${grid[@]}" --jobs 2 --resume --out "$orch/par" >/dev/null
  cmp "$orch/seq/ackley_final.csv" "$orch/par/ackley_final.csv"
  cmp "$orch/seq/ackley_evals_by_batch.csv" "$orch/par/ackley_evals_by_batch.csv"
  rm -rf "$orch"

  # Session-server smoke: start the daemon, drive a 3-cycle session
  # partway, kill -9 the daemon, restart it over the same directory,
  # resume the session to completion — and require the final record to
  # be byte-identical to the in-process reference (`drive --local`).
  # Then kill -9 and restart once more: the finished session's record,
  # served from its record file, must still match, and `validate` must
  # cross-check that file against the replayed checkpoint. Last, an
  # offline `gc` evicts the finished session and keeps a corrupt one.
  echo "== pbo-server smoke: kill -9 / restart / resume is byte-identical =="
  srv=target/ci-server
  rm -rf "$srv"; mkdir -p "$srv"
  cargo build --release -q -p pbo-server
  start_daemon() {
    target/release/pbo-server serve --addr 127.0.0.1:0 \
      --dir "$srv/sessions" --addr-file "$srv/addr" >"$srv/daemon.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 100); do [[ -s "$srv/addr" ]] && break; sleep 0.1; done
    [[ -s "$srv/addr" ]] || { cat "$srv/daemon.log"; exit 1; }
  }
  session=(--id ci-smoke --problem ackley-3d --algo kb-q-ego \
           --cycles 3 --q 2 --init 6 --seed 7)
  start_daemon
  target/release/pbo-server drive --addr "$(cat "$srv/addr")" \
    "${session[@]}" --stop-after 2 >/dev/null
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  rm -f "$srv/addr"
  start_daemon
  target/release/pbo-server drive --addr "$(cat "$srv/addr")" \
    "${session[@]}" --record-out "$srv/served.json" >/dev/null
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  rm -f "$srv/addr"
  start_daemon
  target/release/pbo-server drive --addr "$(cat "$srv/addr")" \
    "${session[@]}" --record-out "$srv/restarted.json" >/dev/null
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  target/release/pbo-server drive --local \
    "${session[@]}" --record-out "$srv/local.json" >/dev/null
  cmp "$srv/served.json" "$srv/local.json"
  cmp "$srv/restarted.json" "$srv/local.json"
  cmp "$srv/sessions/ci-smoke.record.json" "$srv/local.json"
  target/release/pbo-server validate "$srv/sessions" >/dev/null
  echo '{}' >"$srv/sessions/ci-smoke.record.json"
  if target/release/pbo-server validate "$srv/sessions" >/dev/null 2>&1; then
    echo "validate accepted a record file that disagrees with its checkpoint" >&2
    exit 1
  fi
  # Offline gc leg: with no shield left, the finished session goes (both
  # files), and a corrupt checkpoint beside it is kept.
  echo '{"event":"pbo-session",trunc' >"$srv/sessions/bad.session.json"
  target/release/pbo-server gc --dir "$srv/sessions" --keep 0 >"$srv/gc.log"
  grep -qx 'evicted ci-smoke' "$srv/gc.log"
  if [[ -e "$srv/sessions/ci-smoke.session.json" || -e "$srv/sessions/ci-smoke.record.json" ]]; then
    echo "gc left a file of the finished session ci-smoke" >&2
    exit 1
  fi
  [[ -f "$srv/sessions/bad.session.json" ]] || { echo "gc deleted a corrupt checkpoint" >&2; exit 1; }
  rm -rf "$srv"

  # Variable-q leg: the same kill -9 / restart / resume contract for a
  # hybrid-q session, whose per-cycle batch size the proto-2 ask reply
  # carries and the schema-2 checkpoint records (`"qs"`).
  echo "== pbo-server smoke: variable-q (hybrid-q) kill/restart over TCP =="
  rm -rf "$srv"; mkdir -p "$srv"
  session=(--id ci-vq --problem ackley-3d --algo hybrid-q \
           --cycles 4 --q 4 --init 8 --seed 7)
  start_daemon
  target/release/pbo-server drive --addr "$(cat "$srv/addr")" \
    "${session[@]}" --stop-after 2 >/dev/null
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  rm -f "$srv/addr"
  start_daemon
  target/release/pbo-server drive --addr "$(cat "$srv/addr")" \
    "${session[@]}" --record-out "$srv/served.json" >/dev/null
  target/release/pbo-server drive --local \
    "${session[@]}" --record-out "$srv/local.json" >/dev/null
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  cmp "$srv/served.json" "$srv/local.json"
  grep -q '"qs":' "$srv/sessions/ci-vq.session.json"
  rm -rf "$srv"

  # Parallel-client leg: hammer the daemon with parallel client
  # processes mid-session, kill -9, restart, resume every session in
  # parallel again — each record must still be byte-identical to its
  # in-process reference. Connection scheduling must never perturb a
  # trajectory, even across a crash.
  echo "== pbo-server smoke: parallel clients, kill -9 / restart =="
  rm -rf "$srv"; mkdir -p "$srv"
  pool_session() { # i extra...
    local i=$1; shift
    target/release/pbo-server drive --addr "$(cat "$srv/addr")" \
      --id "pool-$i" --problem ackley-2d --algo random --cycles 2 --q 2 \
      --init 4 --seed "$i" "$@" >/dev/null
  }
  start_daemon
  pool_pids=()
  for i in 1 2 3 4 5 6 7 8; do
    pool_session "$i" --stop-after 1 &
    pool_pids+=($!)
  done
  wait "${pool_pids[@]}"
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  rm -f "$srv/addr"
  start_daemon
  pool_pids=()
  for i in 1 2 3 4 5 6 7 8; do
    pool_session "$i" --record-out "$srv/pool-$i.json" &
    pool_pids+=($!)
  done
  wait "${pool_pids[@]}"
  kill -9 "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
  for i in 1 2 3 4 5 6 7 8; do
    target/release/pbo-server drive --local \
      --id "pool-$i" --problem ackley-2d --algo random --cycles 2 --q 2 \
      --init 4 --seed "$i" --record-out "$srv/local-$i.json" >/dev/null
    cmp "$srv/pool-$i.json" "$srv/local-$i.json"
  done
  rm -rf "$srv"

  # Benchmark smoke: every workload for a few seconds, including its
  # correctness checks — served records byte-identical to in-process
  # runs, server counters equal to client counts. Exits non-zero on a
  # failed check.
  echo "== benchmark smoke (benchmark/run.sh --smoke) =="
  bash benchmark/run.sh --smoke >/dev/null

  # The public API surface is documented; rustdoc warnings (broken
  # intra-doc links, missing docs) are errors.
  echo "== cargo doc --no-deps (warnings are errors) =="
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
fi

echo "CI gate passed."
