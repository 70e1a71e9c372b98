#!/bin/bash
# Performance regression gate over the criterion-shim benches.
#
#   scripts/bench_gate.sh baseline   # record target/bench_gate/baseline.jsonl
#   scripts/bench_gate.sh check      # re-run same profile, fail on >15% regression
#   scripts/bench_gate.sh smoke      # one bench run + self-check of the gate machinery
#
# Profiles (BENCH_GATE_PROFILE=quick|standard|full, default quick):
#   quick     fit_scaling (the maximin initial design included) plus the
#             two pinned kb-q-EGO batches of acquisition_scaling (above
#             and below BIT_EXACT_MAX_N), PBO_BENCH_SMOKE truncation —
#             the ci.sh gate
#   standard  fit_scaling + acquisition_scaling + sparse_scaling, smoke sizes
#   full      all three families at full measurement sizes (minutes-scale;
#             for recording the real BENCH_*.json baselines, not CI)
#
# The gate pins a handful of headline cases (below) and compares their
# per-iteration minimum against the recorded baseline; p50/p95 are
# reported alongside for context. `min_ns` drives the pass/fail because
# it is the statistic least sensitive to scheduler noise on a loaded
# host. The point is catching order-of-magnitude rot (an accidentally
# serialized hot path, a lost cache), not micro-benchmarking — real
# measurements live in BENCH_*.json.
#
# Baselines embed an environment manifest (nproc, CPU model, rustc
# version); `check` warns when the current host differs from the one
# the baseline was recorded on.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-check}"
PROFILE="${BENCH_GATE_PROFILE:-quick}"
GATE_DIR="target/bench_gate"
BASELINE="${BENCH_GATE_BASELINE:-$GATE_DIR/baseline.jsonl}"
TOL_PCT="${BENCH_GATE_TOL_PCT:-15}"

# Headline cases per bench family. All fit_scaling cases exist under the
# PBO_BENCH_SMOKE truncation; the acquisition/sparse cases are chosen so
# the same id exists in both smoke and full profiles.
PINNED_FIT=(
  "fit_scaling/mll_grad_workspace/64"
  "fit_scaling/fit_workspace/64"
  "fit_scaling/gp_update/256q8"
  "fit_scaling/chol/512"
  "fit_scaling/maximin_lhs/1024" # the initial design every session create draws
)
# The kb-q-EGO batches above and below BIT_EXACT_MAX_N (n = 136/256 and
# n = 48/128 under smoke/full; the latter is the regime serve_bo runs):
# the acquisition layer's pins in every profile, the quick one included.
PINNED_ACQ_KB=(
  "acq_fantasy_loop/kb_batch_above_bound"
  "acq_kb_q_ego/2"
)
PINNED_ACQ=(
  "${PINNED_ACQ_KB[@]}"
  "acq_mc_qei_joint/2"
  "acq_gp_ucb_pe/2"
)
PINNED_SPARSE=(
  "sparse_scaling/sparse_build/1024"
  "sparse_scaling/sparse_predict_many_q256/1024"
)

case "$PROFILE" in
  quick)
    BENCHES=(fit_scaling acquisition_scaling)
    PINNED=("${PINNED_FIT[@]}" "${PINNED_ACQ_KB[@]}")
    # Of acquisition_scaling, only the pinned cases run: the shim takes
    # one substring filter, so the bench runs once per filter.
    ACQ_FILTERS=("acq_fantasy_loop/" "acq_kb_q_ego/2")
    SMOKE=1
    ;;
  standard)
    BENCHES=(fit_scaling acquisition_scaling sparse_scaling)
    PINNED=("${PINNED_FIT[@]}" "${PINNED_ACQ[@]}" "${PINNED_SPARSE[@]}")
    SMOKE=1
    ;;
  full)
    BENCHES=(fit_scaling acquisition_scaling sparse_scaling)
    PINNED=("${PINNED_FIT[@]}" "${PINNED_ACQ[@]}" "${PINNED_SPARSE[@]}")
    SMOKE=0
    ;;
  *)
    echo "bench_gate: unknown profile '$PROFILE' (quick|standard|full)" >&2
    exit 2
    ;;
esac

manifest() { # prints one JSON line describing the host + toolchain
  local cpu="unknown"
  if [[ -r /proc/cpuinfo ]]; then
    cpu="$(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo)"
  fi
  printf '{"manifest":{"profile":"%s","nproc":%s,"cpu":"%s","rustc":"%s","recorded":"%s"}}\n' \
    "$PROFILE" "$(nproc)" "$cpu" "$(rustc -V)" "$(date -u +%FT%TZ)"
}

run_benches() { # out-file
  local out="$1"
  mkdir -p "$(dirname "$out")"
  rm -f "$out"
  # The bench binary runs with the *package* directory as its CWD, so
  # the shim output path must be absolute.
  local out_abs
  out_abs="$(cd "$(dirname "$out")" && pwd)/$(basename "$out")"
  manifest >"$out"
  for bench in "${BENCHES[@]}"; do
    local filters=("")
    [[ "$bench" == acquisition_scaling && -n "${ACQ_FILTERS+x}" ]] && filters=("${ACQ_FILTERS[@]}")
    for filter in "${filters[@]}"; do
      PBO_BENCH_SMOKE="$SMOKE" CRITERION_SHIM_OUT="$out_abs" CRITERION_SHIM_FILTER="$filter" \
        cargo bench -q -p pbo-bench --bench "$bench" >/dev/null
    done
  done
}

field_ns() { # file id field -> prints value or nothing
  grep -F "\"id\":\"$2\"" "$1" | tail -1 |
    sed -En "s/.*\"$3\":([0-9.eE+-]+).*/\1/p"
}

min_ns() { field_ns "$1" "$2" min_ns; }

show_manifest() { # file label
  local line
  line="$(grep -F '"manifest"' "$1" | tail -1 || true)"
  [[ -n "$line" ]] && echo "bench_gate: $2 environment: $line"
}

check_manifest_drift() { # baseline-file
  local base_line cur_line
  base_line="$(grep -F '"manifest"' "$1" | tail -1 || true)"
  [[ -z "$base_line" ]] && return 0 # pre-manifest baseline: nothing to compare
  cur_line="$(manifest)"
  # Compare everything except the timestamp.
  local strip='s/,"recorded":"[^"]*"//'
  if [[ "$(sed "$strip" <<<"$base_line")" != "$(sed "$strip" <<<"$cur_line")" ]]; then
    echo "bench_gate: WARNING — baseline was recorded on a different environment:" >&2
    echo "  baseline: $base_line" >&2
    echo "  current:  $cur_line" >&2
  fi
}

require_pinned() { # file
  local missing=0
  for id in "${PINNED[@]}"; do
    if [[ -z "$(min_ns "$1" "$id")" ]]; then
      echo "bench_gate: pinned case '$id' missing from $1" >&2
      missing=1
    fi
  done
  return "$missing"
}

compare() { # baseline-file current-file
  local fail=0
  for id in "${PINNED[@]}"; do
    local base cur p50 p95
    base="$(min_ns "$1" "$id")"
    cur="$(min_ns "$2" "$id")"
    p50="$(field_ns "$2" "$id" p50_ns)"
    p95="$(field_ns "$2" "$id" p95_ns)"
    if [[ -z "$base" || -z "$cur" ]]; then
      echo "bench_gate: '$id' missing (baseline='$base' current='$cur')" >&2
      fail=1
      continue
    fi
    if awk -v b="$base" -v c="$cur" -v tol="$TOL_PCT" \
        'BEGIN { exit !(c <= b * (1 + tol / 100)) }'; then
      printf 'bench_gate: OK   %-44s %12.0f -> %12.0f ns (p50 %s, p95 %s)\n' \
        "$id" "$base" "$cur" "${p50:-?}" "${p95:-?}"
    else
      printf 'bench_gate: FAIL %-44s %12.0f -> %12.0f ns (>%s%% slower; p50 %s, p95 %s)\n' \
        "$id" "$base" "$cur" "$TOL_PCT" "${p50:-?}" "${p95:-?}" >&2
      fail=1
    fi
  done
  return "$fail"
}

case "$MODE" in
  baseline)
    run_benches "$BASELINE"
    require_pinned "$BASELINE"
    show_manifest "$BASELINE" baseline
    echo "bench_gate: baseline ($PROFILE profile) recorded at $BASELINE"
    ;;
  check)
    if [[ ! -f "$BASELINE" ]]; then
      echo "bench_gate: no baseline at $BASELINE — run 'scripts/bench_gate.sh baseline' first" >&2
      exit 1
    fi
    check_manifest_drift "$BASELINE"
    current="$GATE_DIR/current.jsonl"
    run_benches "$current"
    compare "$BASELINE" "$current"
    echo "bench_gate: no pinned case regressed by more than ${TOL_PCT}%."
    ;;
  smoke)
    # One bench run exercises capture; self-comparison exercises the
    # parse/compare plumbing without back-to-back-run flakiness.
    smoke_out="$GATE_DIR/smoke.jsonl"
    run_benches "$smoke_out"
    require_pinned "$smoke_out"
    compare "$smoke_out" "$smoke_out"
    echo "bench_gate: smoke ($PROFILE profile) passed."
    ;;
  *)
    echo "usage: [BENCH_GATE_PROFILE=quick|standard|full] scripts/bench_gate.sh [baseline|check|smoke]" >&2
    exit 2
    ;;
esac
