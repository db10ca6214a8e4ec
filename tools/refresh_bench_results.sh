#!/usr/bin/env bash
# Regenerate every committed bench_results/ artifact from a release
# build. Run from anywhere; pass the build directory as $1 (default:
# ./build relative to the repo root). See bench_results/README.md for
# what each artifact is and when it must be refreshed.
#
#   cmake -B build -DCMAKE_BUILD_TYPE=Release && cmake --build build
#   tools/refresh_bench_results.sh build
#
# Each harness's stdout (the paper-style tables and [SHAPE] checks)
# becomes bench_results/<name>.txt; the harnesses themselves write the
# machine-readable bench_results/<name>.json side-car. progress.log
# records one "name rc=N" line per harness so a partial refresh is
# visible in review.
#
# Artifacts are written atomically (temp + mv): a failing or killed
# harness never leaves a truncated .txt behind to be committed by
# mistake — the previous artifact survives untouched.
set -euo pipefail

# Committed records must come from each harness's default schedule:
# a reduced (COBRA_FAST), re-counted (COBRA_THROUGHPUT_REPS) or
# re-based (COBRA_BASELINE_JSON) run would silently become the
# expectation the CI perf gates compare against. Refuse before any
# harness runs.
for var in COBRA_FAST COBRA_THROUGHPUT_REPS COBRA_BASELINE_JSON; do
    if [ -n "${!var+set}" ]; then
        echo "error: $var is set; committed records need the default" \
             "harness settings (unset $var and rerun)" >&2
        exit 2
    fi
done

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# A harness killed mid-write (SIGINT, OOM) skips run_harness's own
# rm -f; sweep any orphaned temp files on every exit path so a stray
# *.txt.tmp can never be committed by mistake.
trap 'rm -f bench_results/*.tmp' EXIT INT TERM

if [ ! -x "$BUILD/bench/bench_table1_storage" ]; then
    echo "error: $BUILD/bench does not contain built harnesses" >&2
    echo "       (cmake --build $BUILD first)" >&2
    exit 2
fi

HARNESSES="
bench_table1_storage
bench_table2_config
bench_fig2_timing
bench_fig4_topologies
bench_fig7_pipelines
bench_fig8_predictor_area
bench_fig9_core_area
bench_fig10_specint
bench_intro_serialization
bench_via_tage_latency
bench_vib_ghist_repair
bench_vic_sfb
bench_ablations
bench_trace_vs_execution
bench_energy
bench_warp
bench_search
"

mkdir -p bench_results
: > bench_results/progress.log

# run_harness NAME [CAPTURE]: run one harness, recording its rc in
# progress.log; with CAPTURE=1 its stdout is published atomically as
# bench_results/NAME.txt on success only.
run_harness() {
    local b="$1" capture="${2:-1}" rc=0
    echo "== $b =="
    if [ "$capture" -eq 1 ]; then
        "$BUILD/bench/$b" > "bench_results/$b.txt.tmp" || rc=$?
        if [ "$rc" -eq 0 ]; then
            mv "bench_results/$b.txt.tmp" "bench_results/$b.txt"
        else
            rm -f "bench_results/$b.txt.tmp"
        fi
    else
        "$BUILD/bench/$b" || rc=$?
    fi
    echo "$b rc=$rc" >> bench_results/progress.log
    return "$rc"
}

fails=0
for b in $HARNESSES; do
    run_harness "$b" 1 || fails=$((fails + 1))
done

# Host-throughput, trace-replay and batch-eval gates: JSON only
# (wall-clock tables are host-specific noise in review diffs, the
# JSON carries the comparable numbers).
run_harness bench_host_throughput 0 || fails=$((fails + 1))
run_harness bench_trace_replay 0 || fails=$((fails + 1))
run_harness bench_batch_eval 0 || fails=$((fails + 1))

echo "ALL-DONE" >> bench_results/progress.log
echo
grep -c "SHAPE PASS" bench_results/*.txt /dev/null \
    | sed 's/^bench_results\///' || true
echo
if [ "$fails" -ne 0 ]; then
    echo "$fails harness(es) failed — see bench_results/progress.log" >&2
    exit 1
fi
echo "all harnesses passed; review the bench_results/ diff and commit"
