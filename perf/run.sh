#!/usr/bin/env bash
# thermctl-perf: build the benchmark program and run its workloads.
#
#   perf/run.sh                         every workload once, seed 1
#   perf/run.sh --trace                 the same, traced: per-layer metrics
#                                       and build-perf/trace-<workload>.json
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                       one run; the last stdout line is the
#                                       JSON result object
#   perf/run.sh --repeat K [--label L]  each workload in K fresh processes
#                                       (seeds N, N+1, ...); prints median and
#                                       IQR per metric and flags any spread
#                                       over its bound
#   perf/run.sh compare A B             compare two --repeat result sets
#                                       (directories under build-perf/results)
#   perf/run.sh --smoke                 every workload at 1/20 size against its
#                                       seed-1 smoke digest, under 20 s
#   perf/run.sh golden                  print a fresh perf/golden.txt
#
# Other options: --seed N (default 1), --seconds S (default 20),
# --workload W (restrict the modes above to one workload), --golden FILE.
# Everything is built and written under build-perf/ at the repository root.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
BUILD=build-perf
BIN="$BUILD/thermctl_perf"

build() {
    mkdir -p "$BUILD/tmp"
    export TMPDIR="$ROOT/$BUILD/tmp"
    local jobs
    jobs="$(nproc)"
    [ "$jobs" -gt 4 ] && jobs=4
    if [ ! -f "$BUILD/CMakeCache.txt" ]; then
        cmake -S perf -B "$BUILD" >&2
    fi
    cmake --build "$BUILD" -j "$jobs" --target thermctl_perf >&2
}

revision() {
    if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$ROOT" ]; then
        git rev-parse --short HEAD
    else
        echo unknown
    fi
}

if [ "${1:-}" = "compare" ]; then
    [ $# -eq 3 ] || { echo "usage: perf/run.sh compare A B" >&2; exit 2; }
    exec python3 perf/stats.py compare "$2" "$3"
fi

mode=all
[ "${1:-}" = "golden" ] && { mode=golden; shift; }
workload=""
seed=1
seconds=20
trace=0
repeat=0
label=default
smoke=0
golden=perf/golden.txt
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                trace="$2"; shift 2
            else
                trace=1; shift
            fi ;;
        --repeat) repeat="$2"; mode=repeat; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        --golden) golden="$2"; shift 2 ;;
        *) echo "perf/run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

build
rev="$(revision)"
run_one() { # workload seed seconds trace [extra thermctl_perf args...]
    local w="$1" s="$2" secs="$3" t="$4"
    shift 4
    "$BIN" --workload "$w" --seed "$s" --seconds "$secs" --trace "$t" \
        --golden "$golden" --out "$BUILD" --rev "$rev" "$@"
}

# One run with explicit --workload: thermctl_perf's output is passed
# through untouched, its JSON result last.
if [ "$mode" = all ] && [ -n "$workload" ] && [ "$smoke" = 0 ]; then
    exec "$BIN" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --golden "$golden" --out "$BUILD" --rev "$rev"
fi

if [ -n "$workload" ]; then
    workloads="$workload"
else
    workloads="$("$BIN" --list)"
fi

status=0
case "$mode" in
    all)
        for w in $workloads; do
            echo "== $w"
            if [ "$smoke" = 1 ]; then
                out="$(run_one "$w" 1 1 "$trace" --smoke)" || status=1
            else
                out="$(run_one "$w" "$seed" "$seconds" "$trace")" || status=1
            fi
            printf '%s\n' "$out" | grep -v '^{' || true
        done
        ;;
    repeat)
        dir="$BUILD/results/$label"
        for w in $workloads; do
            mkdir -p "$dir/$w"
            first=$(find "$dir/$w" -name 'run-*.txt' | wc -l)
            for ((i = first; i < first + repeat; i++)); do
                s=$((seed + i))
                run_one "$w" "$s" "$seconds" "$trace" \
                    >"$dir/$w/run-$(printf %03d "$i").txt" || status=1
            done
        done
        python3 perf/stats.py summary "$dir" || status=1
        ;;
    golden)
        golden="$BUILD/no-golden" # digests as computed, unchecked
        echo "# <full|smoke> <workload> <seed> <digest>: perf/run.sh golden"
        for w in $workloads; do
            for s in 1 2 3; do
                run_one "$w" "$s" 1 0 | grep '^digest ' | cut -d' ' -f2- \
                    || status=1
            done
            run_one "$w" 1 1 0 --smoke | grep '^digest ' | cut -d' ' -f2- \
                || status=1
        done
        ;;
esac
exit "$status"
