#!/usr/bin/env bash
# perf_ledger.sh: record rows of the committed performance ledger.
#
#   scripts/perf_ledger.sh LABEL
#   scripts/perf_ledger.sh LABEL BASE_CHECKOUT BASE_LABEL
#
# The first form runs `perf/run.sh --repeat 10 --label LABEL` (every
# workload in ten fresh processes, seeds 1..10) and appends one row to
# BENCH_perf.json at the repository root: the label, the revision
# (`git describe --always --dirty`), the date, `nproc`, and for each
# workload the median and IQR of the end-to-end metrics op_ms_p50 and
# setup_s plus the count of failed runs.
#
# The second form measures this checkout against another one (say, the
# parent commit, from `git clone` or `git archive`) in ten alternated
# rounds: each round runs every workload once in BASE_CHECKOUT, then
# once here, with the same seed. It appends BASE_LABEL's row, then
# LABEL's, and prints `perf/run.sh compare` of the two sets. The host
# drifts by more than a gain over tens of minutes, so a claim needs both
# sides measured in turn.
#
# Result sets stay in build-perf/results/<label> of each checkout.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

usage() {
    echo "usage: scripts/perf_ledger.sh LABEL [BASE_CHECKOUT BASE_LABEL]" >&2
    exit 2
}
{ [ $# -eq 1 ] || [ $# -eq 3 ]; } && [ -n "$1" ] || usage
label="$1"
dirs=("$ROOT")
labels=("$label")
if [ $# -eq 3 ]; then
    [ -f "$2/perf/run.sh" ] && [ -n "$3" ] && [ "$3" != "$label" ] || usage
    dirs=("$(cd "$2" && pwd)" "$ROOT")
    labels=("$3" "$label")
fi
for k in "${!dirs[@]}"; do
    [ -e "${dirs[k]}/build-perf/results/${labels[k]}" ] && {
        echo "perf_ledger.sh: ${dirs[k]}/build-perf/results/${labels[k]}" \
            "exists; pick a new label" >&2
        exit 2
    }
done

status=0
if [ ${#dirs[@]} -eq 1 ]; then
    bash perf/run.sh --repeat 10 --label "$label" || status=$?
else
    # perf/run.sh --repeat appends to a set, seeding run i with 1 + i,
    # so round k runs every workload with seed k on both sides.
    for round in $(seq 1 10); do
        for k in 0 1; do
            (cd "${dirs[k]}" \
                && bash perf/run.sh --repeat 1 --label "${labels[k]}" \
                    >/dev/null) || status=1
        done
        echo "perf_ledger.sh: round $round of 10 done" >&2
    done
fi

for k in "${!dirs[@]}"; do
    rev="$(git -C "${dirs[k]}" describe --always --dirty 2>/dev/null \
        || echo unknown)"
    python3 - "$ROOT" "${dirs[k]}" "${labels[k]}" "$rev" "$(nproc)" \
        "${#dirs[@]}" <<'EOF' || status=1
import datetime
import json
import pathlib
import sys

root, checkout, label, rev, nproc, nsides = sys.argv[1:7]
root = pathlib.Path(root)
sys.path.insert(0, str(root / "perf"))
import stats  # noqa: E402  (perf/stats.py: loads a result set)

row = {
    "label": label,
    "rev": rev,
    "date": datetime.datetime.now(datetime.timezone.utc)
    .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "nproc": int(nproc),
    "command": f"perf/run.sh --repeat 10 --label {label}" if nsides == "1"
    else f"perf/run.sh --repeat 1 --label {label}, 10 rounds alternated"
    " with the row beside it",
    "workloads": {},
}
results = pathlib.Path(checkout) / "build-perf/results" / label
for workload, runs in stats.load(results).items():
    good = [r for _, r in runs.values() if r]
    entry = {"runs": len(runs), "failed": len(runs) - len(good)}
    for metric in ("op_ms_p50", "setup_s"):
        values = [stats.value(r, metric) for r in good
                  if metric in r["metrics"]]
        if not values:
            continue
        q1, median, q3 = stats.quartiles(values)
        entry[metric] = {"median": round(median, 6),
                         "iqr": round(q3 - q1, 6),
                         "q1": round(q1, 6), "q3": round(q3, 6),
                         "unit": good[0]["metrics"][metric]["unit"]}
    row["workloads"][workload] = entry

ledger = root / "BENCH_perf.json"
rows = json.loads(ledger.read_text()) if ledger.exists() else []
rows.append(row)
ledger.write_text(json.dumps(rows, indent=2) + "\n")
print(f"perf_ledger.sh: appended row '{label}' ({rev}) to {ledger.name}")
EOF
done

if [ ${#dirs[@]} -eq 2 ]; then
    python3 perf/stats.py compare \
        "${dirs[0]}/build-perf/results/${labels[0]}" \
        "$ROOT/build-perf/results/$label" || status=1
fi
exit "$status"
