#!/usr/bin/env python3
"""Summaries and comparisons of thermctl-perf result sets.

A result set is a directory written by `perf/run.sh --repeat K --label L`
(build-perf/results/L): one sub-directory per workload holding the
stdout of every thermctl_perf run, run-000.txt, run-001.txt, ..., whose
first line is the provenance record (with the seed) and whose last line
is the JSON result object. Run i of every set uses seed base + i, so run
i of two sets with the same seed form a pair.

  stats.py summary SET   median, quartiles and spread per metric; flags a
                         spread (IQR / median) above the metric's bound;
                         exits 1 on a flag or a failed run
  stats.py compare A B   B is the change, A the parent: the gain rule and
                         the no-regression rule of the benchmark method; a
                         gain counts only when the runs of A and B
                         alternate; exits 1 on any REGRESSION

setup_s is held to its bound or to SETUP_FLOOR_S, whichever is larger:
a set-up of 0.1 s moves by 10 ms from the scheduler alone.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_FLOOR_S = 0.05
PROVENANCE = "# provenance "


def bounds():
    """Metric name -> (better, bound) for the end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def allowed(metric, bound, median):
    """The change a metric may show, as a share of `median`."""
    if metric == "setup_s" and median > 0:
        return max(bound, SETUP_FLOOR_S / median)
    return bound


def load_run(path):
    """One run file -> (seed, result or None). A run that died before its
    result line, or whose result is not correct, has no result."""
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    seed = None
    if lines and lines[0].startswith(PROVENANCE):
        seed = json.loads(lines[0][len(PROVENANCE):]).get("seed")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return seed, None
    if not result.get("correct"):
        return seed, None
    result["finished"] = path.stat().st_mtime
    return seed, result


def load(set_dir):
    """workload -> {run index: (seed, result or None)}."""
    out = {}
    for wdir in sorted(pathlib.Path(set_dir).iterdir()):
        if not wdir.is_dir():
            continue
        out[wdir.name] = {int(f.stem.split("-")[1]): load_run(f)
                          for f in sorted(wdir.glob("run-*.txt"))}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(result, metric):
    return result["metrics"][metric]["value"]


def summary(set_dir):
    limits = bounds()
    bad = False
    for workload, runs in load(set_dir).items():
        good = [r for _, r in runs.values() if r]
        failed = len(runs) - len(good)
        print(f"== {workload}: {len(runs)} runs, {failed} failed")
        bad |= failed > 0
        for m in sorted({m for r in good for m in r["metrics"]}):
            vals = [value(r, m) for r in good if m in r["metrics"]]
            unit = next(r["metrics"][m]["unit"] for r in good
                        if m in r["metrics"])
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if m in limits:
                limit = allowed(m, limits[m][1], med)
                if spread > limit:
                    flag = f"  SPREAD > BOUND {limit:.3f}"
                    bad = True
            print(f"  {m:40s} median {med:14.6g} {unit:6s}"
                  f" IQR [{q1:.6g}, {q3:.6g}] spread {spread:.4f}{flag}")
    return 1 if bad else 0


def pairs(a_runs, b_runs):
    """(a, b) result pairs: the same run index and seed on both sides,
    both correct. @return the pairs and the number dropped."""
    out, dropped = [], 0
    for i in sorted(set(a_runs) | set(b_runs)):
        a_seed, a = a_runs.get(i, (None, None))
        b_seed, b = b_runs.get(i, (None, None))
        if a and b and a_seed == b_seed:
            out.append((a, b))
        else:
            dropped += 1
    return out, dropped


def alternated(paired):
    """True when the paired runs, ordered by finish time, alternate
    between the two sets: host drift then lands on both sides of every
    pair."""
    stamped = sorted([(a["finished"], "a") for a, _ in paired]
                     + [(b["finished"], "b") for _, b in paired])
    sides = [side for _, side in stamped]
    return all(x != y for x, y in zip(sides, sides[1:]))


def compare(dir_a, dir_b):
    limits = bounds()
    a_sets, b_sets = load(dir_a), load(dir_b)
    regression = False
    print(f"{'workload':14s} {'metric':12s} {'pairs':>5s} {'wins':>5s}"
          f" {'parent':>12s} {'change':>12s} {'delta':>8s}  verdict")
    for workload in sorted(set(a_sets) & set(b_sets)):
        paired, dropped = pairs(a_sets[workload], b_sets[workload])
        if dropped:
            print(f"{workload:14s} {dropped} runs without a correct partner"
                  " of the same index and seed were left out")
        if not paired:
            continue
        in_turn = alternated(paired)
        for metric, (better, bound) in limits.items():
            both = [(value(a, metric), value(b, metric)) for a, b in paired
                    if metric in a["metrics"] and metric in b["metrics"]]
            n = len(both)
            if n == 0:
                continue
            a = [x for x, _ in both]
            b = [y for _, y in both]
            sign = -1.0 if better == "lower" else 1.0
            wins = sum(1 for x, y in both if sign * (y - x) > 0)
            a_q1, a_med, a_q3 = quartiles(a)
            _, b_med, _ = quartiles(b)
            delta = sign * (b_med - a_med) / a_med  # > 0 is better
            beyond_iqr = b_med < a_q1 if better == "lower" else b_med > a_q3
            limit = allowed(metric, bound, a_med)
            a_spread = (a_q3 - a_q1) / a_med
            all_better = all(sign * (y - x) > 0 for x in a for y in b)
            if n >= 10 and wins >= 0.9 * n and beyond_iqr:
                verdict = "GAIN" if in_turn else (
                    "no claim: runs were not alternated")
            elif -delta > limit:
                verdict = "REGRESSION"
                regression = True
            elif a_spread > limit and not all_better:
                verdict = "unresolved (parent spread over bound)"
            else:
                verdict = "within bound"
            if n < 10:
                verdict += f" (only {n} pairs; a gain needs 10)"
            print(f"{workload:14s} {metric:12s} {n:5d} {wins:5d}"
                  f" {a_med:12.6g} {b_med:12.6g} {100 * delta:+7.2f}%"
                  f"  {verdict}")
    return 1 if regression else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "summary":
        return summary(argv[2])
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
