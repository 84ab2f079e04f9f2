"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.jsonl B.jsonl``.

A is the parent commit, B the change; each file holds the JSON lines that
``bench/run.py --out`` appended, ideally ten or more runs per workload made
in alternation.  One row is printed per (end-to-end metric, workload) with
each side's median and quartiles and a verdict, by the rules of the
choosing-metrics guide (sections 6 to 8):

* ``regressed``  — B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — the run-to-run spread (quartile distance over median, the
  wider side) exceeds the bound, so "no change" cannot be told from a
  regression — unless every run of B reads better than every run of A;
* ``improved``   — B wins at least nine tenths of at least ten pairs (runs
  paired in file order, ties counting for neither) and the medians differ
  by more than the distance between A's own quartiles;
* ``unchanged``  — none of the above.

Per-layer metrics (the traced runs) are listed without a verdict: they say
where a change landed, not whether it counts.  Exit status is 1 when any row
is regressed or unresolved.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

if __package__ in (None, ""):  # run as a script: bench/ would shadow stdlib trace
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.stats import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10

Runs = Dict[Tuple[str, str], List[float]]


def load(path: str, trace: int) -> Runs:
    """(workload, metric) -> values in file order, for runs of one mode."""
    runs: Runs = defaultdict(list)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["scale"] != "full":
                raise SystemExit(f"{path}: smoke-scale runs are not valid for comparison")
            if record["trace"] != trace:
                continue
            if not record["correct"]:
                raise SystemExit(f"{path}: a {record['workload']} run failed its checks")
            for name, metric in record["metrics"].items():
                runs[(record["workload"], name)].append(metric["value"])
    return runs


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, str]:
    """The verdict for one row, and a note that qualifies it."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: smaller is better
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse_by = sign * (bm - am) / abs(am) if am else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    losses = sum(1 for x, y in pairs if sign * y > sign * x)
    clear = wins >= 0.9 * len(pairs) and abs(bm - am) > (a3 - a1) and worse_by < 0
    note = f"{-100.0 * worse_by:+.1f}% spread {100.0 * spread:.1f}% wins {wins}/{wins + losses}"
    if spread > bound and not all_better:
        return "unresolved", note
    if worse_by > bound:
        return "regressed", note
    if clear and len(pairs) >= MIN_PAIRS:
        return "improved", note
    if clear or all_better:
        note += f"; a gain needs {MIN_PAIRS} pairs"
    return "unchanged", note


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    a_runs, b_runs = load(argv[1], 0), load(argv[2], 0)
    bad = 0
    print(f"{'workload':16s} {'metric':18s} {'A q1/median/q3':>32s} {'B q1/median/q3':>32s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = a_runs.get(key), b_runs.get(key)
            if not a or not b:
                continue
            outcome, note = verdict(a, b, metric["better"], metric["bound"])
            bad += outcome in ("regressed", "unresolved")
            print("{:16s} {:18s} {:>32s} {:>32s}  {} ({}, bound {:.0f}%, n={}/{})".format(
                workload, metric["name"],
                "/".join(f"{v:.4g}" for v in quartiles(a)),
                "/".join(f"{v:.4g}" for v in quartiles(b)),
                outcome, note, 100.0 * metric["bound"], len(a), len(b)))
    a_layers, b_layers = load(argv[1], 1), load(argv[2], 1)
    if a_layers and b_layers:
        print(f"\n{'workload':16s} {'per-layer metric':44s} {'A median':>12s} {'B median':>12s}")
        for workload in (w["name"] for w in spec["workloads"]):
            for metric in spec["per_layer"]:
                key = (workload, metric["name"])
                a, b = a_layers.get(key), b_layers.get(key)
                if a and b and (any(a) or any(b)):
                    print(f"{workload:16s} {metric['name']:44s} "
                          f"{quartiles(a)[1]:12.4g} {quartiles(b)[1]:12.4g} {metric['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
