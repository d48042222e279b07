#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one workload, alternating.

    python3 perfbench/steady.py --workload table1-256 --runs 10

Run ``i`` of each set uses seed ``i`` (1 to ``--runs``) and the run
length of BENCHMARK.json; which set runs first alternates from one
seed to the next.  For every end-to-end
metric it prints each set's median, quartiles and spread (the distance
between the quartiles as a share of the median), and flags

* a spread (other than ``setup_s``'s) wider than the metric's bound;
* medians of the two sets that differ by more than the bound;
* an exact count that differs at all between the two runs of a seed:
  ``sim_cycles`` and the share of failed operations.

Exits 1 when anything is flagged.  The raw results go to
``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("sim_cycles",)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run of %s at seed %d exited %d"
                         % (workload, seed, proc.returncode))
    result: Dict[str, Any] = json.loads(lines[-1])
    return result


def spread(values: Sequence[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def compare(sets: List[List[Dict[str, Any]]],
            bounds: Dict[str, float]) -> List[str]:
    """Print the per-metric table; return the flags raised."""
    flags = []
    print("%-12s %-5s %12s %12s %12s %8s" % ("metric", "set", "median",
                                            "q1", "q3", "spread"))
    for name, bound in bounds.items():
        stats = []
        for label, runs in zip("AB", sets):
            s = spread([r["metrics"][name]["value"] for r in runs])
            stats.append(s)
            print("%-12s %-5s %12.6g %12.6g %12.6g %7.2f%%"
                  % (name, label, s["median"], s["q1"], s["q3"],
                     s["spread"] * 100))
            if name != "setup_s" and s["spread"] > bound:
                flags.append("%s: spread %.1f%% in set %s exceeds bound "
                             "%.0f%%" % (name, s["spread"] * 100, label,
                                         bound * 100))
        a, b = stats[0]["median"], stats[1]["median"]
        if abs(b - a) > bound * a:
            flags.append("%s: medians %.6g vs %.6g differ by more than "
                         "%.0f%%" % (name, a, b, bound * 100))
    for run_a, run_b in zip(*sets):
        for name in EXACT:
            if run_a["metrics"][name]["value"] != \
                    run_b["metrics"][name]["value"]:
                flags.append("%s differs between runs of seed %d"
                             % (name, run_a["seed"]))
        share_a = run_a["failed"] / run_a["attempted"]
        share_b = run_b["failed"] / run_b["attempted"]
        if share_a != share_b:
            flags.append("failed share %.6g vs %.6g at seed %d"
                         % (share_a, share_b, run_a["seed"]))
    return flags


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set, one seed each (at least 2)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets: List[List[Dict[str, Any]]] = [[], []]
    for i in range(args.runs):
        seed = i + 1
        for which in ((0, 1) if i % 2 == 0 else (1, 0)):
            result = run_once(args.workload, seed, seconds)
            result["seed"] = seed
            sets[which].append(result)
            print("set %s seed %d: %s" % ("AB"[which], seed, " ".join(
                "%s=%.5g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / ("steady-%s.json" % args.workload)).write_text(
        json.dumps({"seconds": seconds, "sets": sets}, indent=1))
    flags = compare(sets, bounds)
    for flag in flags:
        print("FLAG " + flag)
    print("steady" if not flags else "%d flags" % len(flags))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
