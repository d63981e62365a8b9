#!/usr/bin/env python3
"""Compare two spine result files, one row per workload x end-to-end metric.

    python3 benchmarks/spine/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  Each row gives both medians, the ratio B/A,
how much worse B is as a share of A, and the bound ``BENCHMARK.json``
fixes for that metric.  Verdicts:

``ok``          B is no worse than A by more than the bound.
``REGRESSION``  B is worse than A by more than the bound.
``unresolved``  the run-to-run spread inside A or B (interquartile range
                over median, from ``run.py --repeat K``) is wider than
                the bound, so the files cannot settle the question.

Exit status is 1 when any row is a REGRESSION, else 0.
"""

from __future__ import annotations

import json
import os
import sys

from harness import ROOT_DIR
from metrics import FAILED_FRAC


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (<0: better)."""
    if a == 0:
        return b - a if better == "lower" else a - b
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], bool]:
    metrics = [(m["name"], m["better"], m["bound"])
               for m in contract["end_to_end"]]
    # ``failed_frac`` has no relative bound: any increase is a regression.
    metrics.append((FAILED_FRAC, "lower", 0.0))
    lines = [f"{'workload':<15} {'metric':<12} {'A':>12} {'B':>12} "
             f"{'B/A':>7} {'worse by':>9} {'bound':>6} "
             f"{'spread A':>9} {'spread B':>9}  verdict"]
    regressed = False
    for workload in (w["name"] for w in contract["workloads"]):
        for name, better, bound in metrics:
            ea = a["workloads"][workload]["end_to_end"][name]
            eb = b["workloads"][workload]["end_to_end"][name]
            worse = worse_by(ea["value"], eb["value"], better)
            ratio = (f"{eb['value'] / ea['value']:7.3f}" if ea["value"]
                     else f"{'-':>7}")
            if max(ea["spread"], eb["spread"]) > bound and bound > 0:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            lines.append(
                f"{workload:<15} {name:<12} {ea['value']:>12.5g} "
                f"{eb['value']:>12.5g} {ratio} {worse:>+9.3f} {bound:>6.2f} "
                f"{ea['spread']:>9.3f} {eb['spread']:>9.3f}  {verdict}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    contract = load(os.path.join(ROOT_DIR, "BENCHMARK.json"))
    a, b = load(argv[1]), load(argv[2])
    print(f"A = {argv[1]} (base; commit {a['meta']['commit'][:12]}, "
          f"seed {a['seed']}, {a['repeat']} run(s) per workload)")
    print(f"B = {argv[2]} (commit {b['meta']['commit'][:12]}, "
          f"seed {b['seed']}, {b['repeat']} run(s) per workload)")
    lines, regressed = compare(a, b, contract)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
