#!/usr/bin/env python3
"""Run the spine on a base commit and on this checkout, in alternating pairs.

One spine run is noisy on a shared box, and the box's speed drifts over
time, so a change is judged on pairs: base and change run back to
back, the order flipping from pair to pair, each in its own process::

    python3 benchmarks/pairs.py --workload disk_search --pairs 10
    python3 benchmarks/pairs.py --base v1.2 --workload disk_churn \\
        --workload serve_cached --pairs 10 --seconds 10 --out BENCH_X.json

The base tree is ``git worktree add``-ed from ``--base`` (default
``HEAD^``) in a temporary directory and removed afterwards; the change
is the checkout this script lives in.  The output names each side by
the commit its tree had checked out.  Each run is ``benchmarks/spine/run.py --workload W --seconds S`` in its own
tree, and its last output line, the JSON object of end-to-end metrics,
is kept.

For every end-to-end metric of ``BENCHMARK.json`` (and the failed share
of ops) the output gives each side's median, interquartile range over
the median (the spread), the raw runs, and in how many pairs the change
did better than the base it ran beside.  The verdict is
``benchmarks/spine/compare.py``'s: ``unresolved`` when either spread
exceeds the metric's bound, ``REGRESSION`` when the change is worse by
more than the bound, else ``ok``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "spine"))

from compare import compare, worse_by  # noqa: E402
from harness import machine_metadata, median, relative_spread  # noqa: E402
from metrics import FAILED_FRAC  # noqa: E402

RUN = os.path.join("benchmarks", "spine", "run.py")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def base_tree(rev: str) -> Iterator[str]:
    """A temporary worktree of *rev*, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        path = os.path.join(tmp, "base")
        git("worktree", "add", "--detach", path, rev)
        try:
            yield path
        finally:
            git("worktree", "remove", "--force", path)


def run_once(tree: str, workload: str, seconds: float) -> dict:
    """One ``run.py --workload`` in *tree*: its metrics and failed share.

    Raises:
        RuntimeError: when the run exits without its JSON line.
    """
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload,
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{workload} in {tree}: exit {proc.returncode}\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}") from None
    values = {name: m["value"] for name, m in record["metrics"].items()}
    values[FAILED_FRAC] = record["failed"] / max(1, record["attempted"])
    return values


def summarise(workload: str, base_runs: list[dict], change_runs: list[dict],
              contract: dict) -> dict:
    """Per-metric medians, spreads, runs, wins and compare.py's verdict."""
    metrics = [(m["name"], m["better"]) for m in contract["end_to_end"]]
    metrics.append((FAILED_FRAC, "lower"))
    sides = {}
    for side, runs in (("base", base_runs), ("change", change_runs)):
        sides[side] = {name: {"value": median(r[name] for r in runs),
                              "spread": relative_spread(
                                  [r[name] for r in runs])}
                       for name, _better in metrics}
    one = dict(contract, workloads=[{"name": workload}])
    lines, _regressed = compare(
        {"workloads": {workload: {"end_to_end": sides["base"]}}},
        {"workloads": {workload: {"end_to_end": sides["change"]}}}, one)
    # Each row after the header: workload, metric, ..., verdict.
    verdicts = {line.split()[1]: line.split()[-1] for line in lines[1:]}
    pairs = list(zip(base_runs, change_runs))
    out = {}
    for name, better in metrics:
        out[name] = {
            "better": better,
            "base": dict(sides["base"][name],
                         runs=[r[name] for r in base_runs]),
            "change": dict(sides["change"][name],
                           runs=[r[name] for r in change_runs]),
            "change_worse_by": worse_by(sides["base"][name]["value"],
                                        sides["change"][name]["value"],
                                        better),
            "change_wins": sum(worse_by(b[name], c[name], better) < 0
                               for b, c in pairs),
            "verdict": verdicts[name],
        }
    return out


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD^",
                        help="base revision (default: HEAD^)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    result: dict = {
        "change": git("rev-parse", "HEAD"),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "meta": machine_metadata(warn=True),
        "workloads": {},
    }
    with base_tree(args.base) as base:
        result["base"] = git("rev-parse", "HEAD", cwd=base)
        for workload in args.workload or names:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                               "base")
                for side in order:
                    tree = base if side == "base" else ROOT
                    runs[side].append(run_once(tree, workload, args.seconds))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            result["workloads"][workload] = summarise(
                workload, runs["base"], runs["change"], contract)
    for workload, metrics in result["workloads"].items():
        for name, m in metrics.items():
            print(f"{workload:15s} {name:12s} {m['base']['value']:>12.5g} "
                  f"{m['change']['value']:>12.5g} {m['change_worse_by']:+8.3f}"
                  f" wins {m['change_wins']:>2}/{args.pairs}"
                  f" spread {m['base']['spread']:.3f}/"
                  f"{m['change']['spread']:.3f}  {m['verdict']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 1 if any(m["verdict"] == "REGRESSION"
                    for metrics in result["workloads"].values()
                    for m in metrics.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
