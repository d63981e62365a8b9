#!/usr/bin/env python3
"""The benchmark spine's one runner.

Two ways in::

    python3 benchmarks/spine/run.py [--seed N] [--label L] [--repeat K]
    python3 benchmarks/spine/run.py --smoke
    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` it runs the four workloads one after another,
each in a fresh process (so peak RSS and the interpreter's warm state
belong to one workload), prints every metric by name with its unit and
writes ``results/<label>.json``.  With ``--workload`` it runs that one
and prints, as its last line, the JSON object ``BENCHMARK.json``'s
driver reads: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.

One run: generate data, ops and the brute-force oracle from the seed
(untimed), set the system up (timed, repeated, median reported), warm
up, run the timed window, check, and with tracing on replay a fixed op
prefix in process with spans recorded.  End-to-end numbers always come
from the untraced window.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import harness
from harness import ROOT_DIR

if not os.path.isdir(os.path.join(harness.SRC_DIR, "repro")):
    sys.exit("benchmarks/spine/run.py: no src/repro in this checkout; "
             "the spine measures the repository it is checked out in")
sys.path.insert(0, harness.SRC_DIR)

import layers  # noqa: E402
import metrics  # noqa: E402
from serving import ServeCached, ServeUncached  # noqa: E402
from storage import DiskChurn, DiskSearch  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402

WORKLOADS = {cls.name: cls for cls in
             (ServeUncached, ServeCached, DiskSearch, DiskChurn)}
#: Untimed warm-up before the window, as a share of the window.
WARMUP_SHARE = 0.2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_SECONDS = 2
SMOKE_DIVISOR = 20
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


def load_contract() -> dict:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


# -- one workload ------------------------------------------------------------


def run_workload(contract: dict, name: str, seed: int, seconds: float,
                 trace: bool, divisor: int, corrupt_oracle: bool,
                 in_suite: bool) -> dict:
    """Run one workload in this process; returns its full record."""
    # Inside a suite the previous workload's own load is still in the
    # average; the suite checked before it started.
    meta = harness.machine_metadata(warn=not in_suite)
    os.makedirs(harness.SCRATCH_ROOT, exist_ok=True)
    scratch = os.path.join(harness.SCRATCH_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(scratch)
    workload = WORKLOADS[name](seed, divisor, seconds * (1 + WARMUP_SHARE),
                               scratch, corrupt_oracle)
    system = None
    clock = time.perf_counter
    try:
        workload.generate()
        setups = []
        for _ in range(1 if divisor > 1 else SETUP_REPEATS):
            if system is not None:
                workload.teardown(system)
                system = None
            t0 = clock()
            system = workload.setup()
            workload.first_op(system)
            setups.append(clock() - t0)
        warmup = workload.drive(system, seconds * WARMUP_SHARE)
        window = workload.drive(system, seconds)
        peak_rss = workload.peak_rss_mb(system)
        system = workload.finish(system)
        end_to_end = harness.end_to_end(window, setups, peak_rss)

        per_layer: dict[str, float] = {}
        stages: list[dict] = []
        if trace:
            measured, tracer, inprocess_mean = workload.layers(system, window)
            measured.update(layers.table1_anchor())
            latency_mean = (harness.mean(window.latencies)
                            if workload.over_socket else inprocess_mean)
            stages, extra = stage_shares(tracer, inprocess_mean,
                                         latency_mean)
            measured.update(extra)
            names = [m["name"] for m in contract["per_layer"]]
            unknown = sorted(set(measured) - set(names))
            if unknown:
                raise RuntimeError(f"not in BENCHMARK.json: {unknown}")
            # A layer this workload does not exercise reads 0.
            per_layer = {n: float(measured.get(n, 0.0)) for n in names}
            os.makedirs(harness.RESULTS_DIR, exist_ok=True)
            tracer.dump(os.path.join(harness.RESULTS_DIR,
                                     f"trace_{name}.json"), name)
    finally:
        try:
            if system is not None:
                workload.teardown(system)
        finally:
            workload.close()
            shutil.rmtree(scratch, ignore_errors=True)

    attempted = (window.attempted + warmup.attempted
                 + workload.extra_attempted)
    failed = window.failed + warmup.failed + workload.extra_failed
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "divisor": divisor, "meta": meta,
        "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end,
        "samples": {
            "window_ops": window.attempted,
            "window_seconds": window.elapsed,
            "setup_runs_s": setups,
            "per_class": {
                cls: {"n": len(lat), "p50_ms": harness.median(lat) * 1e3}
                for cls, lat in sorted(window.by_class().items())},
        },
        "per_layer": per_layer,
        "stage_share": stages,
    }


def stage_shares(tracer, inprocess_mean: float, latency_mean: float,
                 ) -> tuple[list[dict], dict[str, float]]:
    """Each span name's self time as a share of the end-to-end mean.

    The rows are scaled so that, together with ``server.wire_share``
    (what the socket, asyncio and the thread hand-off add, by
    subtraction), they sum to 1.
    """
    times = tracer.self_times()
    total = sum(self_s for _calls, self_s in times.values())
    in_process = inprocess_mean / latency_mean
    rows = [{"layer": name, "calls": calls, "self_ms": self_s * 1e3,
             "share": self_s / total * in_process}
            for name, (calls, self_s) in
            sorted(times.items(), key=lambda kv: -kv[1][1])]
    return rows, {
        "server.wire_share": 1.0 - in_process,
        "trace.unaccounted_frac": times[ROOT_SPAN][1] / total,
    }


def print_record(record: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    units[metrics.FAILED_FRAC] = "frac"
    samples = record["samples"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"window={samples['window_seconds']:.2f}s  "
          f"n={samples['window_ops']} ops")
    for name, value in record["end_to_end"].items():
        n = (len(samples["setup_runs_s"]) if name == "setup_s"
             else samples["window_ops"])
        print(f"  {name:<14} {value:>14.6g} {units[name]:<6} (n={n})")
    for cls, s in samples["per_class"].items():
        print(f"    class {cls:<14} p50 {s['p50_ms']:>10.4f} ms "
              f"(n={s['n']})")
    if record["per_layer"]:
        print("  per layer (value, unit, what it should move):")
        idle = []
        for name, value in record["per_layer"].items():
            if value:
                print(f"    {name:<44} {value:>12.6g} {units[name]:<5} "
                      f"{metrics.PER_LAYER[name]}")
            else:
                idle.append(name)
        print(f"    idle here (0): {', '.join(idle)}")
        print("  stage share (self time / end-to-end mean latency):")
        print(f"    {'layer':<36} {'calls':>8} {'self ms':>10} {'share':>7}")
        for row in record["stage_share"]:
            print(f"    {row['layer']:<36} {row['calls']:>8} "
                  f"{row['self_ms']:>10.2f} {row['share']:>7.3f}")
        wire = record["per_layer"]["server.wire_share"]
        print(f"    {'server.wire_share (by subtraction)':<36} "
              f"{'':>8} {'':>10} {wire:>7.3f}")
    print(f"  attempted={record['attempted']} failed={record['failed']}")


def driver_line(record: dict, contract: dict, trace: bool) -> str:
    """The one JSON object the contract's driver reads."""
    if trace:
        wanted = contract["per_layer"]
        values = record["per_layer"]
    else:
        wanted = contract["end_to_end"]
        values = record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    })


# -- the suite ---------------------------------------------------------------


def run_suite(contract: dict, seed: int, seconds: float, repeat: int,
              label: str, smoke: bool) -> int:
    """Every workload in its own process; writes ``results/<label>.json``."""
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    out: dict = {"label": label, "seed": seed, "seconds": seconds,
                 "repeat": repeat,
                 "meta": harness.machine_metadata(warn=True),
                 "workloads": {}}
    status = 0
    for name in (w["name"] for w in contract["workloads"]):
        records = []
        for r in range(repeat):
            with tempfile.NamedTemporaryFile(
                    dir=harness.RESULTS_DIR, suffix=".tmp") as tmp:
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed + r),
                       "--seconds", str(seconds),
                       "--trace", "1" if r == 0 else "0",
                       "--record", tmp.name]
                if smoke:
                    cmd.append("--smoke")
                if subprocess.run(cmd).returncode != 0:
                    status = 1
                records.append(json.load(tmp))
        first = records[0]
        end_to_end = {}
        for metric in first["end_to_end"]:
            runs = [rec["end_to_end"][metric] for rec in records]
            end_to_end[metric] = {
                "value": harness.median(runs), "runs": runs,
                "spread": harness.relative_spread(runs)}
        out["workloads"][name] = {
            "end_to_end": end_to_end,
            "attempted": sum(rec["attempted"] for rec in records),
            "failed": sum(rec["failed"] for rec in records),
            "samples": first["samples"],
            "per_layer": first["per_layer"],
            "stage_share": first["stage_share"],
        }
    path = os.path.join(harness.RESULTS_DIR, f"{label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT_DIR)}")
    if smoke:
        check_smoke(out, contract)
        print("smoke ok")
    return status


def check_smoke(result: dict, contract: dict) -> None:
    """The result file has exactly the contract's names, and no failure."""
    want_workloads = [w["name"] for w in contract["workloads"]]
    assert list(result["workloads"]) == want_workloads, want_workloads
    assert set(want_workloads) == set(WORKLOADS), want_workloads
    want_e2e = {m["name"] for m in contract["end_to_end"]}
    want_e2e.add(metrics.FAILED_FRAC)
    want_layers = {m["name"] for m in contract["per_layer"]}
    assert want_layers == set(metrics.PER_LAYER)
    for name, entry in result["workloads"].items():
        assert set(entry["end_to_end"]) == want_e2e, name
        assert set(entry["per_layer"]) == want_layers, name
        for metric in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert NAME_PATTERN.fullmatch(metric), metric
        assert entry["end_to_end"][metrics.FAILED_FRAC]["value"] == 0, name
        assert entry["failed"] == 0, name


# -- command line ------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload and end with the "
                             "driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows on 1/"
                             f"{SMOKE_DIVISOR} of the data, then check "
                             f"the result file against BENCHMARK.json")
    parser.add_argument("--label", default="latest",
                        help="suite: results/<label>.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: runs per workload, seeds seed..seed+K-1;"
                             " the file holds their median and spread")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: falsify one expected answer; the "
                             "run must report it and exit non-zero")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    contract = load_contract()
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    if args.workload is None:
        return run_suite(contract, args.seed, seconds, args.repeat,
                         "smoke" if args.smoke else args.label, args.smoke)

    record = run_workload(contract, args.workload, args.seed, seconds,
                          bool(args.trace),
                          SMOKE_DIVISOR if args.smoke else 1,
                          args.corrupt_oracle, in_suite=bool(args.record))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f)
    print_record(record, contract)
    print(driver_line(record, contract, bool(args.trace)), flush=True)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
