"""Shared measurement helpers: timing windows, percentiles, run hygiene."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

SPINE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(os.path.dirname(SPINE_DIR))
SRC_DIR = os.path.join(ROOT_DIR, "src")
#: Scratch files live on the checkout's own filesystem (never tmpfs),
#: so the ``fsync`` in ``disk_churn`` is a real one.
SCRATCH_ROOT = os.path.join(SPINE_DIR, "scratch")
RESULTS_DIR = os.path.join(SPINE_DIR, "results")

#: Ops of the single-threaded in-process passes that follow the window.
TRACE_PREFIX = 2000


def trace_prefix(divisor: int) -> int:
    """Length of the in-process passes at data size 1/*divisor*."""
    return max(100, TRACE_PREFIX // divisor)


#: ``p99_ms`` is the lowest 99th percentile of any slice of the window,
#: a slice being at least this many consecutive completions (so >=40
#: samples lie beyond it) and the window at most ``MAX_SLICES`` slices.
#: The reference box is a small VM whose neighbours stall it for
#: milliseconds at a time; that only ever adds to a tail, and on the
#: 0.1 ms ops of ``serve_cached`` it *is* the tail (the pooled p99 there
#: spread by 45% between runs of one commit, the quietest slice's by
#: 11%).  A workload with fewer samples keeps the pooled percentile.
SLICE_SAMPLES = 4000
MAX_SLICES = 40


@dataclass
class Window:
    """What one timed window produced."""

    #: op latencies in seconds, in completion order per driver thread
    latencies: list[float]
    #: completion time of each op on the ``perf_counter`` clock
    ends: list[float]
    #: op class of each entry of *latencies*
    classes: list[str]
    failed: int
    start: float
    elapsed: float
    #: workload-specific extras (counter deltas, flush times ...)
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def by_class(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for cls, lat in zip(self.classes, self.latencies):
            out.setdefault(cls, []).append(lat)
        return out


class Workload:
    """What ``run.py`` drives; the four workloads fill in the rest:
    ``generate``, ``setup``, ``first_op``, ``drive``, ``peak_rss_mb``,
    ``layers`` and ``teardown``."""

    name: str
    #: True when ops travel over a socket, so that their end-to-end
    #: latency exceeds their in-process time
    over_socket: bool

    def __init__(self, seed: int, divisor: int, seconds: float,
                 scratch: str, corrupt_oracle: bool):
        self.seed = seed
        self.divisor = divisor        # 1, or 20 for --smoke
        self.seconds = seconds        # warm-up plus window
        self.scratch = scratch
        self.corrupt_oracle = corrupt_oracle
        #: full-result checks made outside the timed windows
        self.extra_attempted = 0
        self.extra_failed = 0

    def _check(self, ok: bool) -> None:
        self.extra_attempted += 1
        if not ok:
            self.extra_failed += 1

    def finish(self, system):
        """Checks after the window; returns the system to tear down."""
        return system

    def close(self) -> None:
        """Release whatever outlived ``teardown`` (called on every exit
        path)."""


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median — the contract's spread."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def end_to_end(window: Window, setup_times: Sequence[float],
               peak_rss_mb: float) -> dict[str, float]:
    """The six end-to-end metrics of one run."""
    n = window.attempted
    by_time = [lat for _end, lat in sorted(zip(window.ends,
                                               window.latencies))]
    slices = max(1, min(MAX_SLICES, n // SLICE_SAMPLES))
    size = n // slices
    tails = [percentile(sorted(by_time[i * size:(i + 1) * size]), 0.99)
             for i in range(slices)]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (n - window.failed) / window.elapsed,
        "p50_ms": statistics.median(window.latencies) * 1e3,
        "p99_ms": min(tails) * 1e3,
        "failed_frac": window.failed / n,
        "peak_rss_mb": peak_rss_mb,
    }


# -- memory -----------------------------------------------------------------


def peak_rss_self_mb() -> float:
    """High-water RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_of_mb(pid: int) -> float:
    """High-water RSS of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- run hygiene ------------------------------------------------------------


def filesystem_type(path: str) -> str:
    """Filesystem of the longest mount point that prefixes *path*."""
    path = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                _dev, mount, fstype = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, best_type = mount, fstype
    except OSError:
        pass
    return best_type


def commit_id() -> str:
    # A checkout that is not a repository must not report the HEAD of
    # whatever repository happens to contain it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT_DIR))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT_DIR,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_metadata(warn: bool) -> dict:
    """nproc, interpreter, commit, scratch filesystem and load at start."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    if warn and load1 > nproc / 2:
        print(f"warning: 1-minute load average {load1:.2f} exceeds "
              f"nproc/2 = {nproc / 2:g}; timings will be noisy",
              file=sys.stderr)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(),
        "scratch_fs": filesystem_type(SPINE_DIR),
        "load1_at_start": load1,
    }
