"""Statistics, spans and metric definitions shared by the e2e benchmark.

Nothing here imports ``repro``: the orchestrator (``run.py``) and the
comparison script (``compare.py``) use this module without the package
under test on the path.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path
from time import monotonic_ns

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

WORKLOADS = ("sim-large", "sim-mix", "serve-mixed", "serve-cluster")
SIM = ("sim-large", "sim-mix")
SERVE = ("serve-mixed", "serve-cluster")

#: Every end-to-end metric the command prints: name -> (unit, better,
#: workloads it applies to).  ``BENCHMARK.json`` gates the subset that is
#: defined and never 0 on all four workloads.
END_TO_END = {
    "setup_s": ("s", "lower", WORKLOADS),
    "ops_per_s": ("1/s", "higher", WORKLOADS),
    "node_steps_per_s": ("1/s", "higher", SIM),
    "latency_ms_p50": ("ms", "lower", WORKLOADS),
    "latency_ms_p90": ("ms", "lower", WORKLOADS),
    "slo_frac": ("ratio", "higher", SERVE),
    "failed_frac": ("ratio", "lower", WORKLOADS),
    "peak_rss_mb": ("MB", "lower", WORKLOADS),
}

#: A latency sample the open loop counts as meeting the service level.
SLO_MS = 50.0

#: Fewest samples a percentile needs beyond it to be reported as measured.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``;
    0.0 for an empty sample."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """Samples of ``n`` that lie beyond the ``q``-quantile."""
    return int(n * (1.0 - q) + 1e-9)


def supported(n: int, q: float) -> bool:
    """True iff the ``q``-quantile of ``n`` samples has at least
    :data:`MIN_BEYOND` samples beyond it."""
    return beyond(n, q) >= MIN_BEYOND


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span is a dict ``{id, name, start_ns, end_ns, parent, op_id,
    workload, trial}`` plus free-form tags (``job_hash``, ``outcome``…).
    Times come from :func:`time.monotonic_ns`, which every process on the
    host shares, so spans of the load generator and the server harness
    lie on one clock.  A span recorded while a :meth:`span` block is open
    gets that block's span as its parent.
    """

    def __init__(self, workload: str = "", trial: int = 0) -> None:
        self.workload = workload
        self.trial = trial
        self.spans: list[dict] = []
        self.op_id = None
        self._open: list[dict] = []

    def record(self, name, start_ns, end_ns, **tags) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": self._open[-1]["id"] if self._open else None,
            "op_id": self.op_id,
            "workload": self.workload,
            "trial": self.trial,
        }
        span.update(tags)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, **tags):
        """Time the body; yields the span (its ``end_ns`` is set on exit)."""
        span = self.record(name, monotonic_ns(), 0, **tags)
        self._open.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span["end_ns"] = monotonic_ns()


def _covered(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``{span id: self ns}``: each span's duration minus the part of its
    interval that its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [
            (max(c["start_ns"], lo), min(c["end_ns"], hi))
            for c in children.get(s["id"], ())
            if c["end_ns"] > lo and c["start_ns"] < hi
        ]
        out[s["id"]] = (hi - lo) - _covered(kids)
    return out


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_commit():
    """HEAD of the checkout, or None when the checkout is no git work tree
    (git is kept from looking further up)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_fingerprint() -> dict:
    """What a result depends on besides the code: CPUs and library
    versions."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": git_commit(),
    }


def load_benchmark_spec() -> dict:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
