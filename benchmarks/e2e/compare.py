"""bench-diff: judge a change against its parent from paired benchmark runs.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py --parent P1 P2 ... --change C1 C2 ... \\
        [--claim METRIC@WORKLOAD ...]

Each argument is a ``run.py --out`` directory (or one ``<workload>.json``
file from one).  Runs pair up in the order given — ``P1`` with ``C1`` and
so on — and should have been made alternately, each pair starting with
the other side than the last.  For every end-to-end metric
``BENCHMARK.json`` declares, on every workload:

* a **claimed** metric has improved only if there are at least ten pairs,
  the change wins at least nine tenths of them (ties count for neither
  side) and the medians differ by more than the parent's own spread, its
  interquartile range;
* every other metric must not be worse than the parent's median by more
  than its bound.  Where the parent's spread is wider than the bound the
  metric is **unresolved**, unless every change run beats every parent
  run.

One row per workload is printed, then each side's median and quartiles.
The exit code is 1 if any metric regressed or any claim was not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from measure import load_benchmark_spec, quartiles

CLAIM_WIN_SHARE = 0.9
#: Fewest pairs a claim may rest on.
MIN_PAIRS = 10


def load_runs(paths) -> list:
    """``[{workload: {metric: value}}]``, one dict per argument."""
    runs = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        run = {}
        for f in files:
            data = json.loads(f.read_text(encoding="utf-8"))
            if "workload" in data and not data.get("traced"):
                run[data["workload"]] = {
                    k: v["value"] for k, v in data["metrics"].items()
                }
        runs.append(run)
    return runs


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound, claimed) -> tuple:
    """Verdict for one metric on one workload from paired runs.

    Returns ``(verdict, relative_change)``; the change is signed so that
    positive means worse.
    """
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    if claimed:
        wins = sum(_better(c, p, direction) for p, c in zip(parent, change))
        met = (
            len(parent) >= MIN_PAIRS
            and wins >= CLAIM_WIN_SHARE * len(parent)
            and _better(cm, pm, direction)
            and abs(cm - pm) > p3 - p1
        )
        return ("improved" if met else "claim not met"), worse
    if all(_better(c, p, direction) for c in change for p in parent):
        return "better", worse
    if (p3 - p1) / pm > bound:
        return "unresolved", worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", nargs="*", default=[],
                        help="METRIC@WORKLOAD the change claims to improve")
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of runs")
    spec = load_benchmark_spec()
    parents, changes = load_runs(args.parent), load_runs(args.change)
    claims = set(args.claim)
    metrics = spec["end_to_end"]
    failed = False
    details = []
    print("workload".ljust(14) + "".join(m["name"][:22].ljust(24)
                                         for m in metrics))
    for w in (w["name"] for w in spec["workloads"]):
        if not all(w in r for r in parents + changes):
            continue
        cells = []
        for m in metrics:
            p = [r[w][m["name"]] for r in parents]
            c = [r[w][m["name"]] for r in changes]
            claimed = f"{m['name']}@{w}" in claims
            verdict, worse = judge(p, c, m["better"], m["bound"], claimed)
            failed |= verdict in ("REGRESSION", "claim not met")
            cells.append(f"{verdict} {worse:+.1%}".ljust(24))
            details.append(
                f"  {w:14s} {m['name']:16s} parent "
                + "/".join(f"{x:.4g}" for x in quartiles(p))
                + "  change " + "/".join(f"{x:.4g}" for x in quartiles(c))
            )
        print(w.ljust(14) + "".join(cells))
    print("\nq1/median/q3 per side:")
    print("\n".join(details))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
