"""One trial of one workload in a fresh process.

Prints the trial's record as one JSON line on stdout; with ``--spans
FILE`` a traced trial also appends its spans to FILE.  ``run.py`` starts
one of these per trial, with ``src`` and ``benchmarks`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys

from measure import SIM, WORKLOADS, Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trial", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    if args.workload in SIM:
        import sim

        tracer = Tracer(args.workload, args.trial) if args.trace else None
        trial = sim.large_trial if args.workload == "sim-large" else sim.mix_trial
        record = trial(args.seed, args.trial, args.seconds, tracer)
    else:
        import serve

        record = serve.run_trial(
            args.workload, args.seed, args.trial, args.seconds, args.trace
        )
    spans = record.pop("spans", None)
    if spans and args.spans:
        with open(args.spans, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
