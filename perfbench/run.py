"""Run one workload of the repo benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics in an untraced pass;
``--trace 1`` runs an untraced pass for half the time, replays the same
inputs with the per-layer wrappers installed, checks that both passes
produced bit-identical outputs, and prints the per-layer metrics.  Every
workload prints the same metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run context, the workload's
own stage figures (``details``) and the numerator and denominator of
every ratio.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("exact", "fast", "service")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.use_checkout_sources()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    module = __import__(f"workload_{args.workload}")

    if args.trace:
        # The untraced pass and its traced replay share the time.
        outcome = module.run(args.seed, args.seconds / 2, True)
        setup = None
        outcome.metric(
            "error_rate",
            outcome.ratio("error_rate", outcome.failed, outcome.attempted),
            "ratio",
        )
    else:
        setup = harness.measure_setup(args.workload)
        outcome = module.run(args.seed, args.seconds, False)
        outcome.metric("setup_s", harness.median(setup), "s")

    print(json.dumps({
        "context": harness.context(args.seed),
        "setup_samples_s": setup,
        "details": outcome.details,
        "bases": outcome.bases,
        "failures": outcome.failures,
    }))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
