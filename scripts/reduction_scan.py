#!/usr/bin/env python3
"""Scan the effective-model error against the scale-hierarchy factor.

Synthesizes one schedule, then embeds it in the three-atom model at a
range of hierarchy factors (strong drive at factor times the scheduled
peak, blockade and strong-tone detuning at 2 factor^2 times it).  For
each factor the full model is integrated on its permutation-symmetric
4x4 block and compared with the four-level effective prediction,
yielding the infidelity.

How the infidelity falls with the factor is recorded under item 1 of
ROADMAP.md: it is not monotone.  There is no leakage
column: the symmetric drive never couples to the antisymmetric states,
so the block integration cannot leave the manifold.  Input the package
refuses, such as a factor that is not positive and finite, is a usage
error (exit 2) before any factor is integrated; so is a factor that
needs more steps than the integrator's cap.  A factor below the
package's minimum hierarchy factor is scanned too, with hierarchy_ok
false.
Writes one CSV row per factor.
"""

import argparse
import csv
import sys
import time

from ghzforge.fullmodel import DEFAULT_STEPS_PER_CYCLE, compare_factors
from ghzforge.synthesis import SphericalCurve, rabi_schedule, solve_endpoints

FIELDS = (
    "factor",
    "ratio_upper",
    "ratio_lower",
    "hierarchy_ok",
    "infidelity",
    "steps",
    "dt",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--signs",
        type=int,
        nargs=3,
        default=(1, -1, 1),
        metavar=("Q1", "Q2", "Q3"),
        help="sign triple selecting the endpoint branch (default: 1 -1 1)",
    )
    parser.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=(2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0),
        help="hierarchy factors to scan (default: 2 3 5 8 12 20 30)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="schedule duration (default: 1.0)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=400,
        help="schedule samples (default: 400)",
    )
    parser.add_argument(
        "--steps-per-cycle",
        type=int,
        default=DEFAULT_STEPS_PER_CYCLE,
        help="full-model accuracy S: each linear piece takes ceil(length S^(2/3) max(stark, 24 peak))"
        " steps, and the state errs by at most the midpoint rule's 0.026/S^2 (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="-",
        help="CSV output path, '-' for stdout (default: -)",
    )
    args = parser.parse_args(argv)
    try:
        endpoint = solve_endpoints(tuple(args.signs))
        schedule = rabi_schedule(SphericalCurve(endpoint, "constant", args.duration), args.samples)
        start = time.perf_counter()
        reports, _ = compare_factors(schedule, args.factors, args.steps_per_cycle, force=True)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"scanned {len(reports)} factors in {time.perf_counter() - start:.2f} s", file=sys.stderr)

    rows = []
    for factor, report in zip(args.factors, reports):
        rows.append(
            {
                "factor": repr(float(factor)),
                "ratio_upper": repr(report.ratio_upper),
                "ratio_lower": repr(report.ratio_lower),
                "hierarchy_ok": str(report.hierarchy_ok).lower(),
                "infidelity": repr(report.effective_vs_full_infidelity),
                "steps": str(report.steps),
                "dt": repr(report.dt),
            }
        )
        print(
            f"factor {factor:g}: infidelity {report.effective_vs_full_infidelity:.3e}, "
            f"{report.steps} steps",
            file=sys.stderr,
        )

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.DictWriter(sink, fieldnames=FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
