#!/usr/bin/env python3
"""Compare pulse profiles at matched squared area.

For one sign choice, builds the constant-rate schedule as the baseline,
then sweeps the trapezoid ramp fraction, rescaling every trapezoid to
the baseline's squared area before propagating it.  The resulting table
shows how the duration and peak amplitude trade off while the
conversion fidelity stays put, which is the point of the area account:
the integrated squared amplitude, not the shape, fixes the resource.

Writes one CSV row per ramp fraction.  Progress goes to stderr so the
CSV on stdout stays clean.  Input the package refuses, such as a
duration that is not positive and finite or more samples than propagate
can certify, is a usage error (exit 2).
"""

import argparse
import csv
import sys
import time

import numpy as np

from ghzforge.propagate import normalize_to_area, propagate, squared_area
from ghzforge.synthesis import SphericalCurve, rabi_schedule, solve_endpoints

FIELDS = (
    "ramp_fraction",
    "duration",
    "peak_amplitude",
    "squared_area",
    "ghz_fidelity",
    "ghz_phase",
)


def build_schedule(endpoint, kind, tau, duration, samples):
    return rabi_schedule(SphericalCurve(endpoint, kind, duration, tau), samples)


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
        "--max-ramp",
        type=float,
        default=0.45,
        help="largest ramp fraction in the sweep (default: 0.45)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=10,
        help="number of ramp fractions, evenly spaced from 0 (default: 10)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="baseline constant-profile duration (default: 1.0)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="schedule samples per profile (default: 1000)",
    )
    parser.add_argument(
        "--out",
        default="-",
        help="CSV output path, '-' for stdout (default: -)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_ramp < 0.5:
        parser.error("--max-ramp must lie in [0, 0.5)")
    if args.points < 1:
        parser.error("--points must be at least 1")

    try:
        endpoint = solve_endpoints(tuple(args.signs))
        baseline = build_schedule(endpoint, "constant", 0.0, args.duration, args.samples)
    except ValueError as exc:
        parser.error(str(exc))
    reference_area = squared_area(baseline)
    print(
        f"baseline constant profile: duration {baseline.duration:g}, "
        f"squared area {reference_area:.6f}",
        file=sys.stderr,
    )

    rows = []
    for tau in np.linspace(0.0, args.max_ramp, args.points):
        tau = float(tau)
        start = time.perf_counter()
        if tau == 0.0:
            schedule = baseline
        else:
            raw = build_schedule(endpoint, "trapezoid", tau, args.duration, args.samples)
            schedule = normalize_to_area(raw, reference_area)
        result = propagate(schedule)
        rows.append(
            {
                "ramp_fraction": tau,
                "duration": schedule.duration,
                "peak_amplitude": float(np.max(np.abs(schedule.values))),
                "squared_area": squared_area(schedule),
                "ghz_fidelity": result.final_fidelity,
                "ghz_phase": float("nan") if result.ghz_phase is None else result.ghz_phase,
            }
        )
        print(
            f"ramp {tau:.3f}: duration {schedule.duration:.4f}, "
            f"fidelity {result.final_fidelity:.9f} "
            f"({time.perf_counter() - start:.2f} s)",
            file=sys.stderr,
        )

    sink = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.DictWriter(sink, fieldnames=FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: repr(float(row[key])) for key in FIELDS})
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
