"""ghzforge benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It starts one worker
interpreter for the workload with the BLAS and OpenMP thread counts set
to 1, and times fresh interpreters importing ``ghzforge.cli``
(``setup_s``) before and after it.  The worker runs the jobs, checks
their outputs and returns its measurements.  A summary goes to stdout,
one metric per line with its unit; a full report (machine info, thread
caps, per-command timings, tail latency, error rate) goes to
``.bench_out/``.  The last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see benchmark/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synth-rank1", "csv-general", "validate")
# One thread, so that a job's time depends on the one CPU it runs on.  With
# two, an OpenBLAS helper thread kept the other CPU busy, and on a 2-vCPU
# machine shared with other tenants jobs ran slower and their times were
# far noisier (see README.md).
BLAS_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One untimed launch fills the bytecode and file caches.  Half the timed
# launches run before the worker and half after it, so that they sample
# the machine over the whole run; their median is reported.
SETUP_LAUNCHES = 4
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import ghzforge.cli\n"
    "ghzforge.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
# A worker gets twice --seconds for its jobs (a slow phase of the machine
# stretches its fixed number of passes) and this margin for start-up,
# inputs, warm-up and gates.
WORKER_MARGIN_S = 90


def workload_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(env: dict[str, str], launches: int) -> list[float]:
    """Seconds for fresh interpreters to import ghzforge.cli and build the parser."""
    samples = []
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind like on Ctrl-C: subprocess.run then kills and
    # waits for the launch or worker that is running.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (ROOT / "src" / "ghzforge" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'ghzforge'} is missing; run from a ghzforge checkout",
              file=sys.stderr)
        return 2

    env = workload_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = [] if args.trace else measure_setup(env, SETUP_LAUNCHES + 1)[1:]
        worker = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", str(out_dir / f"spans-{tag}.json")],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=2 * args.seconds + WORKER_MARGIN_S,
        )
        if not args.trace and worker.returncode == 0:
            setup += measure_setup(env, SETUP_LAUNCHES)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    if setup:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    report["metrics"] = metrics
    report["details"]["setup_s_samples"] = setup
    report["details"]["thread_caps"] = {var: env[var] for var in THREAD_VARS}
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in report["details"]["summary"].items():
        print(f"{name} = {value}")
    for failure in report["details"]["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
