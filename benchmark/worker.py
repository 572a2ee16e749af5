"""Runs one workload in a fresh interpreter; started by benchmark/run.py.

Jobs are ``ghzforge.cli.main(argv)`` calls made in this process, one
after another (a closed loop with one client).  Whole passes over the
job list repeat for about ``--seconds`` of job time: the number of
passes is fixed by ``--seconds`` and the workload's nominal pass length,
not by how fast the machine runs, so that a run made in a slow phase
does not also time each job fewer times.  A job's time is the fastest of
its repeats: the machine's other tenants only ever slow a job down, and
the fastest repeat is the one they disturbed least.  Payloads are hashed
and summarized between jobs, outside the timed region, and the gates run
after the loop.  With ``--trace 1`` every timed job runs a second time
right after, with spans recorded, and the per-layer metrics come from
those traced runs.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ghzforge.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10


def run_job(job: workloads.Job, phase: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = ghzforge.cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing job is a failed job; the loop goes on
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    record = {"job": job, "phase": phase, "rc": rc, "seconds": seconds,
              "stderr": err.getvalue()[-2000:]}
    digest = hashlib.sha256(out.getvalue().encode())
    try:
        for path in job.outputs:
            digest.update(Path(path).read_bytes())
        record["summary"] = workloads.summarize(job, out.getvalue()) if rc == 0 else None
    except (OSError, ValueError, KeyError) as exc:
        record["rc"] = record["rc"] or -1
        record["stderr"] += f"\nunreadable payload: {exc!r}"
        record["summary"] = None
    record["digest"] = digest.hexdigest()
    return record


def run_passes(jobs, passes: int, records: list, recorder: tracer.Tracer | None) -> None:
    """Run `passes` whole passes over the job list.

    With a recorder, every job runs a second time right after its timed
    run, with spans recorded, so that both runs see the machine in about
    the same state.
    """
    for _ in range(passes):
        for job in jobs:
            records.append(run_job(job, "timed"))
            if recorder is not None:
                recorder.job = len(records)
                with recorder.installed():
                    records.append(run_job(job, "traced"))


def find_failures(records: list[dict], gate) -> list[tuple[int, str]]:
    failures = [(i, f"exit code {r['rc']}: {r['stderr'].strip()[-300:]}")
                for i, r in enumerate(records) if r["rc"] != 0]
    good = [i for i, r in enumerate(records) if r["rc"] == 0]
    failures += [(good[i], msg) for i, msg in gate([records[i] for i in good])]
    first_digest: dict = {}
    for i, rec in enumerate(records):
        reference = first_digest.setdefault(rec["job"], (i, rec["digest"]))
        if rec["digest"] != reference[1]:
            failures.append((i, f"payload differs from identical job #{reference[0]}"))
    return failures


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it."""
    rank = len(times) - TAIL_BEYOND
    if rank < 1:
        return None
    return {"value_s": sorted(times)[rank - 1], "percentile": 100.0 * rank / len(times),
            "samples": len(times)}


def machine_info() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 prints its configuration only
        blas = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    source = Path(ghzforge.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: ghzforge imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(args.workload, args.seed, work)
        records = [run_job(job, "input") for job in plan.inputs]
        records += [run_job(job, "warmup") for job in plan.warmup]
        recorder = tracer.Tracer() if args.trace else None
        # A traced pass runs every job twice, so it counts twice.
        passes = max(1, round(args.seconds / ((1 + args.trace) * plan.pass_seconds)))
        run_passes(plan.jobs, passes, records, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = find_failures(records, plan.gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r["seconds"] for r in records if r["phase"] == "timed"]
    # A job's time is the fastest of its repeats.  The timed records run in
    # pass order, so job k of the pass is every len(plan.jobs)-th one from k.
    best = [min(timed[k::len(plan.jobs)]) for k in range(len(plan.jobs))]
    failed_jobs = {i for i, _ in failures}
    by_kind: dict[str, list[float]] = {}
    for r in records:
        if r["phase"] == "timed":
            by_kind.setdefault(r["job"].argv[0], []).append(r["seconds"])
    summary = {
        "passes": passes,
        "jobs_timed": len(timed),
        "job_s_p50_all": statistics.median(timed),
        "jobs_per_s_all": len(timed) / sum(timed),
        "error_rate": len(failed_jobs) / len(records),
        "job_s_tail": tail(timed),
        "job_s_p50_by_command": {k: statistics.median(v) for k, v in by_kind.items()},
    }
    if args.trace:
        traced = [r["seconds"] for r in records if r["phase"] == "traced"]
        spans = recorder.spans
        metrics = {name: metric(value, tracer.unit(name))
                   for name, value in tracer.layer_metrics(spans, passes).items()}
        metrics["trace.jobs_s"] = metric(sum(traced) / passes, "s")
        metrics["trace.overhead_s"] = metric((sum(traced) - sum(timed)) / passes, "s")
        Path(args.spans).write_text(json.dumps(
            {"fields": ["id", "parent", "job", "layer", "name", "start", "end", "counts"],
             "jobs": [list(r["job"].argv) for r in records], "spans": spans}))
    else:
        metrics = {
            "job_s_p50": metric(statistics.median(best), "s"),
            "jobs_per_s": metric(len(best) / sum(best), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failed_jobs),
        "metrics": metrics,
        "details": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine_info(),
            "summary": summary,
            "jobs": [{"argv": list(r["job"].argv), "phase": r["phase"], "rc": r["rc"],
                      "seconds": r["seconds"], "steps": (r["summary"] or {}).get("steps")}
                     for r in records],
            "failures": [f"job #{i} {' '.join(records[i]['job'].argv)}: {msg}"
                         for i, msg in failures],
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
