"""The benchmark's workloads: seeded inputs, job lists and correctness gates.

A workload is prepared once per run into a ``Plan``: untimed jobs that
write its inputs, untimed warm-up jobs, the job list of one pass, and
the nominal length of a pass.
Every job is a ``ghzforge.cli.main`` argument list whose output files
lie in the run's work directory.  After each job the worker hashes its
payload (captured stdout plus output files) and keeps a short summary;
the gates below read only those summaries, after the timed loop.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The eight endpoint sign triples in the order `ghz-forge endpoints` prints them.
SIGN_ORDER = (
    (1, -1, 1), (1, 1, 1), (-1, 1, 1), (-1, -1, 1),
    (-1, 1, -1), (-1, -1, -1), (1, -1, -1), (1, 1, -1),
)
HEADER = "t,omega1,omega2,omega3"

SYNTH_FIDELITY_TOL = 1e-6
ROUND_TRIP_TOL = 1e-7
REFERENCE_TOL = 1e-6
LEAKAGE_MAX = 1e-12
INFIDELITY_MAX = 0.05
# Below this |<ggg|psi>| or |<rrr|psi>| the program reports no GHZ phase.
PHASE_AMPLITUDE_FLOOR = 0.1


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    info: dict = field(default_factory=dict, compare=False)


@dataclass
class Plan:
    inputs: list[Job]  # untimed jobs that write the inputs, run once
    warmup: list[Job]  # untimed, before the timed loop
    jobs: list[Job]  # one pass of the closed loop
    # About how long one pass takes on the machine the benchmark was tuned
    # on (see README.md).  A run makes round(seconds / pass_seconds) passes,
    # so every run of a workload times each job the same number of times.
    pass_seconds: float
    # Reads the records of the jobs that exited 0 ("job", "summary", ...)
    # and returns (index into that list, message) for each failed check.
    gate: Callable[[list[dict]], list[tuple[int, str]]]


def _r(x: float) -> str:
    return repr(float(x))


def summarize(job: Job, stdout: str) -> dict:
    """The fields of a job's payload that the gates read."""
    if job.kind == "check":
        match = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.M)
        return {"passed": bool(match) and match.group(1) == match.group(2)}
    if job.kind == "synthesize" or not job.outputs:
        return {}
    payload = json.loads(Path(job.outputs[0]).read_text())
    if job.kind == "endpoints":
        return {"phases": {",".join(str(row[q]) for q in ("q1", "q2", "q3")): row["ghz_phase"]
                           for row in payload["endpoints"]}}
    if job.kind == "propagate":
        keys = ("final_fidelity", "ghz_phase", "forward_ghz_phase", "steps")
        return {key: payload.get(key) for key in keys}
    if job.kind == "validate":
        reports = [payload] + ([payload["comparison"]] if payload["comparison"] else [])
        return {
            "reports": [{key: report[key] for key in
                         ("hierarchy_factor", "hierarchy_ok", "leakage_max",
                          "effective_vs_full_infidelity", "steps")} for report in reports],
            "infidelity_decreased": (payload["comparison"] or {}).get("infidelity_decreased"),
        }
    return {}


def _phase_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


# ---------------------------------------------------------------------------
# synth-rank1: synthesized (rank-1) schedules of seeded endpoints

# Endpoints per run, each with both profiles: a pass of 14 jobs takes
# about 2.8 s, so every job repeats several times in a run.
SYNTH_ENDPOINTS = 2
SYNTH_PASS_SECONDS = 2.8


def plan_synth_rank1(rng: np.random.Generator, work: Path) -> Plan:
    endpoints_json = str(work / "endpoints.json")
    jobs = [
        Job("endpoints", ("endpoints", "--out", endpoints_json), (endpoints_json,)),
        Job("check", ("check",)),
    ]
    # Every endpoint's schedule costs the same to propagate, so the seed
    # picks which ones a run uses; ten seeds cover all eight.
    picked = sorted(rng.choice(len(SIGN_ORDER), SYNTH_ENDPOINTS, replace=False))
    combos = [(SIGN_ORDER[e], profile) for e in picked for profile in ("constant", "trapezoid")]
    for i in rng.permutation(len(combos)):
        signs, profile = combos[i]
        csv, fwd, rev = (str(work / f"s{i}{ext}") for ext in (".csv", "-fwd.json", "-rev.json"))
        q = dict(zip(("--q1", "--q2", "--q3"), (str(s) for s in signs)))
        synth = ("synthesize", *(x for kv in q.items() for x in kv), "--profile", profile,
                 "--duration", _r(rng.uniform(0.8, 1.25)),
                 "--samples", str(rng.integers(800, 1201)), "--out", csv)
        key = ",".join(str(s) for s in signs)
        jobs += [
            Job("synthesize", synth, (csv,)),
            Job("propagate", ("propagate", "--schedule", csv, "--out", fwd), (fwd,),
                {"signs": key}),
            Job("propagate", ("propagate", "--schedule", csv, "--reverse", "--out", rev), (rev,),
                {"signs": key, "reverse": True}),
        ]
    return Plan(inputs=[], warmup=[jobs[2], jobs[4]], jobs=jobs,
                pass_seconds=SYNTH_PASS_SECONDS, gate=gate_synth_rank1)


def gate_synth_rank1(records: list[dict]) -> list[tuple[int, str]]:
    phases = next((r["summary"]["phases"] for r in records
                   if r["job"].kind == "endpoints" and r["rc"] == 0), None)
    failures = []
    for idx, rec in enumerate(records):
        job, summary = rec["job"], rec["summary"]
        if job.kind == "endpoints" and len(summary["phases"]) != len(SIGN_ORDER):
            failures.append((idx, f"expected {len(SIGN_ORDER)} endpoints"))
        elif job.kind == "check" and not summary["passed"]:
            failures.append((idx, "structural check suite reported a failure"))
        elif job.kind == "propagate" and job.info.get("reverse"):
            if not summary["final_fidelity"] >= 1.0 - ROUND_TRIP_TOL:
                failures.append((idx, f"round trip to W reached {summary['final_fidelity']!r}"))
        elif job.kind == "propagate":
            if phases is None or summary["ghz_phase"] is None:
                failures.append((idx, "no endpoint table or no GHZ phase to compare"))
                continue
            # |<GHZ(p)|psi>|^2 = F(q) - |a||d| (1 - cos(p - q)) with q the reached phase
            # and |a||d| <= 1/2, so this is a lower bound on the fidelity at the
            # endpoint's phase.
            gap = _phase_gap(summary["ghz_phase"], phases[job.info["signs"]])
            fidelity = summary["final_fidelity"] - math.sin(0.5 * gap) ** 2
            if not fidelity >= 1.0 - SYNTH_FIDELITY_TOL:
                failures.append((idx, f"fidelity to GHZ at the endpoint phase {fidelity!r}"))
    return failures


# ---------------------------------------------------------------------------
# csv-general: seeded smooth schedules that are not rank 1

HARMONICS = 3
SHAPE_JITTER = 0.01
# (rows, shape, rotation angle, flags).  Shape seeds and angles were chosen
# so that step doubling stops at 8192, 16384 or 32768 steps (2 to 4
# passes): the first certificate (4096 against 8192 steps) sits about a
# factor 2 inside the range that gives that final count, so the 1% jitter
# does not change it.  The final states keep |ggg| and |rrr| above 0.2,
# which keeps the GHZ phase defined.  A pass takes about 2.5 s, so every
# job repeats several times in a run.
CSV_SPECS = (
    (200, 1, 2.9866, ()),
    (700, 1, 14.6543, ()),
    (1000, 1, 3.0839, ("--normalize-area",)),
    (5000, 0, 4.7685, ("--normalize-area",)),
    (20000, 1, 2.9853, ("--reverse",)),
    (50000, 0, 4.7685, ()),
)
CSV_PASS_SECONDS = 2.5


def smooth_schedule(shape: int, rows: int, theta: float, duration: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A smooth three-tone schedule of root-mean-square rotation angle theta.

    Each amplitude is an offset plus a few sine harmonics with
    coefficients fixed by ``shape`` and jittered by ``rng``; the three
    amplitudes are not proportional, so the schedule is not rank 1.
    """
    base = np.random.default_rng(shape)
    offset = base.uniform(-1, 1, 3)
    amps = base.uniform(-1, 1, (3, HARMONICS)) / np.arange(1, HARMONICS + 1)
    phases = base.uniform(0, 2 * np.pi, (3, HARMONICS))
    amps = amps * (1 + SHAPE_JITTER * rng.uniform(-1, 1, amps.shape))
    offset = offset * (1 + SHAPE_JITTER * rng.uniform(-1, 1, 3))
    u = np.linspace(0.0, 1.0, rows)
    arg = np.pi * np.arange(1, HARMONICS + 1) * u[:, None, None] + phases[None]
    values = offset[None, :] + np.einsum("km,tkm->tk", amps, np.sin(arg))
    rms = math.sqrt(float(np.mean(np.sum(values**2, axis=1))))
    return u * duration, values * (theta / (duration * rms))


def write_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    """Write a schedule CSV; repr() round-trips, so the program reads these exact values."""
    lines = [HEADER] + [f"{_r(t)},{_r(a)},{_r(b)},{_r(c)}" for t, (a, b, c) in zip(times, values)]
    path.write_text("\n".join(lines) + "\n")


def plan_csv_general(rng: np.random.Generator, work: Path) -> Plan:
    jobs = []
    for i, (rows, shape, theta, flags) in enumerate(CSV_SPECS):
        duration = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        times, values = smooth_schedule(shape, rows, theta, duration, rng)
        write_csv(work / f"g{i}.csv", times, values)
        argv = ["propagate", "--schedule", str(work / f"g{i}.csv")]
        if "--normalize-area" in flags:
            area = float(rng.uniform(1.0, 50.0))
            # --normalize-area divides the times and multiplies the amplitudes
            # by one factor, which leaves the reached state unchanged, so the
            # reference integrates the schedule as written.
            argv += ["--normalize-area", _r(area)]
        if "--reverse" in flags:
            argv.append("--reverse")
        out = str(work / f"g{i}.json")
        jobs.append(Job("propagate", (*argv, "--out", out), (out,),
                        {"times": times, "values": values, "reverse": "--reverse" in flags}))
    return Plan(inputs=[], warmup=[jobs[0]], jobs=jobs,
                pass_seconds=CSV_PASS_SECONDS, gate=gate_csv_general)


def reference_state(times: np.ndarray, values: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Final state under the piecewise-linear schedule, by scipy's DOP853.

    The right-hand side works on Python floats: at this size a handful of
    scalar operations costs less than the same operations on arrays.
    """
    from scipy.integrate import solve_ivp

    knots = times.tolist()
    rows = values.tolist()
    slopes = (np.diff(values, axis=0) / np.diff(times)[:, None]).tolist()
    last = len(slopes) - 1

    def rhs(t, y):
        k = min(max(bisect.bisect_right(knots, t) - 1, 0), last)
        (a, b, c), (da, db, dc), dt = rows[k], slopes[k], t - knots[k]
        o1, o2, o3 = a + da * dt, b + db * dt, c + dc * dt
        x0, x1, x2, x3, y0, y1, y2, y3 = y
        # d(x + iy)/dt = -i H (x + iy) = H y - i H x for the real ladder H
        return [o1 * y1, o1 * y0 + o2 * y2, o2 * y1 + o3 * y3, o3 * y2,
                -o1 * x1, -(o1 * x0 + o2 * x2), -(o2 * x1 + o3 * x3), -o3 * x2]

    sol = solve_ivp(rhs, (0.0, knots[-1]), np.concatenate([psi0.real, psi0.imag]),
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    return y[:4] + 1j * y[4:]


def _ghz_readout(psi: np.ndarray) -> tuple[float, float | None]:
    """Fidelity to GHZ at the reached phase, and that phase (None when undefined)."""
    if min(abs(psi[0]), abs(psi[3])) <= PHASE_AMPLITUDE_FLOOR:
        return 0.5 * abs(psi[0] + psi[3]) ** 2, None
    phase = float((np.angle(psi[3]) - np.angle(psi[0])) % (2.0 * math.pi))
    return 0.5 * abs(psi[0] + np.exp(-1j * phase) * psi[3]) ** 2, phase


def reference_payload(job: Job) -> dict:
    w = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    fidelity, phase = _ghz_readout(reference_state(job.info["times"], job.info["values"], w))
    if not job.info["reverse"]:
        return {"final_fidelity": fidelity, "ghz_phase": phase}
    # The reversed, negated schedule propagates by the exact inverse, so the
    # round trip ends on W: fidelity 1 and no GHZ phase.
    return {"final_fidelity": 1.0, "ghz_phase": None, "forward_ghz_phase": phase}


def gate_csv_general(records: list[dict]) -> list[tuple[int, str]]:
    references: dict[Job, dict] = {}
    failures = []
    for idx, rec in enumerate(records):
        job, summary = rec["job"], rec["summary"]
        if job not in references:
            references[job] = reference_payload(job)
        for key, want in references[job].items():
            got = summary[key]
            if want is None or got is None:
                ok = want is None and got is None
            elif key.endswith("phase"):
                ok = _phase_gap(got, want) <= REFERENCE_TOL
            else:
                ok = abs(got - want) <= REFERENCE_TOL
            if not ok:
                failures.append((idx, f"{key} {got!r} vs reference {want!r}"))
    return failures


# ---------------------------------------------------------------------------
# validate: the full eight-level model against the four-level one

# Full-model steps per unit of the fastest phase (the program's default
# is 50).  At 14 a pass of the two jobs takes about 7.5 s, so each job
# runs three times in a run, and the full model still does about 91% of
# the work: the certified `propagate` of each report costs about 0.15 s.
VALIDATE_STEPS_PER_CYCLE = "14"
VALIDATE_PASS_SECONDS = 7.5


def plan_validate(rng: np.random.Generator, work: Path) -> Plan:
    inputs, jobs = [], []
    for profile in ("constant", "trapezoid"):
        csv, out = str(work / f"v-{profile}.csv"), str(work / f"v-{profile}.json")
        inputs.append(Job("synthesize", (
            "synthesize", "--profile", profile, "--duration", _r(rng.uniform(0.8, 1.25)),
            "--samples", str(rng.integers(800, 1201)), "--out", csv), (csv,)))
        jobs.append(Job("validate", ("validate-full", "--schedule", csv, "--factor", "10",
                                     "--compare-factor", "20",
                                     "--steps-per-cycle", VALIDATE_STEPS_PER_CYCLE,
                                     "--out", out), (out,)))
    # The warm-up is the same command at a coarse step size, run twice so
    # that its payloads can be compared.
    warm_out = str(work / "v-warmup.json")
    warm = Job("validate", ("validate-full", "--schedule", inputs[0].outputs[0],
                            "--factor", "10", "--compare-factor", "0",
                            "--steps-per-cycle", "2", "--out", warm_out), (warm_out,))
    return Plan(inputs=inputs, warmup=[warm, warm], jobs=jobs,
                pass_seconds=VALIDATE_PASS_SECONDS, gate=gate_validate)


def gate_validate(records: list[dict]) -> list[tuple[int, str]]:
    failures = []
    for idx, rec in enumerate(records):
        if rec["job"].kind != "validate":
            continue
        summary = rec["summary"]
        for report in summary["reports"]:
            if not report["hierarchy_ok"]:
                failures.append((idx, f"hierarchy not met at factor {report['hierarchy_factor']}"))
            if not report["leakage_max"] <= LEAKAGE_MAX:
                failures.append((idx, f"leakage {report['leakage_max']!r}"))
            if not report["effective_vs_full_infidelity"] < INFIDELITY_MAX:
                failures.append((idx, f"infidelity {report['effective_vs_full_infidelity']!r}"))
        if len(summary["reports"]) > 1 and not summary["infidelity_decreased"]:
            failures.append((idx, "infidelity did not decrease at the wider hierarchy"))
    return failures


PLANS = {
    "synth-rank1": plan_synth_rank1,
    "csv-general": plan_csv_general,
    "validate": plan_validate,
}


def plan(name: str, seed: int, work: Path) -> Plan:
    """The workload's jobs and gates, with inputs drawn from the seed."""
    rng = np.random.default_rng([seed, list(PLANS).index(name)])
    return PLANS[name](rng, work)
