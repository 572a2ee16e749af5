"""Command-line front end.

Subcommands:

    endpoints      solve and print the admissible GHZ endpoints
    synthesize     write a pulse-schedule CSV for one endpoint
    propagate      integrate a schedule CSV and report fidelities
    validate-full  check the effective model against the full one
    check          run the structural invariant suite

Every command accepts ``--config FILE``, a JSON object whose keys match
the long flag names with dashes replaced by underscores.  Each option is
declared once, by its ``add_argument`` call.  A config value is checked
against that declaration (JSON type, then choices) and becomes the
command's default, so explicit flags override config values.  Ranges are
checked where a value is used.  Output payloads (CSV, JSON) are
deterministic: identical inputs give bit-identical files, and progress
messages with timings go to stderr only.  An existing output file is
rewritten in place, not atomically: it keeps its inode, permissions and
links, and a symlink's target is written.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import algebra, dynamics, unitary
from .fullmodel import DEFAULT_COMPARE_FACTOR, DEFAULT_FACTOR, DEFAULT_STEPS_PER_CYCLE, compare_factors
from .propagate import (
    ConvergenceFailure,
    DEFAULT_STEPS,
    _MAX_STEPS,
    _rescale,
    normalize_to_area,
    propagate,
    squared_area,
)
from .synthesis import (
    DEFAULT_SIGN_ORDER,
    PulseSchedule,
    SphericalCurve,
    enumerate_endpoints,
    rabi_schedule,
    reverse_schedule,
    solve_endpoints,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SCHEDULE_HEADER = "t,omega1,omega2,omega3"

# Published 5-significant-figure reference angles for the eight endpoint
# branches, in the canonical sign order; used by the `check` suite.
REFERENCE_ENDPOINT_TABLE = (
    (1.92423, 0.906373, 4.33454, 2.47062),
    (1.92423, 0.906373, 1.94864, 3.81256),
    (1.92423, 0.906373, 1.19295, 5.61221),
    (1.92423, 0.906373, 5.09024, 0.670972),
    (0.906373, 1.92423, 2.47062, 4.33454),
    (0.906373, 1.92423, 3.81256, 1.94864),
    (0.906373, 1.92423, 5.61221, 1.19295),
    (0.906373, 1.92423, 0.670972, 5.09024),
)


class _Command(argparse.ArgumentParser):
    """A subcommand's parser: it takes --config and keeps its other options by dest."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)
        self.add_argument("--config")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest not in ("help", "config"):
            self.options[action.dest] = action
        return action


# Options whose config value is a path, resolved against the config's directory.
_PATH_KEYS = ("schedule", "out", "trace_csv", "reference_schedule")


def load_config(path: str, options: dict[str, argparse.Action]) -> dict:
    """A JSON config's values, each checked against the option it sets."""
    file = Path(path)
    raw = json.loads(file.read_text())
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a JSON object")
    for key, value in raw.items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        # null fills an option whose default is None; for compare_factor it
        # turns the comparison off, as 0 does
        if value is None and (action.default is None or key == "compare_factor"):
            continue
        kind = bool if action.nargs == 0 else action.type or str
        # a JSON true is no int here, and an int fills a float option
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, not {value!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r} must be one of {action.choices}, not {value!r}"
            )
    for key in _PATH_KEYS:
        value = raw.get(key)
        if isinstance(value, str) and not Path(value).is_absolute():
            raw[key] = str(file.parent / value)
    return raw


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _write(text: str, out: str | None) -> None:
    """Write text to stdout, or over the file at out in place."""
    if out is None:
        sys.stdout.write(text)
        return
    # no O_TRUNC: on ext4 (auto_da_alloc) truncating a written file to zero
    # starts its writeback at close, and the next open(O_TRUNC) waits for it
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
        file.write(text.encode())
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
            file.truncate()


def _csv(header: str, *columns: np.ndarray) -> str:
    rows = zip(*(map(float.__repr__, column.tolist()) for column in columns))
    return "\n".join([header, *map(",".join, rows), ""])


def write_schedule_csv(schedule: PulseSchedule, out: str | None) -> None:
    _write(_csv(SCHEDULE_HEADER, schedule.times, *schedule.values.T), out)


def _parse_rows(lines: list[str]) -> list[list[float]]:
    """Data lines parsed one by one with float(), naming the first bad line."""
    rows = []
    for ln, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {ln}: expected 4 comma-separated fields")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    return rows


def read_schedule_csv(path: str) -> PulseSchedule:
    file = Path(path)
    if not file.exists():
        raise ValueError(f"schedule file {path!r} does not exist")
    lines = file.read_text().strip().splitlines()
    if not lines or lines[0].strip() != SCHEDULE_HEADER:
        raise ValueError(f"schedule CSV must start with header {SCHEDULE_HEADER!r}")
    data = lines[1:]
    # loadtxt parses a field as float() does, but refuses some that float()
    # takes (1_0, non-ASCII digits) and skips blank lines, so _parse_rows
    # settles every file it does not read whole
    try:
        table = np.loadtxt(data, delimiter=",", comments=None, ndmin=2) if data else None
    except ValueError:
        table = None
    if table is None or table.shape != (len(data), 4):
        table = np.array(_parse_rows(data)).reshape(-1, 4)
    try:
        return PulseSchedule(times=table[:, 0].copy(), values=table[:, 1:].copy())
    except ValueError as exc:
        raise ValueError(f"invalid schedule in {path!r}: {exc}") from None


def _json_field(value) -> str:
    """json.dumps(value, indent=2, allow_nan=False) one level deep; float lists in bulk."""
    if type(value) is list and value:
        try:
            # float.__repr__ is what json writes for a finite float
            if all(map(math.isfinite, value)):
                return "[\n    " + ",\n    ".join(map(float.__repr__, value)) + "\n  ]"
        except TypeError:
            pass
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


def write_json(payload: dict, out: str | None) -> None:
    fields = (f"  {json.dumps(key)}: {_json_field(value)}" for key, value in payload.items())
    _write("{\n" + ",\n".join(fields) + "\n}\n", out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_endpoints(cfg: argparse.Namespace) -> int:
    start = time.perf_counter()
    rows = enumerate_endpoints([
        signs for signs in DEFAULT_SIGN_ORDER
        if all(q is None or q == s for q, s in zip((cfg.q1, cfg.q2, cfg.q3), signs))
    ])

    pins = {
        "theta_left_final": cfg.pin_theta_left,
        "theta_right_final": cfg.pin_theta_right,
        "phi_left": cfg.pin_phi_left,
        "phi_right": cfg.pin_phi_right,
    }
    active_pins = {k: v for k, v in pins.items() if v is not None}
    if active_pins:
        if not all(math.isfinite(v) for v in (*active_pins.values(), cfg.pin_tol)):
            raise ValueError("pinned angles and pin_tol must be finite")
        residuals = [
            max(abs(getattr(sol, k) - v) for k, v in active_pins.items()) for sol in rows
        ]
        if not min(residuals) <= cfg.pin_tol:
            _info("no endpoint matches the pinned angles; nearest residuals:")
            for sol, residual in zip(rows, residuals):
                _info(
                    f"  ({sol.q1:+d},{sol.q2:+d},{sol.q3:+d}) max |pinned - value| = {residual:.6e}"
                )
            return EXIT_USAGE
        rows = [rows[residuals.index(min(residuals))]]

    header = (
        f"{'q1':>3} {'q2':>3} {'q3':>3} {'theta_left_T':>13} {'theta_right_T':>14} "
        f"{'phi_left_0':>11} {'phi_right_0':>12} {'ghz_phase':>10}"
    )
    print(header)
    for sol in rows:
        print(
            f"{sol.q1:+3d} {sol.q2:+3d} {sol.q3:+3d} {sol.theta_left_final:13.6f} "
            f"{sol.theta_right_final:14.6f} {sol.phi_left:11.6f} {sol.phi_right:12.6f} "
            f"{sol.ghz_phase:10.6f}"
        )
    if cfg.out is not None:
        write_json({"endpoints": [asdict(s) for s in rows]}, cfg.out)
    _info(f"solved {len(rows)} endpoint(s) in {time.perf_counter() - start:.3f}s")
    return EXIT_OK


def _synthesize_schedule(cfg: argparse.Namespace) -> PulseSchedule:
    signs = tuple(
        s if q is None else q for q, s in zip((cfg.q1, cfg.q2, cfg.q3), DEFAULT_SIGN_ORDER[0])
    )
    endpoint = solve_endpoints(signs)
    if (cfg.duration is None) == (cfg.target_area is None):
        raise ValueError("give exactly one of duration or target_area")
    # propagate certifies a schedule of at most _MAX_STEPS // 2 segments
    if cfg.samples > _MAX_STEPS // 2 + 1:
        raise ValueError(
            f"samples {cfg.samples} exceeds the {_MAX_STEPS // 2 + 1} rows propagate can certify"
        )
    duration = cfg.duration if cfg.duration is not None else 1.0
    curve = SphericalCurve(endpoint, cfg.profile, duration, cfg.tau, cfg.pole)
    schedule = rabi_schedule(curve, cfg.samples)
    if cfg.target_area is not None:
        schedule = normalize_to_area(schedule, cfg.target_area)
    return schedule


def cmd_synthesize(cfg: argparse.Namespace) -> int:
    written = _synthesize_schedule(cfg)
    if cfg.omega_ref is not None:
        if not cfg.omega_ref > 0:
            raise ValueError("omega_ref must be positive")
        written = _rescale(written, cfg.omega_ref, f"omega_ref {cfg.omega_ref!r}")
    area = squared_area(written)
    write_schedule_csv(written, cfg.out)
    peak = written.values[np.argmax(np.sum(written.values**2, axis=1))]
    plateau = tuple(float(a) for a in peak)
    _info(f"squared area A = {area!r}; plateau amplitudes {plateau!r}")
    return EXIT_OK


def _initial_state(name: str) -> np.ndarray:
    if name == "w":
        return algebra.w_state()
    if name == "ggg":
        return algebra.ggg_state()
    if name.startswith("ghz:"):
        phase = float(name.split(":", 1)[1])
        if not math.isfinite(phase):
            raise ValueError(f"initial GHZ phase must be finite, got {phase!r}")
        return algebra.ghz_state(phase)
    raise ValueError(f"unknown initial state {name!r} (use w, ggg, or ghz:PHASE)")


def cmd_propagate(cfg: argparse.Namespace) -> int:
    if cfg.schedule is None:
        raise ValueError("propagate needs --schedule FILE")
    if cfg.normalize_area is not None and cfg.reference_schedule is not None:
        raise ValueError("give at most one of normalize_area or reference_schedule")
    schedule = read_schedule_csv(cfg.schedule)

    reference_area = cfg.normalize_area
    if cfg.reference_schedule is not None:
        reference_area = squared_area(read_schedule_csv(cfg.reference_schedule))
    if reference_area is not None:
        schedule = normalize_to_area(schedule, reference_area)

    start = time.perf_counter()
    forward = propagate(schedule, initial=_initial_state(cfg.initial), steps=cfg.steps)
    result = forward
    forward_phase = forward.ghz_phase
    if cfg.reverse:
        result = propagate(
            reverse_schedule(schedule),
            initial=forward.states[-1],
            steps=cfg.steps,
            target="w",
        )
    _info(f"propagated {result.steps} steps in {time.perf_counter() - start:.3f}s")

    payload = {
        "times": result.times.tolist(),
        "fidelity_trace": result.fidelity_trace.tolist(),
        "final_fidelity": float(result.final_fidelity),
        "ghz_phase": None if result.ghz_phase is None else float(result.ghz_phase),
        "area": float(result.area),
        "target": result.target,
        "steps": int(result.steps),
        "certification_delta": float(result.certification_delta),
        "reference_area": None if reference_area is None else float(reference_area),
    }
    if cfg.reverse:
        payload["forward_ghz_phase"] = None if forward_phase is None else float(forward_phase)
    write_json(payload, cfg.out)

    if cfg.trace_csv is not None:
        _write(_csv("t,fidelity", result.times, result.fidelity_trace), cfg.trace_csv)
    return EXIT_OK


def cmd_validate_full(cfg: argparse.Namespace) -> int:
    if cfg.schedule is None:
        raise ValueError("validate-full needs --schedule FILE")
    schedule = read_schedule_csv(cfg.schedule)

    start = time.perf_counter()
    factors = (cfg.factor,)
    # 0 (or a config null) disables the comparison; params_for_factor
    # refuses any other factor that is not positive and finite
    if cfg.compare_factor is not None and cfg.compare_factor != 0:
        factors += (cfg.compare_factor,)
    reports, trend = compare_factors(
        schedule, factors, cfg.steps_per_cycle, min_factor=cfg.min_factor, force=cfg.force
    )
    payload = asdict(reports[0])
    payload["comparison"] = {**asdict(reports[-1]), **trend} if len(reports) > 1 else None
    _info(f"validated {sum(r.steps for r in reports)} steps in {time.perf_counter() - start:.3f}s")
    write_json(payload, cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant suite


def _eig_unitary(vecs: np.ndarray, triple: np.ndarray) -> np.ndarray:
    """Independent route to a stack of rotation factors via eigendecomposition."""
    vec = vecs.T[..., None, None]
    herm = vec[0] * triple[0] + vec[1] * triple[1] + vec[2] * triple[2]
    evals, evecs = np.linalg.eigh(herm)
    return (evecs * np.exp(-1j * evals)[:, None]) @ evecs.conj().swapaxes(1, 2)


def _check_brackets(gens) -> tuple[bool, str]:
    eye = np.eye(4)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    worst = 0.0
    for fam in gens:
        for i in range(3):
            for j in range(3):
                comm = fam[i] @ fam[j] - fam[j] @ fam[i]
                expected = 1j * sum(eps[i, j, k] * fam[k] for k in range(3))
                worst = max(worst, float(np.max(np.abs(comm - expected))))
                prod = (2 * fam[i]) @ (2 * fam[j])
                expected_p = 1j * sum(eps[i, j, k] * 2 * fam[k] for k in range(3)) + (i == j) * eye
                worst = max(worst, float(np.max(np.abs(prod - expected_p))))
    for i in range(3):
        for j in range(3):
            cross = gens[0][i] @ gens[1][j] - gens[1][j] @ gens[0][i]
            worst = max(worst, float(np.max(np.abs(cross))))
    return worst <= 1e-14, f"max residual {worst:.2e}"


def _check_casimirs(gens) -> tuple[bool, str]:
    total, diff = algebra.casimirs(gens)
    ok = abs(total - 1.5) <= 1e-13 and abs(diff) <= 1e-13
    return ok, f"I = {total!r}, J = {diff!r}"


def _check_exp_map(gens) -> tuple[bool, str]:
    # one draw of shape (100, 2, 3) is the stream of 100 draws of shape (2, 3)
    pairs = np.random.default_rng(20260814).uniform(-8, 8, (100, 2, 3))
    closed = unitary._unitaries(pairs.transpose(1, 0, 2))
    reference = _eig_unitary(pairs[:, 0], gens[0]) @ _eig_unitary(pairs[:, 1], gens[1])
    worst = float(np.max(np.abs(closed - reference)))
    return worst <= 1e-10, f"max deviation {worst:.2e} over {len(pairs)} random pairs"


def _check_constraint_residuals(endpoints) -> tuple[bool, str]:
    times = np.linspace(0.0, 1.0, 250)
    worst = 0.0
    for endpoint in endpoints:
        for kind in ("constant", "trapezoid"):
            curve = SphericalCurve(endpoint, kind)
            rates = dynamics.rotation_rate(curve.vectors_at(times), curve.velocities_at(times))
            worst = max(worst, float(np.max(np.abs(dynamics.check_constraints(rates)))))
    return worst <= 1e-9, f"max residual {worst:.2e}"


def _check_endpoint_table(endpoints) -> tuple[bool, str]:
    worst = 0.0
    for sol, expected in zip(endpoints, REFERENCE_ENDPOINT_TABLE):
        got = (sol.theta_left_final, sol.theta_right_final, sol.phi_left, sol.phi_right)
        for g, e in zip(got, expected):
            worst = max(worst, abs(g - e) / abs(e))
    return worst <= 1e-5, f"max relative deviation {worst:.2e}"


def cmd_check(cfg: argparse.Namespace) -> int:
    gens = algebra.build_generators()
    endpoints = enumerate_endpoints()
    checks = [
        ("generator brackets and products", lambda: _check_brackets(gens)),
        ("quadratic invariants", lambda: _check_casimirs(gens)),
        ("closed form vs eigendecomposition", lambda: _check_exp_map(gens)),
        ("curve constraint residuals", lambda: _check_constraint_residuals(endpoints)),
        ("endpoint table reproduction", lambda: _check_endpoint_table(endpoints)),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing


def _add_sign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q1", type=int, choices=(1, -1), default=None)
    p.add_argument("--q2", type=int, choices=(1, -1), default=None)
    p.add_argument("--q3", type=int, choices=(1, -1), default=None)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The ghz-forge parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(prog="ghz-forge", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p = sub.add_parser("endpoints", help="solve and print admissible endpoints")
    _add_sign_args(p)
    p.add_argument("--pin-theta-left", type=float, default=None)
    p.add_argument("--pin-theta-right", type=float, default=None)
    p.add_argument("--pin-phi-left", type=float, default=None)
    p.add_argument("--pin-phi-right", type=float, default=None)
    p.add_argument("--pin-tol", type=float, default=1e-4)
    p.add_argument("--out", help="also write the table as JSON")

    p = sub.add_parser("synthesize", help="write a pulse-schedule CSV")
    _add_sign_args(p)
    p.add_argument("--pole", type=int, choices=(1, -1), default=1,
                   help="initial-point sign of the curve (+1 default, -1 mirrored)")
    p.add_argument("--profile", choices=("constant", "trapezoid"), default="constant")
    p.add_argument("--tau", type=float, default=1.0 / 3.0)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--target-area", type=float, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--omega-ref", type=float, default=None,
                   help="reference Rabi frequency in MHz; writes the CSV in physical units")
    p.add_argument("--out", help="CSV path (stdout when omitted)")

    p = sub.add_parser("propagate", help="integrate a schedule CSV")
    p.add_argument("--schedule")
    p.add_argument("--initial", default="w", help="w, ggg, or ghz:PHASE")
    p.add_argument("--reverse", action="store_true",
                   help="run forward, then the reversed schedule from the reached state")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--normalize-area", type=float, default=None)
    p.add_argument("--reference-schedule", default=None,
                   help="normalize to the squared area of this schedule CSV")
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--out", help="result JSON path (stdout when omitted)")

    p = sub.add_parser("validate-full", help="full-model reduction check")
    p.add_argument("--schedule")
    p.add_argument("--factor", type=float, default=DEFAULT_FACTOR)
    p.add_argument("--compare-factor", type=float, default=DEFAULT_COMPARE_FACTOR,
                   help="second hierarchy factor for the trend flag (0 disables)")
    p.add_argument("--min-factor", type=float, default=DEFAULT_FACTOR,
                   help=f"smallest acceptable scale separation (default {DEFAULT_FACTOR:g})")
    p.add_argument("--force", action="store_true")
    p.add_argument("--steps-per-cycle", type=int, default=DEFAULT_STEPS_PER_CYCLE)
    p.add_argument("--out", help="report JSON path (stdout when omitted)")

    sub.add_parser("check", help="run the structural invariant suite")

    return parser, sub.choices


_COMMANDS = {
    "endpoints": cmd_endpoints,
    "synthesize": cmd_synthesize,
    "propagate": cmd_propagate,
    "validate-full": cmd_validate_full,
    "check": cmd_check,
}


# build_parser()'s result, built by the first main() call and shared by
# every later one; a --config call sets its defaults on a parser of its own
_PARSER: tuple[argparse.ArgumentParser, dict[str, _Command]] | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser, commands = _PARSER
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become the chosen command's defaults, so flags
            # override them when the arguments are parsed again
            parser, commands = build_parser()
            options = {k: a for command in commands.values() for k, a in command.options.items()}
            chosen = commands[args.command]
            config = load_config(args.config, options)
            chosen.set_defaults(**{k: v for k, v in config.items() if k in chosen.options})
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConvergenceFailure as exc:
        _info(f"numerical failure: {exc}")
        return EXIT_NUMERIC
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
