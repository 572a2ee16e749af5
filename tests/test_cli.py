import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzforge import cli
from ghzforge.propagate import _MAX_STEPS, propagate, squared_area
from ghzforge.synthesis import PulseSchedule, SphericalCurve, rabi_schedule, solve_endpoints
from ghzforge.cli import (
    SCHEDULE_HEADER, main, read_schedule_csv, write_json, write_schedule_csv,
)

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = REPO / "configs" / "row1_constant.json"
SHIPPED_CSV = REPO / "configs" / "row1_constant.csv"


def run_python(*args, cwd=None):
    # the child imports the package from this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=240,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "ghzforge.cli", *args, cwd=cwd)


def test_endpoints_default_table():
    proc = run_cli("endpoints")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 9
    row1 = lines[1].split()
    assert row1[:3] == ["+1", "-1", "+1"]
    assert row1[3].startswith("1.92422") and row1[4].startswith("0.90637")
    assert row1[5].startswith("4.33454") and row1[6].startswith("2.47062")


def test_endpoints_filter_q3():
    proc = run_cli("endpoints", "--q3", "-1")
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(r.split()[3].startswith("0.90637") for r in rows)


def test_endpoints_pins():
    good = run_cli("endpoints", "--pin-theta-left", "1.92423", "--pin-phi-left", "4.33454")
    assert good.returncode == 0
    assert len(good.stdout.strip().splitlines()) == 2

    bad = run_cli("endpoints", "--pin-theta-left", "1.0")
    assert bad.returncode == 2
    assert "residual" in bad.stderr


def test_endpoints_forced_branch_failure(tmp_path, capsys):
    # the branch selector is gone: only the searched half-interval has a root
    with pytest.raises(SystemExit) as exc:
        main(["endpoints", "--q3", "1", "--branch", "positive"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"branch": "auto"}))
    assert main(["endpoints", "--config", str(cfg)]) == 2
    assert "unknown config key 'branch'" in capsys.readouterr().err


def test_endpoints_takes_no_pole():
    # the pole only shapes the synthesized curve
    with pytest.raises(SystemExit) as exc:
        main(["endpoints", "--pole", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--pin-theta-left", "nan"),
        ("--pin-phi-right", "inf"),
        ("--pin-theta-left", "1.92423", "--pin-tol", "nan"),
        ("--pin-theta-left", "1.92423", "--pin-tol", "inf"),
    ],
)
def test_endpoints_non_finite_pin_is_usage_error(flags, capsys):
    assert main(["endpoints", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_endpoints_json_payload(tmp_path):
    out = tmp_path / "table.json"
    proc = run_cli("endpoints", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert len(payload["endpoints"]) == 8
    first = payload["endpoints"][0]
    assert first["q1"] == 1 and first["q2"] == -1 and first["q3"] == 1
    assert abs(first["theta_left_final"] - 1.924226560682509) < 1e-9


def test_synthesize_constant_row(tmp_path):
    out = tmp_path / "row1.csv"
    proc = run_cli("synthesize", "--duration", "1", "--samples", "5", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SCHEDULE_HEADER
    assert len(lines) == 6
    body = {tuple(line.split(",")[1:]) for line in lines[1:]}
    assert len(body) == 1
    values = [float(x) for x in next(iter(body))]
    assert values == pytest.approx([1.2249580623274245, -1.4197739493537598, 2.3520285689140987], abs=1e-14)
    assert "squared area" in proc.stderr and "plateau" in proc.stderr


def test_synthesize_trapezoid_vanishing_edges():
    proc = run_cli("synthesize", "--duration", "1", "--samples", "7", "--profile", "trapezoid")
    rows = proc.stdout.strip().splitlines()[1:]
    first = [float(x) for x in rows[0].split(",")[1:]]
    last = [float(x) for x in rows[-1].split(",")[1:]]
    assert first == [0.0, 0.0, 0.0] or all(abs(v) == 0.0 for v in first)
    assert all(abs(v) == 0.0 for v in last)


def test_synthesize_usage_errors():
    assert run_cli("synthesize", "--duration", "1", "--tau", "0.6").returncode == 2
    assert run_cli("synthesize").returncode == 2
    assert run_cli("synthesize", "--duration", "1", "--target-area", "4").returncode == 2
    assert run_cli("synthesize", "--duration", "1", "--omega-ref", "0").returncode == 2


def test_synthesize_target_area():
    proc = run_cli("synthesize", "--target-area", "4.0", "--samples", "3")
    assert proc.returncode == 0
    assert "A = 4.0" in proc.stderr


def test_synthesize_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("synthesize", "--duration", "1", "--out", str(a))
    run_cli("synthesize", "--duration", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_exact(tmp_path):
    out = tmp_path / "sched.csv"
    run_cli("synthesize", "--duration", "1", "--profile", "trapezoid", "--samples", "40", "--out", str(out))
    parsed = read_schedule_csv(str(out))

    endpoint = solve_endpoints((1, -1, 1))
    built = rabi_schedule(SphericalCurve(endpoint, "trapezoid"), 40)
    assert np.array_equal(parsed.times, built.times)
    assert np.array_equal(parsed.values, built.values)


def test_shipped_config_matches_cli_output(tmp_path):
    regenerated = tmp_path / "regen.csv"
    run_cli("synthesize", "--duration", "1", "--out", str(regenerated))
    assert regenerated.read_bytes() == SHIPPED_CSV.read_bytes()


def test_propagate_shipped_config(tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli("propagate", "--config", str(SHIPPED_CONFIG), "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["final_fidelity"] >= 0.999
    assert abs(payload["ghz_phase"] - np.pi / 2.0) < 1e-6
    assert payload["target"] == "ghz"
    # one row per knot of the schedule, and at least the config's 4096 steps,
    # an equal number in each of its 999 segments
    knots = len(SHIPPED_CSV.read_text().splitlines()) - 1
    assert len(payload["times"]) == len(payload["fidelity_trace"]) == knots == 1000
    assert payload["steps"] >= 4096 and payload["steps"] % (knots - 1) == 0
    assert payload["certification_delta"] < 1e-8

    again = tmp_path / "again.json"
    run_cli("propagate", "--config", str(SHIPPED_CONFIG), "--out", str(again))
    assert out.read_bytes() == again.read_bytes()


def test_propagate_reverse(tmp_path):
    out = tmp_path / "rev.json"
    proc = run_cli("propagate", "--config", str(SHIPPED_CONFIG), "--reverse", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "w"
    assert payload["final_fidelity"] >= 0.999
    assert abs(payload["forward_ghz_phase"] - np.pi / 2.0) < 1e-6


def test_propagate_zero_schedule(tmp_path):
    csv = tmp_path / "zero.csv"
    csv.write_text(SCHEDULE_HEADER + "\n0.0,0.0,0.0,0.0\n1.0,0.0,0.0,0.0\n")
    out = tmp_path / "zero.json"
    proc = run_cli("propagate", "--schedule", str(csv), "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["ghz_phase"] is None
    assert set(payload["fidelity_trace"]) == {0.0}


def test_propagate_trace_csv(tmp_path):
    trace = tmp_path / "trace.csv"
    proc = run_cli(
        "propagate", "--config", str(SHIPPED_CONFIG), "--trace-csv", str(trace),
        "--out", str(tmp_path / "r.json"),
    )
    assert proc.returncode == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,fidelity"
    assert float(lines[-1].split(",")[1]) >= 0.999


def non_finite_csvs(tmp_path):
    """One schedule ending at t = inf, one with a NaN amplitude."""
    inf_time = tmp_path / "inf_time.csv"
    inf_time.write_text(SCHEDULE_HEADER + "\n0.0,1.0,1.0,1.0\ninf,1.0,1.0,1.0\n")
    nan_amp = tmp_path / "nan_amp.csv"
    nan_amp.write_text(SCHEDULE_HEADER + "\n0.0,1.0,1.0,1.0\n1.0,nan,1.0,1.0\n")
    return inf_time, nan_amp


def test_propagate_error_paths(tmp_path):
    missing = run_cli("propagate", "--schedule", str(tmp_path / "nope.csv"))
    assert missing.returncode == 2

    malformed = tmp_path / "bad.csv"
    malformed.write_text("time,o1,o2,o3\n0,0,0,0\n")
    assert run_cli("propagate", "--schedule", str(malformed)).returncode == 2

    short = tmp_path / "short.csv"
    short.write_text(SCHEDULE_HEADER + "\n0.0,1.0\n")
    assert run_cli("propagate", "--schedule", str(short)).returncode == 2

    for bad in non_finite_csvs(tmp_path):
        proc = run_cli("propagate", "--schedule", str(bad))
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr

    assert run_cli("propagate").returncode == 2


@pytest.mark.parametrize("phase", ["nan", "inf"])
def test_propagate_non_finite_initial_phase_is_usage_error(phase, capsys):
    assert main(["propagate", "--schedule", str(SHIPPED_CSV), "--initial", f"ghz:{phase}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"initial GHZ phase must be finite, got {phase}" in captured.err


def test_propagate_normalize_area_with_reference_schedule_is_usage_error(tmp_path, capsys):
    both = ["--normalize-area", "5", "--reference-schedule", str(SHIPPED_CSV)]
    assert main(["propagate", "--schedule", str(SHIPPED_CSV), *both]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": str(SHIPPED_CSV), "normalize_area": 5.0}))
    assert main(["propagate", "--config", str(cfg), *both[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("at most one of normalize_area or reference_schedule") == 2


def test_propagate_reference_area(tmp_path):
    trap = tmp_path / "trap.csv"
    run_cli("synthesize", "--duration", "1", "--profile", "trapezoid", "--out", str(trap))
    out = tmp_path / "norm.json"
    proc = run_cli(
        "propagate", "--schedule", str(trap),
        "--reference-schedule", str(SHIPPED_CSV), "--out", str(out),
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["reference_area"] == pytest.approx(9.048318710712635, rel=1e-12)
    assert payload["area"] == pytest.approx(payload["reference_area"], rel=1e-10)
    assert payload["final_fidelity"] >= 0.999


def test_validate_full_quick(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "validate-full", "--schedule", str(SHIPPED_CSV),
        "--factor", "3", "--min-factor", "3", "--compare-factor", "0",
        "--out", str(out),
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["hierarchy_ok"]
    assert payload["comparison"] is None
    assert payload["leakage_max"] < 1e-10
    assert 0.0 < payload["effective_vs_full_infidelity"] < 0.5


def test_validate_full_force_weak_factor(tmp_path):
    refused = run_cli(
        "validate-full", "--schedule", str(SHIPPED_CSV), "--factor", "1", "--compare-factor", "0"
    )
    assert refused.returncode == 2

    out = tmp_path / "weak.json"
    forced = run_cli(
        "validate-full", "--schedule", str(SHIPPED_CSV),
        "--factor", "1", "--compare-factor", "0", "--force", "--out", str(out),
    )
    assert forced.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["hierarchy_ok"] is False


def test_validate_full_step_cap(capsys):
    # factor 1e5 passes the hierarchy check but needs about 7e12 steps
    for extra in ((), ("--force",)):
        start = time.perf_counter()
        code = main([
            "validate-full", "--schedule", str(SHIPPED_CSV),
            "--factor", "100000", "--compare-factor", "0", *extra,
        ])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert "steps" in err and "4194304" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--compare-factor", "nan"), "not nan"),
        (("--compare-factor", "-5"), "not -5.0"),
        (("--compare-factor", "inf"), "not inf"),
        (("--factor", "nan", "--compare-factor", "0"), "not nan"),
        (("--factor", "inf", "--compare-factor", "0"), "not inf"),
        (("--factor", "-1", "--compare-factor", "0"), "not -1.0"),
    ],
)
def test_validate_full_bad_factor_is_usage_error(flags, message, capsys):
    start = time.perf_counter()
    code = main(["validate-full", "--schedule", str(SHIPPED_CSV), *flags])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "hierarchy factor must be positive and finite" in err and message in err


@pytest.mark.parametrize("value, shown", [("-5", "-5.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf")])
def test_validate_full_bad_min_factor_is_usage_error(value, shown, tmp_path, capsys):
    message = f"minimum hierarchy factor must be positive and finite, not {shown}"
    start = time.perf_counter()
    code = main([
        "validate-full", "--schedule", str(SHIPPED_CSV), "--factor", "3",
        "--min-factor", value, "--compare-factor", "0",
    ])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert message in capsys.readouterr().err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": str(SHIPPED_CSV), "factor": 3,
                               "min_factor": float(value), "compare_factor": 0}))
    assert main(["validate-full", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("compare, code", [(-5, 2), (0, 0), (None, 0)])
def test_validate_full_config_compare_factor(compare, code, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schedule": str(SHIPPED_CSV), "factor": 3, "min_factor": 3,
        "steps_per_cycle": 2, "compare_factor": compare,
    }))
    assert main(["validate-full", "--config", str(cfg)]) == code
    out = capsys.readouterr().out
    if code == 0:
        assert json.loads(out)["comparison"] is None


def test_validate_full_runs_without_eigh(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on the validate-full path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    code = main([
        "validate-full", "--schedule", str(SHIPPED_CSV), "--factor", "3", "--min-factor", "3",
        "--compare-factor", "4", "--steps-per-cycle", "2",
    ])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["comparison"]["hierarchy_factor"] >= 4.0
    # a run of a few ms still reports its time, with the steps of both factors
    steps = payload["steps"] + payload["comparison"]["steps"]
    assert re.search(rf"^validated {steps} steps in \d+\.\d{{3}}s$", captured.err, re.M)


def test_propagate_step_cap(capsys):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["propagate", "--schedule", str(SHIPPED_CSV), "--steps", "50000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert code == 2
    err = capsys.readouterr().err
    assert "50000000 steps" in err and "4194304" in err


def test_validate_full_missing_schedule(tmp_path):
    assert run_cli("validate-full", "--schedule", "/does/not/exist.csv").returncode == 2
    assert run_cli("validate-full").returncode == 2
    for bad in non_finite_csvs(tmp_path):
        proc = run_cli("validate-full", "--schedule", str(bad))
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr


def test_cli_import_leaves_scipy_out():
    proc = run_python("-c", (
        "import sys, ghzforge.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "name", ["algebra", "unitary", "dynamics", "synthesis", "propagate", "fullmodel"]
)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    # constants and re-exported names may be listed too, but every entry
    # must exist, so that the star import binds it, and every public
    # function or class defined here is listed
    namespace = {}
    exec(f"from ghzforge.{name} import *", namespace)
    module = importlib.import_module(f"ghzforge.{name}")
    assert set(module.__all__) <= set(namespace)

    def defined_here(obj):
        return (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__

    public = {key for key, obj in vars(module).items() if not key.startswith("_") and defined_here(obj)}
    assert {entry for entry in module.__all__ if defined_here(getattr(module, entry))} == public


def test_package_reexports_only_listed_names():
    # every "from .module import name" in ghzforge/__init__.py names an
    # entry of that module's __all__, bound on the package
    import ghzforge

    tree = ast.parse((REPO / "src" / "ghzforge" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ghzforge.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(ghzforge, alias.name) is getattr(module, alias.name)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from ghzforge.cli import main
out, shipped = sys.argv[1], sys.argv[2]
runs = [
    ["endpoints", "--out", f"{out}/endpoints.json"],
    ["synthesize", "--duration", "1", "--out", f"{out}/constant.csv"],
    ["synthesize", "--profile", "trapezoid", "--duration", "1", "--out", f"{out}/trapezoid.csv"],
    ["propagate", "--schedule", f"{out}/constant.csv", "--out", f"{out}/forward.json"],
    ["propagate", "--schedule", f"{out}/trapezoid.csv", "--reverse", "--out", f"{out}/reverse.json"],
    ["validate-full", "--schedule", shipped, "--factor", "10", "--compare-factor", "0",
     "--steps-per-cycle", "2", "--out", f"{out}/full.json"],
    ["check"],
]
print("codes", [main(argv) for argv in runs])
"""


def test_cli_commands_run_without_scipy(tmp_path):
    proc = run_python("-c", _WITHOUT_SCIPY, str(tmp_path), str(SHIPPED_CSV))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "codes [0, 0, 0, 0, 0, 0, 0]"
    assert "5/5 checks passed" in proc.stdout


def test_check_suite_passes():
    proc = run_cli("check")
    assert proc.returncode == 0
    assert "5/5 checks passed" in proc.stdout
    assert proc.stdout.count("PASS") == 5


def test_check_catches_a_wrong_closed_form(monkeypatch, capsys):
    cayley_klein = cli.unitary.cayley_klein

    def perturbed(vec):
        a, b = cayley_klein(vec)
        a.flat[0] += 1e-8
        return a, b

    monkeypatch.setattr(cli.unitary, "cayley_klein", perturbed)
    assert main(["check"]) == 3
    out = capsys.readouterr().out
    assert "FAIL  closed form vs eigendecomposition" in out
    assert "4/5 checks passed" in out


@pytest.mark.parametrize("config_first", [True, False])
def test_config_values_never_carry_into_a_later_call(config_first, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5}))
    calls = [
        ("configured", ["--config", str(cfg), "--duration", "1"], 5),
        ("plain", ["--duration", "1"], 1000),
    ]
    for name, flags, rows in calls if config_first else calls[::-1]:
        out = tmp_path / f"{name}.csv"
        assert main(["synthesize", *flags, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + rows


def test_plain_calls_share_one_parser(monkeypatch, capsys):
    build_parser = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    assert main(["endpoints", "--q3", "1"]) == 0
    assert main(["endpoints", "--q3", "-1"]) == 0
    assert len(built) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration": 1.0, "samples": 3, "profile": "constant"}))
    proc = run_cli("synthesize", "--config", str(cfg), "--samples", "4")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 5  # header + 4 overriding config's 3

    unknown = tmp_path / "bad.json"
    unknown.write_text(json.dumps({"durations": 1.0}))
    assert run_cli("synthesize", "--config", str(unknown)).returncode == 2


@pytest.mark.parametrize(
    "command, config",
    [
        ("synthesize", {"samples": "1000"}),
        ("propagate", {"schedule": str(SHIPPED_CSV), "steps": 1.5}),
        ("validate-full", {"schedule": str(SHIPPED_CSV), "factor": "10"}),
        ("propagate", {"schedule": str(SHIPPED_CSV), "reverse": 1}),
        ("synthesize", {"q1": True}),
        # values outside the flag's choices
        ("synthesize", {"duration": 1, "profile": "bogus"}),
        ("synthesize", {"duration": 1, "q1": 5}),
        ("synthesize", {"duration": 1, "pole": 0}),
        ("endpoints", {"q3": -1, "pole": -2}),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    bad_key = list(config)[-1]
    assert f"config key {bad_key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["endpoints", "synthesize", "propagate", "validate-full", "check"]
)
def test_command_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: ghz-forge {command} [-h] [--config CONFIG]")


def test_config_accepts_int_for_float_and_null_for_optional(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration": 1, "samples": 3, "q1": None, "tau": 0}))
    assert main(["synthesize", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_physical_units_scaling(tmp_path):
    plain = run_cli("synthesize", "--duration", "1", "--samples", "3")
    scaled = run_cli(
        "synthesize", "--duration", "1", "--samples", "3", "--omega-ref", "2.0",
    )
    plain_rows = [r.split(",") for r in plain.stdout.strip().splitlines()[1:]]
    scaled_rows = [r.split(",") for r in scaled.stdout.strip().splitlines()[1:]]
    for p, s in zip(plain_rows, scaled_rows):
        assert float(s[0]) == pytest.approx(float(p[0]) / 2.0, rel=1e-15)
        for i in (1, 2, 3):
            assert float(s[i]) == pytest.approx(float(p[i]) * 2.0, rel=1e-15)


def test_synthesize_omega_ref_reports_written_area(tmp_path, capsys):
    out = tmp_path / "scaled.csv"
    assert main(["synthesize", "--duration", "1", "--samples", "5",
                 "--omega-ref", "2.5", "--out", str(out)]) == 0
    area = squared_area(read_schedule_csv(str(out)))
    assert f"squared area A = {area!r};" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-320"])
def test_synthesize_bad_omega_ref_is_usage_error(value, tmp_path, capsys):
    # inf and 1e-320 pass the sign check but scale the times or the
    # amplitudes out of the finite range; nothing may be written
    out = tmp_path / "scaled.csv"
    code = main(["synthesize", "--duration", "1", "--samples", "5",
                 "--omega-ref", value, "--out", str(out)])
    assert code == 2
    assert "omega_ref" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, rows, shown",
    [
        (["synthesize", "--samples", "3", "--target-area", "1e308"], None, "target area 1e+308"),
        (["synthesize", "--duration", "1", "--samples", "3", "--omega-ref", "1e160"], None,
         "omega_ref 1e+160"),
        (["synthesize", "--samples", "3", "--target-area", "1e-320"], None, "target area 1e-320"),
        (["propagate", "--schedule", str(SHIPPED_CSV), "--normalize-area", "1e-320"], None,
         "target area 1e-320"),
        # the scale factor underflows to 0, so the times divide by zero
        (["propagate", "--schedule", str(SHIPPED_CSV), "--normalize-area", "5e-324"], None,
         "target area 5e-324"),
        # amplitudes whose squares overflow
        (["propagate"], [(0.0, 3e307, 0.0, 0.0), (1e-307, 3e307, 0.0, 0.0)], "area of the schedule is inf"),
        # finite segment areas whose sum overflows
        (["propagate"], [(float(i), *[(-1.0) ** i * 1e154] * 3) for i in range(10)],
         "area of the schedule is inf"),
        # a finite area (1e260) whose per-step rotation vector cannot be squared
        (["propagate"], [(0.0, 1e100, 0.0, 0.0), (1e60, 1e100, 0.0, 0.0)], "segment 0"),
    ],
    ids=["target-area-huge", "omega-ref-huge", "target-area-tiny", "normalize-area-tiny",
         "normalize-area-underflows", "squares-overflow", "sum-overflows", "step-rotation-overflows"],
)
def test_overflowing_squared_area_is_usage_error(argv, rows, shown, tmp_path, capsys):
    # refused before anything is written; a RuntimeWarning would fail the
    # test, since the suite turns them into errors
    if rows is not None:
        schedule = tmp_path / "in.csv"
        lines = [SCHEDULE_HEADER, *(",".join(map(repr, row)) for row in rows)]
        schedule.write_text("\n".join(lines) + "\n")
        argv = [*argv, "--schedule", str(schedule)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert shown in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("samples", [str(_MAX_STEPS // 2 + 2), "10000000000000"])
def test_synthesize_samples_beyond_certifiable_rows_is_usage_error(samples, tmp_path, capsys):
    out = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        code = main(["synthesize", "--duration", "1", "--samples", samples, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"{_MAX_STEPS // 2 + 1} rows propagate can certify" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20


PROPAGATE_KEYS = {
    "times", "fidelity_trace", "final_fidelity", "ghz_phase", "area", "target", "steps",
    "certification_delta", "reference_area",
}
REPORT_KEYS = {
    "hierarchy_factor", "ratio_upper", "ratio_lower", "hierarchy_ok", "leakage_max",
    "effective_vs_full_infidelity", "steps", "dt", "duration", "blockade", "detuning0",
    "stark_amp", "detunings",
}
VALIDATE_TWO_FACTORS = [
    "validate-full", "--factor", "3", "--min-factor", "3", "--compare-factor", "4",
    "--steps-per-cycle", "2",
]


@pytest.mark.parametrize(
    "argv, part, keys",
    [
        (["propagate"], None, PROPAGATE_KEYS),
        (["propagate", "--reverse"], None, PROPAGATE_KEYS | {"forward_ghz_phase"}),
        (VALIDATE_TWO_FACTORS, None, REPORT_KEYS | {"comparison"}),
        (VALIDATE_TWO_FACTORS, "comparison", REPORT_KEYS | {"infidelity_decreased"}),
    ],
    ids=["propagate", "propagate-reverse", "validate-full", "validate-full-comparison"],
)
def test_payload_key_sets(argv, part, keys, capsys):
    # a deleted payload field must not come back unnoticed
    assert main([*argv, "--schedule", str(SHIPPED_CSV)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload if part is None else payload[part]) == keys


# ---------------------------------------------------------------------------
# CSV and JSON codecs, and rewriting output files in place

# finite floats, with the edge cases a text round trip can lose
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.225073858507201e-308, 1e308, -1e308]
)


def schedule_file(tmp_path, *rows):
    path = tmp_path / "sched.csv"
    path.write_text("\n".join([SCHEDULE_HEADER, *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "third_line, message",
    [
        ("1.0,1.0,1.0", "line 3: expected 4 comma-separated fields"),
        ("1.0,1.0,x,1.0", "line 3: could not convert string to float: 'x'"),
        ("", "line 3: expected 4 comma-separated fields"),
        ("  \t ", "line 3: expected 4 comma-separated fields"),
    ],
    ids=["field-count", "unparseable", "blank", "whitespace"],
)
def test_schedule_reader_names_the_bad_line(third_line, message, tmp_path):
    path = schedule_file(tmp_path, "0.0,1.0,1.0,1.0", third_line, "2.0,1.0,1.0,1.0")
    with pytest.raises(ValueError) as exc:
        read_schedule_csv(path)
    assert str(exc.value) == message


@pytest.mark.filterwarnings("error")
def test_header_only_schedule_is_refused_without_warning(tmp_path):
    path = schedule_file(tmp_path)
    with pytest.raises(ValueError) as exc:
        read_schedule_csv(path)
    assert str(exc.value) == f"invalid schedule in {path!r}: schedule needs at least two time samples"


@pytest.mark.parametrize(
    "rows",
    [
        (" 0.0 ,\t1.5, 2e-3 ,-0.0", "1 , 1,1 ,  1"),
        ("0,1_0,2.5,3", "1_0.5,١,1e-3,-0.0"),
    ],
    ids=["padded", "underscores-and-non-ascii-digits"],
)
def test_schedule_reader_parses_fields_as_float_does(rows, tmp_path):
    schedule = read_schedule_csv(schedule_file(tmp_path, *rows))
    expected = np.array([[float(field) for field in row.split(",")] for row in rows])
    assert schedule.times.tobytes() == expected[:, 0].tobytes()
    assert schedule.values.tobytes() == expected[:, 1:].tobytes()


@given(
    st.sampled_from([0.0, -0.0]),
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
             min_size=1, max_size=20, unique=True),
    st.lists(FINITE, min_size=63, max_size=63),
)
def test_schedule_csv_round_trip_is_exact(tmp_path_factory, start, later, amplitudes):
    times = np.array([start, *sorted(later)])
    written = PulseSchedule(times, np.resize(amplitudes, (times.size, 3)))
    path = str(tmp_path_factory.getbasetemp() / "round_trip.csv")
    write_schedule_csv(written, path)
    parsed = read_schedule_csv(path)
    assert parsed.times.tobytes() == written.times.tobytes()
    assert parsed.values.tobytes() == written.values.tobytes()


VALIDATE_ONE_FACTOR = [
    "validate-full", "--factor", "3", "--min-factor", "3", "--compare-factor", "0",
    "--steps-per-cycle", "2",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["endpoints"],
        ["propagate", "--schedule", str(SHIPPED_CSV)],
        ["propagate", "--schedule", str(SHIPPED_CSV), "--reverse"],
        [*VALIDATE_TWO_FACTORS, "--schedule", str(SHIPPED_CSV)],
        [*VALIDATE_ONE_FACTOR, "--schedule", str(SHIPPED_CSV)],
    ],
    ids=["endpoints", "propagate", "propagate-reverse", "validate-full", "validate-full-one-factor"],
)
def test_json_payload_is_what_json_dumps_writes(argv, tmp_path, capsys):
    out = tmp_path / "payload.json"
    assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    # json reads back every float it wrote exactly
    assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"


@given(
    st.lists(FINITE),
    st.lists(st.one_of(FINITE, st.integers(-10**6, 10**6), st.none())),
    FINITE,
)
def test_json_writer_matches_json_dumps(floats, mixed, scalar):
    payload = {"floats": floats, "mixed": mixed, "scalar": scalar, "nested": {"floats": floats}}
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        write_json(payload, None)
    assert text.getvalue() == json.dumps(payload, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payload_leaves_out_file_unchanged(bad, tmp_path, monkeypatch, capsys):
    def spoiled(*args, **kwargs):
        result = propagate(*args, **kwargs)
        trace = result.fidelity_trace.copy()
        trace[1] = bad
        return dataclasses.replace(result, fidelity_trace=trace)

    monkeypatch.setattr(cli, "propagate", spoiled)
    out = tmp_path / "result.json"
    out.write_text("an earlier payload\n")
    assert main(["propagate", "--schedule", str(SHIPPED_CSV), "--out", str(out)]) == 2
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert out.read_text() == "an earlier payload\n"


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["synthesize", "--duration", "1"], ["--out"]),
        (["propagate", "--schedule", str(SHIPPED_CSV)], ["--out", "--trace-csv"]),
    ],
    ids=["synthesize", "propagate"],
)
def test_output_files_are_rewritten_in_place(argv, outputs, tmp_path, capsys):
    fresh = {flag: tmp_path / f"fresh{flag}" for flag in outputs}
    assert main([*argv, *(a for flag, path in fresh.items() for a in (flag, str(path)))]) == 0
    # a new file gets the mode any file the process creates gets
    created = tmp_path / "created"
    created.write_text("")
    assert {path.stat().st_mode for path in fresh.values()} == {created.stat().st_mode}

    # each output goes through a symlink to a longer file of mode 0o640
    targets = {flag: tmp_path / f"target{flag}" for flag in outputs}
    links = {flag: tmp_path / f"link{flag}" for flag in outputs}
    for flag, target in targets.items():
        target.write_bytes(b"x" * (fresh[flag].stat().st_size + 4096))
        target.chmod(0o640)
        links[flag].symlink_to(target)
    inodes = {flag: target.stat().st_ino for flag, target in targets.items()}
    assert main([*argv, *(a for flag, link in links.items() for a in (flag, str(link)))]) == 0

    for flag, target in targets.items():
        assert links[flag].is_symlink()
        assert target.read_bytes() == fresh[flag].read_bytes()
        assert target.stat().st_ino == inodes[flag]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_propagate_out_dev_null(capsys):
    assert main(["propagate", "--schedule", str(SHIPPED_CSV), "--out", os.devnull]) == 0
