"""The scripts run end to end at tiny sizes."""

import csv
import io
import re
import time

import pytest

from test_cli import REPO, run_python


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "reduction_scan.py",
            ("--factors", "2", "3", "--samples", "50", "--steps-per-cycle", "4"),
            ["factor", "ratio_upper", "ratio_lower", "hierarchy_ok", "infidelity", "steps", "dt"],
        ),
        (
            "profile_area_comparison.py",
            ("--points", "2", "--samples", "100"),
            ["ramp_fraction", "duration", "peak_amplitude", "squared_area", "ghz_fidelity",
             "ghz_phase"],
        ),
    ],
    ids=["reduction_scan", "profile_area_comparison"],
)
def test_script_writes_csv(script, args, header):
    proc = run_python(str(REPO / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == header
    assert len(rows) == 3


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("reduction_scan.py", ("--factors", "2", "nan"), "must be positive and finite, not nan"),
        ("reduction_scan.py", ("--factors", "inf"), "must be positive and finite, not inf"),
        ("reduction_scan.py", ("--factors", "-1"), "must be positive and finite, not -1.0"),
        ("reduction_scan.py", ("--duration", "0"), "duration must be positive and finite"),
        ("reduction_scan.py", ("--duration", "nan"), "duration must be positive and finite"),
        ("reduction_scan.py", ("--samples", "1"), "at least 2 samples"),
        ("profile_area_comparison.py", ("--duration", "0"), "duration must be positive and finite"),
        ("profile_area_comparison.py", ("--duration", "nan"), "duration must be positive and finite"),
        ("profile_area_comparison.py", ("--samples", "1"), "at least 2 samples"),
        # refused before the 3,000,000-row baseline is built
        ("profile_area_comparison.py", ("--points", "1", "--samples", "3000000"),
         "3000000 exceeds the 2097153 rows propagate can certify"),
        ("reduction_scan.py", ("--samples", "10000000000000"),
         "10000000000000 exceeds the 2097153 rows propagate can certify"),
    ],
)
def test_script_refuses_bad_input_as_usage_error(script, args, message):
    # the package's message, with no traceback, and nothing integrated first
    proc = run_python(str(REPO / "scripts" / script), *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "fidelity" not in proc.stderr
    assert proc.stdout == ""


def test_reduction_scan_refuses_an_oversized_factor_before_integrating_any():
    # factor 3e5 needs about 9.6e6 steps, over the cap; factor 2 comes first
    proc = run_python(str(REPO / "scripts" / "reduction_scan.py"), "--factors", "2", "300000")
    assert proc.returncode == 2
    assert "factor 300000: the full model needs" in proc.stderr
    assert "infidelity" not in proc.stderr
    assert proc.stdout == ""


def test_reduction_scan_runs_a_factor_past_the_midpoint_cap():
    # factor 100 needed 7.06e6 midpoint steps, past the cap of 4,194,304
    proc = run_python(str(REPO / "scripts" / "reduction_scan.py"), "--factors", "10", "100")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert [row[0] for row in rows[1:]] == ["10.0", "100.0"]
    assert int(rows[2][5]) < 100_000


def test_payload_digest_prints_one_named_sha256_per_payload():
    start = time.perf_counter()
    proc = run_python(str(REPO / "scripts" / "payload_digest.py"))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert len(names) == len(set(names))
    assert {"check.stdout", "endpoints.json", "reduction_scan.csv", "propagate-config.json",
            "propagate-zigzag.json", "reverse-zigzag.json"} <= set(names)
    assert elapsed < 3.0
