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


def test_payload_digest_prints_one_named_sha256_per_payload():
    start = time.perf_counter()
    proc = run_python(str(REPO / "scripts" / "payload_digest.py"))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert len(names) == len(set(names))
    assert {"check.stdout", "endpoints.json", "reduction_scan.csv"} <= set(names)
    assert elapsed < 3.0
