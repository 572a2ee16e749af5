"""The analysis scripts run end to end at tiny sizes."""

import csv
import io

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
