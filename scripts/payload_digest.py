#!/usr/bin/env python3
"""Print a SHA-256 digest of each deterministic payload the program writes.

Runs a fixed set of ``ghz-forge`` commands through ``ghzforge.cli.main``,
and both analysis scripts at small sizes, in a temporary directory.  It
prints one ``name sha256`` line per payload: a captured stdout, a stderr
that holds no timing, or an output file.  Two checkouts that print the
same lines wrote the same bytes, so a diff of this output between them
shows which payloads a change moved.  It then fills every output file
with longer junk and runs the same commands again: a command that
rewrites a file must leave the bytes of a fresh write, and the script
exits 1 naming each payload that differs.  It takes no options:

    PYTHONPATH=src python scripts/payload_digest.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import profile_area_comparison
import reduction_scan
from ghzforge.cli import SCHEDULE_HEADER, main as cli_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# validate-full at the settings of the benchmark's validate workload
VALIDATE_FLAGS = ("--factor", "10", "--compare-factor", "20", "--steps-per-cycle", "14")


def _run(entry, argv) -> tuple[str, str]:
    """Stdout and stderr of one entry-point call, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue(), err.getvalue()


def digests(work: Path) -> list[tuple[str, str]]:
    """(name, sha256) of every payload, in a fixed order."""
    payloads: list[tuple[str, bytes]] = []

    def run(name, argv, stdout=False, stderr=False, entry=cli_main):
        """Run argv, where each "@suffix" names the output file name + suffix."""
        outputs = {a: work / (name + a[1:]) for a in argv if a.startswith("@")}
        text_out, text_err = _run(entry, [str(outputs.get(a, a)) for a in argv])
        if stdout:
            payloads.append((f"{name}.stdout", text_out.encode()))
        if stderr:
            payloads.append((f"{name}.stderr", text_err.encode()))
        payloads.extend((path.name, path.read_bytes()) for path in outputs.values())
        return [str(path) for path in outputs.values()]

    run("endpoints", ["endpoints", "--out", "@.json"], stdout=True)
    run("check", ["check"], stdout=True)
    for profile in ("constant", "trapezoid"):
        for pole in ("1", "-1"):
            tag = f"{profile}-pole{pole}"
            [csv] = run(f"synthesize-{tag}", ["synthesize", "--profile", profile, "--pole", pole,
                                               "--duration", "1", "--out", "@.csv"], stderr=True)
            run(f"propagate-{tag}", ["propagate", "--schedule", csv, "--out", "@.json"])
            run(f"reverse-{tag}", ["propagate", "--schedule", csv, "--reverse", "--out", "@.json"])
            if pole == "1":
                run(f"validate-{profile}",
                    ["validate-full", "--schedule", csv, *VALIDATE_FLAGS, "--out", "@.json"])
    # a forced sub-unit factor, where the peak amplitude, not stark_amp, sets the step rate;
    # at one step per cycle the knots set the count, one step per segment
    run("validate-forced", ["validate-full", "--schedule", str(work / "synthesize-constant-pole1.csv"),
                            "--factor", "0.5", "--compare-factor", "0", "--steps-per-cycle", "1",
                            "--force", "--out", "@.json"])
    run("synthesize-target-area", ["synthesize", "--target-area", "3", "--out", "@.csv"],
        stderr=True)
    [csv] = run("synthesize-omega-ref",
                ["synthesize", "--duration", "1", "--omega-ref", "2.5", "--out", "@.csv"],
                stderr=True)
    run("propagate-omega-ref", ["propagate", "--schedule", csv, "--initial", "ghz:0.3",
                                "--out", "@.json", "--trace-csv", "@-trace.csv"])
    run("reduction_scan", ["--factors", "2", "3", "--samples", "50", "--steps-per-cycle", "4",
                           "--out", "@.csv"], entry=reduction_scan.main)
    run("profile_area_comparison", ["--points", "2", "--samples", "100", "--out", "@.csv"],
        entry=profile_area_comparison.main)
    # runs that skip the closed form: the shipped config asks for 4096
    # steps, a CF4 pass that the commutator bound ends; the zigzag is not
    # rank 1, and Richardson doubling ends it
    run("propagate-config", ["propagate", "--config", str(CONFIGS / "row1_constant.json"),
                             "--out", "@.json"])
    zigzag = work / "zigzag.csv"
    rows = (f"{k / 8!r},2.2,{3.9 * (-1) ** k!r},0.0" for k in range(9))
    zigzag.write_text("\n".join([SCHEDULE_HEADER, *rows, ""]))
    run("propagate-zigzag", ["propagate", "--schedule", str(zigzag), "--out", "@.json"])
    run("reverse-zigzag", ["propagate", "--schedule", str(zigzag), "--reverse", "--out", "@.json"])
    return [(name, hashlib.sha256(data).hexdigest()) for name, data in payloads]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        fresh = digests(work)
        for path in work.iterdir():
            # blank lines, which the schedule reader skips, so a stale tail
            # shows in the digests; a new file, as truncating the old one
            # starts a writeback that the rewrite would wait for
            size = path.stat().st_size
            path.unlink()
            path.write_bytes(b"\n" * (size + 4096))
        rewritten = dict(digests(work))
    for name, digest in fresh:
        print(name, digest)
    moved = [name for name, digest in fresh if rewritten[name] != digest]
    if moved:
        print(f"rewriting over a longer file changed: {', '.join(moved)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
