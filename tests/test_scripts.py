"""Smoke tests for the scripts in scripts/: each runs to exit 0 and writes
what it promises."""

import os
import pathlib
import subprocess
import sys

from langmuir_lab import output, shooting

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_reproduce_figures_writes_five_svgs(tmp_path):
    out_dir = tmp_path / "figures"
    proc = run_script(
        "reproduce_figures.py", "--out-dir", str(out_dir), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    svgs = sorted(out_dir.glob("*.svg"))
    assert len(svgs) == 5
    assert all(p.read_text().lstrip().startswith("<") for p in svgs)
    # each orbit figure, drawn through the public API, is the one that
    # orbit_svg draws from the orbit's quarter arc with the same comment
    for name, rec in (
        ("langmuir", shooting.find_langmuir_orbit(-1.0)),
        ("brake", shooting.find_brake_orbit(-1.0)),
    ):
        want = output.orbit_svg(shooting._closed_quarter_arc(rec), -1.0,
                                f"kind={rec.kind} h*={rec.h_star:.10f}")
        assert (out_dir / f"orbit_{name}.svg").read_text() == want


def test_output_digest_is_the_same_from_run_to_run(tmp_path):
    # every command's outputs, exit codes and stderr included, are the same
    # bytes from run to run, so a difference between two checkouts' digests
    # is a difference between the checkouts
    runs = [run_script("output_digest.py", cwd=tmp_path) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    commands = {ln.split("\t")[0] for ln in lines}
    assert len(commands) == 11
    assert all(ln.split("\t")[2] == "exit=0" for ln in lines)
    # each command's stdout and stderr, and the files written: a verdict,
    # two zero-energy reports, two scan tables, four orbits' json, csv and
    # svg, and two runs
    assert len(lines) == 2 * 11 + 1 + 2 + 2 + 4 * 3 + 2
