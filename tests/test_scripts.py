"""Smoke tests for the scripts in scripts/: each runs to exit 0 and writes
what it promises."""

import os
import pathlib
import subprocess
import sys

from langmuir_lab import output

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


def test_alpha_scan_writes_table_and_bracket(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_script("alpha_scan.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == output.SCAN_HEADER
    assert "sign change on" in proc.stderr
