"""Smoke tests for the scripts in scripts/: each runs to exit 0 and writes
what it promises."""

import os
import pathlib
import subprocess
import sys

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

