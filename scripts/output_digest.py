#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed set of CLI commands.

Each command runs in a fresh interpreter, in its own temporary directory,
against the package under `--src` (by default this checkout's `src/`).  One
line per output (its stdout, its stderr and each file it writes, by name)
gives the command, the output, the command's exit code and the output's
SHA-256.  Two checkouts produce the same outputs, exit codes and stderr
included, exactly when their digests are the same:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py --src OTHER_CHECKOUT/src > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

GRID = "0.05,3.45,50"
COMMANDS = (
    ("verify", "--report", "verdict.json"),
    ("zero-energy", "--t-end", "50", "--report", "zero.json"),
    ("zero-energy", "--t-end", "7.3", "--report", "zero.json"),
    ("scan", "--energy", "-1", "--grid", GRID, "--out", "scan.csv"),
    ("scan", "--energy", "-0.63", "--grid", GRID, "--out", "scan.csv"),
    ("find-orbit", "--energy", "-1", "--kind", "langmuir", "--out", "orbit"),
    ("find-orbit", "--energy", "-1", "--kind", "brake", "--out", "orbit"),
    ("find-orbit", "--energy", "-1.6", "--kind", "langmuir", "--out", "orbit"),
    ("find-orbit", "--energy", "-1.6", "--kind", "brake", "--out", "orbit"),
    ("simulate", "--energy", "-1", "--height", "1.398", "--format", "csv",
     "--out", "run.csv"),
    ("simulate", "--energy", "-1", "--height", "1.398", "--format", "json",
     "--out", "run.json"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(src: pathlib.Path) -> list[str]:
    """The digest lines of every command, in the order of COMMANDS."""
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = []
    for argv in COMMANDS:
        label = " ".join(argv)
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run(
                [sys.executable, "-m", "langmuir_lab.cli", *argv],
                cwd=work, env=env, capture_output=True, timeout=600)
            outputs = [("stdout", proc.stdout), ("stderr", proc.stderr)]
            outputs += [(p.name, p.read_bytes())
                        for p in sorted(pathlib.Path(work).iterdir())]
        for name, data in outputs:
            lines.append(f"{label}\t{name}\texit={proc.returncode}\t"
                         f"{_sha256(data)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="directory holding the langmuir_lab package")
    args = parser.parse_args()
    print("\n".join(digest_lines(args.src.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
