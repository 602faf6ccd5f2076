"""Check the tracer against the independently measured baseline.

Run from the repository root:

    python3 perfbench/selftest.py

At E = -1 the traced count of `dynamics.acceleration` calls must equal the
field-evaluation counts measured without any tracer (ROADMAP baseline,
taken on commit f878984): one `verify` unit, one 50-point `scan`, and the
two orbit searches.  It also checks that uninstalling the tracer restores
every rebound name.  Exits 0 when all hold, 1 otherwise.

The counts belong to that commit: a change that alters how many field
evaluations the program makes is expected to move them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile

from run import STATE_DIR, import_program
from tracing import LAYERS, Tracer

BASELINE = {
    "verify": 577_157,
    "scan": 58_448,
    "find_langmuir_orbit": 10_072,
    "find_brake_orbit": 75_786,
}


def _bindings(lab) -> dict:
    mods = [lab] + [getattr(lab, name) for name in LAYERS]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def main() -> int:
    lab = import_program()
    STATE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=STATE_DIR)
    jobs = {
        "verify": lambda: lab.cli.main(
            ["verify", "--report", f"{workdir}/verdict.json"]),
        "scan": lambda: lab.cli.main(
            ["scan", "--energy", "-1", "--grid", "0.05,3.45,50",
             "--out", f"{workdir}/scan.csv"]),
        "find_langmuir_orbit": lambda: lab.shooting.find_langmuir_orbit(-1.0),
        "find_brake_orbit": lambda: lab.shooting.find_brake_orbit(-1.0),
    }
    before = _bindings(lab)
    tracer = Tracer(lab)
    ok = True
    try:
        for name, job in jobs.items():
            calls0 = tracer.leaf_totals()[0].get("dynamics.acceleration", 0)
            tracer.install()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    job()
            finally:
                tracer.uninstall()
            calls = tracer.leaf_totals()[0]["dynamics.acceleration"] - calls0
            match = calls == BASELINE[name]
            ok &= match
            print(f"{'ok  ' if match else 'FAIL'} {name}: "
                  f"{calls} acceleration calls, baseline {BASELINE[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = _bindings(lab)
    restored = before.keys() == after.keys() and all(
        before[k] is after[k] for k in before
    )
    ok &= restored
    print(f"{'ok  ' if restored else 'FAIL'} uninstall restores every binding")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
