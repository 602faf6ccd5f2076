"""The three benchmark workloads and the oracle that checks each unit.

Load model, shared by all three: one process drives the public entry point
`langmuir_lab.cli.main(argv)` in-process as a closed loop, one unit at a
time, the next unit starting when the previous one returns.  The program
runs with at most `nproc` threads, the default size of its own pools
(`scan_alpha` and `run_all_checks`); the benchmark starts no threads.

Every oracle comes from a fact independent of the integrator: the energy
scaling law (h* scales as 1/(-E), T as (-E)^(-3/2)), the reference values
at E = -1 and the rescaled first-rest bound T_MAX = 6.11582.

verify
    Why: the heaviest command users run, and the one that loads the
    integrator most: `analysis.check_magical_prefix` (about 79% of the
    wall) forces 10 substeps per accepted step, and
    `analysis.run_all_checks` runs the seven checks on its thread pool.
    Bypasses: root solving, orbit assembly, `scan_alpha` and most of
    `output`.
    Its inputs are constants of the suite, so the seed does not change it.
orbits
    Why: loads `shooting`: the root solves, the O(k^2) re-integration in
    `classify_reflection_count`, the retrace in `assemble_periodic_orbit`
    (which uses `sample_times`) and `output` serialization of orbits of
    about 1,000 samples.  Bypasses: substeps and the thread pools.
scan
    Why: the same integrator used for events rather than dense samples:
    50 independent `shoot` calls on the `scan_alpha` pool, with event
    localization about a third of all field evaluations.  Bypasses: root
    solving, substeps and orbit assembly.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

H_STAR = 1.4070602237  # simple orbit launch height at E = -1
QUARTER_PERIOD = 1.0619636445  # its quarter period at E = -1
BRAKE_H_STAR = 0.3312553369  # brake orbit launch height at E = -1
T_MAX = 6.11582  # bound on the first rest time at E = -1
SCAN_POINTS = 50
ENERGY_STRATA = 8
CHECK_NAMES = frozenset({
    "energy_drift", "initial_acceleration", "inverted_concavity",
    "magical_prefix", "tau_growth", "tmax_bound", "zero_energy_monotone",
})
CSV_HEADER = ["t", "x", "y", "vx", "vy", "energy"]
SCAN_HEADER = [
    "h", "t_h", "alpha", "n_magical_crossings", "energy_drift", "status",
]


@dataclass
class Unit:
    """One unit of work: CLI argv lists run back to back, then an oracle
    returning an empty string when the outputs are right, else the reason."""
    argvs: list[list[str]]
    check: Callable[[list[int]], str]


def _rel(value: float, ref: float) -> float:
    return abs(value / ref - 1.0)


def _read_rows(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: bad header")
    return rows[1:]


def _draw_energy(rng, state: dict) -> float:
    """E in [-2, -0.5], stratified: each pass over ENERGY_STRATA equal
    slices visits every slice once in a seeded order, so the mix of
    energies, and with it the work per unit, is alike in every run."""
    deck = state.setdefault("strata", [])
    if not deck:
        deck.extend(range(ENERGY_STRATA))
        rng.shuffle(deck)
    return -2.0 + 1.5 * (deck.pop() + rng.random()) / ENERGY_STRATA


# ------------------------------------------------------------------ verify

def _verify_unit(rng, workdir: str, state: dict) -> Unit:
    report = os.path.join(workdir, "verdict.json")

    def check(codes: list[int]) -> str:
        if codes != [0]:
            return f"exit codes {codes}"
        with open(report, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        if set(doc) != CHECK_NAMES:
            return f"checks {sorted(doc)}"
        failed = sorted(k for k, v in doc.items() if v["passed"] is not True)
        if failed:
            return f"checks failed: {failed}"
        first = state.setdefault("verdict", raw)
        if raw != first:
            return "verdict bytes differ from the first unit of the run"
        return ""

    return Unit([["verify", "--report", report]], check)


# ------------------------------------------------------------------ orbits

def _orbit_csv_problem(path: str, period: float) -> str:
    rows = _read_rows(path, CSV_HEADER)
    if len(rows) < 2 or any(len(r) != len(CSV_HEADER) for r in rows):
        return f"{os.path.basename(path)}: malformed rows"
    values = [[float(c) for c in r] for r in rows]
    if not all(math.isfinite(v) for r in values for v in r):
        return f"{os.path.basename(path)}: non-finite value"
    last_t = values[-1][0]
    if abs(last_t - period) > 1e-12 * period:
        return f"{os.path.basename(path)}: last t {last_t} != 4T {period}"
    return ""


def _orbits_unit(rng, workdir: str, state: dict) -> Unit:
    E = _draw_energy(rng, state)
    a = -1.0 / E
    prefixes = {
        kind: os.path.join(workdir, kind) for kind in ("langmuir", "brake")
    }
    brackets = {"langmuir": (0.5 * a, 3.0 * a), "brake": (0.3 * a, 0.8 * a)}
    argvs = [
        ["find-orbit", "--energy", repr(E), "--kind", kind,
         "--bracket", f"{lo!r},{hi!r}", "--out", prefixes[kind]]
        for kind, (lo, hi) in brackets.items()
    ]

    def check(codes: list[int]) -> str:
        if codes != [0, 0]:
            return f"exit codes {codes} at E={E!r}"
        with open(prefixes["langmuir"] + ".orbit.json") as fh:
            simple = json.load(fh)
        with open(prefixes["brake"] + ".orbit.json") as fh:
            brake = json.load(fh)
        problems = []
        if _rel(simple["h_star"] * -E, H_STAR) > 1e-8:
            problems.append(f"h* {simple['h_star']!r}")
        if _rel(simple["quarter_period"] * (-E) ** 1.5, QUARTER_PERIOD) > 1e-6:
            problems.append(f"T {simple['quarter_period']!r}")
        if simple["kind"] != "Langmuir":
            problems.append(f"simple kind {simple['kind']!r}")
        if _rel(brake["h_star"] * -E, BRAKE_H_STAR) > 1e-8:
            problems.append(f"brake h* {brake['h_star']!r}")
        if brake["kind"] != "Brake-3":
            problems.append(f"brake kind {brake['kind']!r}")
        for kind, rec in (("langmuir", simple), ("brake", brake)):
            problems.append(_orbit_csv_problem(
                prefixes[kind] + ".orbit.csv", 4.0 * rec["quarter_period"]
            ))
        problems = [p for p in problems if p]
        return f"E={E!r}: " + "; ".join(problems) if problems else ""

    return Unit(argvs, check)


# ------------------------------------------------------------------ scan

def _scan_unit(rng, workdir: str, state: dict) -> Unit:
    E = _draw_energy(rng, state)
    a = -1.0 / E
    out = os.path.join(workdir, "scan.csv")
    argv = ["scan", "--energy", repr(E),
            "--grid", f"{0.05 * a!r},{3.45 * a!r},{SCAN_POINTS}",
            "--out", out]

    def check(codes: list[int]) -> str:
        if codes != [0]:
            return f"exit codes {codes} at E={E!r}"
        rows = _read_rows(out, SCAN_HEADER)
        if len(rows) != SCAN_POINTS:
            return f"E={E!r}: {len(rows)} rows"
        h = [float(r[0]) for r in rows]
        t_h = [float(r[1]) for r in rows]
        alpha = [float(r[2]) for r in rows]
        target = H_STAR * a
        if not any(
            h[i] < target < h[i + 1] and (alpha[i] > 0.0) != (alpha[i + 1] > 0.0)
            for i in range(len(rows) - 1)
        ):
            return f"E={E!r}: no sign change brackets h*={target!r}"
        bound = T_MAX * a ** 1.5
        late = [x for x in t_h if not x <= bound]
        if late:
            return f"E={E!r}: t_h {late[0]!r} exceeds {bound!r}"
        return ""

    return Unit([argv], check)


# name -> (rng, workdir, state) -> Unit; `state` lives for one run.
WORKLOADS = {
    "verify": _verify_unit,
    "orbits": _orbits_unit,
    "scan": _scan_unit,
}
