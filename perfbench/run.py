"""langmuir-lab benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {verify,orbits,scan} --seed N \
        --seconds S --trace {0,1}

The program is imported from `src/` of the checkout and driven in-process
through `langmuir_lab.cli.main(argv)`, one unit at a time (closed loop; see
workloads.py for the workloads and their oracles).  Each run:

1. runs one warm-up unit;
2. runs units until `--seconds` have passed, timing a fixed pure-Python
   workload (`calibrate`) before the first unit and after every unit;
3. probes set-up at times spread over the run: the import time of
   `langmuir_lab` and its CLI in a fresh interpreter, each probe scaled by
   the calibration run just before it to a host on which `calibrate()`
   takes CALIB_REF_S (raw probes are kept in `units-*.json`);
4. checks every unit's outputs with the workload's oracle; a unit that
   exits non-zero, raises, or fails its oracle counts as failed;
5. prints one JSON line.

Timing and host noise.  On the 2-vCPU VM this was written on, the host
alternates, for seconds to minutes at a time, between a fast phase and one
about 1.6x slower; a fixed pure-Python loop varies by as much.  Over sets of
ten runs the median wall time per unit spread by 13-21% (quartile distance
over median), and on `scan`, whose two pool threads hand the GIL back and
forth, even wall time over calibration spread by 7-24%: it also loses time
to vCPU preemption that no calibration sees.  So the gated time is
`unit_cpu_per_calib`: each unit's process CPU time over the mean of the
two calibration runs around it.  Raw wall times (median and quartiles,
with the unit count) go to stderr, to `.perfbench/units-*.json` and, with
`--trace 1`, to `host.unit_s` and `host.unit_wall_per_calib`.  Set-up
drifts with the host too (the raw median rose 22% between two sets of
`scan` runs on a host 17% slower), hence the scaling of `setup_s`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced units and reports per-layer metrics from the traced
ones (see tracing.py).  Raw figures are kept under `.perfbench/`: per-unit
times, calibrations and set-up probes in `units-<workload>-<seed>.json`,
and with `--trace 1` the spans in `spans-<workload>-<seed>.jsonl`.

`python3 perfbench/selftest.py` checks the tracer's counts against the
independently measured baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import Tracer, self_time
from workloads import CHECK_NAMES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
CALIB_STEPS = 5000
# setup_s is reported for a host on which calibrate() takes this long
CALIB_REF_S = 0.1
RK4_A = ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
RK4_B = (1 / 6, 1 / 3, 1 / 3, 1 / 6)
ORBIT_SEARCHES = ("shooting.find_langmuir_orbit", "shooting.find_brake_orbit")
INTEGRATIONS = ("integrator.integrate", "integrator.integrate_inverted")
OUTPUTS = (
    "trajectory_csv", "trajectory_svg", "orbit_record_json", "scan_csv",
    "verdict_json",
)
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "t0 = time.perf_counter()\n"
    "import langmuir_lab, langmuir_lab.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _field(y: tuple) -> tuple:
    r = math.hypot(y[0], y[1]) + 1.0
    return (y[2], y[3], -y[0] / r, -y[1] / r)


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload: the host's current speed.

    It is shaped like the program's hot path (a generic Runge-Kutta step
    over 4-tuples: generator expressions, small tuples, a growing sample
    list) but shares no code with it, so it slows down with the host as the
    program does, and not when the program changes.  A plain arithmetic
    loop tracked the host worse: in the slow host phase the program's time
    over the loop's rose by 13%, over this workload's by about 1%.
    """
    t0 = time.perf_counter()
    y, h, samples = (1.0, 0.0, 0.0, 1.0), 1e-3, []
    for n in range(CALIB_STEPS):
        ks = [_field(y)]
        for row in RK4_A:
            ks.append(_field(tuple(
                yj + h * sum(a * k[j] for a, k in zip(row, ks))
                for j, yj in enumerate(y)
            )))
        y = tuple(
            yj + h * sum(b * k[j] for b, k in zip(RK4_B, ks))
            for j, yj in enumerate(y)
        )
        samples.append((n, y))
    return time.perf_counter() - t0


def import_program():
    """Import the package from this checkout's src/, nowhere else."""
    if not (SRC / "langmuir_lab" / "cli.py").is_file():
        raise RuntimeError(f"no langmuir_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import langmuir_lab
    import langmuir_lab.cli

    origin = Path(langmuir_lab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"langmuir_lab imported from {origin}")
    return langmuir_lab


def setup_seconds() -> float:
    """Import time of the package plus CLI in a fresh interpreter (bytecode
    already compiled by the in-process import)."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE.format(src=str(SRC))],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def run_unit(cli, unit, workdir: str) -> tuple[float, float, str]:
    """Run one unit; returns (wall s, process CPU s, problem or '')."""
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    codes: list = []
    problem = ""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            for argv in unit.argvs:
                codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception:
            problem = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    if not problem:
        try:
            problem = unit.check(codes)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
    return wall, cpu, problem


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(tracer: Tracer, n_units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `n_units` traced units; counts
    and seconds are per unit, ratios over the whole run.

    - integrator.evals_per_call: field evaluations inside one `integrate`;
    - shooting.integrations_per_orbit: integrations under an orbit search
      or an `assemble_periodic_orbit`, per orbit searched;
    - shooting.useful_ratio: solver evaluations (`len(solver_trace)`) over
      the integrations made inside the orbit searches;
    - <pool>.wait_share: 1 - thread CPU / wall, summed over the direct
      children of `scan_alpha` or `run_all_checks` (time spent waiting for
      the GIL on the pool threads);
    - cli.main.self_s: `cli.main` minus its child spans and leaf time.
    """
    spans = tracer.spans
    by_id = {sp.id: sp for sp in spans}

    def under(sp, names) -> bool:
        p = by_id.get(sp.parent)
        while p is not None:
            if p.name in names:
                return True
            p = by_id.get(p.parent)
        return False

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    tot: Counter = Counter()
    shoot_us = []
    for sp in spans:
        dur = sp.t1 - sp.t0
        tot[sp.name + ".calls"] += 1
        tot[sp.name + ".s"] += dur
        if sp.name == "integrator.integrate":
            tot["integrate.self_s"] += self_time(sp)
            tot["integrate.evals"] += sp.leaf_calls.get("dynamics.acceleration", 0)
            tot["integrate.samples"] += sp.extra.get("samples", 0)
            tot["integrate.events"] += sp.extra.get("events", 0)
        elif sp.name == "shooting.shoot":
            shoot_us.append(dur * 1e6)
        elif sp.name in ORBIT_SEARCHES:
            tot["solver_iters"] += sp.extra.get("solver_iters", 0)
        elif sp.name == "cli.main":
            tot["cli.self_s"] += self_time(sp)
        tot["output.bytes"] += sp.extra.get("bytes", 0)
        if sp.name in INTEGRATIONS:
            if under(sp, ORBIT_SEARCHES + ("shooting.assemble_periodic_orbit",)):
                tot["orbit.integrations"] += 1
            if under(sp, ORBIT_SEARCHES):
                tot["search.integrations"] += 1
            if under(sp, ("analysis.run_all_checks",)):
                tot["suite.integrations"] += 1
        parent = by_id.get(sp.parent)
        if parent is not None and parent.name in (
            "shooting.scan_alpha", "analysis.run_all_checks"
        ):
            tot[parent.name + ".child_wall"] += dur
            tot[parent.name + ".child_cpu"] += sp.cpu1 - sp.cpu0

    calls, secs = tracer.leaf_totals()
    acc = "dynamics.acceleration"
    n_orbits = sum(tot[name + ".calls"] for name in ORBIT_SEARCHES)
    p50 = p90 = 0.0
    if len(shoot_us) >= 2:
        cuts = statistics.quantiles(shoot_us, n=10)
        p50, p90 = cuts[4], cuts[8]
    elif shoot_us:
        p50 = p90 = shoot_us[0]
    n_int = tot["integrator.integrate.calls"]
    per = max(n_units, 1)
    out = {
        "dynamics.acceleration.calls": (calls.get(acc, 0) / per, "count"),
        "dynamics.acceleration.us": (
            ratio(secs.get(acc, 0.0), calls.get(acc, 0)) * 1e6, "us"),
        "integrator.integrate.calls": (n_int / per, "count"),
        "integrator.integrate.self_s": (tot["integrate.self_s"] / per, "s"),
        "integrator.evals_per_call": (ratio(tot["integrate.evals"], n_int), "count"),
        "integrator.samples_per_call": (ratio(tot["integrate.samples"], n_int), "count"),
        "integrator.events_per_call": (ratio(tot["integrate.events"], n_int), "count"),
        "shooting.shoot.calls": (tot["shooting.shoot.calls"] / per, "count"),
        "shooting.shoot.p50_us": (p50, "us"),
        "shooting.shoot.p90_us": (p90, "us"),
        "shooting.solver_iters": (ratio(tot["solver_iters"], n_orbits), "count"),
        "shooting.integrations_per_orbit": (
            ratio(tot["orbit.integrations"], n_orbits), "count"),
        "shooting.useful_ratio": (
            ratio(tot["solver_iters"], tot["search.integrations"]), "ratio"),
        "shooting.classify_reflection_count.s": (
            tot["shooting.classify_reflection_count.s"] / per, "s"),
        "shooting.assemble_periodic_orbit.s": (
            tot["shooting.assemble_periodic_orbit.s"] / per, "s"),
    }
    for pool in ("shooting.scan_alpha", "analysis.run_all_checks"):
        wall = tot[pool + ".child_wall"]
        share = 1.0 - tot[pool + ".child_cpu"] / wall if wall else 0.0
        out[pool + ".wait_share"] = (share, "ratio")
    for name in sorted(CHECK_NAMES):
        out[f"analysis.check_{name}.s"] = (
            tot[f"analysis.check_{name}.s"] / per, "s")
    out["analysis.integrations_per_suite"] = (
        ratio(tot["suite.integrations"], tot["analysis.run_all_checks.calls"]),
        "count")
    for name in OUTPUTS:
        out[f"output.{name}.s"] = (tot[f"output.{name}.s"] / per, "s")
    out["output.bytes"] = (tot["output.bytes"] / per, "bytes")
    out["cli.main.self_s"] = (tot["cli.self_s"] / per, "s")
    return out


def measure(args) -> dict:
    lab = import_program()
    make_unit = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    state: dict = {}
    tracer = Tracer(lab) if args.trace else None
    # calibs[i] and calibs[i + 1] bracket timed unit i
    calibs: list[float] = []
    units: list[tuple[bool, float, float]] = []  # (traced, wall, cpu)
    setup: list[tuple[float, float]] = []  # (import s, calibration before it)
    attempted = 0
    problems: list[str] = []
    STATE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=STATE_DIR)
    try:
        # warm-up unit: checked and counted, not timed
        unit = make_unit(rng, workdir, state)
        attempted += 1
        problem = run_unit(lab.cli, unit, workdir)[2]
        if problem:
            problems.append(problem)
        calibs.append(calibrate())
        start = time.perf_counter()
        deadline = start + args.seconds
        min_units = 1 if tracer is None else 2
        while time.perf_counter() < deadline or len(units) < min_units:
            # set-up probes are spread over the run, like the units, so
            # both see the same mix of fast and slow host phases
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_REPEATS * elapsed / args.seconds:
                setup.append((setup_seconds(), calibs[-1]))
            traced = tracer is not None and len(units) % 2 == 1
            unit = make_unit(rng, workdir, state)
            attempted += 1
            if traced:
                tracer.install()
            try:
                wall, cpu, problem = run_unit(lab.cli, unit, workdir)
            finally:
                if traced:
                    tracer.uninstall()
            calibs.append(calibrate())
            units.append((traced, wall, cpu))
            if problem:
                problems.append(problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(setup) < SETUP_REPEATS:
        setup.append((setup_seconds(), calibs[-1]))

    def per_calib(values) -> float:
        """Median of each unit's figure over the mean of the calibration
        runs timed just before and just after it."""
        return statistics.median(
            v / (0.5 * (calibs[i] + calibs[i + 1])) for i, v in values
        )

    plain = [(i, wall, cpu) for i, (traced, wall, cpu) in enumerate(units)
             if not traced]
    p25, p50, p75 = quartiles([wall for _, wall, _ in plain])
    wall_ratio = per_calib((i, wall) for i, wall, _ in plain)
    cpu_ratio = per_calib((i, cpu) for i, _, cpu in plain)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"units={len(plain)} untraced+{len(units) - len(plain)} traced "
        f"wall_s p25/p50/p75={p25:.4f}/{p50:.4f}/{p75:.4f} "
        f"wall/cpu per calib={wall_ratio:.3f}/{cpu_ratio:.3f} "
        f"calib_s first/median/last={calibs[0]:.4f}/"
        f"{statistics.median(calibs):.4f}/{calibs[-1]:.4f} "
        f"failed={len(problems)}",
        file=sys.stderr,
    )
    for problem in problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    with open(STATE_DIR / f"units-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"units": units, "calibs": calibs, "setup": setup}, fh)

    if tracer is None:
        metrics = {
            "unit_cpu_per_calib": (cpu_ratio, "ratio"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB"),
            "setup_s": (CALIB_REF_S * statistics.median(
                probe / calib for probe, calib in setup), "s"),
        }
    else:
        tracer.write_spans(
            STATE_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        traced_walls = [wall for traced, wall, _ in units if traced]
        metrics = layer_metrics(tracer, len(traced_walls))
        metrics["host.calib_s"] = (calibs[0], "s")
        metrics["host.calib_end_s"] = (calibs[-1], "s")
        metrics["host.unit_s"] = (p50, "s")
        metrics["host.unit_wall_per_calib"] = (wall_ratio, "ratio")
        metrics["trace.overhead"] = (
            statistics.median(traced_walls) / p50, "ratio")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args)
    except (RuntimeError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
