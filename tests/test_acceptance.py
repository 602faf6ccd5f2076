"""Acceptance gate: the nine headline guarantees, one test each.

Every test prints a single pass/fail line (visible with pytest -s or in
captured output on failure) and asserts the stated tolerance.
"""

import math
import random
import time

from langmuir_lab import analysis, dynamics as dyn, output, shooting
from langmuir_lab.cli import main
from langmuir_lab.integrator import EventKind, IntegratorSettings, integrate

from conftest import rk4_fixed


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_langmuir_orbit_found():
    start = time.perf_counter()
    rec = shooting.find_langmuir_orbit(-1.0)
    elapsed = time.perf_counter() - start
    speed = math.sqrt(rec.touch_state.speed2())
    ok = (
        abs(rec.h_star - 1.398) <= 0.02
        and abs(rec.alpha_residual) <= 1e-8
        and speed <= 1e-6
        and elapsed <= 10.0
    )
    _verdict(
        "langmuir_orbit",
        ok,
        f"h*={rec.h_star:.10f} residual={rec.alpha_residual:.2e} "
        f"touch_speed={speed:.2e} wall={elapsed:.2f}s",
    )


def test_02_scaling_law():
    rec1 = shooting.find_langmuir_orbit(-1.0)
    rec2 = shooting.find_langmuir_orbit(-2.0, bracket=(0.25, 1.5))
    h_err = abs(rec2.h_star - 0.5 * rec1.h_star)

    times = [0.05 * i for i in range(1, 21)]
    t1 = integrate(
        dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=rec1.h_star)),
        IntegratorSettings(t_limit=1.0 + 1e-9),
        sample_times=times,
    )
    a = 0.5
    t2 = integrate(
        dyn.initial_state(dyn.ProblemSpec(E=-2.0, h=a * rec1.h_star)),
        IntegratorSettings(t_limit=a**1.5 * 1.0 + 1e-9),
        sample_times=[a**1.5 * t for t in times],
    )
    by_t = {round(s.t, 9): s for s in t2.samples}
    point_err = 0.0
    for s in t1.samples:
        if not any(abs(s.t - t) < 1e-12 for t in times):
            continue
        m = dyn.scale_state(s, a)
        o = by_t[round(m.t, 9)]
        point_err = max(
            point_err,
            abs(o.x - m.x), abs(o.y - m.y),
            abs(o.vx - m.vx), abs(o.vy - m.vy),
        )
    ok = h_err <= 1e-5 and point_err <= 1e-6
    _verdict(
        "scaling_law", ok,
        f"height_err={h_err:.2e} pointwise_err={point_err:.2e}",
    )


def test_03_brake_orbit_found():
    k = shooting.classify_reflection_count(-1.0)
    rec = shooting.find_brake_orbit(-1.0)
    lo, hi = shooting.DEFAULT_BRAKE_BRACKET
    speed = math.sqrt(rec.touch_state.speed2())
    ok = (
        rec.kind == f"Brake-{k}"
        and lo < rec.h_star < hi
        and speed <= 1e-6
    )
    _verdict(
        "brake_orbit", ok,
        f"k={k} h*={rec.h_star:.10f} touch_speed={speed:.2e}",
    )


def test_04_zero_energy_escape():
    mono = analysis.check_zero_energy_monotone(t_end=50.0)
    conc = analysis.check_inverted_concavity()
    ok = mono.passed and conc.passed
    _verdict(
        "zero_energy_escape", ok,
        f"min_rdot_over_t={mono.details['min_radial_velocity_over_t']:.3e} "
        f"max_rdd={conc.details['max_closed_form_rdd']:.3e} "
        f"fd_mismatch={conc.details['fd_mismatch_worst']:.3e}",
    )


def test_05_rest_time_bound():
    rep = analysis.check_tmax_bound(analysis.grid_runs())
    ok = rep.passed and rep.details["no_rest"] == []
    _verdict(
        "rest_time_bound", ok,
        f"worst_excess={rep.worst_violation:.3e} over "
        f"{rep.details['n_ok']} heights, "
        f"bound={rep.details['t_max']:.5f}",
    )


def test_06_launch_acceleration():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        h = rng.uniform(1e-3, 100.0)
        _, ay = dyn.acceleration(0.0, h)
        worst = max(worst, abs(ay + 7.0 / (h * h)))
    ok = worst <= 1e-12
    _verdict("launch_acceleration", ok, f"worst_residual={worst:.2e}")


def test_07_descent_before_crossing():
    rep = analysis.check_magical_prefix(analysis.grid_runs())
    ok = rep.passed and rep.details["n_checked"] > 0
    _verdict(
        "descent_before_crossing", ok,
        f"worst_vy={rep.worst_violation:.3e} over "
        f"{rep.details['n_checked']} heights",
    )


def test_08_integrator_fidelity():
    drift_worst = 0.0
    oracle_worst = 0.0
    rng = random.Random(5678)
    for _ in range(5):
        h = rng.uniform(0.3, 3.2)
        s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
        traj = integrate(
            s0,
            IntegratorSettings(t_limit=1.0),
            sample_times=[1.0],
        )
        drift_worst = max(drift_worst, traj.max_energy_drift)
        s = traj.samples[-1]
        ox, oy, ovx, ovy = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, 1.0, 1e-5)
        oracle_worst = max(
            oracle_worst,
            abs(s.x - ox), abs(s.y - oy),
            abs(s.vx - ovx), abs(s.vy - ovy),
        )
    ok = drift_worst <= 1e-8 and oracle_worst <= 1e-7
    _verdict(
        "integrator_fidelity", ok,
        f"max_drift={drift_worst:.2e} oracle_err={oracle_worst:.2e}",
    )


def test_09_reproducible_verdict(tmp_path):
    r1 = tmp_path / "verdict1.json"
    r2 = tmp_path / "verdict2.json"
    rc1 = main(["verify", "--report", str(r1)])
    rc2 = main(["verify", "--report", str(r2)])
    ok = rc1 == 0 and rc2 == 0 and r1.read_bytes() == r2.read_bytes()
    _verdict(
        "reproducible_verdict", ok,
        f"exit_codes=({rc1},{rc2}) identical={r1.read_bytes() == r2.read_bytes()}",
    )
