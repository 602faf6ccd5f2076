"""Numeric verification of the quantitative ingredients behind the
existence argument for the periodic orbit.

Each check integrates something and reduces it to a single worst-case
violation number; a check passes iff that number is at or below its
tolerance.  Sign checks use tolerance 0 with the convention that negative
worst_violation means "safely on the right side".  A check with nothing to
compare (an empty input, or no run that reaches the compared event) reports
worst_violation = inf and fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import dynamics
from .dynamics import ProblemSpec
from .integrator import EventKind, IntegratorSettings, integrate, integrate_inverted
from .shooting import _shoot_run, default_grid, scan_alpha, shoot

# Deceleration bound: inside the Hill region at E=-1 both |x| and y are at
# most 7/2, so x'' <= -8*gamma*x with gamma = (49/4 + 49/4)^(-3/2); a
# harmonic oscillator with that stiffness rests at pi/(2*sqrt(8*gamma)).
GAMMA = (49.0 / 4.0 + 49.0 / 4.0) ** -1.5
T_MAX = math.pi / (2.0 * math.sqrt(8.0 * GAMMA))


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    details: dict

    @staticmethod
    def from_violation(name, worst, tol, details):
        return CheckReport(
            name=name,
            passed=worst <= tol,
            worst_violation=worst,
            tolerance=tol,
            details=details,
        )


def check_initial_acceleration(
    h_samples: Optional[Sequence[float]] = None,
) -> CheckReport:
    """Vertical force at the launch point (0, h) equals -7/h^2 exactly."""
    if h_samples is None:
        rng = random.Random(20210703)
        h_samples = [rng.uniform(1e-3, 100.0) for _ in range(1000)]
    worst = 0.0 if h_samples else math.inf
    worst_h = None
    for h in h_samples:
        _, ay = dynamics.acceleration(0.0, h)
        err = abs(ay + 7.0 / (h * h))
        if err > worst:
            worst, worst_h = err, h
    return CheckReport.from_violation(
        "initial_acceleration",
        worst,
        1e-12,
        {"n_samples": len(h_samples), "worst_h": worst_h},
    )


def _tmax_report(results) -> CheckReport:
    """check_tmax_bound's verdict on the ShootResults of a grid."""
    times = {r.h: r.t_h for r in results if r.status == "ok"}
    failures = [(r.h, r.status) for r in results if r.status != "ok"]
    worst = max((t - T_MAX for t in times.values()), default=math.inf)
    margin = min((T_MAX - t) / T_MAX for t in times.values()) if times else None
    return CheckReport.from_violation(
        "tmax_bound",
        worst,
        0.0,
        {
            "t_max": T_MAX,
            "gamma": GAMMA,
            "n_ok": len(times),
            "no_rest": failures,
            "min_relative_margin": margin,
        },
    )


def check_tmax_bound(
    h_grid: Optional[Sequence[float]] = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """Every first x-rest at E=-1 happens no later than T_MAX."""
    if h_grid is None:
        h_grid = default_grid()
    return _tmax_report(scan_alpha(-1.0, h_grid, settings))


def _magical_prefix_report(h_grid, runs) -> CheckReport:
    """check_magical_prefix's verdict on the trajectories `runs` of the E=-1
    launches from the heights h_grid, each run at least to its first
    magical-line crossing or its first x-rest.  A run's prefix is its
    samples after launch and before its first crossing, and the crossing's
    state; its worst value is the largest vy/t there.  A run without a
    crossing checks nothing."""
    worst = -math.inf
    vacuous = []
    for h, traj in zip(h_grid, runs):
        cross = traj.first_event(EventKind.MAGICAL_LINE_CROSS)
        if cross is None:
            vacuous.append(h)
            continue
        worst = max(
            worst,
            cross.state.vy / cross.t,
            *(s.vy / s.t for s in traj.samples if 0.0 < s.t < cross.t),
        )
    if len(vacuous) == len(runs):
        worst = math.inf
    return CheckReport.from_violation(
        "magical_prefix",
        worst,
        0.0,
        {"n_checked": len(runs) - len(vacuous), "no_crossing": vacuous},
    )


def check_magical_prefix(
    h_grid: Optional[Sequence[float]] = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """Until its first crossing of the vanishing-vertical-force line the
    trajectory keeps moving downward (vy < 0 on (0, first crossing]).
    Each run stops at its first crossing or its first x-rest, whichever
    comes first; a run that rests before crossing checks nothing.  The
    worst value is the largest vy/t over the step ends and the crossing,
    which does not tend to 0 at launch as vy does (vy/t tends to -7/h^2)."""
    if h_grid is None:
        h_grid = default_grid()
    stop = {EventKind.MAGICAL_LINE_CROSS: 1, EventKind.X_VELOCITY_ZERO: 1}
    runs = [integrate(dynamics.initial_state(ProblemSpec(E=-1.0, h=h)),
                      settings, stop=stop) for h in h_grid]
    return _magical_prefix_report(h_grid, runs)


def check_zero_energy_monotone(
    t_end: float = 50.0,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """On the zero-energy run the distance from the nucleus grows
    monotonically and the orbit stays inside the unbounded zero-energy Hill
    region y >= |x|/sqrt(63).  Growth is judged by r'/t > 0 at every step
    end after launch: r' = 0 at launch, but r'/t tends to 7 there, so its
    minimum does not depend on where the first step ends."""
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    settings = replace(settings, t_limit=t_end)
    s0 = dynamics.initial_state(ProblemSpec(E=0.0, h=1.0))
    traj = integrate(s0, settings)
    # with no sample after launch nothing is compared: worst is inf
    min_rdot_t = min(
        (dynamics.radial_velocity(s) / s.t for s in traj.samples if s.t > 0.0),
        default=-math.inf,
    )
    hill_worst = max(abs(s.x) / math.sqrt(63.0) - s.y for s in traj.samples)
    # diagnostic only; see details
    y_above_one = sum(1 for s in traj.samples if s.t > 0.0 and s.y > 1.0)
    worst = max(-min_rdot_t, hill_worst)
    return CheckReport.from_violation(
        "zero_energy_monotone",
        worst,
        0.0,
        {
            "t_end": t_end,
            "min_radial_velocity_over_t": min_rdot_t,
            "hill_worst": hill_worst,
            "n_samples": len(traj.samples),
            "max_energy_drift": traj.max_energy_drift,
            # descent of the zero-energy orbit (y <= 1 after launch) is a
            # diagnostic, not a gate
            "samples_with_y_above_1": y_above_one,
        },
    )


def _nonuniform_derivative(tm, t0, tp, fm, f0, fp) -> float:
    """First derivative at t0 from three non-equidistant samples."""
    hm = t0 - tm
    hp = tp - t0
    return (
        -hp / (hm * (hm + hp)) * fm
        + (hp - hm) / (hm * hp) * f0
        + hm / (hp * (hm + hp)) * fp
    )


def check_inverted_concavity(
    t_end: float = 0.3,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """In the inverted chart the radius is strictly concave: the closed form
    r'' = (2/r)(-3 p_r^2 - p_phi^2/r^2) is negative everywhere and must
    agree with a finite-difference estimate from the sampled r'."""
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    settings = replace(settings, t_limit=t_end, h_max=1e-3)
    s0 = dynamics.invert_state(
        dynamics.initial_state(ProblemSpec(E=0.0, h=1.0))
    )
    traj = integrate_inverted(s0, settings)
    polar = [dynamics.to_polar(s) for s in traj.samples]
    concavity_worst = -math.inf
    fd_worst = -math.inf
    pr_worst = -math.inf
    for i, ps in enumerate(polar):
        rdd = (2.0 / ps.r) * (-3.0 * ps.pr**2 - ps.pphi**2 / ps.r**2)
        concavity_worst = max(concavity_worst, rdd)
        if ps.t > 0.0:
            pr_worst = max(pr_worst, ps.pr)
        if 0 < i < len(polar) - 1:
            pm, pp = polar[i - 1], polar[i + 1]
            rdd_fd = _nonuniform_derivative(
                pm.t, ps.t, pp.t, 2.0 * pm.pr, 2.0 * ps.pr, 2.0 * pp.pr
            )
            fd_worst = max(
                fd_worst,
                abs(rdd - rdd_fd) - max(1e-6, 1e-3 * abs(rdd)),
            )
    worst = max(concavity_worst, fd_worst)
    return CheckReport.from_violation(
        "inverted_concavity",
        worst,
        0.0,
        {
            "t_end": t_end,
            "max_closed_form_rdd": concavity_worst,
            "fd_mismatch_worst": fd_worst,
            "max_pr_after_start": pr_worst,
            "initial_pr": polar[0].pr,
            "max_energy_drift": traj.max_energy_drift,
            "final_r": polar[-1].r,
            "termination": traj.termination.value,
        },
    )


def check_tau_growth(
    h_sequence: Sequence[float] = (0.5, 0.2, 0.1, 0.05),
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """First x-rest times of the fixed-height-1 problems at energies -h grow
    strictly as h decreases towards ionization."""
    taus = []
    for h in h_sequence:
        if not (h > 0.0):
            raise ValueError("h_sequence must be positive")
        st = replace(settings, t_limit=max(settings.t_limit, 20.0 * h**-1.5))
        taus.append(shoot(-h, 1.0, st).t_h)
    worst = max((a - b for a, b in zip(taus, taus[1:])), default=math.inf)
    return CheckReport.from_violation(
        "tau_growth",
        worst,
        0.0,
        {"h_sequence": list(h_sequence), "tau": taus},
    )


def check_energy_drift(
    h_grid: Sequence[float] = (0.5, 1.0, 1.398, 3.0),
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """Relative energy drift of E=-1 shooting runs stays within 1e-8."""
    worst = 0.0 if h_grid else math.inf
    drifts = {}
    for h in h_grid:
        res = shoot(-1.0, h, settings)
        drifts[h] = res.energy_drift
        worst = max(worst, res.energy_drift)
    return CheckReport.from_violation(
        "energy_drift", worst, 1e-8, {"drift_by_h": drifts}
    )


def run_all_checks(
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[CheckReport]:
    """Execute the whole suite; reports sorted by name.  tmax_bound and
    magical_prefix read one integration of each default-grid launch, the
    run shoot() makes: up to its first crossing it is the run that
    check_magical_prefix makes, bit for bit."""
    h_grid = default_grid()
    runs = [_shoot_run(-1.0, h, settings) for h in h_grid]
    return [
        check_energy_drift(settings=settings),
        check_initial_acceleration(),
        check_inverted_concavity(settings=settings),
        _magical_prefix_report(h_grid, [traj for traj, _ in runs]),
        check_tau_growth(settings=settings),
        _tmax_report([res for _, res in runs]),
        check_zero_energy_monotone(settings=settings),
    ]
