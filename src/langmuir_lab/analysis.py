"""Numeric verification of the quantitative ingredients behind the
existence argument for the periodic orbit.

Each check reduces integrations to a single worst-case violation number;
a check passes iff that number is at or below its tolerance.  Sign checks
use tolerance 0 with the convention that negative worst_violation means
"safely on the right side".  A check with nothing to compare (an empty
input, or no run that reaches the compared event) reports
worst_violation = inf and fails.

The four checks on the E=-1 horizontal launches (tmax_bound,
magical_prefix, energy_drift and tau_growth) integrate nothing: each
reduces the list of runs that grid_runs makes, and the suite integrates
that list once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import dynamics
from .dynamics import ProblemSpec
from .integrator import EventKind, IntegratorSettings, integrate, integrate_inverted
from .shooting import _shoot_run, default_grid

# Deceleration bound: inside the Hill region at E=-1 both |x| and y are at
# most 7/2, so x'' <= -8*gamma*x with gamma = (49/4 + 49/4)^(-3/2); a
# harmonic oscillator with that stiffness rests at pi/(2*sqrt(8*gamma)).
GAMMA = (49.0 / 4.0 + 49.0 / 4.0) ** -1.5
T_MAX = math.pi / (2.0 * math.sqrt(8.0 * GAMMA))
# Step ends fall far apart at eighth order, so the checks that read a run's
# samples also request their own.  Each grid_runs launch from height h
# samples j * h^3/2 / 160 for j = 1 to PREFIX_SAMPLES: the first crossing of
# every default-grid run comes at 0.354 h^3/2 or later, so magical_prefix
# reads at least PREFIX_SAMPLES points of each run before it.
PREFIX_SAMPLES = 56
# evenly spaced requested samples of zero_energy_monotone's run
ZERO_ENERGY_SAMPLES = 240
# evenly spaced points of inverted_concavity's finite differences
CONCAVITY_POINTS = 600


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


def grid_runs(
    h_grid: Optional[Sequence[float]] = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[tuple]:
    """The E=-1 horizontal launches from the heights h_grid, by default the
    default grid, each integrated once as shoot() integrates it: its
    (Trajectory, ShootResult) pair, the run recording the magical-line
    crossings up to its first x-rest.  Each run also samples its
    PREFIX_SAMPLES requested times, which change none of its steps, events
    or results but its drift, which includes theirs.  tmax_bound,
    magical_prefix, energy_drift and tau_growth each reduce this one
    list."""
    if h_grid is None:
        h_grid = default_grid()
    return [
        _shoot_run(-1.0, h, settings, [j * h**1.5 / 160.0 for j in range(
            1, PREFIX_SAMPLES + 1)])
        for h in h_grid
    ]


def check_tmax_bound(runs) -> CheckReport:
    """Every first x-rest of the grid_runs pairs `runs` happens no later
    than T_MAX.  A run without an x-rest fails the check."""
    times = [r.t_h for _, r in runs if r.status == "ok"]
    no_rest = [(r.h, r.status) for _, r in runs if r.status != "ok"]
    worst = max((t - T_MAX for t in times), default=math.inf)
    return CheckReport.from_violation(
        "tmax_bound",
        math.inf if no_rest else worst,
        0.0,
        {
            "t_max": T_MAX,
            "gamma": GAMMA,
            "n_ok": len(times),
            "no_rest": no_rest,
            "min_relative_margin": min(
                ((T_MAX - t) / T_MAX for t in times), default=None),
        },
    )


def check_magical_prefix(runs) -> CheckReport:
    """Until its first crossing of the vanishing-vertical-force line each of
    the grid_runs pairs `runs` keeps moving downward (vy < 0 on (0, first
    crossing]).  A run's worst value is the largest vy/t over its samples
    after launch and before the crossing, and the crossing's state; vy/t
    does not tend to 0 at launch as vy does (it tends to -7/h^2).  A run
    that rests before crossing checks nothing."""
    worst = -math.inf
    vacuous = []
    for traj, res in runs:
        cross = traj.first_event(EventKind.MAGICAL_LINE_CROSS)
        if cross is None:
            vacuous.append(res.h)
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


def check_zero_energy_monotone(
    t_end: float = 50.0,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """On the zero-energy run the distance from the nucleus grows
    monotonically and the orbit stays inside the unbounded zero-energy Hill
    region y >= |x|/sqrt(63).  Growth is judged by r'/t > 0 at every
    sample after launch, the step ends and ZERO_ENERGY_SAMPLES evenly
    spaced requested times: r' = 0 at launch, but r'/t tends to 7 there, so
    its minimum does not depend on where the first step ends."""
    settings = replace(settings, t_limit=t_end)
    s0 = dynamics.initial_state(ProblemSpec(E=0.0, h=1.0))
    traj = integrate(s0, settings, sample_times=[
        t_end * j / ZERO_ENERGY_SAMPLES
        for j in range(1, ZERO_ENERGY_SAMPLES + 1)])
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


def _closed_form_rdd(ps) -> float:
    """r'' of the inverted chart's polar state ps in closed form."""
    return (2.0 / ps.r) * (-3.0 * ps.pr**2 - ps.pphi**2 / ps.r**2)


def check_inverted_concavity(
    t_end: float = 0.3,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """In the inverted chart the radius is strictly concave: the closed form
    r'' = (2/r)(-3 p_r^2 - p_phi^2/r^2) is negative at every sample and
    must agree with a finite-difference estimate from the sampled r' on
    CONCAVITY_POINTS + 1 evenly spaced times from launch to t_end, read
    from the dense output."""
    settings = replace(settings, t_limit=t_end)
    s0 = dynamics.invert_state(
        dynamics.initial_state(ProblemSpec(E=0.0, h=1.0))
    )
    grid = [t_end * j / CONCAVITY_POINTS
            for j in range(CONCAVITY_POINTS + 1)]
    traj = integrate_inverted(s0, settings, sample_times=grid)
    polar = [dynamics.to_polar(s) for s in traj.samples]
    concavity_worst = -math.inf
    pr_worst = -math.inf
    for ps in polar:
        concavity_worst = max(concavity_worst, _closed_form_rdd(ps))
        if ps.t > 0.0:
            pr_worst = max(pr_worst, ps.pr)
    grid = set(grid)
    on_grid = [ps for ps in polar if ps.t in grid]
    # with no interior grid point nothing is compared: worst is inf
    fd_worst = -math.inf if len(on_grid) > 2 else math.inf
    for pm, ps, pp in zip(on_grid, on_grid[1:], on_grid[2:]):
        rdd = _closed_form_rdd(ps)
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


def check_tau_growth(runs) -> CheckReport:
    """First x-rest times tau(h) of the fixed-height-1 problems at energies
    -h grow strictly as h decreases towards ionization.  By the scaling law
    the launch at energy -h from height 1 is the E=-1 launch from height h
    slowed by h^-3/2, so tau(h) = h^-3/2 t_h reads the grid_runs pairs
    `runs`.  A run without an x-rest fails the check."""
    tau_by_h = dict(sorted(
        (r.h, r.h**-1.5 * r.t_h) for _, r in runs if r.status == "ok"
    ))
    taus = list(tau_by_h.values())
    worst = max((b - a for a, b in zip(taus, taus[1:])), default=math.inf)
    no_rest = [(r.h, r.status) for _, r in runs if r.status != "ok"]
    return CheckReport.from_violation(
        "tau_growth",
        math.inf if no_rest else worst,
        0.0,
        {"tau_by_h": tau_by_h, "no_rest": no_rest},
    )


def check_energy_drift(runs) -> CheckReport:
    """Relative energy drift of each of the grid_runs pairs `runs`, with or
    without an x-rest, stays within 1e-8."""
    drifts = {r.h: traj.max_energy_drift for traj, r in runs}
    return CheckReport.from_violation(
        "energy_drift",
        max(drifts.values(), default=math.inf),
        1e-8,
        {"drift_by_h": drifts},
    )


def run_all_checks(
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[CheckReport]:
    """Execute the whole suite; reports sorted by name.  energy_drift,
    magical_prefix, tau_growth and tmax_bound reduce one integration of
    each default-grid launch."""
    runs = grid_runs(None, settings)
    return [
        check_energy_drift(runs),
        check_initial_acceleration(),
        check_inverted_concavity(settings=settings),
        check_magical_prefix(runs),
        check_tau_growth(runs),
        check_tmax_bound(runs),
        check_zero_energy_monotone(settings=settings),
    ]
