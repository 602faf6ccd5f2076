"""Numeric verification of the quantitative ingredients behind the
existence argument for the periodic orbit.

Each check reduces integrations to a single worst-case violation number;
a check passes iff that number is at or below its tolerance.  Sign checks
use tolerance 0 with the convention that negative worst_violation means
"safely on the right side"; zero_energy_monotone, whose facts are strict
inequalities, passes only below 0.  The two tolerances on integration
error, energy_drift's and inverted_concavity's, are fixed multiples of
the settings' rel_tol, capped at TOL_CEILING.  A check with nothing to
compare (an empty input, a run that took no step, or no run that reaches
the compared event) reports worst_violation = inf and fails.

The four checks on the E=-1 horizontal launches (tmax_bound,
magical_prefix, energy_drift and tau_growth) integrate nothing: each
reduces the list of runs that grid_runs makes, and the suite integrates
that list once.  Likewise the two checks on the zero-energy escape
(zero_energy_monotone and inverted_concavity) each reduce the one run that
zero_energy_run makes.

The checks reduce runs, not records: each reads a run's (t, (x, y, vx,
vy)) samples, (kind, t, (x, y, vx, vy)) events and drift in one pass, and
no `State` or `Trajectory` is built for them.  A run's samples, its
launch, its step ends and its stop, are what its drift covers too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import dynamics
from .dynamics import ProblemSpec, _Record, _set
from .errors import DomainError
from .integrator import EventKind, IntegratorSettings, _Run
from .shooting import _shoot, default_grid

# Deceleration bound: inside the Hill region at E=-1 both |x| and y are at
# most 7/2, so x'' <= -8*gamma*x with gamma = (49/4 + 49/4)^(-3/2); a
# harmonic oscillator with that stiffness rests at pi/(2*sqrt(8*gamma)).
GAMMA = (49.0 / 4.0 + 49.0 / 4.0) ** -1.5
T_MAX = math.pi / (2.0 * math.sqrt(8.0 * GAMMA))
# zero_energy_run's span is at most T_END_MAX.  At the default rel_tol a run
# to 1e4 takes 143 steps (about 1.3 ms) and one to 1e100 takes 794, but one
# to 1e150 raises StepUnderflow at t = 9.5e107, where r = 2.8e102 and
# r^3 = 2.2e307 nears the float range: its step no longer advances t
T_END_MAX = 1e4
# energy_drift's tolerance is DRIFT_RATIO x rel_tol: the grid runs' worst
# drift measured 0.72 to 4.3 x rel_tol from 1e-6 to 1e-14, and at most 35 x
# at coarser ones; 100 x the default rel_tol is 1e-8 exactly
DRIFT_RATIO = 100.0
# inverted_concavity's tolerance is CONCAVITY_RATIO x rel_tol: its chain-rule
# residual on zero_energy_run measured 0.04 to 0.51 x rel_tol from 1e-4 to
# 1e-14 (0.09 x at the default), two to three times the run's drift, while
# a closed form with a wrong term reads O(1)
CONCAVITY_RATIO = 100.0
# Both tolerances above are at most TOL_CEILING, their value at rel_tol
# 1e-6, so that a coarse rel_tol passes no inaccurate run: the grid runs'
# worst drift measured 7.9e-5 at rel_tol 1e-5, 1.0e-3 at 1e-4, 1.26 at 0.5
TOL_CEILING = 1e-4


class CheckReport(_Record):
    __slots__ = _fields = ("name", "passed", "worst_violation", "tolerance",
                           "details")

    def __init__(self, name: str, passed: bool, worst_violation: float,
                 tolerance: float, details: dict):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "worst_violation", worst_violation)
        _set(self, "tolerance", tolerance)
        _set(self, "details", details)

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
    h_samples: Sequence[float] | None = None,
) -> CheckReport:
    """Vertical force at the launch point (0, h) equals -7/h^2 exactly."""
    if h_samples is None:
        # log-spaced on [1e-3, 100], so each decade holds as many heights
        h_samples = [1e-3 * 1e5 ** (j / 999) for j in range(1000)]
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
    h_grid: Sequence[float] | None = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[tuple]:
    """The E=-1 horizontal launches from the heights h_grid, by default the
    default grid, each integrated once, with the steps that shoot() and
    scan_alpha make and the same ShootResult: its (run, ShootResult) pair,
    the run (an integrator `_Run`) sampled at its step ends and its stop.
    Unlike theirs, it watches the magical-line crossings up to its first
    x-rest and locates each, as magical_prefix reads the first one's time
    and state.  tmax_bound, magical_prefix, energy_drift and tau_growth
    each reduce this one list."""
    if h_grid is None:
        h_grid = default_grid()
    watch = (EventKind.MAGICAL_LINE_CROSS,)
    return [_shoot(-1.0, h, settings, watch) for h in h_grid]


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
    after launch and before the crossing, which are its step ends, and the
    crossing's state; vy/t does not tend to 0 at launch as vy does (it
    tends to -7/h^2).  A run that rests before crossing checks nothing."""
    crossing = EventKind.MAGICAL_LINE_CROSS
    worst = -math.inf
    vacuous = []
    for run, res in runs:
        for kind, t_cross, cross in run.events:
            if kind is crossing:
                break
        else:
            vacuous.append(res.h)
            continue
        q = cross[3] / t_cross
        if q > worst:
            worst = q
        # the samples are in time order
        for t, v in run.samples:
            if t >= t_cross:
                break
            if t > 0.0:
                q = v[3] / t
                if q > worst:
                    worst = q
    if len(vacuous) == len(runs):
        worst = math.inf
    return CheckReport.from_violation(
        "magical_prefix",
        worst,
        0.0,
        {"n_checked": len(runs) - len(vacuous), "no_crossing": vacuous},
    )


def zero_energy_run(
    t_end: float = 50.0,
    settings: IntegratorSettings = IntegratorSettings(),
) -> _Run:
    """The E=0 launch from height 1, which escapes to infinity, integrated
    once to t_end, its time limit: its run (an integrator `_Run`), which
    zero_energy_monotone and inverted_concavity each reduce: they read its
    launch, its step ends and its stop, 87 samples at the default span and
    tolerance.  t_end must be finite, positive and at most T_END_MAX, or
    DomainError is raised."""
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and positive, got {t_end}")
    if t_end > T_END_MAX:
        raise DomainError(
            f"t_end must be at most {T_END_MAX:g}, got {t_end}: a far "
            f"longer escape run may not reach its span (one to 1e150 "
            f"underflows its step at r = 2.8e102)")
    s0 = dynamics.initial_state(ProblemSpec(E=0.0, h=1.0))
    return _Run(s0, settings.replace(t_limit=t_end), (), ()).advance()


def check_zero_energy_monotone(run: _Run) -> CheckReport:
    """On the zero_energy_run `run` the distance from the nucleus grows
    monotonically.  V = -4/r + 1/(2y) is homogeneous of degree -1 and the
    field is -2 grad V, so the Lagrange-Jacobi identity reads
    (q.v)' = 4E - 2V: at E = 0, r r' = q.v grows wherever V < 0, which
    there is also the Hill region and a nonzero speed.  So the check reads
    the run's samples, its launch, step ends and stop: V < 0 at every one,
    and q.v rising strictly from each to the next.  Its worst is the
    larger of the largest V and the smallest rise negated, and it passes
    only below 0.  A run that took no step compares nothing."""
    states = [v for _, v in run.samples]
    max_v = max(-4.0 / math.hypot(x, y) + 0.5 / y for x, y, _, _ in states)
    qv = [x * vx + y * vy for x, y, vx, vy in states]
    min_rise = min((b - a for a, b in zip(qv, qv[1:])), default=-math.inf)
    worst = max(max_v, -min_rise)
    return CheckReport(
        "zero_energy_monotone",
        worst < 0.0,
        worst,
        0.0,
        {
            "t_end": run.samples[-1][0],
            "max_potential": max_v,
            "min_qv_rise": min_rise,
            "n_samples": len(states),
            "max_energy_drift": run.drift,
            # descent of the zero-energy orbit (y <= 1 after launch) is a
            # diagnostic, not a gate
            "samples_with_y_above_1": sum(1 for v in states if v[1] > 1.0),
        },
    )


def _inverted_rdd(r: float, rdot: float, pphi: float) -> float:
    """rho^4 rho'' of the circle-inverted chart, in planar terms at E = 0
    (see check_inverted_concavity): -(3/2) r r'^2 - 2 p_phi^2/r."""
    return -1.5 * r * rdot * rdot - 2.0 * pphi * pphi / r


def check_inverted_concavity(
    run: _Run,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """On the zero-energy orbit the radius rho = 1/r of the circle-inverted
    chart (q -> 1/conj(q), p -> -q^2 conj(p), with time tau, dt/dtau = r^4)
    is strictly concave: rho'' = (2/rho)(-3 p_rho^2 - p_phi^2/rho^2) < 0.
    The chart's momenta are 2 p_rho = -r^2 r' and p_phi = (x vy - y vx)/2
    of the planar state, so in planar time this reads
    d(-r^2 r')/dt = rho^4 rho'' = -(3/2) r r'^2 - 2 p_phi^2/r, negative by
    its form.  What the check tests is that form.  By the chain rule
    d(-r^2 r')/dt is also -(2 r r'^2 + r^2 r''), with
    r'' = (|v|^2 + q.a - r'^2)/r and the field a from
    dynamics.acceleration; the two agree where E = 0 and differ by the
    energy error elsewhere.  The check's worst is their largest mismatch
    relative to the closed form over the samples of the zero_energy_run
    `run` (its launch, step ends and stop), against CONCAVITY_RATIO times
    the settings' rel_tol, at most TOL_CEILING.  A run that took no step
    compares nothing."""
    samples = run.samples
    worst, worst_t = (-math.inf if len(samples) > 1 else math.inf), None
    for t, (x, y, vx, vy) in samples:
        r = math.hypot(x, y)
        rdot = (x * vx + y * vy) / r
        ax, ay = dynamics.acceleration(x, y)
        rdd = (vx * vx + vy * vy + x * ax + y * ay - rdot * rdot) / r
        closed = _inverted_rdd(r, rdot, 0.5 * (x * vy - y * vx))
        q = abs(-(2.0 * r * rdot * rdot + r * r * rdd) - closed) / abs(closed)
        if q > worst:
            worst, worst_t = q, t
    return CheckReport.from_violation(
        "inverted_concavity",
        worst,
        min(CONCAVITY_RATIO * settings.rel_tol, TOL_CEILING),
        {"t_end": samples[-1][0], "n_samples": len(samples),
         "worst_t": worst_t},
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


def check_energy_drift(
    runs,
    settings: IntegratorSettings = IntegratorSettings(),
) -> CheckReport:
    """Relative energy drift of each of the grid_runs pairs `runs`, with or
    without an x-rest, stays within DRIFT_RATIO times the settings'
    rel_tol, the tolerance the runs were made with, at most TOL_CEILING."""
    drifts = {r.h: run.drift for run, r in runs}
    return CheckReport.from_violation(
        "energy_drift",
        max(drifts.values(), default=math.inf),
        min(DRIFT_RATIO * settings.rel_tol, TOL_CEILING),
        {"drift_by_h": drifts},
    )


def run_all_checks(
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[CheckReport]:
    """Execute the whole suite; reports sorted by name.  energy_drift,
    magical_prefix, tau_growth and tmax_bound reduce one integration of
    each default-grid launch, and inverted_concavity and
    zero_energy_monotone one integration of the zero-energy launch."""
    runs = grid_runs(None, settings)
    zero = zero_energy_run(settings=settings)
    return [
        check_energy_drift(runs, settings),
        check_initial_acceleration(),
        check_inverted_concavity(zero, settings),
        check_magical_prefix(runs),
        check_tau_growth(runs),
        check_tmax_bound(runs),
        check_zero_energy_monotone(zero),
    ]
