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
that list once.  Likewise the two checks on the zero-energy escape
(zero_energy_monotone and inverted_concavity) each reduce the one run that
zero_energy_run makes.

The checks reduce runs, not records: each reads a run's (t, (x, y, vx,
vy)) samples, (kind, t, (x, y, vx, vy)) events and drift in one pass, and
no `State` or `Trajectory` is built for them.  A run's drift covers its own
states, its step ends and its stop: requested samples add none.
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
# Step ends fall far apart at eighth order, so the zero-energy checks, which
# read a run's samples, also request their own: at least ZERO_ENERGY_SAMPLES
# evenly spaced ones of zero_energy_run, 800 at the default span of 50, and
# on a longer span enough that they lie at most ZERO_ENERGY_SPACING apart
ZERO_ENERGY_SAMPLES = 800
ZERO_ENERGY_SPACING = 0.1
# and at most ZERO_ENERGY_MAX_SAMPLES, a span of t_end = 1e4: the times are
# listed before the first step (a run of 1e5 peaks at about 46 MiB), and a
# longer span is refused (at t_end = 1e9 the list would hold 1e10)
ZERO_ENERGY_MAX_SAMPLES = 100_000
# inverted_concavity's central differences read CONCAVITY_POINTS + 1 evenly
# spaced samples from launch to CONCAVITY_SPAN (or to the run's end, if
# sooner): on the ZERO_ENERGY_SAMPLES alone they miss their tolerance 9.5
# times over near t = 0.75, and they are within 1e-4 relative only past t = 2
CONCAVITY_POINTS = 300
CONCAVITY_SPAN = 2.0
SQRT63 = math.sqrt(63.0)


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
    once to t_end, which must be finite and positive: its run (an
    integrator `_Run`), which zero_energy_monotone and inverted_concavity
    each reduce; its time limit is t_end.  The checks read samples from
    the dense output: ZERO_ENERGY_SAMPLES evenly spaced times over (0,
    t_end], or more on a long span, so that they lie no further than
    ZERO_ENERGY_SPACING apart; and the CONCAVITY_POINTS evenly spaced times
    of _concavity_grid(t_end) after launch.  A span longer than
    t_end = 1e4, which would need more than ZERO_ENERGY_MAX_SAMPLES (1e5)
    of those times, is refused with DomainError."""
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and positive, got {t_end}")
    if t_end / ZERO_ENERGY_SPACING > ZERO_ENERGY_MAX_SAMPLES:
        raise DomainError(
            "t_end must be at most "
            f"{ZERO_ENERGY_MAX_SAMPLES * ZERO_ENERGY_SPACING:g} "
            f"({ZERO_ENERGY_MAX_SAMPLES} samples {ZERO_ENERGY_SPACING} "
            f"apart), got {t_end}")
    settings = settings.replace(t_limit=t_end)
    n = max(ZERO_ENERGY_SAMPLES, math.ceil(t_end / ZERO_ENERGY_SPACING))
    s0 = dynamics.initial_state(ProblemSpec(E=0.0, h=1.0))
    return _Run(s0, settings, (), (), [
        *(t_end * j / n for j in range(1, n + 1)),
        *_concavity_grid(t_end)[1:]]).advance()


def _concavity_grid(t_end: float) -> list[float]:
    """CONCAVITY_POINTS + 1 evenly spaced times from launch to
    min(t_end, CONCAVITY_SPAN)."""
    span = min(t_end, CONCAVITY_SPAN)
    return [span * j / CONCAVITY_POINTS for j in range(CONCAVITY_POINTS + 1)]


def check_zero_energy_monotone(run: _Run) -> CheckReport:
    """On the zero_energy_run `run` the distance from the nucleus grows
    monotonically and the orbit stays inside the unbounded zero-energy Hill
    region y >= |x|/sqrt(63).  Growth is judged by r'/t > 0 at every
    sample after launch, the step ends and requested times: r' = 0 at
    launch, but r'/t tends to 7 there, so its minimum does not depend on
    where the first step ends."""
    samples = run.samples
    min_rdot_t = math.inf
    hill_worst = -math.inf
    y_above_one = 0  # diagnostic only; see details
    for t, (x, y, vx, vy) in samples:
        q = abs(x) / SQRT63 - y
        if q > hill_worst:
            hill_worst = q
        if t > 0.0:
            # r'/t, r' = (x vx + y vy)/r
            q = (x * vx + y * vy) / math.hypot(x, y) / t
            if q < min_rdot_t:
                min_rdot_t = q
            if y > 1.0:
                y_above_one += 1
    # with no sample after launch (the samples are in time order) nothing is
    # compared: worst is inf
    if not samples[-1][0] > 0.0:
        min_rdot_t = -math.inf
    worst = max(-min_rdot_t, hill_worst)
    return CheckReport.from_violation(
        "zero_energy_monotone",
        worst,
        0.0,
        {
            "t_end": samples[-1][0],
            "min_radial_velocity_over_t": min_rdot_t,
            "hill_worst": hill_worst,
            "n_samples": len(samples),
            "max_energy_drift": run.drift,
            # descent of the zero-energy orbit (y <= 1 after launch) is a
            # diagnostic, not a gate
            "samples_with_y_above_1": y_above_one,
        },
    )


def check_inverted_concavity(run: _Run) -> CheckReport:
    """On the zero-energy orbit the radius rho = 1/r of the circle-inverted
    chart (q -> 1/conj(q), p -> -q^2 conj(p), with time tau, dt/dtau = r^4)
    is strictly concave: rho'' = (2/rho)(-3 p_rho^2 - p_phi^2/rho^2) < 0.
    The chart's momenta are 2 p_rho = -r^2 r' and p_phi = (x vy - y vx)/2
    of the planar state, so in planar time this reads
    d(-r^2 r')/dt = rho^4 rho'' = -(3/2) r r'^2 - 2 p_phi^2/r, which the
    zero_energy_run `run` gives without a run in the chart.  The closed
    form must be negative at every sample and agree with a central
    difference of -r^2 r' on the _concavity_grid of the run's last sample
    time t_end: from launch to min(t_end, CONCAVITY_SPAN), which is
    tau = 0.321 when t_end >= CONCAVITY_SPAN."""
    samples = run.samples
    grid = set(_concavity_grid(samples[-1][0]))
    concavity_worst = -math.inf
    on_grid = []  # (t, -r^2 r', closed form) at the grid's times
    for t, (x, y, vx, vy) in samples:
        r = math.hypot(x, y)
        rdot = (x * vx + y * vy) / r
        pphi = 0.5 * (x * vy - y * vx)
        rdd = -1.5 * r * rdot * rdot - 2.0 * pphi * pphi / r
        if rdd > concavity_worst:
            concavity_worst = rdd
        if t in grid:
            on_grid.append((t, -r * r * rdot, rdd))
    # with no interior grid point nothing is compared: worst is inf
    fd_worst = -math.inf if len(on_grid) > 2 else math.inf
    for (tm, fm, _), (_, _, rdd), (tp, fp, _) in zip(
            on_grid, on_grid[1:], on_grid[2:]):
        fd_worst = max(
            fd_worst,
            abs(rdd - (fp - fm) / (tp - tm)) - max(1e-6, 1e-3 * abs(rdd)),
        )
    worst = max(concavity_worst, fd_worst)
    return CheckReport.from_violation(
        "inverted_concavity",
        worst,
        0.0,
        {
            "t_end": max(grid),
            "max_closed_form_rdd": concavity_worst,
            "fd_mismatch_worst": fd_worst,
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
    drifts = {r.h: run.drift for run, r in runs}
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
    each default-grid launch, and inverted_concavity and
    zero_energy_monotone one integration of the zero-energy launch."""
    runs = grid_runs(None, settings)
    zero = zero_energy_run(settings=settings)
    return [
        check_energy_drift(runs),
        check_initial_acceleration(),
        check_inverted_concavity(zero),
        check_magical_prefix(runs),
        check_tau_growth(runs),
        check_tmax_bound(runs),
        check_zero_energy_monotone(zero),
    ]
