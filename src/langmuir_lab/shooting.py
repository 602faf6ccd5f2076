"""Shooting functional and periodic-orbit search.

The shooting functional alpha(h) is the vertical velocity at the first time
the horizontal velocity vanishes; its zeros are heights whose trajectory
comes to a full stop on the Hill boundary and therefore closes into a
periodic orbit of period 4T by time reversal and x-reflection.  A
generalized alpha_k (vertical velocity at the k-th x-rest) captures the
second, multi-reflection orbit.

The orbit search finds a root of alpha_k to |alpha_k| <= ALPHA_TOL, a
ceiling that shrinks with rel_tol below rel_tol's default, in two stages: a
Brent-Dekker solve on alpha_k integrated at the fixed COARSE_REL_TOL,
then a polish at the given settings: chord steps from the coarse root
along the coarse stage's last secant, or, when it stalls, Brent-Dekker at
the given settings on the whole bracket.  The orbit record holds one arc,
the root's at the given settings.  The brake search picks k at the first
stage's settings too (see find_brake_orbit).

Every launch at energy E < 0 reads its settings in E = -1 units (see
`integrator`), as ALPHA_TOL and CLASSIFY_MARGIN are velocities in them.
The found touch state's vy is alpha_k's residual, and its vx is zero but
for rounding (see `integrator._at_rest`), so ALPHA_TOL bounds the touch
speed too.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence

from . import dynamics
from .dynamics import ProblemSpec, State, _Record, _set
from .errors import (
    BadBracket,
    ClosureFailure,
    DomainError,
    NoConvergence,
    NoRest,
    StepUnderflow,
)
from .integrator import (
    EventKind,
    IntegratorSettings,
    Trajectory,
    _brent,
    _build_trajectory,
    _magical_crossings,
    _retrace,
    _Run,
    _vec_to_state,
)

ALPHA_TOL = 1e-8
# relative tolerance of the orbit search's coarse stage (see _find_orbit),
# whatever the given one (the error norm's floor follows rel_tol); the
# tolerance at which CLASSIFY_MARGIN was measured
COARSE_REL_TOL = 1e-6
# |alpha_j| at or below which the brake search's classification at
# COARSE_REL_TOL is repeated at the given settings.  Over 1,504 seeded
# launches on [0.05, 3.4] at E = -1 (7,520 alpha_k, k <= 5), alpha_k at the
# coarse stage's settings and at the default ones differ by a median 3.8e-7
# and a 99th percentile 3.6e-5, and by up to 3.4e-3 (k = 5 from h =
# 0.0946).  At k = 4 from h near 3.33, whose runs pass within 0.025 of the
# nucleus, and from h = 3.3187, and at k = 5 from h = 0.375, they differ by
# at most 2.8e-5.
# The margin is over twice the largest gap, and below 0.854, the smallest
# |alpha_j| that classification compares on the default bracket, so the
# default search classifies once
CLASSIFY_MARGIN = 0.5
# iteration budget of each stage of the orbit search
MAX_ITER = 200
# largest retrace deviation, in E = -1 units, over rel_tol that
# assemble_periodic_orbit accepts: 1e-6 at the default rel_tol
CLOSURE_RATIO = 1e4
# largest rest count that classification tries
MAX_RESTS = 8
# Tuned at E = -1; h* scales as 1/(-E), so _bracket_at rescales them.
DEFAULT_BRACKET = (0.5, 3.0)
DEFAULT_BRAKE_BRACKET = (0.3, 0.8)
DEFAULT_GRID_RANGE = (0.05, 3.45)
DEFAULT_GRID_SIZE = 50


class ShootResult(_Record):
    """One launch's run to its first x-rest (see _shoot).  `status` is "ok"
    when the run rested, and says only that: the accuracy of t_h and alpha
    shows in `energy_drift`, the run's largest relative energy drift.
    `n_magical_crossings` counts the magical line's crossings before the
    stop, as the sign changes of its residual between the run's step ends
    and its stop."""

    __slots__ = _fields = ("h", "t_h", "alpha", "n_magical_crossings",
                           "energy_drift", "status")

    def __init__(self, h: float, t_h: float, alpha: float,
                 n_magical_crossings: int, energy_drift: float,
                 status: str = "ok"):
        _set(self, "h", h)
        _set(self, "t_h", t_h)
        _set(self, "alpha", alpha)
        _set(self, "n_magical_crossings", n_magical_crossings)
        _set(self, "energy_drift", energy_drift)
        _set(self, "status", status)


class OrbitRecord(_Record):
    """A periodic orbit found by the orbit search.  `solver_trace` lists the
    search's evaluations (h, alpha_k) in order, coarse stage first (for a
    brake search that classified its bracket, its first two entries are
    the bracket ends' values at classification's settings: the coarse ones,
    unless classification was repeated at the search's settings, see
    find_brake_orbit); its last entry is (h_star, alpha_residual), both at
    the search's settings.  `kind` is "Langmuir" or "Brake-<k>"."""

    _fields = ("E", "h_star", "quarter_period", "touch_state",
               "alpha_residual", "kind", "solver_trace")
    # _quarter_arc: the search's quarter arc at h_star and the settings that
    # made it, (IntegratorSettings, Trajectory), for assemble_periodic_orbit;
    # None but in the search's own record, which sets it after building it.
    # It is no field: never serialized, compared, pickled or copied by
    # replace, so no other record can be assembled.
    __slots__ = (*_fields, "_quarter_arc")

    def __init__(self, E: float, h_star: float, quarter_period: float,
                 touch_state: State, alpha_residual: float, kind: str,
                 solver_trace: tuple[tuple[float, float], ...]):
        _set(self, "E", E)
        _set(self, "h_star", h_star)
        _set(self, "quarter_period", quarter_period)
        _set(self, "touch_state", touch_state)
        _set(self, "alpha_residual", alpha_residual)
        _set(self, "kind", kind)
        _set(self, "solver_trace", solver_trace)
        _set(self, "_quarter_arc", None)


def _bracket_at(
    E: float,
    bracket: tuple[float, float] | None,
    default: tuple[float, float],
) -> tuple[float, float]:
    """The given bracket, or the E = -1 default rescaled to energy E by
    its scale -1/E, which must be finite and positive."""
    if not (E < 0.0):
        raise ValueError(f"orbit search requires E < 0, got {E}")
    if bracket is not None:
        return bracket
    a = -1.0 / E
    if not (0.0 < a < math.inf):
        raise ValueError(
            f"the default bracket does not scale to E={E}, whose scale -1/E "
            f"is {a}; give a bracket (--bracket)")
    return default[0] * a, default[1] * a


def _launch(E: float, h: float, settings: IntegratorSettings,
            watch=()) -> _Run:
    """The run of the horizontal launch from (0, h) at energy E before its
    first step, stopping at each x-rest and recording the kinds in
    `watch`; it samples its step ends and stops alone."""
    return _Run(dynamics.initial_state(ProblemSpec(E=E, h=h)), settings,
                watch, (EventKind.X_VELOCITY_ZERO,), (), E)


def _next_rest(run: _Run, k: int) -> _Run:
    """`run` (a `_launch`) advanced to its next stop, which must be an
    x-rest; its last sample is that rest.  Raises NoRest(k, ...), k being
    the rest count the caller is after, when the run stops any other way:
    it has no later rest."""
    if run.advance().termination is not EventKind.X_VELOCITY_ZERO:
        raise NoRest(k, run.termination.value)
    return run


def _alpha(run: _Run) -> float:
    """The vertical velocity of a run's last sample: alpha at its rest."""
    return run.samples[-1][1][3]


def _rest_run(
    E: float,
    h: float,
    k: int,
    settings: IntegratorSettings,
) -> _Run:
    """The run of the horizontal launch from (0, h) at energy E, stopped at
    its k-th x-rest, without its arc built.  Raises NoRest if the run ends
    any other way first."""
    run = _launch(E, h, settings)
    for _ in range(k):
        _next_rest(run, k)
    return run


def _shoot(
    E: float, h: float, settings: IntegratorSettings, watch=()
) -> tuple[_Run, ShootResult]:
    """shoot()'s run and result: the launch of _rest_run, recording the
    kinds in `watch`, to its first stop, its arc not built.  A run that
    ends without an x-rest gives a status='NoRest(...)' result, whose t_h
    and alpha are nan; its crossings and drift are the run's, whose
    samples are its step ends and its stop.  The crossings are the sign
    changes between the samples (see integrator._magical_crossings),
    watched or not: watching changes no step, as events are located on
    the step's interpolant.  A located crossing is a sign change between
    step ends, so the two counts differ only in the stop's step: a
    crossing before the stop that the residual undoes after it, in that
    step, is counted here and missed by the watch."""
    run = _launch(E, h, settings, watch).advance()
    rested = run.termination is EventKind.X_VELOCITY_ZERO
    t, rest = run.samples[-1]
    return run, ShootResult(
        h=h,
        t_h=t if rested else math.nan,
        alpha=rest[3] if rested else math.nan,
        n_magical_crossings=_magical_crossings(run.samples),
        energy_drift=run.drift,
        status="ok" if rested else f"NoRest({run.termination.value})",
    )


def shoot(
    E: float,
    h: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> ShootResult:
    """Integrate the horizontal-launch problem to its first x-rest; the
    magical-line crossings are counted at the step ends, not located (see
    _shoot)."""
    run, res = _shoot(E, h, settings)
    if run.termination is not EventKind.X_VELOCITY_ZERO:
        raise NoRest(1, run.termination.value)
    return res


def _solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol_f: float,
) -> tuple[float, float]:
    """The orbit search's root of f on [lo, hi] by `integrator._brent`,
    from the bracket ends' values: the first point where |f| <= tol_f, f(lo)
    read before f(hi), so the result is the latest evaluation.  Raises
    BadBracket when f(lo) and f(hi) have the same sign, and NoConvergence
    when the bracket shrinks to rounding first, or after MAX_ITER
    evaluations."""
    fa = f(lo)
    if abs(fa) <= tol_f:
        return lo, fa
    fb = f(hi)
    if abs(fb) <= tol_f:
        return hi, fb
    if (fa > 0.0) == (fb > 0.0):
        raise BadBracket(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa}, f(hi)={fb}"
        )
    # the smallest float as x_tol: the bracket shrinks to rounding
    b, fb, c = _brent(f, lo, hi, fa, fb, tol_f, sys.float_info.min, MAX_ITER)
    if abs(fb) > tol_f:
        raise NoConvergence(
            f"|residual| > {tol_f} on [{lo}, {hi}]: the bracket has "
            f"shrunk to [{min(b, c)}, {max(b, c)}]"
        )
    return b, fb


def _coarse(settings: IntegratorSettings) -> IntegratorSettings | None:
    """The orbit search's coarse-stage settings: COARSE_REL_TOL with the
    time limit of `settings`, or None when `settings` are no finer than
    COARSE_REL_TOL and the search has no coarse stage."""
    if settings.rel_tol >= COARSE_REL_TOL:
        return None
    return IntegratorSettings(COARSE_REL_TOL, settings.t_limit)


def _find_orbit(
    E: float,
    bracket: tuple[float, float],
    k: int,
    kind: str,
    settings: IntegratorSettings,
    ends: tuple[IntegratorSettings, tuple[_Run, _Run]] | None = None,
) -> OrbitRecord:
    """Root of alpha_k on the bracket, |alpha_k| <= tol at `settings`, in
    E = -1 units (alpha over sqrt(-E)), as is every tolerance below.  tol
    is ALPHA_TOL at or above the default rel_tol, and shrinks in proportion
    to rel_tol below it, as alpha_k's own error does.

    A coarse Brent-Dekker solve on alpha_k integrated at COARSE_REL_TOL
    locates the root to |alpha_k| <= 1e3 * ALPHA_TOL, whatever rel_tol;
    the polish then takes chord steps from that root at `settings` (see
    _polish).
    When `settings` are no finer than COARSE_REL_TOL, the coarse stage
    fails, or the polish stalls, the root is Brent-Dekker's at `settings`
    on the whole bracket, the search without a coarse stage.

    `ends`, when given, are the settings and the runs of the two bracket
    ends stopped at their k-th rest (classification's).  The coarse stage
    takes their alphas as its bracket ends' values, whatever settings they
    were made at; the stages at `settings` take them too when they were
    made at `settings`.  The two alpha_k functions, f at `settings` and
    f_coarse at COARSE_REL_TOL, append each (h, alpha_k) they read to the
    solver trace, so it lists every evaluation in order (coarse stage, polish,
    then the search on the whole bracket if it runs), and its last entry
    is the root and its residual.  The root is the latest evaluation at
    `settings`, whose run is the one kept and the one arc built; an
    evaluation at the kept run's height reads that run again, so each
    height is integrated once at `settings`."""
    trace: list[tuple[float, float]] = []
    ceiling = ALPHA_TOL * math.sqrt(-E)
    tol = ceiling * min(1.0, settings.rel_tol / IntegratorSettings().rel_tol)
    end_settings, end_pair = ends or (None, ())
    end_runs = dict(zip(bracket, end_pair))
    reused = end_runs if end_settings == settings else {}
    run = None

    def f(h: float) -> float:
        nonlocal run
        # the search on the whole bracket opens at lo, which the polish has
        # just read when the coarse root is lo; the kept run's first sample
        # is its launch, from (0, h)
        if h in reused:
            run = reused[h]
        elif run is None or run.samples[0][1][1] != h:
            run = _rest_run(E, h, k, settings)
        alpha = _alpha(run)
        trace.append((h, alpha))
        return alpha

    coarse = _coarse(settings)
    root = None
    if coarse is not None:

        def f_coarse(h: float) -> float:
            alpha = _alpha(end_runs[h] if h in end_runs
                           else _rest_run(E, h, k, coarse))
            trace.append((h, alpha))
            return alpha

        # any failure is left to the search on the whole bracket, which
        # raises it again if it is not the coarse tolerance's doing
        try:
            h0, _ = _solve_bracketed(f_coarse, *bracket, 1e3 * ceiling)
            root = _polish(f, h0, trace[-2:], bracket, tol)
        except (NoRest, BadBracket, NoConvergence, DomainError,
                StepUnderflow):
            pass
    if root is None:
        root = _solve_bracketed(f, *bracket, tol)
    h_star, residual = root
    arc = _build_trajectory(run)
    touch = arc.samples[-1]
    rec = OrbitRecord(
        E=E,
        h_star=h_star,
        quarter_period=touch.t,
        touch_state=touch,
        alpha_residual=residual,
        kind=kind,
        solver_trace=tuple(trace),
    )
    _set(rec, "_quarter_arc", (settings, arc))
    return rec


def _polish(
    f: Callable[[float], float],
    h0: float,
    last: list[tuple[float, float]],
    bracket: tuple[float, float],
    tol_f: float,
) -> tuple[float, float] | None:
    """Chord steps from h0, the coarse root, each along the slope of `last`,
    the coarse stage's last two points (one point is a flat secant): the
    first point with |f| <= tol_f.  Returns None, for the search on the
    whole bracket, when the secant is flat, a step would leave the bracket
    or stand still, |f| fails to shrink, or MAX_ITER steps have passed."""
    (ha, fa), (hb, fb) = last[0], last[-1]
    h, before = h0, math.inf
    for _ in range(MAX_ITER + 1):
        fh = f(h)
        if abs(fh) <= tol_f:
            return h, fh
        if fa == fb or abs(fh) >= before:
            return None
        before = abs(fh)
        step = h - fh * (hb - ha) / (fb - fa)
        if not (min(bracket) <= step <= max(bracket)) or step == h:
            return None
        h = step
    return None


def find_langmuir_orbit(
    E: float,
    bracket: tuple[float, float] | None = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> OrbitRecord:
    """Root of alpha on the bracket: the simple back-and-forth orbit.  The
    default bracket is DEFAULT_BRACKET rescaled to energy E."""
    bracket = _bracket_at(E, bracket, DEFAULT_BRACKET)
    return _find_orbit(E, bracket, 1, "Langmuir", settings)


def find_brake_orbit(
    E: float,
    bracket: tuple[float, float] | None = None,
    k: int | None = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> OrbitRecord:
    """Root of alpha_k on the bracket: the multi-reflection orbit.  The
    default bracket is DEFAULT_BRAKE_BRACKET rescaled to energy E.

    When k is not given it is chosen by _classify, at the settings of the
    search's first stage: the coarse ones when `settings` are finer than
    COARSE_REL_TOL.  Only the signs of the alphas compared matter, and the
    coarse alphas measured are off by at most 3.4e-3, far under half of
    CLASSIFY_MARGIN (see there); so if any |alpha_j| compared, at either
    end, is at or below CLASSIFY_MARGIN (in E = -1 units), classification
    is repeated at `settings`, which then decides k.  On the default
    bracket it is not: the smallest |alpha_j| compared there is 0.854.  The
    search starts from the runs that classification stopped at the k-th
    rest (see _find_orbit).  A bracket classified as k = 1 holds the simple
    orbit and raises BadBracket, and a given k below 2 raises ValueError:
    that orbit is find_langmuir_orbit's."""
    bracket = _bracket_at(E, bracket, DEFAULT_BRAKE_BRACKET)
    if k is not None:
        if k < 2:
            raise ValueError(
                f"a brake orbit's rest count must be >= 2, got {k}: the "
                f"orbit that stops at its first rest is the simple one "
                f"(find_langmuir_orbit)")
        return _find_orbit(E, bracket, k, f"Brake-{k}", settings)
    at = _coarse(settings) or settings
    found, runs, smallest = _classify(E, bracket, at)
    if at != settings and smallest <= CLASSIFY_MARGIN * math.sqrt(-E):
        at = settings
        found, runs, _ = _classify(E, bracket, at)
    if found is None:
        raise BadBracket(
            f"no rest count up to {MAX_RESTS} separates the bracket {bracket}"
        )
    if found == 1:
        raise BadBracket(
            f"the bracket {bracket} holds the simple orbit, not a brake orbit"
        )
    return _find_orbit(E, bracket, found, f"Brake-{found}", settings,
                       (at, runs))


def _classify(
    E: float,
    bracket: tuple[float, float],
    settings: IntegratorSettings,
) -> tuple[int | None, tuple[_Run, ...], float]:
    """The smallest rest count k <= MAX_RESTS at which alpha_k differs in
    sign between the bracket ends (the trajectory end is reflected on
    opposite sides), with each end integrated at `settings`.  Returns that
    rest count (None when no k <= MAX_RESTS separates the ends), the runs
    of the two bracket ends stopped there, whose arcs are not built (none
    when rejected), and the smallest |alpha_j| compared, over both ends and
    every j.

    Each bracket end is integrated once, to its k-th rest and no further:
    one run, advanced rest by rest as _rest_run advances it, so it stops at
    the k-th rest exactly as _rest_run(E, h, k, settings) does.  A run that
    ends any other way has no later rest, so the bracket is rejected
    there."""
    lo, hi = (_launch(E, h, settings) for h in bracket)
    smallest = math.inf
    try:
        for k in range(1, MAX_RESTS + 1):
            a, b = _alpha(_next_rest(lo, k)), _alpha(_next_rest(hi, k))
            smallest = min(smallest, abs(a), abs(b))
            if (a > 0.0) != (b > 0.0):
                return k, (lo, hi), smallest
    except NoRest:
        pass
    return None, (), smallest


def scan_alpha(
    E: float,
    h_grid: Sequence[float],
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[ShootResult]:
    """shoot() over a grid, results in grid order; a launch without an
    x-rest gives a status='NoRest(...)' row (see _shoot).  A row's status
    says only whether its run rested; its energy_drift is its accuracy
    signal."""
    return [_shoot(E, h, settings)[1] for h in h_grid]


def default_grid(
    lo: float = DEFAULT_GRID_RANGE[0],
    hi: float = DEFAULT_GRID_RANGE[1],
    n: int = DEFAULT_GRID_SIZE,
) -> list[float]:
    """n heights evenly spaced from lo to hi; one point is [lo].  The last
    point is hi itself, which the spacing's rounding could overshoot."""
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]


def sign_change_brackets(results: Sequence[ShootResult]) -> list[tuple[float, float]]:
    """Adjacent grid pairs with opposite alpha signs (NoRest points skipped)."""
    ok = [r for r in results if r.status == "ok"]
    out = []
    for a, b in zip(ok, ok[1:]):
        if (a.alpha > 0.0) != (b.alpha > 0.0):
            out.append((a.h, b.h))
    return out


# The symmetries that carry a quarter-arc sample onto the 4T orbit, each as
# the signs it gives x, vx and vy; y and the energy keep theirs
_IDENTITY = (1.0, 1.0, 1.0)
_REVERSAL = (1.0, -1.0, -1.0)  # time reversal
_REFLECTION = (-1.0, -1.0, 1.0)  # x-reflection
_BOTH = (-1.0, 1.0, -1.0)  # x-reflection of the time reversal


def _periodic_layout(
    times: Sequence[float],
) -> list[tuple[float, int, tuple[float, float, float]]]:
    """The samples of the 4T orbit closed from a quarter arc whose samples
    lie at `times` (the launch at 0 first, the touch at T last), in time
    order: for each, its time, the index of its quarter sample and the
    symmetry that carries that sample there.

    [0, T]   the quarter arc,
    (T, 2T]  its time reversal, at 2T - t,
    (2T, 4T] the x-reflection of [0, 2T] but the launch, at 2T + t."""
    T = times[-1]
    half = [(t, i, _IDENTITY) for i, t in enumerate(times)]
    half += [(2.0 * T - times[i], i, _REVERSAL)
             for i in range(len(times) - 2, -1, -1)]
    return half + [
        (2.0 * T + t, i, _REFLECTION if sym is _IDENTITY else _BOTH)
        for t, i, sym in half[1:]
    ]


def _closed_quarter_arc(rec: OrbitRecord) -> Trajectory:
    """The quarter arc of `rec` once its retrace has closed it: the
    closure check of assemble_periodic_orbit (see there), which raises
    ValueError for a record without its arc and ClosureFailure for an arc
    that does not retrace.  The backward steps' states are compared as the
    stepper yields them; no record is built of them."""
    if rec._quarter_arc is None:
        raise ValueError(
            "the record carries no quarter arc: only a record that "
            "find_langmuir_orbit or find_brake_orbit returned can be assembled"
        )
    settings, quarter = rec._quarter_arc
    closure_tol = CLOSURE_RATIO * settings.rel_tol
    touch = quarter.samples[-1]
    back = _retrace(settings, rec.E, [s.t for s in quarter.samples],
                    (touch.x, touch.y, -touch.vx, -touch.vy))
    q_unit, v_unit = -rec.E, math.sqrt(-rec.E)
    worst = 0.0
    try:
        for s, (x, y, vx, vy) in zip(quarter.samples[-2::-1], back):
            worst = max(
                worst,
                q_unit * abs(x - s.x),
                q_unit * abs(y - s.y),
                abs(vx + s.vx) / v_unit,
                abs(vy + s.vy) / v_unit,
            )
    except DomainError as exc:
        raise ClosureFailure(f"reversed arc failed: {exc}") from None
    if not worst <= closure_tol:
        raise ClosureFailure(
            f"reversed arc deviates from the forward arc by {worst} "
            f"in E = -1 units"
        )
    return quarter


def assemble_periodic_orbit(rec: OrbitRecord) -> Trajectory:
    """Close the quarter arc into the full period-4T orbit.

    [0, T]   the quarter arc,
    [T, 2T]  its time reversal (velocities negated),
    [2T, 4T] the x-reflection of the first half.

    The quarter arc is the one the orbit search integrated at h_star, so
    `rec` must come straight from find_langmuir_orbit or find_brake_orbit;
    any other record (made by replace, by pickling or by hand) carries no
    arc and raises ValueError.  Before assembling, the quarter is
    retraced backwards from the touch point with negated velocities, at
    the search's settings, on the quarter's own step mesh (see
    `integrator._retrace`): one step per forward step, the forward step
    sizes in reverse, the partial step to the touch first, so each
    backward step ends at exactly the mirror time of one forward sample,
    the launch last.  Each backward state is compared with its forward
    sample, velocities negated; a pair further apart than the closure
    tolerance, a backward stage that leaves the half plane y > 0 or a
    backward step that is not finite raises ClosureFailure.  The deviation
    is measured in E = -1 units (positions times -E, velocities over
    sqrt(-E)), in which every energy level's orbit is the same rescaled
    curve.  The tolerance is CLOSURE_RATIO x rel_tol, as the retrace's
    error follows rel_tol.
    """
    quarter = _closed_quarter_arc(rec)
    q = quarter.samples
    layout = _periodic_layout([s.t for s in q])
    # the quarter's own samples first, then their mirror images
    samples = list(q) + [
        _vec_to_state(t, (sx * q[i].x, q[i].y, svx * q[i].vx, svy * q[i].vy))
        for t, i, (sx, svx, svy) in layout[len(q):]
    ]
    return Trajectory(
        samples=tuple(samples),
        events=quarter.events,
        max_energy_drift=quarter.max_energy_drift,
        termination=quarter.termination,
    )
