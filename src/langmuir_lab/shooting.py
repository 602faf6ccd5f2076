"""Shooting functional and periodic-orbit search.

The shooting functional alpha(h) is the vertical velocity at the first time
the horizontal velocity vanishes; its zeros are heights whose trajectory
comes to a full stop on the Hill boundary and therefore closes into a
periodic orbit of period 4T by time reversal and x-reflection.  A
generalized alpha_k (vertical velocity at the k-th x-rest) captures the
second, multi-reflection orbit.

The orbit search finds a root of alpha_k to |alpha_k| <= ALPHA_TOL in two
stages: a Brent-Dekker solve on alpha_k integrated at COARSE_REL_TOL, then
a secant polish at the given settings from the coarse root.  The orbit
record holds one arc, the root's at the given settings.  The brake search
picks k at the first stage's settings too (see find_brake_orbit).

Every launch at energy E < 0 reads its settings in E = -1 units (see
`integrator`), as ALPHA_TOL, TOUCH_SPEED_TOL and CLASSIFY_MARGIN are
velocities in them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

from . import dynamics
from .dynamics import ProblemSpec, State
from .errors import (
    BadBracket,
    ClosureFailure,
    DomainError,
    NoConvergence,
    NoRest,
    StepUnderflow,
)
from .integrator import (
    ORDER,
    EventKind,
    IntegratorSettings,
    Trajectory,
    _brent,
    _build_trajectory,
    _integrate,
    _rest_arcs,
    _Run,
    _vec_to_state,
)

ALPHA_TOL = 1e-8
# relative tolerance of the orbit search's coarse stage (see _find_orbit)
COARSE_REL_TOL = 1e-6
# |alpha_j| at or below which the brake search's classification at
# COARSE_REL_TOL is repeated at the given settings.  Over 7,500 seeded
# launches on [0.05, 3.4] at E = -1 (k <= 5), alpha_k at the coarse
# stage's settings and at the default ones differ by a median 3.9e-6 and a
# 99th percentile 2.2e-4, but by up to 8.4e-3, 1.2 times less (k = 5 at
# h = 0.49; the next largest at k = 4 from h above 3.3, whose runs pass
# within 0.02 of the nucleus).  Capped at the default h_max instead, the
# coarse stage differed by up to 7.8e-3; uncapped, by 0.27 once (k = 4 at
# h = 3.3565)
CLASSIFY_MARGIN = 1e-2
# iteration budget of each stage of the orbit search
MAX_ITER = 200
# largest rest count that classification tries
MAX_RESTS = 8
TOUCH_SPEED_TOL = 1e-6
# Tuned at E = -1; h* scales as 1/(-E), so _bracket_at rescales them.
DEFAULT_BRACKET = (0.5, 3.0)
DEFAULT_BRAKE_BRACKET = (0.3, 0.8)
DEFAULT_GRID_RANGE = (0.05, 3.45)
DEFAULT_GRID_SIZE = 50


@dataclass(frozen=True)
class ShootResult:
    h: float
    t_h: float
    alpha: float
    n_magical_crossings: int
    energy_drift: float
    status: str = "ok"


@dataclass(frozen=True)
class OrbitRecord:
    """A periodic orbit found by the orbit search.  `solver_trace` lists the
    search's evaluations (h, alpha_k) in order, coarse stage first (for a
    brake search that classified its bracket, its first two entries are
    the bracket ends' values at classification's settings: the coarse ones,
    unless classification was repeated at the search's settings, see
    find_brake_orbit); its last entry is (h_star, alpha_residual), both at
    the search's settings."""

    E: float
    h_star: float
    quarter_period: float
    touch_state: State
    alpha_residual: float
    kind: str  # "Langmuir" or "Brake-<k>"
    solver_trace: tuple[tuple[float, float], ...]
    # The search's quarter arc at h_star and the settings that made it, for
    # assemble_periodic_orbit; never serialized, compared or copied by
    # dataclasses.replace, so any other record integrates its own quarter.
    _quarter_arc: Optional[tuple[IntegratorSettings, Trajectory]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def reflection_count(self) -> int:
        if self.kind == "Langmuir":
            return 1
        return int(self.kind.split("-", 1)[1])


def _bracket_at(
    E: float,
    bracket: Optional[tuple[float, float]],
    default: tuple[float, float],
) -> tuple[float, float]:
    """The given bracket, or the E = -1 default rescaled to energy E."""
    if not (E < 0.0):
        raise ValueError(f"orbit search requires E < 0, got {E}")
    if bracket is not None:
        return bracket
    a = -1.0 / E
    return default[0] * a, default[1] * a


def _rests(E: float, h: float, settings: IntegratorSettings, watch=(),
           sample_times=()) -> Iterator[_Run]:
    """`_rest_arcs` of the horizontal launch from (0, h) at energy E."""
    return _rest_arcs(dynamics.initial_state(ProblemSpec(E=E, h=h)), settings,
                      E, watch, sample_times)


def _next_rest(rests: Iterator[_Run], k: int) -> _Run:
    """The run of `rests` (a launch's `_rest_arcs`) at its next stop, which
    must be an x-rest; its last sample is that rest.  Raises NoRest(k, ...),
    k being the rest count the caller is after, when the run stops any other
    way."""
    run = next(rests)
    if run.termination is not EventKind.X_VELOCITY_ZERO:
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
    if k < 1:
        raise ValueError(f"rest count must be >= 1, got {k}")
    rests = _rests(E, h, settings)
    for _ in range(k):
        run = _next_rest(rests, k)
    return run


def _shoot(
    E: float, h: float, settings: IntegratorSettings, sample_times=()
) -> tuple[_Run, ShootResult]:
    """shoot()'s run and result: the launch of _rest_run, recording the
    magical-line crossings, to its first stop, its arc not built.  A run
    that ends without an x-rest gives a status='NoRest(...)' result, whose
    t_h and alpha are nan; its crossings and drift are the run's.  The
    `sample_times` are as in `integrate`: they add samples, and their
    drift, but change no step."""
    run = next(_rests(E, h, settings, {EventKind.MAGICAL_LINE_CROSS},
                      sample_times))
    rested = run.termination is EventKind.X_VELOCITY_ZERO
    t, rest = run.samples[-1]
    return run, ShootResult(
        h=h,
        t_h=t if rested else math.nan,
        alpha=rest[3] if rested else math.nan,
        n_magical_crossings=sum(1 for kind, _, _ in run.events
                                if kind is EventKind.MAGICAL_LINE_CROSS),
        energy_drift=run.drift,
        status="ok" if rested else f"NoRest({run.termination.value})",
    )


def _shoot_run(
    E: float, h: float, settings: IntegratorSettings, sample_times=()
) -> tuple[Trajectory, ShootResult]:
    """_shoot with the run's arc built."""
    run, res = _shoot(E, h, settings, sample_times)
    return _build_trajectory(run), res


def shoot(
    E: float,
    h: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> ShootResult:
    """Integrate the horizontal-launch problem to its first x-rest."""
    run, res = _shoot(E, h, settings)
    if run.termination is not EventKind.X_VELOCITY_ZERO:
        raise NoRest(1, run.termination.value)
    return res


def alpha_k(
    E: float,
    h: float,
    k: int,
    settings: IntegratorSettings = IntegratorSettings(),
) -> float:
    """Vertical velocity at the k-th x-rest; alpha_1 is shoot(...).alpha."""
    return _alpha(_rest_run(E, h, k, settings))


def _solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol_f: float,
    max_iter: int,
    trace: list[tuple[float, float]],
    f_ends: Optional[tuple[float, float]] = None,
) -> tuple[float, float]:
    """The orbit search's root of f on [lo, hi] by `integrator._brent`,
    from the bracket ends' values: the first point where |f| <= tol_f, so
    the result is a bracket end or the latest evaluation.  Every evaluation
    is appended to `trace`.  `f_ends` are f(lo) and f(hi) when they are
    already known; they are neither evaluated again nor traced.  Raises
    BadBracket when f(lo) and f(hi) have the same sign, and NoConvergence
    when the bracket shrinks to rounding first, or after max_iter
    evaluations."""
    if f_ends is None:
        fa, fb = f(lo), f(hi)
        trace += [(lo, fa), (hi, fb)]
    else:
        fa, fb = f_ends
    if abs(fa) <= tol_f:
        return lo, fa
    if abs(fb) <= tol_f:
        return hi, fb
    if (fa > 0.0) == (fb > 0.0):
        raise BadBracket(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa}, f(hi)={fb}"
        )
    # the smallest float as x_tol: the bracket shrinks to rounding
    b, fb, c = _brent(f, lo, hi, fa, fb, tol_f, sys.float_info.min, max_iter,
                      trace)
    if abs(fb) > tol_f:
        raise NoConvergence(
            f"|residual| > {tol_f} on [{lo}, {hi}]: the bracket has "
            f"shrunk to [{min(b, c)}, {max(b, c)}]"
        )
    return b, fb


def _coarse(settings: IntegratorSettings) -> Optional[IntegratorSettings]:
    """The orbit search's coarse-stage settings: `settings` with both
    tolerances scaled to rel_tol = COARSE_REL_TOL, or None when `settings`
    are no finer than that and the search has no coarse stage.  h_max grows
    by the ORDER-th root of that scale, as a step does, but at most by that
    root of the scale from the default rel_tol, 10^0.5: the coarse rel_tol
    does not depend on how fine `settings` are, so neither does its cap,
    0.316 at the default h_max, as measured in the CLASSIFY_MARGIN
    comment."""
    scale = COARSE_REL_TOL / settings.rel_tol
    if scale <= 1.0:
        return None
    growth = min(scale, COARSE_REL_TOL / IntegratorSettings.rel_tol)
    return replace(settings, rel_tol=scale * settings.rel_tol,
                   abs_tol=scale * settings.abs_tol,
                   h_max=growth ** (1.0 / ORDER) * settings.h_max)


def _find_orbit(
    E: float,
    bracket: tuple[float, float],
    k: int,
    kind: str,
    settings: IntegratorSettings,
    ends: Optional[tuple[IntegratorSettings, tuple[_Run, _Run]]] = None,
) -> OrbitRecord:
    """Root of alpha_k on the bracket, |alpha_k| <= ALPHA_TOL at `settings`,
    in E = -1 units (alpha over sqrt(-E)), as is every tolerance below.

    A coarse Brent-Dekker solve on alpha_k integrated at COARSE_REL_TOL
    locates the root to |alpha_k| <= 1e3 * ALPHA_TOL; a secant polish at
    `settings` then starts from that root (see _polish).  When `settings`
    are no finer than COARSE_REL_TOL, or either stage cannot finish, the
    root is Brent-Dekker's at `settings` on the whole bracket, the search
    without a coarse stage.

    `ends`, when given, are the settings and the runs of the two bracket
    ends stopped at their k-th rest (classification's).  The coarse stage
    takes their alphas as its bracket ends' values, whatever settings they
    were made at; the stages at `settings` take them too when they were
    made at `settings`.  The solver trace lists every evaluation in order
    (coarse stage, polish, then the search on the whole bracket if it
    runs), so its last entry is the root and its residual; the root's is
    the one arc built."""
    trace: list[tuple[float, float]] = []
    v_unit = math.sqrt(-E)
    tol = ALPHA_TOL * v_unit
    end_settings, end_pair = ends or (None, ())
    end_runs = dict(zip(bracket, end_pair))
    # runs at `settings`: the bracket ends and the latest evaluation, so the
    # root is one of them
    runs = dict(end_runs) if end_settings == settings else {}

    def f(h: float) -> float:
        if h not in runs:
            for old in [x for x in runs if x not in bracket]:
                del runs[old]
            runs[h] = _rest_run(E, h, k, settings)
        return _alpha(runs[h])

    coarse = _coarse(settings)
    root = None
    if coarse is not None:

        def f_coarse(h: float) -> float:
            if h in end_runs:
                return _alpha(end_runs[h])
            return _alpha(_rest_run(E, h, k, coarse))

        # any failure is left to the search on the whole bracket, which
        # raises it again if it is not the coarse tolerance's doing
        try:
            h0, _ = _solve_bracketed(f_coarse, bracket[0], bracket[1],
                                     1e3 * tol, MAX_ITER, trace)
            root = _polish(f, h0, trace[-2:], bracket, tol, trace)
        except (NoRest, BadBracket, NoConvergence, DomainError,
                StepUnderflow):
            pass
    if root is None:
        root = _solve_bracketed(f, *bracket, tol, MAX_ITER, trace)
    h_star, residual = root
    arc = _build_trajectory(runs[h_star])
    touch = arc.samples[-1]
    speed = math.sqrt(touch.speed2())
    if speed > TOUCH_SPEED_TOL * v_unit:
        raise NoConvergence(f"touch speed {speed} exceeds "
                            f"{TOUCH_SPEED_TOL * v_unit} at h={h_star}")
    rec = OrbitRecord(
        E=E,
        h_star=h_star,
        quarter_period=touch.t,
        touch_state=touch,
        alpha_residual=residual,
        kind=kind,
        solver_trace=tuple(trace),
    )
    object.__setattr__(rec, "_quarter_arc", (settings, arc))
    return rec


def _polish(
    f: Callable[[float], float],
    h0: float,
    last: list[tuple[float, float]],
    bracket: tuple[float, float],
    tol_f: float,
    trace: list[tuple[float, float]],
) -> Optional[tuple[float, float]]:
    """Secant iteration on f from h0, the coarse root, to |f| <= tol_f.

    The first slope is the secant through `last`, the coarse stage's last
    two points; later slopes come from the polish's own last two points.
    Once two points differ in sign, Brent-Dekker finishes between them.
    Returns None, for the search on the whole bracket, when a step would
    leave the bracket or does not shrink |f|, or after MAX_ITER steps."""
    lo, hi = min(bracket), max(bracket)
    h, fh = h0, f(h0)
    trace.append((h, fh))
    (ha, fa), (hb, fb) = last
    for _ in range(MAX_ITER):
        if abs(fh) <= tol_f:
            return h, fh
        if fa == fb:
            return None
        h_new = h - fh * (hb - ha) / (fb - fa)
        if not (lo <= h_new <= hi) or h_new == h:
            return None
        f_new = f(h_new)
        trace.append((h_new, f_new))
        if abs(f_new) <= tol_f:
            return h_new, f_new
        if (f_new > 0.0) != (fh > 0.0):
            return _solve_bracketed(f, h, h_new, tol_f, MAX_ITER, trace,
                                    (fh, f_new))
        if abs(f_new) >= abs(fh):
            return None
        ha, fa, hb, fb = h, fh, h_new, f_new
        h, fh = h_new, f_new
    return None


def find_langmuir_orbit(
    E: float,
    bracket: Optional[tuple[float, float]] = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> OrbitRecord:
    """Root of alpha on the bracket: the simple back-and-forth orbit.  The
    default bracket is DEFAULT_BRACKET rescaled to energy E."""
    bracket = _bracket_at(E, bracket, DEFAULT_BRACKET)
    return _find_orbit(E, bracket, 1, "Langmuir", settings)


def find_brake_orbit(
    E: float,
    bracket: Optional[tuple[float, float]] = None,
    k: Optional[int] = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> OrbitRecord:
    """Root of alpha_k on the bracket: the multi-reflection orbit.  The
    default bracket is DEFAULT_BRAKE_BRACKET rescaled to energy E.

    When k is not given it is chosen as classify_reflection_count chooses
    it, but at the settings of the search's first stage: the coarse ones
    when `settings` are finer than COARSE_REL_TOL.  Only the signs of the
    alphas compared matter, and the coarse alphas are off by less than
    CLASSIFY_MARGIN (see there); so if any |alpha_j| compared, at either
    end, is at or below CLASSIFY_MARGIN (in E = -1 units), classification
    is repeated at `settings`, which then decides k.  The search starts
    from the runs that classification stopped at the k-th rest (see
    _find_orbit).  A bracket classified as k = 1 holds the simple orbit
    and raises BadBracket."""
    bracket = _bracket_at(E, bracket, DEFAULT_BRAKE_BRACKET)
    if k is not None:
        return _find_orbit(E, bracket, k, f"Brake-{k}", settings)
    at = _coarse(settings) or settings
    found, runs, smallest = _classify(E, bracket, at)
    if at != settings and smallest <= CLASSIFY_MARGIN * math.sqrt(-E):
        at = settings
        found, runs, _ = _classify(E, bracket, at)
    if found is None:
        raise _unseparated(bracket)
    if found == 1:
        raise BadBracket(
            f"the bracket {bracket} holds the simple orbit, not a brake orbit"
        )
    return _find_orbit(E, bracket, found, f"Brake-{found}", settings,
                       (at, runs))


def classify_reflection_count(
    E: float,
    bracket: Optional[tuple[float, float]] = None,
    settings: IntegratorSettings = IntegratorSettings(),
) -> int:
    """Smallest rest count k <= MAX_RESTS at which alpha_k differs in sign
    between the bracket endpoints (the trajectory end is reflected on
    opposite sides), with each endpoint integrated at the given settings.
    The default bracket is DEFAULT_BRAKE_BRACKET rescaled to energy E.  Each
    endpoint is integrated once, to its k-th rest (see _classify).  Raises
    BadBracket when no k <= MAX_RESTS separates the ends."""
    bracket = _bracket_at(E, bracket, DEFAULT_BRAKE_BRACKET)
    k = _classify(E, bracket, settings)[0]
    if k is None:
        raise _unseparated(bracket)
    return k


def _unseparated(bracket: tuple[float, float]) -> BadBracket:
    return BadBracket(
        f"no rest count up to {MAX_RESTS} separates the bracket {bracket}"
    )


def _classify(
    E: float,
    bracket: tuple[float, float],
    settings: IntegratorSettings,
) -> tuple[Optional[int], tuple[_Run, ...], float]:
    """classify_reflection_count at `settings`, returning the rest count
    found (None when no k <= MAX_RESTS separates the ends), the runs of the
    two bracket ends stopped there, whose arcs are not built (none when
    rejected), and the smallest |alpha_j| compared, over both ends and
    every j.

    Each bracket end is integrated once, to its k-th rest and no further:
    one run, advanced rest by rest as _rest_run advances it, so it stops at
    the k-th rest exactly as _rest_run(E, h, k, settings) does.  A run that
    ends any other way has no later rest, so the bracket is rejected
    there."""
    lo, hi = (_rests(E, h, settings) for h in bracket)
    smallest = math.inf
    try:
        for k in range(1, MAX_RESTS + 1):
            a = _next_rest(lo, k)
            b = _next_rest(hi, k)
            smallest = min(smallest, abs(_alpha(a)), abs(_alpha(b)))
            if (_alpha(a) > 0.0) != (_alpha(b) > 0.0):
                return k, (a, b), smallest
    except NoRest:
        pass
    return None, (), smallest


def scan_alpha(
    E: float,
    h_grid: Sequence[float],
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[ShootResult]:
    """shoot() over a grid, results in grid order; a launch without an
    x-rest gives a status='NoRest(...)' row (see _shoot)."""
    return [_shoot(E, h, settings)[1] for h in h_grid]


def default_grid(
    lo: float = DEFAULT_GRID_RANGE[0],
    hi: float = DEFAULT_GRID_RANGE[1],
    n: int = DEFAULT_GRID_SIZE,
) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def sign_change_brackets(results: Sequence[ShootResult]) -> list[tuple[float, float]]:
    """Adjacent grid pairs with opposite alpha signs (NoRest points skipped)."""
    ok = [r for r in results if r.status == "ok"]
    out = []
    for a, b in zip(ok, ok[1:]):
        if (a.alpha > 0.0) != (b.alpha > 0.0):
            out.append((a.h, b.h))
    return out


def assemble_periodic_orbit(
    rec: OrbitRecord,
    settings: IntegratorSettings = IntegratorSettings(),
    closure_tol: float = 1e-6,
) -> Trajectory:
    """Close the quarter arc into the full period-4T orbit.

    [0, T]   the quarter arc,
    [T, 2T]  its time reversal (velocities negated),
    [2T, 4T] the x-reflection of the first half.

    The quarter arc is the one the orbit search integrated at h_star, when
    `rec` comes straight from find_langmuir_orbit or find_brake_orbit and
    `settings` equal the search's; any other record (a parsed one, say)
    integrates its own.  Before assembling, the quarter is re-integrated
    backwards from the touch point with negated velocities, over [0, T]
    with its own steps, requesting the mirror time T - t of every forward
    sample after the launch; the integrator reads each from its dense
    output.  Each is paired with the backward sample at exactly its mirror
    time, and the launch with the last one if the run ends at its time
    limit (T to rounding, as it is in E = -1 units).  An unpaired
    forward sample, or a pair further apart than closure_tol, raises
    ClosureFailure.  The deviation is measured in E = -1 units (positions
    times -E, velocities over sqrt(-E)), in which every energy level's
    orbit is the same rescaled curve.
    """
    arc = rec._quarter_arc
    if arc is not None and arc[0] == settings:
        quarter = arc[1]
    else:
        try:
            quarter = _build_trajectory(_rest_run(
                rec.E, rec.h_star, rec.reflection_count(), settings))
        except NoRest as exc:
            raise ClosureFailure(
                f"quarter arc terminated by {exc.termination}"
            ) from exc
    touch = quarter.samples[-1]
    T = touch.t

    back_start = State(t=0.0, x=touch.x, y=touch.y, vx=-touch.vx, vy=-touch.vy)
    fwd = quarter.samples[:-1]
    back = _integrate(
        back_start, replace(settings, t_limit=T * (-rec.E) ** 1.5), rec.E,
        sample_times=[T - s.t for s in fwd[1:]],
    )
    # each request yields one sample at exactly its time
    by_time = {s.t: s for s in back.samples}
    if back.termination is EventKind.TIME_LIMIT:
        by_time[T] = back.samples[-1]
    q_unit, v_unit = -rec.E, math.sqrt(-rec.E)
    worst = 0.0
    matched = 0
    for s in fwd:
        mirror = by_time.get(T - s.t)
        if mirror is None:
            continue
        matched += 1
        worst = max(
            worst,
            q_unit * abs(mirror.x - s.x),
            q_unit * abs(mirror.y - s.y),
            abs(mirror.vx + s.vx) / v_unit,
            abs(mirror.vy + s.vy) / v_unit,
        )
    if matched < len(fwd):
        raise ClosureFailure(
            f"reversed arc matched {matched} of {len(fwd)} forward samples: "
            f"no sample mirroring {len(fwd) - matched} of them"
        )
    if worst > closure_tol:
        raise ClosureFailure(
            f"reversed arc deviates from the forward arc by {worst} "
            f"in E = -1 units"
        )

    samples: list[State] = list(quarter.samples)
    # time reversal: t in (T, 2T]
    for s in reversed(fwd):
        samples.append(
            _vec_to_state(2.0 * T - s.t, (s.x, s.y, -s.vx, -s.vy))
        )
    # x-reflection of the first half: t in (2T, 4T]
    for s in samples[1:]:
        samples.append(_vec_to_state(2.0 * T + s.t, (-s.x, s.y, -s.vx, s.vy)))
    return Trajectory(
        samples=tuple(samples),
        events=quarter.events,
        max_energy_drift=quarter.max_energy_drift,
        termination=quarter.termination,
    )
