"""Shooting functional and periodic-orbit search.

The shooting functional alpha(h) is the vertical velocity at the first time
the horizontal velocity vanishes; its zeros are heights whose trajectory
comes to a full stop on the Hill boundary and therefore closes into a
periodic orbit of period 4T by time reversal and x-reflection.  A
generalized alpha_k (vertical velocity at the k-th x-rest) captures the
second, multi-reflection orbit.

The orbit search finds a root of alpha_k to |alpha_k| <= ALPHA_TOL in two
stages: a Brent-Dekker solve on alpha_k integrated at COARSE_REL_TOL, then
a secant polish at the given settings from the coarse root.  Only arcs at
the given settings reach the orbit record.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

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
    EventKind,
    IntegratorSettings,
    Trajectory,
    integrate,
)

ALPHA_TOL = 1e-8
# relative tolerance of the orbit search's coarse stage (see _find_orbit)
COARSE_REL_TOL = 1e-6
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
    state_at_th: State
    n_magical_crossings: int
    energy_drift: float
    status: str = "ok"


@dataclass(frozen=True)
class OrbitRecord:
    """A periodic orbit found by the orbit search.  `solver_trace` lists the
    search's evaluations (h, alpha_k) in order, coarse stage first; its last
    entry is (h_star, alpha_residual), both at the search's settings."""

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
    if bracket is not None:
        return bracket
    a = -1.0 / E
    return default[0] * a, default[1] * a


def _quarter(
    E: float,
    h: float,
    k: int,
    settings: IntegratorSettings,
    watch: frozenset[EventKind] = frozenset(),
) -> Trajectory:
    """Launch horizontally from (0, h) at energy E and integrate with
    stop={X_VELOCITY_ZERO: k}, also recording the `watch` events; the last
    sample is the k-th x-rest.  Raises NoRest if the run ends any other way."""
    if k < 1:
        raise ValueError(f"rest count must be >= 1, got {k}")
    s0 = dynamics.initial_state(ProblemSpec(E=E, h=h))
    traj = integrate(
        s0, settings, watch=watch, stop={EventKind.X_VELOCITY_ZERO: k}
    )
    if traj.termination is not EventKind.X_VELOCITY_ZERO:
        raise NoRest(k, traj.termination.value)
    return traj


def _shoot_run(
    E: float, h: float, settings: IntegratorSettings
) -> tuple[Trajectory, ShootResult]:
    """shoot()'s integration and result: the launch of _quarter, recording
    the magical-line crossings, to the first x-rest.  A run that ends any
    other way gives a status='NoRest(...)' placeholder result."""
    traj = integrate(
        dynamics.initial_state(ProblemSpec(E=E, h=h)), settings,
        watch={EventKind.MAGICAL_LINE_CROSS},
        stop={EventKind.X_VELOCITY_ZERO: 1},
    )
    if traj.termination is not EventKind.X_VELOCITY_ZERO:
        return traj, ShootResult(
            h=h,
            t_h=math.nan,
            alpha=math.nan,
            state_at_th=traj.samples[0],
            n_magical_crossings=0,
            energy_drift=math.nan,
            status=f"NoRest({traj.termination.value})",
        )
    rest = traj.samples[-1]
    crossings = sum(
        1 for e in traj.events if e.kind is EventKind.MAGICAL_LINE_CROSS
    )
    return traj, ShootResult(
        h=h,
        t_h=rest.t,
        alpha=rest.vy,
        state_at_th=rest,
        n_magical_crossings=crossings,
        energy_drift=traj.max_energy_drift,
    )


def shoot(
    E: float,
    h: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> ShootResult:
    """Integrate the horizontal-launch problem to its first x-rest."""
    traj, res = _shoot_run(E, h, settings)
    if traj.termination is not EventKind.X_VELOCITY_ZERO:
        raise NoRest(1, traj.termination.value)
    return res


def alpha_k(
    E: float,
    h: float,
    k: int,
    settings: IntegratorSettings = IntegratorSettings(),
) -> float:
    """Vertical velocity at the k-th x-rest; alpha_1 is shoot(...).alpha."""
    return _quarter(E, h, k, settings).samples[-1].vy


def _solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol_f: float,
    max_iter: int,
    trace: list[tuple[float, float]],
    f_ends: Optional[tuple[float, float]] = None,
) -> tuple[float, float]:
    """Brent-Dekker root finding (Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4): inverse quadratic interpolation or secant
    steps, with bisection whenever they would not shrink the bracket fast
    enough.  It stops at the first point where |f| <= tol_f, so the result
    is a bracket end or the latest evaluation.  `f_ends` are f(lo) and
    f(hi) when they are already known; they are neither evaluated again nor
    traced."""
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
    # b: the latest point; c: the bracket's other end, f(c) of opposite
    # sign; a: the point before b
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # the smallest step that moves b; the floor keeps it nonzero at 0
        tol = 2.0 * sys.float_info.epsilon * abs(b) + sys.float_info.min
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            raise NoConvergence(
                f"|residual| > {tol_f} on [{lo}, {hi}]: the bracket has "
                f"shrunk to [{min(b, c)}, {max(b, c)}]"
            )
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m  # bisection
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        trace.append((b, fb))
        if abs(fb) <= tol_f:
            return b, fb
    raise NoConvergence(
        f"|residual| > {tol_f} after {max_iter} iterations on [{lo}, {hi}]"
    )


def _find_orbit(
    E: float,
    bracket: tuple[float, float],
    k: int,
    kind: str,
    settings: IntegratorSettings,
    max_iter: int,
    ends: tuple[Trajectory, ...] = (),
) -> OrbitRecord:
    """Root of alpha_k on the bracket, |alpha_k| <= ALPHA_TOL at `settings`.

    A coarse Brent-Dekker solve on alpha_k integrated at COARSE_REL_TOL
    locates the root to |alpha_k| <= 1e3 * ALPHA_TOL; a secant polish at
    `settings` then starts from that root (see _polish).  When `settings`
    are no finer than COARSE_REL_TOL, or either stage cannot finish, the
    root is Brent-Dekker's at `settings` on the whole bracket, the search
    without a coarse stage.  `ends` are the quarter arcs of the two bracket
    ends at `settings` when they are already known; the coarse stage starts
    from their values too.  The solver trace lists every evaluation in order
    (coarse stage, polish, then the search on the whole bracket if it runs),
    so its last entry is the root and its residual."""
    trace: list[tuple[float, float]] = []
    # arcs at `settings`: the bracket ends and the latest evaluation, so
    # the root is one of them
    arcs: dict[float, Trajectory] = dict(zip(bracket, ends))

    def f(h: float) -> float:
        if h not in arcs:
            for old in [x for x in arcs if x not in bracket]:
                del arcs[old]
            arcs[h] = _quarter(E, h, k, settings)
        return arcs[h].samples[-1].vy

    scale = COARSE_REL_TOL / settings.rel_tol
    root = None
    if scale > 1.0:
        coarse = replace(settings, rel_tol=scale * settings.rel_tol,
                         abs_tol=scale * settings.abs_tol)

        def f_coarse(h: float) -> float:
            # a bracket end whose arc is known keeps its value at `settings`
            if h in arcs:
                return arcs[h].samples[-1].vy
            return _quarter(E, h, k, coarse).samples[-1].vy

        # any failure is left to the search on the whole bracket, which
        # raises it again if it is not the coarse tolerance's doing
        try:
            h0, _ = _solve_bracketed(f_coarse, bracket[0], bracket[1],
                                     1e3 * ALPHA_TOL, max_iter, trace)
            root = _polish(f, h0, trace[-2:], bracket, max_iter, trace)
        except (NoRest, BadBracket, NoConvergence, DomainError,
                StepUnderflow):
            pass
    if root is None:
        root = _solve_bracketed(f, bracket[0], bracket[1], ALPHA_TOL,
                                max_iter, trace)
    h_star, residual = root
    arc = arcs[h_star]
    touch = arc.samples[-1]
    speed = math.sqrt(touch.speed2())
    if speed > TOUCH_SPEED_TOL:
        raise NoConvergence(
            f"touch speed {speed} exceeds {TOUCH_SPEED_TOL} at h={h_star}"
        )
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
    max_iter: int,
    trace: list[tuple[float, float]],
) -> Optional[tuple[float, float]]:
    """Secant iteration on f from h0, the coarse root, to |f| <= ALPHA_TOL.

    The first slope is the secant through `last`, the coarse stage's last
    two points; later slopes come from the polish's own last two points.
    Once two points differ in sign, Brent-Dekker finishes between them.
    Returns None, for the search on the whole bracket, when a step would
    leave the bracket or does not shrink |f|, or after max_iter steps."""
    lo, hi = min(bracket), max(bracket)
    h, fh = h0, f(h0)
    trace.append((h, fh))
    (ha, fa), (hb, fb) = last
    for _ in range(max_iter):
        if abs(fh) <= ALPHA_TOL:
            return h, fh
        if fa == fb:
            return None
        h_new = h - fh * (hb - ha) / (fb - fa)
        if not (lo <= h_new <= hi) or h_new == h:
            return None
        f_new = f(h_new)
        trace.append((h_new, f_new))
        if abs(f_new) <= ALPHA_TOL:
            return h_new, f_new
        if (f_new > 0.0) != (fh > 0.0):
            return _solve_bracketed(f, h, h_new, ALPHA_TOL, max_iter, trace,
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
    max_iter: int = 200,
) -> OrbitRecord:
    """Root of alpha on the bracket: the simple back-and-forth orbit.  The
    default bracket is DEFAULT_BRACKET rescaled to energy E."""
    if not (E < 0.0):
        raise ValueError(f"orbit search requires E < 0, got {E}")
    bracket = _bracket_at(E, bracket, DEFAULT_BRACKET)
    return _find_orbit(E, bracket, 1, "Langmuir", settings, max_iter)


def find_brake_orbit(
    E: float,
    bracket: Optional[tuple[float, float]] = None,
    k: Optional[int] = None,
    settings: IntegratorSettings = IntegratorSettings(),
    max_iter: int = 200,
) -> OrbitRecord:
    """Root of alpha_k on the bracket: the multi-reflection orbit.  The
    default bracket is DEFAULT_BRAKE_BRACKET rescaled to energy E.  When k
    is not given it is chosen by classify_reflection_count; a bracket
    classified as k = 1 holds the simple orbit and raises BadBracket."""
    if not (E < 0.0):
        raise ValueError(f"orbit search requires E < 0, got {E}")
    bracket = _bracket_at(E, bracket, DEFAULT_BRAKE_BRACKET)
    ends: tuple[Trajectory, ...] = ()
    if k is None:
        k, ends = _classify(E, bracket, settings)
        if k == 1:
            raise BadBracket(
                f"the bracket {bracket} holds the simple orbit, "
                f"not a brake orbit"
            )
    return _find_orbit(E, bracket, k, f"Brake-{k}", settings, max_iter, ends)


def classify_reflection_count(
    E: float,
    bracket: Optional[tuple[float, float]] = None,
    settings: IntegratorSettings = IntegratorSettings(),
    k_max: int = 8,
) -> int:
    """Smallest rest count k at which alpha_k differs in sign between the
    bracket endpoints (the trajectory end is reflected on opposite sides).
    The default bracket is DEFAULT_BRAKE_BRACKET rescaled to energy E."""
    bracket = _bracket_at(E, bracket, DEFAULT_BRAKE_BRACKET)
    return _classify(E, bracket, settings, k_max)[0]


def _classify(
    E: float,
    bracket: tuple[float, float],
    settings: IntegratorSettings,
    k_max: int = 8,
) -> tuple[int, tuple[Trajectory, Trajectory]]:
    """classify_reflection_count, also returning the quarter arcs of the
    two bracket ends at the rest count found."""
    for k in range(1, k_max + 1):
        try:
            ends = (
                _quarter(E, bracket[0], k, settings),
                _quarter(E, bracket[1], k, settings),
            )
        except NoRest:
            continue
        if (ends[0].samples[-1].vy > 0.0) != (ends[1].samples[-1].vy > 0.0):
            return k, ends
    raise BadBracket(
        f"no rest count up to {k_max} separates the bracket {bracket}"
    )


def scan_alpha(
    E: float,
    h_grid: Sequence[float],
    settings: IntegratorSettings = IntegratorSettings(),
) -> list[ShootResult]:
    """shoot() over a grid, results in grid order; failures become
    status='NoRest' placeholders."""
    return [_shoot_run(E, h, settings)[1] for h in h_grid]


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
    sample; the integrator reads each from its dense output.  Each forward
    sample is paired with the backward sample at exactly its mirror time
    (the launch's mirror is the sample at the time limit T).  An unpaired
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
            quarter = _quarter(
                rec.E, rec.h_star, rec.reflection_count(), settings
            )
        except NoRest as exc:
            raise ClosureFailure(
                f"quarter arc terminated by {exc.termination}"
            ) from exc
    touch = quarter.samples[-1]
    T = touch.t

    back_start = State(t=0.0, x=touch.x, y=touch.y, vx=-touch.vx, vy=-touch.vy)
    fwd = quarter.samples[:-1]
    back = integrate(
        back_start, replace(settings, t_limit=T),
        sample_times=[T - s.t for s in fwd],
    )
    # each request yields one sample at exactly its time, the launch's (at
    # T, the time limit) included
    by_time = {s.t: s for s in back.samples}
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
            State(t=2.0 * T - s.t, x=s.x, y=s.y, vx=-s.vx, vy=-s.vy)
        )
    # x-reflection of the first half: t in (2T, 4T]
    for s in list(samples[1:]):
        samples.append(
            State(t=2.0 * T + s.t, x=-s.x, y=s.y, vx=-s.vx, vy=s.vy)
        )
    return Trajectory(
        samples=tuple(samples),
        events=quarter.events,
        max_energy_drift=quarter.max_energy_drift,
        termination=quarter.termination,
    )
