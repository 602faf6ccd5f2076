"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is a Dormand-Prince 5(4) pair with PI step-size control, written
out by hand for the 4-component state (x, v) = (x, y, vx, vy) of a
second-order field x'' = f(x), in Nystrom form (Hairer, Norsett & Wanner,
Solving ODEs I, II.14): stage i is the acceleration f_i at the position
x + c_i*h*v + h^2 * sum_m (A.A)_im f_m, and no stage velocity is formed.
The fifth-order state, the error estimate and the interpolant read the same
accelerations through the exact products of the tableau.  One trial-step
kernel computes the stages, the FSAL stage and the scaled error norm that
accepts or rejects the step; a step whose error or state is not finite, or
whose stage leaves the half plane y > 0, is rejected, so the step size
shrinks until it underflows.  Inside an accepted step, states come from the
step's continuous extension (Dormand & Prince 1980; the CONTD5 of `dopri5`
in Solving ODEs I, II.6), a fourth-order interpolant built from the seven
stages the step already has, at no extra field evaluation.  Requested
`sample_times` are read from it, so requests never change the step
sequence.  The step loop evaluates each residual and the energy once per
accepted step.  Only where a residual changes sign does it locate the
change on the interpolant, by the Brent-Dekker routine the orbit search
also uses, from the residual's values at the step's ends; the state of a
located event is then one fifth-order step from the accepted step's start
to the located time.  Otherwise a run samples the ends of its accepted
steps.

A run stops at the first event of any stop kind: its last sample is the
event's state, and the events the same step holds after it are dropped.
`integrate` never goes on from there.  The orbit search does
(`_rest_arcs`), to reach the k-th x-rest: it resumes the run, which emits
the stop step's remaining events, appends that step's end sample and
drift, and steps on with the same step size, controller state and first
stage to the next stop.  So the run to the (k+1)-th x-rest passes through
the run to the k-th, bit for bit, and one run gives both.

The problem is scale-invariant (`dynamics.scale_state`), so a run launched
at an energy level E < 0 reads its knobs in the units of the scale a = -1/E,
where E is -1, or of MAX_SCALE_RATIO times the launch's distance from the
nucleus when that is less (E near 0): `abs_tol` x a for positions and x
a^-1/2 for velocities; `h_max`, `t_limit`, the first trial step, H_MIN and
the event time tolerance x a^3/2; COLLISION_DISTANCE x a.  An a^3/2 out of
the floating-point range raises DomainError.  At E = 0, and in `integrate`
and `integrate_inverted`, whose states carry no energy level, a = 1.

Two vector fields are integrated with the same machinery: the planar
two-electron field and its circle-inverted counterpart used for the
zero-energy analysis.  The kernel takes each field's acceleration (x, y) ->
(ax, ay), looked up in `dynamics` at the start of every run with the
chart's energy, which gives the run's drift.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import dynamics
from .dynamics import State, Vec
from .errors import DomainError, NoConvergence, StepUnderflow

Pair = tuple[float, float]
Accel = Callable[[float, float], Pair]


class EventKind(str, enum.Enum):
    X_VELOCITY_ZERO = "XVelocityZero"
    MAGICAL_LINE_CROSS = "MagicalLineCross"
    COLLISION_PROXIMITY = "CollisionProximity"
    TIME_LIMIT = "TimeLimit"


# Smallest step size; a run that needs a smaller one raises StepUnderflow.
H_MIN = 1e-14
# Distance from the collision line y = 0 at which a run stops with
# COLLISION_PROXIMITY, read in E = -1 units.  It needs no nucleus half: the
# nucleus lies on that line, so a state within the distance of it is within
# the distance of the line.
COLLISION_DISTANCE = 1e-6
# Largest scale of a run over its launch's distance from the nucleus (see
# the module docstring).
MAX_SCALE_RATIO = 100.0
# Evaluation budget of an event's location: Brent-Dekker takes at most the
# square of the bisection's count (Brent 1973, ch. 4), and bisection halves
# a step to its event time tolerance in fewer than 64 probes wherever h_max
# over min(1e-12, rel_tol) is below 2^63 (by default it is 1e11)
_LOCATE_MAX_ITER = 64 * 64


@dataclass(frozen=True)
class IntegratorSettings:
    """`abs_tol`, `h_max` and `t_limit` are in the units of the scale of a
    run launched at an energy level (see the module docstring)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_max: float = 0.1
    t_limit: float = 100.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "h_max", "t_limit"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise DomainError(f"{name} must be finite and positive")
        if not self.h_max > H_MIN:
            raise DomainError(f"h_max must exceed H_MIN = {H_MIN}")


@dataclass(frozen=True)
class Event:
    kind: EventKind
    t: float
    state: State


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[State, ...]
    events: tuple[Event, ...]
    max_energy_drift: float
    termination: EventKind

    def first_event(self, kind: EventKind) -> Optional[Event]:
        for ev in self.events:
            if ev.kind is kind:
                return ev
        return None


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) in Nystrom form.  Its
# coefficients are the published tableau (c, b, the error weights
# e = b - bhat and the dense-output weights D) and its exact products: A.A
# for the stage positions, b.A for the fifth-order position, e.A for the
# position error and D.A for the interpolant's position.  The 7th stage is
# FSAL: its input is the fifth-order state, as b is the last row of A.  Zero
# entries are left out: stage 2 has no acceleration term, and no weight but
# A.A's reads stage 2.  Each is a literal p / q with p and q below 2^53, so
# it is correctly rounded; the tests derive every one from the tableau (in
# `fractions`, which the package does not import, for start-up time).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_AA31 = 9 / 200
_AA41, _AA42 = -12 / 25, 4 / 5
_AA51, _AA52, _AA53 = -12248 / 6561, 7208 / 2187, -6784 / 6561
_AA61, _AA62, _AA63, _AA64 = -533 / 264, 91 / 22, -56 / 33, 7 / 88
_BA1, _BA3, _BA4, _BA5 = 35 / 384, 50 / 159, 25 / 192, -243 / 6784
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_EA1, _EA3, _EA4, _EA5, _EA6 = (611 / 230400, -514 / 83475, 391 / 38400,
                                -4617 / 1356800, -11 / 3360)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_DA1, _DA3, _DA4, _DA5, _DA6 = (
    160283855 / 705130152, -9466935910 / 32700410799,
    49145585 / 1410260304, -7091803125 / 24914598704,
    769977395 / 2467955532)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)


def _dp5_stages(accel: Accel, y: Vec, h: float, k1: Pair):
    """The fifth-order state and the accelerations of stages 2 to 6 of one
    step of size h from y = (x, v), k1 being the acceleration at x: (y5,
    k2, k3, k4, k5, k6).

    Stage i is the acceleration at x + c_i*h*v + h^2 * sum_m (A.A)_im k_m;
    the fifth-order state is (x + h*v + h^2 * sum_m (b.A)_m k_m,
    v + h * sum_m b_m k_m).  The sums run left to right.
    """
    y0, y1, y2, y3 = y
    f1x, f1y = k1
    p0, p1, hh = h * y2, h * y3, h * h
    f2x, f2y = accel(y0 + _C2 * p0, y1 + _C2 * p1)
    f3x, f3y = accel(y0 + _C3 * p0 + hh * (_AA31 * f1x),
                     y1 + _C3 * p1 + hh * (_AA31 * f1y))
    f4x, f4y = accel(y0 + _C4 * p0 + hh * (_AA41 * f1x + _AA42 * f2x),
                     y1 + _C4 * p1 + hh * (_AA41 * f1y + _AA42 * f2y))
    f5x, f5y = accel(
        y0 + _C5 * p0 + hh * (_AA51 * f1x + _AA52 * f2x + _AA53 * f3x),
        y1 + _C5 * p1 + hh * (_AA51 * f1y + _AA52 * f2y + _AA53 * f3y))
    f6x, f6y = accel(
        y0 + p0 + hh * (_AA61 * f1x + _AA62 * f2x + _AA63 * f3x
                        + _AA64 * f4x),
        y1 + p1 + hh * (_AA61 * f1y + _AA62 * f2y + _AA63 * f3y
                        + _AA64 * f4y))
    y5 = (
        y0 + p0 + hh * (_BA1 * f1x + _BA3 * f3x + _BA4 * f4x + _BA5 * f5x),
        y1 + p1 + hh * (_BA1 * f1y + _BA3 * f3y + _BA4 * f4y + _BA5 * f5y),
        y2 + h * (_B1 * f1x + _B3 * f3x + _B4 * f4x + _B5 * f5x
                  + _B6 * f6x),
        y3 + h * (_B1 * f1y + _B3 * f3y + _B4 * f4y + _B5 * f5y
                  + _B6 * f6y),
    )
    return y5, (f2x, f2y), (f3x, f3y), (f4x, f4y), (f5x, f5y), (f6x, f6y)


def _dp5_trial(accel: Accel, y: Vec, h: float, k1: Pair, abs_q: float,
               abs_v: float, rel_tol: float):
    """One trial step of size h from y, whose first stage k1 is already
    known: (y5, (k1, ..., k7), ratio), k7 being the FSAL stage (the
    acceleration at y5) and ratio the largest |error| / (abs_tol + rel_tol
    * max(|y|, |y5|)) over the components, abs_tol being abs_q for the
    positions and abs_v for the velocities.

    The position error is h^2 * sum_m (e.A)_m k_m (sum e = 0, so no
    velocity term), the velocity error h * sum_m e_m k_m.  A step with a
    non-finite error or y5 component has ratio inf.
    """
    y5, k2, k3, k4, k5, k6 = _dp5_stages(accel, y, h, k1)
    z0, z1, z2, z3 = y5
    k7 = accel(z0, z1)
    ks = (k1, k2, k3, k4, k5, k6, k7)
    (f1x, f1y), (f3x, f3y), (f4x, f4y), (f5x, f5y), (f6x, f6y), (f7x, f7y) = (
        k1, k3, k4, k5, k6, k7)
    hh = h * h
    e0 = hh * (_EA1 * f1x + _EA3 * f3x + _EA4 * f4x + _EA5 * f5x
               + _EA6 * f6x)
    e1 = hh * (_EA1 * f1y + _EA3 * f3y + _EA4 * f4y + _EA5 * f5y
               + _EA6 * f6y)
    e2 = h * (_E1 * f1x + _E3 * f3x + _E4 * f4x + _E5 * f5x + _E6 * f6x
              + _E7 * f7x)
    e3 = h * (_E1 * f1y + _E3 * f3y + _E4 * f4y + _E5 * f5y + _E6 * f6y
              + _E7 * f7y)
    # |e| and |y5| by comparison, not abs(); nan fails every comparison, so
    # it stays nan, and then fails `< inf` as inf does
    if e0 < 0.0:
        e0 = -e0
    if e1 < 0.0:
        e1 = -e1
    if e2 < 0.0:
        e2 = -e2
    if e3 < 0.0:
        e3 = -e3
    if z0 < 0.0:
        z0 = -z0
    if z1 < 0.0:
        z1 = -z1
    if z2 < 0.0:
        z2 = -z2
    if z3 < 0.0:
        z3 = -z3
    inf = math.inf
    if not (e0 < inf and e1 < inf and e2 < inf and e3 < inf and z0 < inf
            and z1 < inf and z2 < inf and z3 < inf):
        return y5, ks, inf
    y0, y1, y2, y3 = y
    # the largest quotient, from 0.0, so that it is never -0.0
    ratio = 0.0
    if y0 < 0.0:
        y0 = -y0
    q = e0 / (abs_q + rel_tol * (z0 if z0 > y0 else y0))
    if q > ratio:
        ratio = q
    if y1 < 0.0:
        y1 = -y1
    q = e1 / (abs_q + rel_tol * (z1 if z1 > y1 else y1))
    if q > ratio:
        ratio = q
    if y2 < 0.0:
        y2 = -y2
    q = e2 / (abs_v + rel_tol * (z2 if z2 > y2 else y2))
    if q > ratio:
        ratio = q
    if y3 < 0.0:
        y3 = -y3
    q = e3 / (abs_v + rel_tol * (z3 if z3 > y3 else y3))
    if q > ratio:
        ratio = q
    return y5, ks, ratio


def _advance(accel: Accel, y: Vec, h: float, k1: Pair) -> Vec:
    """The fifth-order state one step of size h > 0 from y: the state of a
    located event.  Nothing steps on from it, so its FSAL stage is not
    evaluated; the guard stands in for the y > 0 check that evaluation
    would make."""
    y5 = _dp5_stages(accel, y, h, k1)[0]
    dynamics._check_upper(y5[1])
    return y5


def _hermite(a: float, z: float, ha: float, hz: float, d: float):
    """One component's interpolant coefficients (a, dy, b, c, d) from its
    values a and z at the step's ends and their derivatives times h."""
    dy = z - a
    b = ha - dy
    return a, dy, b, dy - hz - b, d


def _dense_output(y: Vec, y5: Vec, ks, h: float) -> Callable[[float], Vec]:
    """The continuous extension of the step of size h from y to y5 with
    stages ks: tau in [0, h] -> the fourth-order state at the step's start
    time + tau, y + s*(dy + (1-s)*(b + s*(c + (1-s)*d))) with s = tau/h.
    A velocity's d is h * sum_m D_m k_m; a position's is h^2 * sum_m
    (D.A)_m k_m (sum D = 0, so no velocity term)."""
    (f1x, f1y), _, (f3x, f3y), (f4x, f4y), (f5x, f5y), (f6x, f6y), (
        f7x, f7y) = ks
    x0, x1, v0, v1 = y
    z0, z1, w0, w1 = y5
    hh = h * h
    y_0, dy_0, b_0, c_0, d_0 = _hermite(
        x0, z0, h * v0, h * w0,
        hh * (_DA1 * f1x + _DA3 * f3x + _DA4 * f4x + _DA5 * f5x
              + _DA6 * f6x))
    y_1, dy_1, b_1, c_1, d_1 = _hermite(
        x1, z1, h * v1, h * w1,
        hh * (_DA1 * f1y + _DA3 * f3y + _DA4 * f4y + _DA5 * f5y
              + _DA6 * f6y))
    y_2, dy_2, b_2, c_2, d_2 = _hermite(
        v0, w0, h * f1x, h * f7x,
        h * (_D1 * f1x + _D3 * f3x + _D4 * f4x + _D5 * f5x + _D6 * f6x
             + _D7 * f7x))
    y_3, dy_3, b_3, c_3, d_3 = _hermite(
        v1, w1, h * f1y, h * f7y,
        h * (_D1 * f1y + _D3 * f3y + _D4 * f4y + _D5 * f5y + _D6 * f6y
             + _D7 * f7y))

    def at(tau: float) -> Vec:
        s = tau / h
        s1 = 1.0 - s
        return (
            y_0 + s * (dy_0 + s1 * (b_0 + s * (c_0 + s1 * d_0))),
            y_1 + s * (dy_1 + s1 * (b_1 + s * (c_1 + s1 * d_1))),
            y_2 + s * (dy_2 + s1 * (b_2 + s * (c_2 + s1 * d_2))),
            y_3 + s * (dy_3 + s1 * (b_3 + s * (c_3 + s1 * d_3))),
        )

    return at


def _brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
    f_tol: float, x_tol: float, max_iter: int,
    trace: Optional[list[tuple[float, float]]] = None,
) -> tuple[float, float, float]:
    """Brent-Dekker root finding (Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4) between a and b, whose values fa and fb are
    given and differ in sign: inverse quadratic interpolation or secant
    steps, with bisection whenever they would not shrink the bracket fast
    enough.  Each evaluation (x, f(x)) is appended to `trace` if one is
    given.

    Returns (b, f(b), c).  Either b is the first evaluation where |f| <=
    f_tol, and c is not meaningful, or the bracket [b, c] (in either order)
    has shrunk to within 2 * (x_tol + 2 * eps * |b|) with f(b) and f(c) of
    opposite signs and |f(b)| the smaller.  Raises NoConvergence after
    max_iter evaluations."""
    lo, hi = a, b
    # b: the latest point; c: the bracket's other end, f(c) of opposite
    # sign; a: the point before b
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # the smallest step that moves b; x_tol > 0 keeps it nonzero at 0
        tol = 2.0 * sys.float_info.epsilon * abs(b) + x_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b, fb, c
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
        if trace is not None:
            trace.append((b, fb))
        if abs(fb) <= f_tol:
            return b, fb, c
    raise NoConvergence(
        f"|residual| > {f_tol} after {max_iter} iterations on [{lo}, {hi}]"
    )


def _locate(
    accel: Accel, f, at, t0: float, y0: Vec, k1: Pair, h: float,
    r0: float, r1: float, event_tol: float,
) -> tuple[float, Vec]:
    """The time and state of the sign change of residual f over the step of
    size h from (t0, y0), f being r0 at its start and r1, of the opposite
    sign and nonzero, at its end.  `_brent` locates it on the step's
    interpolant `at`, to the midpoint of a bracket within event_tol (or to
    a probe where f is 0); r1 is the residual of the fifth-order state, not
    of at(h), which can round away from it.  The located state is one
    fifth-order step from (t0, y0)."""
    tau, r, other = _brent(lambda tau: f(at(tau)), 0.0, h, r0, r1, 0.0,
                           0.5 * event_tol, _LOCATE_MAX_ITER)
    if r != 0.0:
        tau = 0.5 * (tau + other)
    return t0 + tau, _advance(accel, y0, tau, k1)


class _Run:
    """One adaptive integration of the field `accel` from s0, launched at
    the energy level E (None: at none); collects samples and events.  The
    run records the events of every kind in `watch` or `stop`, and stops at
    the first of any kind in `stop`, at the first collision proximity, and
    at the time limit."""

    def __init__(
        self,
        accel: Accel,
        energy_fn: Callable[[Vec], float],
        s0: State,
        settings: IntegratorSettings,
        watch: Iterable[EventKind],
        stop: Iterable[EventKind],
        sample_times: Sequence[float],
        E: Optional[float] = None,
    ):
        if isinstance(stop, Mapping):
            raise TypeError(
                f"stop takes event kinds, each ending the run at its first "
                f"event, not a mapping: {stop!r}"
            )
        if s0.y <= 0.0:
            raise DomainError(f"initial state must have y > 0, got y={s0.y}")
        self.accel, self.energy_fn, self.settings, self.E = (
            accel, energy_fn, settings, E)
        self.stop = {*stop, EventKind.COLLISION_PROXIMITY}
        self.watch = {*watch, *self.stop}
        self.sample_times = sample_times
        self.samples: list[tuple[float, Vec]] = [
            (s0.t, (s0.x, s0.y, s0.vx, s0.vy))]
        self.events: list[tuple[EventKind, float, Vec]] = []
        self.drift = 0.0
        self.termination: Optional[EventKind] = None

    def run(self):
        """Step until the run stops: yield the kind of each stop event, and
        the time limit, which ends the run.  Resumed after a stop event, the
        run goes on as though that event had not stopped it, to its next
        stop.  A run with requested times is never resumed: a request at the
        stop event's time is answered by the stop's own sample, which
        resuming removes.

        The knobs, in the units of the run's scale (see the module
        docstring), and the loop state live in locals; the run's `drift` and
        `termination` are written at each yield, which is where they are
        read.  A time unit out of the floating-point range raises
        DomainError at the first step."""
        accel, energy_fn, settings, E = (self.accel, self.energy_fn,
                                         self.settings, self.E)
        stop, samples, events = self.stop, self.samples, self.events
        t, y = samples[0]
        a = (min(-1.0 / E, MAX_SCALE_RATIO * math.hypot(y[0], y[1])) if E
             else 1.0)
        sqrt_a = math.sqrt(a)
        a15 = a * sqrt_a  # a^3/2, the unit of time
        rel_tol = settings.rel_tol
        abs_q, abs_v = settings.abs_tol * a, settings.abs_tol / sqrt_a
        h_first, h_max, h_min, t_limit = (
            v * a15 for v in (1e-3, settings.h_max, H_MIN, settings.t_limit))
        if not (0.0 < h_min and max(h_max, t_limit) < math.inf):
            raise DomainError(f"time unit {a15} out of range at E={E}")
        event_tol = min(1e-12, rel_tol) * a15
        distance = COLLISION_DISTANCE * a
        residuals = tuple((i, kind, f) for i, (kind, f) in enumerate(
            [(kind, f) for kind, f in _RESIDUALS.items() if kind in self.watch]
            + [(EventKind.COLLISION_PROXIMITY, lambda y: y[1] - distance)]))
        e0 = energy_fn(y)
        # drift is relative to the launch energy, but in the unit of energy
        # 1/a when the launch has less than half of it (at or near E = 0,
        # or far inside -1/E)
        e_unit = abs(e0) if abs(e0) * a > 0.5 else 1.0 / a
        # requested times still to come, latest first, so pop() is the next
        requests = sorted({s for s in self.sample_times if s > t},
                          reverse=True)

        def append_requests(t0, at, t_last, end_sample, drift):
            """Sample each requested time up to t_last from the interpolant
            `at` of the step from t0, and return `drift` with the samples'
            drift; when `end_sample`, the sample at t_last that ends the
            span answers a request at that time."""
            while requests and requests[-1] <= t_last:
                t = requests.pop()
                if end_sample and t == t_last:
                    break
                y = at(t - t0)
                samples.append((t, y))
                d = energy_fn(y) - e0
                d = (-d if d < 0.0 else d) / e_unit
                if d > drift:
                    drift = d
            return drift

        k1 = accel(y[0], y[1])
        res = [f(y) for _, _, f in residuals]
        h = min(h_max, h_first)
        err_old = 1.0
        drift = self.drift
        while True:
            if t_limit - t < h_min:
                events.append((EventKind.TIME_LIMIT, t, y))
                self.drift, self.termination = drift, EventKind.TIME_LIMIT
                yield EventKind.TIME_LIMIT
                return
            # min() and max() calls cost more than the comparisons here
            if h > h_max:
                h = h_max
            if h > t_limit - t:
                h = t_limit - t
            if h < h_min:
                raise StepUnderflow(t, _vec_to_state(t, y))

            try:
                y5, ks, ratio = _dp5_trial(accel, y, h, k1, abs_q, abs_v,
                                           rel_tol)
            except DomainError:  # a stage left y > 0: the step is too long
                ratio = math.inf
            if not ratio <= 1.0:  # rejected, also when inf or nan
                h *= max(0.1, 0.9 * ratio ** -0.2) if ratio < math.inf else 0.2
                if h < h_min:
                    raise StepUnderflow(t, _vec_to_state(t, y))
                continue

            # accepted
            t0, y0 = t, y
            t, y = t0 + h, y5
            # the latest requested time this step answers: its end, or the
            # time limit when the run ends after it
            t_last = t_limit if t_limit - t < h_min else t
            # the interpolant is built only for a step that reads from it
            if requests and requests[-1] <= t_last:
                at = _dense_output(y0, y5, ks, h)
            else:
                at = None
            # events in (t0, t]: each residual's sign change, located on
            # the interpolant unless the residual is 0 at the step's end;
            # `found` is made only for a step that has one
            found = None
            for i, kind, f in residuals:
                r0 = res[i]
                r1 = res[i] = f(y)
                if (r0 > 0.0 and r1 <= 0.0) or (r0 < 0.0 and r1 >= 0.0):
                    if found is None:
                        found = []
                    if r1 == 0.0:
                        found.append((t, y, kind))
                        continue
                    if at is None:
                        at = _dense_output(y0, y5, ks, h)
                    found.append((*_locate(accel, f, at, t0, y0, k1, h, r0,
                                           r1, event_tol), kind))
            if found is not None:
                if len(found) > 1:
                    found.sort(key=lambda item: item[0])
                for t_ev, y_ev, kind in found:
                    events.append((kind, t_ev, y_ev))
                    if kind in stop:
                        if requests and requests[-1] <= t_ev:
                            drift = append_requests(t0, at, t_ev, True,
                                                    drift)
                        samples.append((t_ev, y_ev))
                        d = energy_fn(y_ev) - e0
                        d = (-d if d < 0.0 else d) / e_unit
                        self.drift = d if d > drift else drift
                        self.termination = kind
                        yield kind
                        # resumed: the stop's sample and drift go, and the
                        # run goes on to its next stop
                        samples.pop()
                        self.termination = None

            if requests and requests[-1] <= t:
                drift = append_requests(t0, at, t, True, drift)
            samples.append((t, y))
            # |drift| by comparison, not abs()
            d = energy_fn(y) - e0
            d = (-d if d < 0.0 else d) / e_unit
            if d > drift:
                drift = d
            if t_last != t and requests and requests[-1] <= t_last:
                drift = append_requests(t0, at, t_last, False, drift)
            k1 = ks[6]

            # PI controller (accepted step)
            e = ratio if ratio >= 1e-10 else 1e-10
            fac = 0.9 * e ** -0.14 * err_old ** 0.08
            err_old = e
            h *= 5.0 if fac >= 5.0 else 0.2 if fac <= 0.2 else fac


# State's slot setters: _vec_to_state fills a new instance through them,
# which skips the frozen dataclass __init__ (one object.__setattr__ per field)
_new_state = State.__new__
_set_t, _set_x, _set_y, _set_vx, _set_vy = (
    State.__dict__[name].__set__ for name in ("t", "x", "y", "vx", "vy")
)


def _vec_to_state(t: float, y: Vec) -> State:
    """State(t=t, x=y[0], y=y[1], vx=y[2], vy=y[3])."""
    s = _new_state(State)
    _set_t(s, t)
    _set_x(s, y[0])
    _set_y(s, y[1])
    _set_vx(s, y[2])
    _set_vy(s, y[3])
    return s


def _magical_line_residual(y: Vec) -> float:
    """dynamics.magical_line_residual of the state y in one call, |x| by
    comparison.  Location probes are interpolated states, which nothing has
    checked, so it raises DomainError on y <= 0 as that does."""
    x, q = y[0], y[1]
    if q <= 0.0:
        raise DomainError(f"y must be positive, got {q}")
    return dynamics.SQRT3 * q - (-x if x < 0.0 else x)


# Defining residual of each locatable event kind, a function of the state
# alone: an event is a sign change of its residual.  Location probes read
# these on interpolated states (see _magical_line_residual).
_RESIDUALS: dict[EventKind, Callable[[Vec], float]] = {
    EventKind.X_VELOCITY_ZERO: lambda y: y[2],
    EventKind.MAGICAL_LINE_CROSS: _magical_line_residual,
}


def _build_trajectory(run: _Run) -> Trajectory:
    samples = tuple(_vec_to_state(t, y) for t, y in run.samples)
    events = tuple(
        Event(kind=k, t=t, state=_vec_to_state(t, y))
        for k, t, y in run.events
    )
    return Trajectory(
        samples=samples,
        events=events,
        max_energy_drift=run.drift,
        termination=run.termination,
    )


def _rest_arcs(s0: State, settings: IntegratorSettings,
               E: Optional[float] = None, watch=()) -> Iterator[_Run]:
    """One run of the planar field from s0, launched at the energy level E
    (see `_Run`), yielded at each of its stops: its k-th x-rest at the
    k-th yield, for k = 1, 2, ..., and last the stop that ends it any other
    way (its termination says which).  Each yield's `_build_trajectory` is
    _integrate(s0, settings, E, watch, stop={X_VELOCITY_ZERO}) resumed to
    that stop, bit for bit.  The run goes on in place when advanced, so a
    caller builds the arc of a stop it keeps before it advances again."""
    rest = EventKind.X_VELOCITY_ZERO
    run = _Run(dynamics.acceleration, dynamics.energy_vec, s0, settings,
               watch, (rest,), (), E)
    for kind in run.run():
        yield run
        if kind is not rest:
            return


def _integrate(s0: State, settings: IntegratorSettings, E: Optional[float],
               watch=(), stop=(), sample_times=(), chart=None) -> Trajectory:
    """integrate() from s0, launched at the level E, of the field whose
    (acceleration, energy) is `chart`, the planar one if None."""
    chart = chart or (dynamics.acceleration, dynamics.energy_vec)
    run = _Run(*chart, s0, settings, watch, stop, sample_times, E)
    next(run.run())  # to the first stop, never resumed
    return _build_trajectory(run)


def integrate(
    s0: State,
    settings: IntegratorSettings = IntegratorSettings(),
    watch: Iterable[EventKind] = (),
    stop: Iterable[EventKind] = (),
    sample_times: Sequence[float] = (),
) -> Trajectory:
    """Integrate the planar two-electron field forward from s0, recording
    the events of every kind in `watch` or `stop`.  The run ends at the
    first event of any kind in `stop`, at the first collision proximity,
    and at the time limit.  A mapping as `stop` raises TypeError.

    Each of the `sample_times` that the run reaches (the time limit
    included) adds one sample at exactly that time, read from the dense
    output of the step that holds it; a sample already at that very time
    (a step's end or the final event) stands for it.  The steps,
    their end samples and the events are the same with or without
    requests.  s0 carries no energy level, so the settings are read as
    given."""
    return _integrate(s0, settings, None, watch, stop, sample_times)


def integrate_inverted(
    s0: State,
    settings: IntegratorSettings = IntegratorSettings(),
) -> Trajectory:
    """Integrate the circle-inverted chart (used for zero-energy runs);
    s0 must already live in that chart, e.g. invert_state(initial_state(...)).

    The chart's origin is the image of escape to infinity, and an escaping
    run reaches it in finite time, where its step size underflows.  From
    the image of the E = 0 launch at h = 1.5, 2 or 3 the run raises
    StepUnderflow at t = 0.118, 0.058 or 0.021, within 3e-5 of the origin,
    before a t_limit of 0.3; from h = 1 it reaches that time limit."""
    return _integrate(s0, settings, None, chart=(
        dynamics.inverted_acceleration, dynamics.inverted_energy_vec))
