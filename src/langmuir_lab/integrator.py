"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is a Dormand-Prince 5(4) pair with PI step-size control, written
out by hand for the 4-component state (x, y, vx, vy).  One trial-step kernel
computes the stages, the FSAL stage and the scaled error norm that accepts
or rejects the step; a step whose error or state is not finite, or whose
stage leaves the half plane y > 0, is rejected, so the step size shrinks
until it underflows.  Inside an accepted
step, states come from the step's continuous extension (Dormand & Prince
1980; the CONTD5 of `dopri5` in Hairer, Norsett & Wanner, Solving ODEs I,
II.6), a fourth-order interpolant built from the seven stages the step
already has, at no extra field evaluation.  Requested `sample_times` are
read from it, so requests never change the step sequence.  The step loop
evaluates each residual and the energy once per accepted step, and bisects
a residual's sign on the interpolant only where it changes; the state of a
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
two-electron field (second-order form, state (x, y, vx, vy)) and its
circle-inverted counterpart used for the zero-energy analysis.  The kernel
takes each field's acceleration (x, y) -> (ax, ay), looked up in `dynamics`
at the start of every run with the chart's energy, which gives the run's
drift: a stage is its input's velocity and the acceleration at its input's
position.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import dynamics
from .dynamics import State, Vec
from .errors import DomainError, StepUnderflow

Accel = Callable[[float, float], tuple[float, float]]


class EventKind(str, enum.Enum):
    X_VELOCITY_ZERO = "XVelocityZero"
    MAGICAL_LINE_CROSS = "MagicalLineCross"
    COLLISION_PROXIMITY = "CollisionProximity"
    TIME_LIMIT = "TimeLimit"


# Smallest step size; a run that needs a smaller one raises StepUnderflow.
H_MIN = 1e-14
# Distance from the collision line y = 0 and from the nucleus at which a run
# stops with COLLISION_PROXIMITY.  Both are read in E = -1 units.
COLLISION_DISTANCE = 1e-6
# Largest scale of a run over its launch's distance from the nucleus (see
# the module docstring).
MAX_SCALE_RATIO = 100.0


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


# Dormand-Prince 5(4) tableau.  The 7th stage is FSAL: its input equals the
# fifth-order solution, so b (order 5) is the last row of A.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_A[6] + (0.0,), _B4))
# the same entries by name, for the unrolled step
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _A[1:]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E
# dense output: the weights of the stages in the interpolant's last
# coefficient (the weight of k2 is zero)
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423


def _dp5_stages(accel: Accel, y: Vec, h: float, k1: Vec):
    """The fifth-order state and stages 2 to 6 of one step of size h from
    y: (y5, k2, k3, k4, k5, k6).

    The field is second order, so a stage is (vx, vy, *accel(x, y)) of its
    input: its first two components are the input's velocity itself.  Each
    stage input is y[j] + h * (0.0 + a_i1*k1[j] + ...): the row's products
    added left to right onto 0.0, as a running sum adds them, so every bit,
    signed zeros included, equals that of the generic loop over `_A` that
    the tests keep as the reference.
    """
    y0, y1, y2, y3 = y
    k1_0, k1_1, k1_2, k1_3 = k1
    k2_0 = y2 + h * (0.0 + _A21 * k1_2)
    k2_1 = y3 + h * (0.0 + _A21 * k1_3)
    k2_2, k2_3 = accel(
        y0 + h * (0.0 + _A21 * k1_0),
        y1 + h * (0.0 + _A21 * k1_1),
    )
    k3_0 = y2 + h * (0.0 + _A31 * k1_2 + _A32 * k2_2)
    k3_1 = y3 + h * (0.0 + _A31 * k1_3 + _A32 * k2_3)
    k3_2, k3_3 = accel(
        y0 + h * (0.0 + _A31 * k1_0 + _A32 * k2_0),
        y1 + h * (0.0 + _A31 * k1_1 + _A32 * k2_1),
    )
    k4_0 = y2 + h * (0.0 + _A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2)
    k4_1 = y3 + h * (0.0 + _A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3)
    k4_2, k4_3 = accel(
        y0 + h * (0.0 + _A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
        y1 + h * (0.0 + _A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
    )
    k5_0 = y2 + h * (0.0 + _A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2
                     + _A54 * k4_2)
    k5_1 = y3 + h * (0.0 + _A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3
                     + _A54 * k4_3)
    k5_2, k5_3 = accel(
        y0 + h * (0.0 + _A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0
                  + _A54 * k4_0),
        y1 + h * (0.0 + _A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1
                  + _A54 * k4_1),
    )
    k6_0 = y2 + h * (0.0 + _A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2
                     + _A64 * k4_2 + _A65 * k5_2)
    k6_1 = y3 + h * (0.0 + _A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3
                     + _A64 * k4_3 + _A65 * k5_3)
    k6_2, k6_3 = accel(
        y0 + h * (0.0 + _A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0
                  + _A64 * k4_0 + _A65 * k5_0),
        y1 + h * (0.0 + _A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1
                  + _A64 * k4_1 + _A65 * k5_1),
    )
    y5 = (
        y0 + h * (0.0 + _A71 * k1_0 + _A72 * k2_0 + _A73 * k3_0
                  + _A74 * k4_0 + _A75 * k5_0 + _A76 * k6_0),
        y1 + h * (0.0 + _A71 * k1_1 + _A72 * k2_1 + _A73 * k3_1
                  + _A74 * k4_1 + _A75 * k5_1 + _A76 * k6_1),
        y2 + h * (0.0 + _A71 * k1_2 + _A72 * k2_2 + _A73 * k3_2
                  + _A74 * k4_2 + _A75 * k5_2 + _A76 * k6_2),
        y3 + h * (0.0 + _A71 * k1_3 + _A72 * k2_3 + _A73 * k3_3
                  + _A74 * k4_3 + _A75 * k5_3 + _A76 * k6_3),
    )
    return (y5, (k2_0, k2_1, k2_2, k2_3), (k3_0, k3_1, k3_2, k3_3),
            (k4_0, k4_1, k4_2, k4_3), (k5_0, k5_1, k5_2, k5_3),
            (k6_0, k6_1, k6_2, k6_3))


def _dp5_trial(accel: Accel, y: Vec, h: float, k1: Vec, abs_q: float,
               abs_v: float, rel_tol: float):
    """One trial step of size h from y, whose first stage k1 is already
    known: (y5, (k1, ..., k7), ratio), k7 being the FSAL stage (the field
    at y5) and ratio the largest |error| / (abs_tol + rel_tol * max(|y|,
    |y5|)) over the components, abs_tol being abs_q for the positions and
    abs_v for the velocities.

    Each component's error is h * fsum of all seven e_m * k_m terms, the
    zero-weighted k2 term included, so that every bit equals that of the
    generic loop over `_E` that the tests keep as the reference.  A step
    with a non-finite error or y5 component has ratio inf.
    """
    y5, k2, k3, k4, k5, k6 = _dp5_stages(accel, y, h, k1)
    z0, z1, z2, z3 = y5
    k7_2, k7_3 = accel(z0, z1)
    k7 = (z2, z3, k7_2, k7_3)
    ks = (k1, k2, k3, k4, k5, k6, k7)
    fsum, isfinite = math.fsum, math.isfinite
    try:
        e0 = h * fsum((_E1 * k1[0], _E2 * k2[0], _E3 * k3[0], _E4 * k4[0],
                       _E5 * k5[0], _E6 * k6[0], _E7 * k7[0]))
        e1 = h * fsum((_E1 * k1[1], _E2 * k2[1], _E3 * k3[1], _E4 * k4[1],
                       _E5 * k5[1], _E6 * k6[1], _E7 * k7[1]))
        e2 = h * fsum((_E1 * k1[2], _E2 * k2[2], _E3 * k3[2], _E4 * k4[2],
                       _E5 * k5[2], _E6 * k6[2], _E7 * k7[2]))
        e3 = h * fsum((_E1 * k1[3], _E2 * k2[3], _E3 * k3[3], _E4 * k4[3],
                       _E5 * k5[3], _E6 * k6[3], _E7 * k7[3]))
    except (ValueError, OverflowError):  # -inf + inf, or a sum past max
        return y5, ks, math.inf
    if not (isfinite(e0) and isfinite(e1) and isfinite(e2) and isfinite(e3)
            and isfinite(z0) and isfinite(z1) and isfinite(z2)
            and isfinite(z3)):
        return y5, ks, math.inf
    y0, y1, y2, y3 = y
    return y5, ks, max(
        abs(e0) / (abs_q + rel_tol * max(abs(y0), abs(z0))),
        abs(e1) / (abs_q + rel_tol * max(abs(y1), abs(z1))),
        abs(e2) / (abs_v + rel_tol * max(abs(y2), abs(z2))),
        abs(e3) / (abs_v + rel_tol * max(abs(y3), abs(z3))),
    )


def _advance(accel: Accel, y: Vec, h: float, k1: Vec) -> Vec:
    """The fifth-order state one step of size h > 0 from y: the state of a
    located event.  Nothing steps on from it, so its FSAL stage is not
    evaluated; the guard stands in for the y > 0 check that evaluation
    would make."""
    y5 = _dp5_stages(accel, y, h, k1)[0]
    dynamics._check_upper(y5[1])
    return y5


def _dense_output(y: Vec, y5: Vec, ks, h: float) -> Callable[[float], Vec]:
    """The continuous extension of the step of size h from y to y5 with
    stages ks: tau in [0, h] -> the fourth-order state at the step's start
    time + tau, y + s*(dy + (1-s)*(b + s*(c + (1-s)*d))) with s = tau/h."""
    k1, _, k3, k4, k5, k6, k7 = ks
    coeffs = []
    for j in range(4):
        dy = y5[j] - y[j]
        b = h * k1[j] - dy
        c = dy - h * k7[j] - b
        d = h * (_D1 * k1[j] + _D3 * k3[j] + _D4 * k4[j] + _D5 * k5[j]
                 + _D6 * k6[j] + _D7 * k7[j])
        coeffs.append((y[j], dy, b, c, d))
    ((y_0, dy_0, b_0, c_0, d_0), (y_1, dy_1, b_1, c_1, d_1),
     (y_2, dy_2, b_2, c_2, d_2), (y_3, dy_3, b_3, c_3, d_3)) = coeffs

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


def _bisect(
    accel: Accel, f, at, t0: float, y0: Vec, k1: Vec, span: float,
    r_lo: float, event_tol: float,
) -> tuple[float, Vec]:
    """Bisect the sign change of residual f over (t0, t0 + span), probing
    the states of the step's interpolant `at`; the located state is one
    fifth-order step from (t0, y0)."""
    lo, hi = 0.0, span
    sign_lo = r_lo > 0.0
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        r_mid = f(at(mid))
        if (r_mid > 0.0) == sign_lo and r_mid != 0.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return t0 + tau, _advance(accel, y0, tau, k1)


class _Run:
    """One adaptive integration; collects samples and events."""

    def __init__(
        self,
        accel: Accel,
        energy_fn: Callable[[Vec], float],
        y0: Vec,
        t0: float,
        settings: IntegratorSettings,
        residuals: dict[EventKind, Callable[[Vec], float]],
        stop: set[EventKind],
        sample_times: Sequence[float],
        E: Optional[float],
    ):
        self.accel = accel
        self.energy_fn = energy_fn
        # the knobs in the units of the run's scale (see the module docstring)
        a = (min(-1.0 / E, MAX_SCALE_RATIO * math.hypot(y0[0], y0[1])) if E
             else 1.0)
        sqrt_a = math.sqrt(a)
        a15 = a * sqrt_a  # a^3/2, the unit of time
        self.rel_tol = settings.rel_tol
        self.abs_q, self.abs_v = settings.abs_tol * a, settings.abs_tol / sqrt_a
        self.h_first, self.h_max, self.h_min, self.t_limit = (
            v * a15 for v in (1e-3, settings.h_max, H_MIN, settings.t_limit))
        if not (0.0 < self.h_min and max(self.h_max, self.t_limit) < math.inf):
            raise DomainError(f"time unit {a15} out of range at E={E}")
        self.event_tol = min(1e-12, settings.rel_tol) * a15
        distance = COLLISION_DISTANCE * a
        self.residuals = {**residuals, EventKind.COLLISION_PROXIMITY: (
            lambda y: min(y[1], math.hypot(y[0], y[1])) - distance)}
        self.stop = stop
        self.samples: list[tuple[float, Vec]] = [(t0, y0)]
        self.events: list[tuple[EventKind, float, Vec]] = []
        self.e0 = energy_fn(y0)
        # drift is relative to the launch energy, but in the unit of energy
        # 1/a when the launch has less than half of it (at or near E = 0,
        # or far inside -1/E)
        self.e_unit = abs(self.e0) if abs(self.e0) * a > 0.5 else 1.0 / a
        self.drift = 0.0
        # requested times still to come, latest first, so pop() is the next
        self.requests = sorted({s for s in sample_times if s > t0},
                               reverse=True)
        self.termination: Optional[EventKind] = None

    def run(self):
        """Step until the run stops: yield the kind of each stop event, and
        the time limit, which ends the run.  Resumed after a stop event, the
        run goes on as though that event had not stopped it, to its next
        stop.  A run with requested times is never resumed: a request at the
        stop event's time is answered by the stop's own sample, which
        resuming removes.

        The loop state lives in locals; the run's `drift` and `termination`
        are written at each yield, which is where they are read."""
        accel, energy_fn, e0, e_unit = (self.accel, self.energy_fn, self.e0,
                                        self.e_unit)
        abs_q, abs_v, rel_tol = self.abs_q, self.abs_v, self.rel_tol
        h_max, h_min, t_limit = self.h_max, self.h_min, self.t_limit
        event_tol, stop = self.event_tol, self.stop
        samples, events, requests = self.samples, self.events, self.requests
        residuals = tuple((i, kind, f) for i, (kind, f)
                          in enumerate(self.residuals.items()))
        t, y = samples[0]
        ax, ay = accel(y[0], y[1])
        k1 = (y[2], y[3], ax, ay)
        res = [f(y) for _, _, f in residuals]
        h = min(h_max, self.h_first)
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
            # events in (t0, t]: each residual's sign change, bisected on
            # the interpolant unless the residual is 0 at the step's end
            found = []
            for i, kind, f in residuals:
                r0 = res[i]
                r1 = res[i] = f(y)
                if (r0 > 0.0 and r1 <= 0.0) or (r0 < 0.0 and r1 >= 0.0):
                    if r1 == 0.0:
                        found.append((t, y, kind))
                        continue
                    if at is None:
                        at = _dense_output(y0, y5, ks, h)
                    found.append((*_bisect(accel, f, at, t0, y0, k1, h, r0,
                                           event_tol), kind))
            if len(found) > 1:
                found.sort(key=lambda item: item[0])
            for t_ev, y_ev, kind in found:
                events.append((kind, t_ev, y_ev))
                if kind in stop:
                    if requests and requests[-1] <= t_ev:
                        drift = self._append_requests(t0, at, t_ev, True,
                                                      drift)
                    samples.append((t_ev, y_ev))
                    d = abs(energy_fn(y_ev) - e0) / e_unit
                    self.drift = d if d > drift else drift
                    self.termination = kind
                    yield kind
                    # resumed: the stop's sample and drift go, and the run
                    # goes on to its next stop
                    samples.pop()
                    self.termination = None

            if requests and requests[-1] <= t:
                drift = self._append_requests(t0, at, t, True, drift)
            samples.append((t, y))
            d = abs(energy_fn(y) - e0) / e_unit
            if d > drift:
                drift = d
            if t_last != t and requests and requests[-1] <= t_last:
                drift = self._append_requests(t0, at, t_last, False, drift)
            k1 = ks[6]

            # PI controller (accepted step)
            e = ratio if ratio >= 1e-10 else 1e-10
            fac = 0.9 * e ** -0.14 * err_old ** 0.08
            err_old = e
            h *= 5.0 if fac >= 5.0 else 0.2 if fac <= 0.2 else fac

    def _append_requests(self, t0, at, t_last, end_sample, drift):
        """Sample each requested time up to t_last from the interpolant `at`
        of the step from t0, and return `drift` with the samples' drift;
        when `end_sample`, the sample at t_last that ends the span answers a
        request at that time."""
        requests = self.requests
        while requests and requests[-1] <= t_last:
            t = requests.pop()
            if end_sample and t == t_last:
                break
            y = at(t - t0)
            self.samples.append((t, y))
            d = abs(self.energy_fn(y) - self.e0) / self.e_unit
            if d > drift:
                drift = d
        return drift


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


# Defining residual of each locatable event kind, a function of the state
# alone: an event is a sign change of its residual.
_RESIDUALS: dict[EventKind, Callable[[Vec], float]] = {
    EventKind.X_VELOCITY_ZERO: lambda y: y[2],
    # bisection probes are interpolated states, which nothing has checked;
    # magical_line_residual raises DomainError itself on y <= 0
    EventKind.MAGICAL_LINE_CROSS:
        lambda y: dynamics.magical_line_residual(y[0], y[1]),
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


def _new_run(
    accel: Accel,
    energy_fn,
    s0: State,
    settings: IntegratorSettings,
    watch: Iterable[EventKind],
    stop: Iterable[EventKind],
    sample_times: Sequence[float],
    E: Optional[float] = None,
) -> _Run:
    """The run from s0, launched at the energy level E (None: at none)."""
    if isinstance(stop, Mapping):
        raise TypeError(
            f"stop takes event kinds, each ending the run at its first "
            f"event, not a mapping: {stop!r}"
        )
    if s0.y <= 0.0:
        raise DomainError(f"initial state must have y > 0, got y={s0.y}")
    stop = {*stop, EventKind.COLLISION_PROXIMITY}
    watched = set(watch) | stop
    residuals = {k: f for k, f in _RESIDUALS.items() if k in watched}
    return _Run(
        accel, energy_fn, (s0.x, s0.y, s0.vx, s0.vy), s0.t, settings,
        residuals, stop, sample_times, E,
    )


def _rest_arcs(s0: State, settings: IntegratorSettings,
               E: Optional[float] = None, watch=()) -> Iterator[_Run]:
    """One run of the planar field from s0, launched at the energy level E
    (see `_new_run`), yielded at each of its stops: its k-th x-rest at the
    k-th yield, for k = 1, 2, ..., and last the stop that ends it any other
    way (its termination says which).  Each yield's `_build_trajectory` is
    _integrate(s0, settings, E, watch, stop={X_VELOCITY_ZERO}) resumed to
    that stop, bit for bit.  The run goes on in place when advanced, so a
    caller builds the arc of a stop it keeps before it advances again."""
    rest = EventKind.X_VELOCITY_ZERO
    run = _new_run(dynamics.acceleration, dynamics.energy_vec, s0, settings,
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
    run = _new_run(*chart, s0, settings, watch, stop, sample_times, E)
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
    s0 must already live in that chart, e.g. invert_state(initial_state(...))."""
    return _integrate(s0, settings, None, chart=(
        dynamics.inverted_acceleration, dynamics.inverted_energy_vec))
