"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is a Dormand-Prince 5(4) pair with PI step-size control, written
out by hand for the 4-component state (x, y, vx, vy).  One trial-step kernel
computes the stages, the FSAL stage and the scaled error norm that accepts
or rejects the step; a step whose error or state is not finite is rejected,
so the step size shrinks until it underflows.  Inside an accepted
step, states come from the step's continuous extension (Dormand & Prince
1980; the CONTD5 of `dopri5` in Hairer, Norsett & Wanner, Solving ODEs I,
II.6), a fourth-order interpolant built from the seven stages the step
already has, at no extra field evaluation.  Requested `sample_times` are
read from it, so requests never change the step sequence, and events are
localized by bisecting the sign of a residual on it; the state of a located
event is then one fifth-order step from the accepted step's start to the
located time.  Otherwise a run samples the ends of its accepted steps.

Two vector fields are integrated with the same machinery: the planar
two-electron field (second-order form, state (x, y, vx, vy)) and its
circle-inverted counterpart used for the zero-energy analysis.  The kernel
takes each field's acceleration (x, y) -> (ax, ay), looked up in `dynamics`
at every call of `integrate` or `integrate_inverted`: a stage is its input's
velocity and the acceleration at its input's position.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import dynamics
from .dynamics import State
from .errors import DomainError, StepUnderflow

Vec = tuple[float, float, float, float]
Accel = Callable[[float, float], tuple[float, float]]


class EventKind(str, enum.Enum):
    X_VELOCITY_ZERO = "XVelocityZero"
    MAGICAL_LINE_CROSS = "MagicalLineCross"
    BRAKE_POINT = "BrakePoint"
    COLLISION_PROXIMITY = "CollisionProximity"
    TIME_LIMIT = "TimeLimit"


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_min: float = 1e-14
    h_max: float = 0.1
    y_collision: float = 1e-6
    r_collision: float = 1e-6
    t_limit: float = 100.0
    event_tol: float = 1e-12
    brake_speed2: float = 1e-12  # speed^2 below which a speed minimum counts

    def __post_init__(self):
        for name in (
            "rel_tol", "abs_tol", "h_min", "h_max", "y_collision",
            "r_collision", "t_limit", "event_tol", "brake_speed2",
        ):
            if not (getattr(self, name) > 0.0):
                raise DomainError(f"{name} must be positive")
        if not self.h_min < self.h_max:
            raise DomainError("h_min must be smaller than h_max")
        if self.event_tol > self.rel_tol:
            raise DomainError("event_tol must not exceed rel_tol")


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


def _dp5_trial(accel: Accel, y: Vec, h: float, k1: Vec, abs_tol: float,
               rel_tol: float):
    """One trial step of size h from y, whose first stage k1 is already
    known: (y5, (k1, ..., k7), ratio), k7 being the FSAL stage (the field
    at y5) and ratio the largest |error| / (abs_tol + rel_tol * max(|y|,
    |y5|)) over the components.

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
        abs(e0) / (abs_tol + rel_tol * max(abs(y0), abs(z0))),
        abs(e1) / (abs_tol + rel_tol * max(abs(y1), abs(z1))),
        abs(e2) / (abs_tol + rel_tol * max(abs(y2), abs(z2))),
        abs(e3) / (abs_tol + rel_tol * max(abs(y3), abs(z3))),
    )


def _advance(accel: Accel, y: Vec, h: float, k1: Vec) -> Vec:
    """The fifth-order state one step of size h > 0 from y: the state of a
    located event.  Nothing steps on from it, so its FSAL stage is not
    evaluated; the guard stands in for the y > 0 check that evaluation
    would make."""
    y5 = _dp5_stages(accel, y, h, k1)[0]
    dynamics._check_upper(y5[0], y5[1])
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
        r_mid = f(t0 + mid, at(mid))
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
        residuals: dict[EventKind, Callable[[float, Vec], float]],
        stop: dict[EventKind, int],
        sample_times: Sequence[float],
    ):
        self.accel = accel
        self.energy_fn = energy_fn
        self.st = settings
        self.residuals = residuals
        self.stop_left = stop  # events of each stop kind still to come
        self.t = t0
        self.y = y0
        self.samples: list[tuple[float, Vec]] = [(t0, y0)]
        self.events: list[tuple[EventKind, float, Vec]] = []
        self.e0 = energy_fn(y0)
        self.drift = 0.0
        # requested times still to come, latest first, so pop() is the next
        self.requests = sorted({s for s in sample_times if s > t0},
                               reverse=True)
        self.termination: Optional[EventKind] = None

    def _record_drift(self, y: Vec):
        e = self.energy_fn(y)
        d = abs(e - self.e0)
        if self.e0 != 0.0:
            d /= abs(self.e0)
        if d > self.drift:
            self.drift = d

    def _scan_events(self, t0, y0, k1, ks, h_acc, y_new, res, at) -> list:
        """Events in (t0, t0 + h_acc], in time order; refreshes `res` to
        the residuals at the step's end.  `at` is the step's interpolant,
        or None if it is not built yet."""
        t_new = t0 + h_acc
        found = []
        for kind, f in self.residuals.items():
            r0 = res[kind]
            r1 = res[kind] = f(t_new, y_new)
            if kind is EventKind.BRAKE_POINT:
                # residual is d(speed^2)/dt: a brake point is a speed
                # minimum, where it rises through zero; maxima are not
                # located
                crossed = r0 < 0.0 <= r1
            else:
                crossed = (r0 > 0.0 and r1 <= 0.0) or (r0 < 0.0 and r1 >= 0.0)
            if not crossed:
                continue
            if r1 == 0.0:
                t_ev, y_ev = t_new, y_new
            else:
                if at is None:
                    at = _dense_output(y0, y_new, ks, h_acc)
                t_ev, y_ev = _bisect(self.accel, f, at, t0, y0, k1, h_acc,
                                     r0, self.st.event_tol)
            if (kind is EventKind.BRAKE_POINT
                    and y_ev[2] ** 2 + y_ev[3] ** 2 > self.st.brake_speed2):
                # only minima below the threshold count as actual
                # boundary touches
                continue
            found.append((t_ev, kind, y_ev))
        found.sort(key=lambda item: item[0])
        return found

    def run(self):
        st = self.st
        accel = self.accel
        x, y, vx, vy = self.y
        ax, ay = accel(x, y)
        k1 = (vx, vy, ax, ay)
        res = {k: f(self.t, self.y) for k, f in self.residuals.items()}
        h = min(st.h_max, 1e-3)
        err_old = 1.0
        while True:
            if st.t_limit - self.t < st.h_min:
                self._finish_time_limit()
                return
            h = min(h, st.h_max, st.t_limit - self.t)
            if h < st.h_min:
                raise StepUnderflow(self.t, _vec_to_state(self.t, self.y))

            y5, ks, ratio = _dp5_trial(accel, self.y, h, k1, st.abs_tol,
                                       st.rel_tol)
            if not math.isfinite(ratio) or ratio > 1.0:
                if not math.isfinite(ratio):
                    h *= 0.2
                else:
                    h *= max(0.1, 0.9 * ratio ** -0.2)
                if h < st.h_min:
                    raise StepUnderflow(self.t, _vec_to_state(self.t, self.y))
                continue

            # accepted
            t0, y0, h_acc = self.t, self.y, h
            t_new, y_new = t0 + h, y5
            # the latest requested time this step answers: its end, or the
            # time limit when the run ends after it
            t_last = st.t_limit if st.t_limit - t_new < st.h_min else t_new
            # the interpolant is built only for a step that reads from it
            if self.requests and self.requests[-1] <= t_last:
                at = _dense_output(y0, y5, ks, h)
            else:
                at = None
            for t_ev, kind, y_ev in self._scan_events(
                t0, y0, k1, ks, h_acc, y_new, res, at
            ):
                self.events.append((kind, t_ev, y_ev))
                if kind in self.stop_left:
                    self.stop_left[kind] -= 1
                    if self.stop_left[kind] == 0:
                        self._append_requests(t0, at, t_ev, end_sample=True)
                        self.samples.append((t_ev, y_ev))
                        self._record_drift(y_ev)
                        self.termination = kind
                        return

            self._append_requests(t0, at, t_new, end_sample=True)
            self.samples.append((t_new, y_new))
            self._record_drift(y_new)
            if t_last != t_new:
                self._append_requests(t0, at, t_last, end_sample=False)
            self.t, self.y, k1 = t_new, y_new, ks[6]

            # PI controller (accepted step)
            e = max(ratio, 1e-10)
            fac = 0.9 * e ** -0.14 * err_old ** 0.08
            err_old = e
            h = h_acc * min(5.0, max(0.2, fac))

    def _append_requests(self, t0, at, t_last, end_sample):
        """Sample each requested time up to t_last from the interpolant `at`
        of the step from t0; when `end_sample`, the sample at t_last that
        ends the span answers a request at that time."""
        requests = self.requests
        while requests and requests[-1] <= t_last:
            t = requests.pop()
            if end_sample and t == t_last:
                return
            y = at(t - t0)
            self.samples.append((t, y))
            self._record_drift(y)

    def _finish_time_limit(self):
        kind = EventKind.TIME_LIMIT
        self.events.append((kind, self.t, self.y))
        self.termination = kind


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


# The two energies below are dynamics.energy and dynamics.inverted_energy,
# operation for operation (so bit for bit), on the state tuple.

def _langmuir_energy(v: Vec) -> float:
    x, y, vx, vy = v
    dynamics._check_upper(x, y)
    return 0.25 * (vx * vx + vy * vy) + (-4.0 / math.hypot(x, y) + 0.5 / y)


def _inverted_energy(v: Vec) -> float:
    x, y, vx, vy = v
    dynamics._check_upper(x, y)
    r = math.hypot(x, y)
    return 0.25 * (vx * vx + vy * vy) - 4.0 / r**3 + 0.5 / (r * r * y)


def _residual_map(settings: IntegratorSettings, accel: Accel):
    """Defining residuals for each locatable event kind."""

    def brake(t, y):
        ax, ay = accel(y[0], y[1])
        return 2.0 * (y[2] * ax + y[3] * ay)

    return {
        EventKind.X_VELOCITY_ZERO: lambda t, y: y[2],
        # bisection probes are interpolated states, which nothing has
        # checked; magical_line_residual raises DomainError itself on y <= 0
        EventKind.MAGICAL_LINE_CROSS:
            lambda t, y: dynamics.magical_line_residual(y[0], y[1]),
        EventKind.BRAKE_POINT: brake,
        EventKind.COLLISION_PROXIMITY:
            lambda t, y: min(y[1] - settings.y_collision,
                             math.hypot(y[0], y[1]) - settings.r_collision),
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


def _integrate_chart(
    accel: Accel,
    energy_fn,
    s0: State,
    settings: IntegratorSettings,
    watch: Iterable[EventKind],
    stop: Mapping[EventKind, int],
    sample_times: Sequence[float],
) -> Trajectory:
    if s0.y <= 0.0:
        raise DomainError(f"initial state must have y > 0, got y={s0.y}")
    if any(n < 1 for n in stop.values()):
        raise DomainError("every stop count must be >= 1")
    stop = {**stop, EventKind.COLLISION_PROXIMITY: 1}
    watched = set(watch) | stop.keys()
    residuals = {
        k: f for k, f in _residual_map(settings, accel).items() if k in watched
    }
    run = _Run(
        accel, energy_fn, (s0.x, s0.y, s0.vx, s0.vy), s0.t, settings,
        residuals, stop, sample_times,
    )
    run.run()
    return _build_trajectory(run)


def integrate(
    s0: State,
    settings: IntegratorSettings = IntegratorSettings(),
    watch: Iterable[EventKind] = (),
    stop: Mapping[EventKind, int] = {},
    sample_times: Sequence[float] = (),
) -> Trajectory:
    """Integrate the planar two-electron field forward from s0, recording
    the events of every kind in `watch` or `stop`.  The run ends at the n-th
    event of any kind that `stop` maps to n.  Collision proximity always
    ends it at its first event, and the time limit always ends it.

    Each of the `sample_times` that the run reaches (the time limit
    included) adds one sample at exactly that time, read from the dense
    output of the step that holds it; a sample already at that very time
    (a step's end or the final event) stands for it.  The steps,
    their end samples and the events are the same with or without
    requests."""
    return _integrate_chart(
        dynamics.acceleration, _langmuir_energy, s0, settings, watch, stop,
        sample_times,
    )


def integrate_inverted(
    s0: State,
    settings: IntegratorSettings = IntegratorSettings(),
    sample_times: Sequence[float] = (),
) -> Trajectory:
    """Integrate the circle-inverted chart (used for zero-energy runs);
    s0 must already live in that chart, e.g. invert_state(initial_state(...))."""
    return _integrate_chart(
        dynamics.inverted_acceleration, _inverted_energy, s0, settings, (),
        {}, sample_times,
    )
