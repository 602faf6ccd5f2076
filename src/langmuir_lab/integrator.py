"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is a Dormand-Prince 5(4) pair with PI step-size control, written
out by hand for the 4-component state (x, y, vx, vy).  Events are localized
by bisecting the sign of a residual in time, and forced substeps are sampled
at fixed fractions of a step; the state at any such interior time is
produced by a single fifth-order step from the accepted step's start state
(a re-integration, not a low-order interpolant).

Two vector fields are integrated with the same machinery: the planar
two-electron field (second-order form, state (x, y, vx, vy)) and its
circle-inverted counterpart used for the zero-energy analysis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import dynamics
from .dynamics import State
from .errors import DomainError, NoSignChange, StepUnderflow

Vec = tuple[float, float, float, float]
Rhs = Callable[[Vec], Vec]


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
    substeps: int = 0  # forced interior samples per accepted step

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
        if self.substeps < 0:
            raise DomainError("substeps must be non-negative")


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


def _dp5_step(rhs: Rhs, y: Vec, h: float, k1: Vec):
    """One Dormand-Prince 5(4) step of size h from y, whose first stage k1
    is already known; returns (y5, (k1, ..., k7)).

    Each stage input is y[j] + h * (0.0 + a_i1*k1[j] + ...): the row's
    products added left to right onto 0.0, as a running sum adds them, so
    every bit, signed zeros included, equals that of the generic loop over
    `_A` that the tests keep as the reference.
    """
    y0, y1, y2, y3 = y
    k1_0, k1_1, k1_2, k1_3 = k1
    k2_0, k2_1, k2_2, k2_3 = k2 = rhs((
        y0 + h * (0.0 + _A21 * k1_0),
        y1 + h * (0.0 + _A21 * k1_1),
        y2 + h * (0.0 + _A21 * k1_2),
        y3 + h * (0.0 + _A21 * k1_3),
    ))
    k3_0, k3_1, k3_2, k3_3 = k3 = rhs((
        y0 + h * (0.0 + _A31 * k1_0 + _A32 * k2_0),
        y1 + h * (0.0 + _A31 * k1_1 + _A32 * k2_1),
        y2 + h * (0.0 + _A31 * k1_2 + _A32 * k2_2),
        y3 + h * (0.0 + _A31 * k1_3 + _A32 * k2_3),
    ))
    k4_0, k4_1, k4_2, k4_3 = k4 = rhs((
        y0 + h * (0.0 + _A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
        y1 + h * (0.0 + _A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
        y2 + h * (0.0 + _A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
        y3 + h * (0.0 + _A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3),
    ))
    k5_0, k5_1, k5_2, k5_3 = k5 = rhs((
        y0 + h * (0.0 + _A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
        y1 + h * (0.0 + _A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
        y2 + h * (0.0 + _A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
        y3 + h * (0.0 + _A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3),
    ))
    k6_0, k6_1, k6_2, k6_3 = k6 = rhs((
        y0 + h * (0.0 + _A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0
                  + _A64 * k4_0 + _A65 * k5_0),
        y1 + h * (0.0 + _A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1
                  + _A64 * k4_1 + _A65 * k5_1),
        y2 + h * (0.0 + _A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2
                  + _A64 * k4_2 + _A65 * k5_2),
        y3 + h * (0.0 + _A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3
                  + _A64 * k4_3 + _A65 * k5_3),
    ))
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
    return y5, (k1, k2, k3, k4, k5, k6, rhs(y5))


def _advance(rhs: Rhs, y: Vec, h: float, k1: Vec) -> Vec:
    """Single fifth-order step of size h (used for event localization and
    forced sub-samples)."""
    if h == 0.0:
        return y
    return _dp5_step(rhs, y, h, k1)[0]


def _bisect(
    rhs: Rhs, f, t0: float, y0: Vec, k1: Vec, span: float, r_lo: float,
    event_tol: float,
) -> tuple[float, Vec]:
    """Bisect the sign change of residual f over (t0, t0 + span); states at
    interior times are single fifth-order steps from (t0, y0)."""
    lo, hi = 0.0, span
    sign_lo = r_lo > 0.0
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        r_mid = f(t0 + mid, _advance(rhs, y0, mid, k1))
        if (r_mid > 0.0) == sign_lo and r_mid != 0.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return t0 + tau, _advance(rhs, y0, tau, k1)


def _error_ratio(y: Vec, y5: Vec, ks, h: float, st: IntegratorSettings) -> float:
    worst = 0.0
    for j in range(len(y)):
        err = h * math.fsum(_E[m] * ks[m][j] for m in range(7))
        scale = st.abs_tol + st.rel_tol * max(abs(y[j]), abs(y5[j]))
        worst = max(worst, abs(err) / scale)
    return worst


class _Run:
    """One adaptive integration; collects samples and events."""

    def __init__(
        self,
        rhs: Rhs,
        energy_fn: Callable[[Vec], float],
        y0: Vec,
        t0: float,
        settings: IntegratorSettings,
        residuals: dict[EventKind, Callable[[float, Vec], float]],
        stop: dict[EventKind, int],
        sample_times: Sequence[float],
    ):
        self.rhs = rhs
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
        self.sample_times = [s for s in sorted(sample_times) if s > t0]
        self.termination: Optional[EventKind] = None

    def _record_drift(self, y: Vec):
        e = self.energy_fn(y)
        d = abs(e - self.e0)
        if self.e0 != 0.0:
            d /= abs(self.e0)
        if d > self.drift:
            self.drift = d

    def _scan_events(self, t0, y0, k1, h_acc, y_new, res) -> list:
        """Events in (t0, t0 + h_acc], in time order; refreshes `res` to
        the residuals at the step's end."""
        t_new = t0 + h_acc
        found = []
        for kind, f in self.residuals.items():
            r0 = res[kind]
            r1 = res[kind] = f(t_new, y_new)
            crossed = (r0 > 0.0 and r1 <= 0.0) or (r0 < 0.0 and r1 >= 0.0)
            if not crossed:
                continue
            if r1 == 0.0:
                t_ev, y_ev = t_new, y_new
            else:
                t_ev, y_ev = _bisect(self.rhs, f, t0, y0, k1, h_acc, r0,
                                     self.st.event_tol)
            if kind is EventKind.BRAKE_POINT:
                # residual is d(speed^2)/dt; only minima below the
                # threshold count as actual boundary touches
                if not (r0 < 0.0 <= r1):
                    continue
                if y_ev[2] ** 2 + y_ev[3] ** 2 > self.st.brake_speed2:
                    continue
            found.append((t_ev, kind, y_ev))
        found.sort(key=lambda item: item[0])
        return found

    def run(self):
        st = self.st
        rhs = self.rhs
        k1 = rhs(self.y)
        res = {k: f(self.t, self.y) for k, f in self.residuals.items()}
        h = min(st.h_max, 1e-3)
        err_old = 1.0
        while True:
            if st.t_limit - self.t < st.h_min:
                self._finish_time_limit()
                return
            h = min(h, st.h_max, st.t_limit - self.t)
            while self.sample_times and self.sample_times[0] <= self.t:
                self.sample_times.pop(0)
            if self.sample_times:
                gap = self.sample_times[0] - self.t
                if gap < h:
                    h = gap
            if h < st.h_min:
                raise StepUnderflow(self.t, _vec_to_state(self.t, self.y))

            y5, ks = _dp5_step(rhs, self.y, h, k1)
            ratio = _error_ratio(self.y, y5, ks, h, st)
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
            for t_ev, kind, y_ev in self._scan_events(
                t0, y0, k1, h_acc, y_new, res
            ):
                self.events.append((kind, t_ev, y_ev))
                if kind in self.stop_left:
                    self.stop_left[kind] -= 1
                    if self.stop_left[kind] == 0:
                        self._append_substeps(t0, y0, k1, t_ev - t0)
                        self.samples.append((t_ev, y_ev))
                        self._record_drift(y_ev)
                        self.termination = kind
                        return

            self._append_substeps(t0, y0, k1, h_acc)
            self.samples.append((t_new, y_new))
            self._record_drift(y_new)
            self.t, self.y, k1 = t_new, y_new, ks[6]

            # PI controller (accepted step)
            e = max(ratio, 1e-10)
            fac = 0.9 * e ** -0.14 * err_old ** 0.08
            err_old = e
            h = h_acc * min(5.0, max(0.2, fac))

    def _append_substeps(self, t0, y0, k1, h_span):
        n = self.st.substeps
        if n <= 0 or h_span <= 0.0:
            return
        for j in range(1, n + 1):
            tau = h_span * j / (n + 1)
            y_sub = _advance(self.rhs, y0, tau, k1)
            self.samples.append((t0 + tau, y_sub))
            self._record_drift(y_sub)

    def _finish_time_limit(self):
        kind = EventKind.TIME_LIMIT
        self.events.append((kind, self.t, self.y))
        self.termination = kind


def _vec_to_state(t: float, y: Vec) -> State:
    return State(t=t, x=y[0], y=y[1], vx=y[2], vy=y[3])


def _langmuir_rhs(y: Vec) -> Vec:
    ax, ay = dynamics.acceleration(y[0], y[1])
    return (y[2], y[3], ax, ay)


def _inverted_rhs(y: Vec) -> Vec:
    ax, ay = dynamics.inverted_acceleration(y[0], y[1])
    return (y[2], y[3], ax, ay)


def _langmuir_energy(y: Vec) -> float:
    return dynamics.energy(_vec_to_state(0.0, y))


def _inverted_energy(y: Vec) -> float:
    return dynamics.inverted_energy(_vec_to_state(0.0, y))


def _residual_map(settings: IntegratorSettings, rhs: Rhs):
    """Defining residuals for each locatable event kind."""

    def brake(t, y):
        k = rhs(y)
        return 2.0 * (y[2] * k[2] + y[3] * k[3])

    return {
        EventKind.X_VELOCITY_ZERO: lambda t, y: y[2],
        # y > 0 holds: the field was already evaluated at every such state
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
    rhs: Rhs,
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
        k: f for k, f in _residual_map(settings, rhs).items() if k in watched
    }
    run = _Run(
        rhs, energy_fn, (s0.x, s0.y, s0.vx, s0.vy), s0.t, settings,
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
    ends it at its first event, and the time limit always ends it."""
    return _integrate_chart(
        _langmuir_rhs, _langmuir_energy, s0, settings, watch, stop,
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
        _inverted_rhs, _inverted_energy, s0, settings, (), {}, sample_times,
    )


def locate_event(
    bracket: tuple[State, State],
    residual,
    settings: IntegratorSettings = IntegratorSettings(),
) -> Event:
    """Bisect an event inside a bracket of two states on the same solution.

    `residual` is an EventKind (its defining residual is used) or a callable
    State -> float.  The bracket endpoints must straddle a sign change.
    The returned state is produced by re-integration from the left endpoint.
    """
    s_lo, s_hi = bracket
    rhs = _langmuir_rhs
    if isinstance(residual, EventKind):
        f_vec = _residual_map(settings, rhs)[residual]
        kind = residual
    else:
        f_vec = lambda t, y: residual(_vec_to_state(t, y))  # noqa: E731
        kind = None
    span = s_hi.t - s_lo.t
    if span <= 0.0:
        raise NoSignChange("bracket must have increasing time")
    y0 = (s_lo.x, s_lo.y, s_lo.vx, s_lo.vy)
    k1 = rhs(y0)
    r_lo = f_vec(s_lo.t, y0)
    r_hi = f_vec(s_hi.t, (s_hi.x, s_hi.y, s_hi.vx, s_hi.vy))
    if r_lo == 0.0:
        return Event(kind=kind, t=s_lo.t, state=s_lo)
    if not ((r_lo > 0.0) != (r_hi > 0.0) or r_hi == 0.0):
        raise NoSignChange(
            f"residual does not change sign over the bracket "
            f"({r_lo} .. {r_hi})"
        )
    t_ev, y_ev = _bisect(rhs, f_vec, s_lo.t, y0, k1, span, r_lo,
                         settings.event_tol)
    return Event(kind=kind, t=t_ev, state=_vec_to_state(t_ev, y_ev))
