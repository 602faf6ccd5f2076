"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is the Dormand-Prince 8(5,3) pair DOP853 (Prince & Dormand
1981; Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10) with PI
step-size control, capped after an accepted step by Gustafsson's
predictive step (Gustafsson 1994, ACM TOMS 20:496; Solving ODEs II,
IV.8), which extrapolates the error's growth over the last two accepted
steps, so that where the error grows from step to step the next step
shrinks before it is rejected.  It is written out by hand for the
4-component state (x, v) = (x, y, vx, vy) of a second-order field
x'' = f(x), in Nystrom form (ibid., II.14): stage i is the acceleration
f_i at the position x + c_i*h*v + h^2 * sum_m (A.A)_im f_m, and no stage
velocity is formed.  The eighth-order state, the two error estimates and
the interpolant read the same accelerations through the exact products of
the tableau, each written in place as a float literal.  One
trial-step kernel computes the twelve stages, the FSAL stage and the error
norm that accepts or rejects the step, Hairer's combination of the fifth-
and third-order estimates; a step whose error, state or FSAL stage is not
finite, or whose stage leaves the half plane y > 0, is rejected, so the
step size shrinks until it underflows.  No cap bounds a step but the
time limit.  A run's first trial step is H_FIRST: a rejection shrinks a
step at once, where growth is at most fivefold per step, so a run that
started short would climb for several steps.  Inside an accepted step,
states come from the step's continuous
extension (the CONTD8 of `dop853`, ibid., II.10), a seventh-order
interpolant that takes three field evaluations of its own, so it is built
only for a step that reads from it.  Requested
`sample_times` are read from it, so requests never change the step
sequence, nor the drift: the step loop evaluates each residual and the
energy once per accepted step, and the energy of no requested sample.
Only where a residual changes sign does it locate the change on the
interpolant, by the Brent-Dekker routine the orbit search also uses, from
the residual's values at the step's ends; the state of a located event is
the interpolant's at the located time, so locating costs no field
evaluation beyond the interpolant's.  A located x-rest is then moved to
the rest itself by one first-order step (`_at_rest`, one field
evaluation), so that its vy, the shooting functional alpha, is read where
vx is 0.  Otherwise a run samples the ends of its accepted steps.

A run (`_Run`) steps only in its advance(), to its next stop: the first
event of any stop kind, whose state is the run's last sample; the events
the same step holds after it are not yet recorded.  `integrate` advances
a run once.  The orbit search advances it again, to reach the k-th
x-rest: the run emits the stop step's remaining events, appends that
step's end sample and drift, and steps on with the same step size,
controller state and first stage to the next stop.  So the run to the
(k+1)-th x-rest passes through the run to the k-th, bit for bit, and one
run gives both.  The orbit's closure check steps a run's arc backward on
that run's own steps (`_retrace`), which no error ratio accepts or
rejects; it locates nothing and builds no interpolant.

The problem is scale-invariant: lengths scale by a, velocities by a^-1/2
and durations by a^3/2 (README, "Units of the knobs").  So a run launched
at an energy level E < 0 reads its knobs in the units of the scale
a = -1/E, where E is -1, or of MAX_SCALE_RATIO times the launch's distance
from the nucleus when that is less (E near 0): the error norm's absolute floor,
`rel_tol` x FLOOR_RATIO, x a for positions and x a^-1/2 for velocities;
`t_limit`, H_FIRST, H_MIN and the event time tolerance x a^3/2;
COLLISION_DISTANCE x a.  An a^3/2 out of the floating-point range raises
DomainError, as does one so small that H_MIN x a^3/2 squares to a subnormal
(a = -1/E below about 6e-94): the kernel's h^2 terms lose bits there, so
runs drift from the scaling law while they still rest.  At E = 0, and in
`integrate`, whose states carry no energy level, a = 1.

The kernel integrates one field, the planar one: each stage evaluates its
acceleration in place, by the expressions of `dynamics.acceleration` in
their order and after its y <= 0 test, so that it gives that function's
values bit for bit, with no call and no (ax, ay) pair.  A run calls
`dynamics.acceleration` once, for its launch's first stage, and looks up
`dynamics.energy_vec`, which gives the run's drift, at its start.  The
tableau loop in `tests/conftest.py` is the reference step for any other
field.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from math import hypot

from . import dynamics
from .dynamics import State, Vec, _check_upper, _Record, _set
from .errors import DomainError, NoConvergence, StepUnderflow


class EventKind(str, enum.Enum):
    X_VELOCITY_ZERO = "XVelocityZero"
    MAGICAL_LINE_CROSS = "MagicalLineCross"
    COLLISION_PROXIMITY = "CollisionProximity"
    TIME_LIMIT = "TimeLimit"


# Smallest step size; a run that needs a smaller one raises StepUnderflow.
H_MIN = 1e-14
# First trial step of a run, read in E = -1 units as H_MIN is (see the
# module docstring).
H_FIRST = 0.1
# Distance from the collision line y = 0 at which a run stops with
# COLLISION_PROXIMITY, read in E = -1 units.  It needs no nucleus half: the
# nucleus lies on that line, so a state within the distance of it is within
# the distance of the line.
COLLISION_DISTANCE = 1e-6
# Largest scale of a run over its launch's distance from the nucleus (see
# the module docstring).
MAX_SCALE_RATIO = 100.0
# The error norm's absolute floor over `rel_tol`, in the run's units (see
# the module docstring), so that `rel_tol` alone sets a run's accuracy.
FLOOR_RATIO = 1e-2
# Order of the stepper's solution: a step's error grows as h^(ORDER + 1),
# so the step controller scales steps by powers of the error over ORDER.
ORDER = 8


class IntegratorSettings(_Record):
    """`rel_tol` sets the error norm, whose absolute floor follows it (see
    FLOOR_RATIO), and so every step; `t_limit` is in the units of the scale
    of a run launched at an energy level (see the module docstring)."""

    __slots__ = _fields = ("rel_tol", "t_limit")

    def __init__(self, rel_tol: float = 1e-10, t_limit: float = 100.0):
        _set(self, "rel_tol", rel_tol)
        _set(self, "t_limit", t_limit)
        for name in self._fields:
            if not (0.0 < getattr(self, name) < math.inf):
                raise DomainError(f"{name} must be finite and positive")


class Event(_Record):
    __slots__ = _fields = ("kind", "t", "state")

    def __init__(self, kind: EventKind, t: float, state: State):
        _set(self, "kind", kind)
        _set(self, "t", t)
        _set(self, "state", state)


class Trajectory(_Record):
    """A run as records: its samples and events as `State`s, in time
    order, its largest relative energy drift over its own states (the step
    ends and the stop; requested samples add none) and the kind of event
    that ended it.  Only the functions that return one build it; the checks
    in `analysis` read the runs themselves."""

    __slots__ = _fields = ("samples", "events", "max_energy_drift",
                           "termination")

    def __init__(self, samples: tuple[State, ...], events: tuple[Event, ...],
                 max_energy_drift: float, termination: EventKind):
        _set(self, "samples", samples)
        _set(self, "events", events)
        _set(self, "max_energy_drift", max_energy_drift)
        _set(self, "termination", termination)


# The Dormand-Prince 8(5,3) pair DOP853 (Prince & Dormand 1981; Hairer,
# Norsett & Wanner, Solving ODEs I, II.5 and II.10) in Nystrom form.  The
# two kernels below hold its coefficients in place, as float literals, so
# that each is a constant of the code and not a global lookup: the
# published decimal tableau (c, b, the error weights E5 and E3, and the rows
# D4 to D7 of the continuous extension) and its exact products: A.A for the
# stage positions, b.A for the eighth-order position, E5.A and E3.A for the
# position errors, and D.A for the interpolant's positions.  Stage 13 is
# FSAL: its input is the eighth-order state, as b is row 13 of A; stages 14
# to 16 are the interpolant's own.  Zero entries are left out: stage 2's
# position has no acceleration term, stage 2 is read only by the positions
# of stages 4 and 5, stages 2 and 3 by no weight but A.A's, and the
# products that the 30-digit decimals leave below 1e-25 (up to 3e-26: exact
# zeros of the rational tableau, as sum(E5), sum(E3) and the sum of each D
# row are) are zeros.  Each literal is the product computed exactly from
# the decimals and rounded once, and a negative weight after the first is
# written as a subtraction; the tests read every literal from the kernels'
# source and derive it from the tableau (in `fractions`, which the package
# does not import, for start-up time).
#
# Each stage of the kernel evaluates the planar field at its position
# (x, q) in place, as dynamics.acceleration(x, q) does: DomainError where
# q <= 0 (raised by dynamics._check_upper), then r = hypot(x, q), r^3, ay
# and ax by that function's expressions.  `hypot` is read from this
# module's namespace once per evaluation, so wrapping it counts them.


def _trial(y: Vec, h: float, f1x: float, f1y: float, abs_q: float,
           abs_v: float, rel_tol: float):
    """One trial step of size h from y = (x, v), whose first stage (f1x,
    f1y), the acceleration at x, is already known: (y8, ks, ratio), y8
    being the eighth-order state, ks the stages' accelerations (f1x, f1y,
    ..., f13x, f13y), stage 13 the FSAL stage (the acceleration at y8), and
    ratio Hairer's combined error norm r5^2 / sqrt(r5^2 + 0.01 * r3^2)
    (Solving ODEs I, II.10) in the max norm: r5 and r3 are the largest
    |error| / (floor + rel_tol * max(|y|, |y8|)) over the components of
    the E5 and E3 errors, the floor being abs_q for the positions and abs_v
    for the velocities.  It is computed as r5 / sqrt(1 + 0.01 *
    (r3/r5)^2), which does not overflow where r5^2 would, and is 0 where
    r5 is.

    Stage i is the acceleration at x + c_i*h*v + h^2 * sum_m (A.A)_im k_m;
    the eighth-order state is (x + h*v + h^2 * sum_m (b.A)_m k_m,
    v + h * sum_m b_m k_m).  A position error is h^2 * sum_m (E.A)_m k_m
    (sum E = 0, so no velocity term), a velocity error h * sum_m E_m k_m.
    The sums run left to right.  A step with a non-finite error, y8
    component or FSAL stage has ratio inf.
    """
    y0, y1, y2, y3 = y
    p0, p1, hh = h * y2, h * y3, h * h
    x = y0 + 0.05260015195876773 * p0
    q = y1 + 0.05260015195876773 * p1
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f2y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f2x = -8.0 * x / r
    x = y0 + 0.0789002279381516 * p0 + hh * (0.003112622984346139 * f1x)
    q = y1 + 0.0789002279381516 * p1 + hh * (0.003112622984346139 * f1y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f3y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f3x = -8.0 * x / r
    x = y0 + 0.1183503419072274 * p0 + hh * (
        0.0017508504286947032 * f1x + 0.00525255128608411 * f2x)
    q = y1 + 0.1183503419072274 * p1 + hh * (
        0.0017508504286947032 * f1y + 0.00525255128608411 * f2y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f4y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f4x = -8.0 * x / r
    x = y0 + 0.2816496580927726 * p0 + hh * (
        0.009915816237971964 * f1x - 0.05234336665618131 * f2x
        + 0.0820908153700972 * f3x)
    q = y1 + 0.2816496580927726 * p1 + hh * (
        0.009915816237971964 * f1y - 0.05234336665618131 * f2y
        + 0.0820908153700972 * f3y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f5y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f5x = -8.0 * x / r
    x = y0 + 0.3333333333333333 * p0 + hh * (
        0.035337931304886355 * f1x - 0.09581915952175495 * f3x
        + 0.11603678377242416 * f4x)
    q = y1 + 0.3333333333333333 * p1 + hh * (
        0.035337931304886355 * f1y - 0.09581915952175495 * f3y
        + 0.11603678377242416 * f4y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f6y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f6x = -8.0 * x / r
    x = y0 + 0.25 * p0 + hh * (
        0.018920483189113914 * f1x - 0.03815245266364541 * f3x
        + 0.05268745617004205 * f4x - 0.0022054866955105506 * f5x)
    q = y1 + 0.25 * p1 + hh * (
        0.018920483189113914 * f1y - 0.03815245266364541 * f3y
        + 0.05268745617004205 * f4y - 0.0022054866955105506 * f5y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f7y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f7x = -8.0 * x / r
    x = y0 + 0.3076923076923077 * p0 + hh * (
        0.03067021189623757 * f1x - 0.07975482628537983 * f3x
        + 0.09799120567724122 * f4x - 0.0014238754814449106 * f5x
        - 0.00014543770014516837 * f6x)
    q = y1 + 0.3076923076923077 * p1 + hh * (
        0.03067021189623757 * f1y - 0.07975482628537983 * f3y
        + 0.09799120567724122 * f4y - 0.0014238754814449106 * f5y
        - 0.00014543770014516837 * f6y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f8y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f8x = -8.0 * x / r
    x = y0 + 0.6512820512820513 * p0 + hh * (
        -0.15229089727622042 * f1x + 0.46966087733519885 * f3x
        - 0.0681414047027942 * f4x + 0.010711857531715373 * f5x
        + 0.3119698547460421 * f6x - 0.3598261324728635 * f7x)
    q = y1 + 0.6512820512820513 * p1 + hh * (
        -0.15229089727622042 * f1y + 0.46966087733519885 * f3y
        - 0.0681414047027942 * f4y + 0.010711857531715373 * f5y
        + 0.3119698547460421 * f6y - 0.3598261324728635 * f7y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f9y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f9x = -8.0 * x / r
    x = y0 + 0.6 * p0 + hh * (
        -0.11020716722377502 * f1x + 0.30128953154727944 * f3x
        + 0.07865735349516378 * f4x + 0.030838873981239478 * f5x
        - 0.319604147551303 * f6x - 0.6851760518136165 * f7x
        + 0.8842016075650119 * f8x)
    q = y1 + 0.6 * p1 + hh * (
        -0.11020716722377502 * f1y + 0.30128953154727944 * f3y
        + 0.07865735349516378 * f4y + 0.030838873981239478 * f5y
        - 0.319604147551303 * f6y - 0.6851760518136165 * f7y
        + 0.8842016075650119 * f8y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f10y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f10x = -8.0 * x / r
    x = y0 + 0.8571428571428571 * p0 + hh * (
        0.3721894995071434 * f1x - 0.5050736261155677 * f3x
        - 0.46149874648558276 * f4x - 0.06518509348541916 * f5x
        + 4.09803840386656 * f6x + 3.8922102844072395 * f7x
        - 7.025278165955343 * f8x + 0.06194438303648046 * f9x)
    q = y1 + 0.8571428571428571 * p1 + hh * (
        0.3721894995071434 * f1y - 0.5050736261155677 * f3y
        - 0.46149874648558276 * f4y - 0.06518509348541916 * f5y
        + 4.09803840386656 * f6y + 3.8922102844072395 * f7y
        - 7.025278165955343 * f8y + 0.06194438303648046 * f9y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f11y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f11x = -8.0 * x / r
    x = y0 + p0 + hh * (
        -0.7650750098382328 * f1x + 0.8347994820739503 * f3x
        + 1.755944144193115 * f4x + 0.23253698859550603 * f5x
        + 11.90371935788187 * f6x - 1.9034949405460306 * f7x
        - 10.951226401858388 * f8x + 1.3530625395360725 * f9x
        - 1.960266160037863 * f10x)
    q = y1 + p1 + hh * (
        -0.7650750098382328 * f1y + 0.8347994820739503 * f3y
        + 1.755944144193115 * f4y + 0.23253698859550603 * f5y
        + 11.90371935788187 * f6y - 1.9034949405460306 * f7y
        - 10.951226401858388 * f8y + 1.3530625395360725 * f9y
        - 1.960266160037863 * f10y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f12y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f12x = -8.0 * x / r
    z0 = y0 + p0 + hh * (
        0.054293734116568765 * f1x + 2.9668752618349394 * f6x
        + 1.4186384244858752 * f7x - 4.016218126161174 * f8x
        + 0.10850859975965002 * f9x - 0.06086437986500643 * f10x
        + 0.028766485829147193 * f11x)
    z1 = y1 + p1 + hh * (
        0.054293734116568765 * f1y + 2.9668752618349394 * f6y
        + 1.4186384244858752 * f7y - 4.016218126161174 * f8y
        + 0.10850859975965002 * f9y - 0.06086437986500643 * f10y
        + 0.028766485829147193 * f11y)
    z2 = y2 + h * (
        0.054293734116568765 * f1x + 4.450312892752409 * f6x
        + 1.8915178993145003 * f7x - 5.801203960010585 * f8x
        + 0.3111643669578199 * f9x - 0.1521609496625161 * f10x
        + 0.20136540080403034 * f11x + 0.04471061572777259 * f12x)
    z3 = y3 + h * (
        0.054293734116568765 * f1y + 4.450312892752409 * f6y
        + 1.8915178993145003 * f7y - 5.801203960010585 * f8y
        + 0.3111643669578199 * f9y - 0.1521609496625161 * f10y
        + 0.20136540080403034 * f11y + 0.04471061572777259 * f12y)
    y8 = (z0, z1, z2, z3)
    if z1 <= 0.0:
        _check_upper(z1)
    r = hypot(z0, z1)
    r = r * r * r
    f13y = (1.0 - 8.0 * (z1 * z1 * z1) / r) / (z1 * z1)
    f13x = -8.0 * z0 / r
    ks = (f1x, f1y, f2x, f2y, f3x, f3y, f4x, f4y, f5x, f5y, f6x, f6y, f7x,
          f7y, f8x, f8y, f9x, f9y, f10x, f10y, f11x, f11y, f12x, f12y, f13x,
          f13y)
    e5_0 = hh * (
        -0.18865188001798797 * f1x + 0.9962151331241325 * f4x
        + 0.23599761577747436 * f5x - 2.854630682350911 * f6x
        - 4.0828088279337065 * f7x + 6.038341535948958 * f8x
        + 0.39584534789657555 * f9x - 0.5259249995299615 * f10x
        - 0.014383242914573597 * f11x)
    e5_1 = hh * (
        -0.18865188001798797 * f1y + 0.9962151331241325 * f4y
        + 0.23599761577747436 * f5y - 2.854630682350911 * f6y
        - 4.0828088279337065 * f7y + 6.038341535948958 * f8y
        + 0.39584534789657555 * f9y - 0.5259249995299615 * f10y
        - 0.014383242914573597 * f11y)
    e5_2 = h * (
        0.01312004499419488 * f1x - 1.2251564463762044 * f6x
        - 0.4957589496572502 * f7x + 1.6643771824549864 * f8x
        - 0.35032884874997366 * f9x + 0.3341791187130175 * f10x
        + 0.08192320648511571 * f11x - 0.022355307863886294 * f12x)
    e5_3 = h * (
        0.01312004499419488 * f1y - 1.2251564463762044 * f6y
        - 0.4957589496572502 * f7y + 1.6643771824549864 * f8y
        - 0.35032884874997366 * f9y + 0.3341791187130175 * f10y
        + 0.08192320648511571 * f11y - 0.022355307863886294 * f12y)
    e3_0 = hh * (
        -0.4538545734291735 * f1x + 2.6987585022618616 * f4x
        + 0.6812767760191379 * f5x - 16.885342816594818 * f6x
        - 13.987876814514605 * f7x + 27.96175549233409 * f8x
        + 0.3042333850581198 * f9x - 0.3335239499192925 * f10x
        + 0.01457399878468182 * f11x)
    e3_1 = hh * (
        -0.4538545734291735 * f1y + 2.6987585022618616 * f4y
        + 0.6812767760191379 * f5y - 16.885342816594818 * f6y
        - 13.987876814514605 * f7y + 27.96175549233409 * f8y
        + 0.3042333850581198 * f9y - 0.3335239499192925 * f10y
        + 0.01457399878468182 * f11y)
    e3_2 = h * (
        -0.18980075407240762 * f1x + 4.450312892752409 * f6x
        + 1.8915178993145003 * f7x - 5.801203960010585 * f8x
        - 0.42268232132379197 * f9x - 0.1521609496625161 * f10x
        + 0.20136540080403034 * f11x + 0.022651792198360825 * f12x)
    e3_3 = h * (
        -0.18980075407240762 * f1y + 4.450312892752409 * f6y
        + 1.8915178993145003 * f7y - 5.801203960010585 * f8y
        - 0.42268232132379197 * f9y - 0.1521609496625161 * f10y
        + 0.20136540080403034 * f11y + 0.022651792198360825 * f12y)
    # |e| and |y8| by comparison, not abs(); nan fails every comparison, so
    # it stays nan, and then fails `< inf` as inf does.  z1 needs no flip:
    # the FSAL stage has raised on z1 <= 0; nor does y1 below, as a run
    # steps only from states with y > 0
    if e5_0 < 0.0:
        e5_0 = -e5_0
    if e5_1 < 0.0:
        e5_1 = -e5_1
    if e5_2 < 0.0:
        e5_2 = -e5_2
    if e5_3 < 0.0:
        e5_3 = -e5_3
    if e3_0 < 0.0:
        e3_0 = -e3_0
    if e3_1 < 0.0:
        e3_1 = -e3_1
    if e3_2 < 0.0:
        e3_2 = -e3_2
    if e3_3 < 0.0:
        e3_3 = -e3_3
    if z0 < 0.0:
        z0 = -z0
    if z2 < 0.0:
        z2 = -z2
    if z3 < 0.0:
        z3 = -z3
    inf = math.inf
    if not (e5_0 < inf and e5_1 < inf and e5_2 < inf and e5_3 < inf
            and e3_0 < inf and e3_1 < inf and e3_2 < inf and e3_3 < inf
            and z0 < inf and z1 < inf and z2 < inf and z3 < inf
            and -inf < f13x < inf and -inf < f13y < inf):
        return y8, ks, inf
    # the largest quotients, each component's scale shared by both
    if y0 < 0.0:
        y0 = -y0
    s = abs_q + rel_tol * (z0 if z0 > y0 else y0)
    r5 = e5_0 / s
    r3 = e3_0 / s
    s = abs_q + rel_tol * (z1 if z1 > y1 else y1)
    q = e5_1 / s
    if q > r5:
        r5 = q
    q = e3_1 / s
    if q > r3:
        r3 = q
    if y2 < 0.0:
        y2 = -y2
    s = abs_v + rel_tol * (z2 if z2 > y2 else y2)
    q = e5_2 / s
    if q > r5:
        r5 = q
    q = e3_2 / s
    if q > r3:
        r3 = q
    if y3 < 0.0:
        y3 = -y3
    s = abs_v + rel_tol * (z3 if z3 > y3 else y3)
    q = e5_3 / s
    if q > r5:
        r5 = q
    q = e3_3 / s
    if q > r3:
        r3 = q
    if not r5 > 0.0:
        return y8, ks, 0.0
    q = r3 / r5
    return y8, ks, r5 / math.sqrt(1.0 + 0.01 * (q * q))


def _dense_output(y: Vec, y8: Vec, ks, h: float) -> Callable[[float], Vec]:
    """The continuous extension of the step of size h from y to y8 with
    stage accelerations ks = (f1x, f1y, ..., f13x, f13y) (DOP853's CONTD8,
    Solving ODEs I, II.10):
    tau in [0, h] -> the seventh-order state at the step's start time +
    tau, y + s*(dy + s1*(b + s*(c + s1*(d4 + s*(d5 + s1*(d6 + s*d7))))))
    with s = tau/h and s1 = 1 - s: the state of each requested sample and
    located event in the step.  It evaluates the field at its own stages 14
    to 16.  dy, b and c are the cubic Hermite terms of the step's ends; a
    velocity's d_n is h * sum_m Dn_m k_m, a position's h^2 * sum_m
    (Dn.A)_m k_m (the sum of each D row is 0, so no velocity term)."""
    (f1x, f1y, _, _, _, _, _, _, _, _, f6x, f6y, f7x, f7y, f8x, f8y, f9x, f9y,
     f10x, f10y, f11x, f11y, f12x, f12y, f13x, f13y) = ks
    y0, y1, v0, v1 = y
    z0, z1, w0, w1 = y8
    p0, p1, hh = h * v0, h * v1, h * h
    x = y0 + 0.1 * p0 + hh * (
        0.005054351963776225 * f1x - 0.41267006753617186 * f6x
        - 0.11888400830261149 * f7x + 0.511250400071805 * f8x
        - 0.05239733207549386 * f9x + 0.06981946420649213 * f10x
        + 0.0031982003615129264 * f11x - 0.000371008689309057 * f12x)
    q = y1 + 0.1 * p1 + hh * (
        0.005054351963776225 * f1y - 0.41267006753617186 * f6y
        - 0.11888400830261149 * f7y + 0.511250400071805 * f8y
        - 0.05239733207549386 * f9y + 0.06981946420649213 * f10y
        + 0.0031982003615129264 * f11y - 0.000371008689309057 * f12y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f14y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f14x = -8.0 * x / r
    x = y0 + 0.2 * p0 + hh * (
        0.009887781381457055 * f1x - 0.007602503134799441 * f6x
        + 0.04742334588757416 * f7x - 0.03637906592918709 * f8x
        - 0.021320408140087014 * f9x + 0.026772748548590856 * f10x
        + 0.0013364963323445063 * f11x + 0.001054215711719072 * f12x
        - 0.0011726106576121006 * f13x)
    q = y1 + 0.2 * p1 + hh * (
        0.009887781381457055 * f1y - 0.007602503134799441 * f6y
        + 0.04742334588757416 * f7y - 0.03637906592918709 * f8y
        - 0.021320408140087014 * f9y + 0.026772748548590856 * f10y
        + 0.0013364963323445063 * f11y + 0.001054215711719072 * f12y
        - 0.0011726106576121006 * f13y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f15y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f15x = -8.0 * x / r
    x = y0 + 0.7777777777777778 * p0 + hh * (
        0.3588663399722558 * f1x + 9.38025080291835 * f6x
        + 7.477758624830405 * f7x - 15.729096304440624 * f8x
        - 0.3664913832247408 * f9x + 0.4520427193280568 * f10x
        + 0.024882489771726926 * f11x + 0.018743046880517162 * f12x
        - 0.02134289656466091 * f13x - 1.293144303668819 * f14x)
    q = y1 + 0.7777777777777778 * p1 + hh * (
        0.3588663399722558 * f1y + 9.38025080291835 * f6y
        + 7.477758624830405 * f7y - 15.729096304440624 * f8y
        - 0.3664913832247408 * f9y + 0.4520427193280568 * f10y
        + 0.024882489771726926 * f11y + 0.018743046880517162 * f12y
        - 0.02134289656466091 * f13y - 1.293144303668819 * f14y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f16y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f16x = -8.0 * x / r
    d4_0 = hh * (
        2.8611698796830125 * f1x + 30.51215583852884 * f6x
        - 24.61264508865549 * f7x - 35.41960917471137 * f8x
        - 3.863458628138401 * f9x + 3.7761446592257837 * f10x
        + 0.5382666867527854 * f11x + 0.12984961919289312 * f12x
        - 0.14125972611089993 * f13x - 14.374598829726839 * f14x
        + 40.59398476395968 * f15x)
    d4_1 = hh * (
        2.8611698796830125 * f1y + 30.51215583852884 * f6y
        - 24.61264508865549 * f7y - 35.41960917471137 * f8y
        - 3.863458628138401 * f9y + 3.7761446592257837 * f10y
        + 0.5382666867527854 * f11y + 0.12984961919289312 * f12y
        - 0.14125972611089993 * f13y - 14.374598829726839 * f14y
        + 40.59398476395968 * f15y)
    d4_2 = h * (
        -8.428938276109013 * f1x + 0.5667149535193777 * f6x
        - 3.0689499459498917 * f7x + 2.38466765651207 * f8x
        + 2.117034582445028 * f9x - 0.871391583777973 * f10x
        + 2.2404374302607883 * f11x + 0.6315787787694688 * f12x
        - 0.08899033645133331 * f13x + 18.148505520854727 * f14x
        - 9.194632392478356 * f15x - 4.436036387594894 * f16x)
    d4_3 = h * (
        -8.428938276109013 * f1y + 0.5667149535193777 * f6y
        - 3.0689499459498917 * f7y + 2.38466765651207 * f8y
        + 2.117034582445028 * f9y - 0.871391583777973 * f10y
        + 2.2404374302607883 * f11y + 0.6315787787694688 * f12y
        - 0.08899033645133331 * f13y + 18.148505520854727 * f14y
        - 9.194632392478356 * f15y - 4.436036387594894 * f16y)
    d5_0 = hh * (
        -17.921210306702967 * f1x - 124.2260787072285 * f6x
        + 273.13795938281214 * f7x + 96.31318087284055 * f8x
        + 27.684870153300384 * f9x - 29.05563647508469 * f10x
        - 3.0977069495595075 * f11x + 0.4625952063992359 * f12x
        + 0.21147048462990323 * f13x + 104.24898538523482 * f14x
        - 327.75842904664137 * f15x)
    d5_1 = hh * (
        -17.921210306702967 * f1y - 124.2260787072285 * f6y
        + 273.13795938281214 * f7y + 96.31318087284055 * f8y
        + 27.684870153300384 * f9y - 29.05563647508469 * f10y
        - 3.0977069495595075 * f11y + 0.4625952063992359 * f12y
        + 0.21147048462990323 * f13y + 104.24898538523482 * f14y
        - 327.75842904664137 * f15y)
    d5_2 = h * (
        10.427508642579134 * f1x + 242.28349177525817 * f6x
        + 165.20045171727028 * f7x - 374.5467547226902 * f8x
        - 22.113666853125306 * f9x + 7.733432668472264 * f10x
        - 30.674084731089398 * f11x - 9.332130526430229 * f12x
        + 15.697238121770845 * f13x - 31.139403219565178 * f14x
        - 9.35292435884448 * f15x + 35.81684148639408 * f16x)
    d5_3 = h * (
        10.427508642579134 * f1y + 242.28349177525817 * f6y
        + 165.20045171727028 * f7y - 374.5467547226902 * f8y
        - 22.113666853125306 * f9y + 7.733432668472264 * f10y
        - 30.674084731089398 * f11y - 9.332130526430229 * f12y
        + 15.697238121770845 * f13y - 31.139403219565178 * f14y
        - 9.35292435884448 * f15y + 35.81684148639408 * f16y)
    d6_0 = hh * (
        -8.999411590110814 * f1x - 250.14465065648488 * f6x
        - 7.345168174338206 * f7x + 324.4120585596325 * f8x
        + 1.3538496519789445 * f9x + 3.8566662410202324 * f10x
        - 0.5618712467427652 * f11x - 0.5475191693050367 * f12x
        + 0.45402652434053137 * f13x + 47.262978033508965 * f14x
        - 109.74095817349945 * f15x)
    d6_1 = hh * (
        -8.999411590110814 * f1y - 250.14465065648488 * f6y
        - 7.345168174338206 * f7y + 324.4120585596325 * f8y
        + 1.3538496519789445 * f9y + 3.8566662410202324 * f10y
        - 0.5618712467427652 * f11y - 0.5475191693050367 * f12y
        + 0.45402652434053137 * f13y + 47.262978033508965 * f14y
        - 109.74095817349945 * f15y)
    d6_2 = h * (
        19.985053242002433 * f1x - 387.0373087493518 * f6x
        - 189.17813819516758 * f7x + 527.8081592054236 * f8x
        - 11.57390253995963 * f9x + 6.8812326946963 * f10x
        - 1.0006050966910838 * f11x + 0.7777137798053443 * f12x
        - 2.778205752353508 * f13x - 60.19669523126412 * f14x
        + 84.32040550667716 * f15x + 11.99229113618279 * f16x)
    d6_3 = h * (
        19.985053242002433 * f1y - 387.0373087493518 * f6y
        - 189.17813819516758 * f7y + 527.8081592054236 * f8y
        - 11.57390253995963 * f9y + 6.8812326946963 * f10y
        - 1.0006050966910838 * f11y + 0.7777137798053443 * f12y
        - 2.778205752353508 * f13y - 60.19669523126412 * f14y
        + 84.32040550667716 * f15y + 11.99229113618279 * f16y)
    d7_0 = hh * (
        75.66260800528795 * f1x + 904.821881520238 * f6x
        - 991.2456491432964 * f7x - 911.6644928639352 * f8x
        - 83.34399475607842 * f9x + 73.06569397631904 * f10x
        + 11.227103851084003 * f11x - 1.2324213700720028 * f12x
        - 0.5764911999188784 * f13x - 446.85829878732994 * f14x
        + 1370.1440607677016 * f15x)
    d7_1 = hh * (
        75.66260800528795 * f1y + 904.821881520238 * f6y
        - 991.2456491432964 * f7y - 911.6644928639352 * f8y
        - 83.34399475607842 * f9y + 73.06569397631904 * f10y
        + 11.227103851084003 * f11y - 1.2324213700720028 * f12y
        - 0.5764911999188784 * f13y - 446.85829878732994 * f14y
        + 1370.1440607677016 * f15y)
    d7_2 = h * (
        -25.69393346270375 * f1x - 154.18974869023643 * f6x
        - 231.5293791760455 * f7x + 357.6391179106141 * f8x
        + 93.40532418362432 * f9x - 37.45832313645163 * f10x
        + 104.0996495089623 * f11x + 29.8402934266605 * f12x
        - 43.53345659001114 * f13x + 96.32455395918828 * f14x
        - 39.17726167561544 * f15x - 149.72683625798564 * f16x)
    d7_3 = h * (
        -25.69393346270375 * f1y - 154.18974869023643 * f6y
        - 231.5293791760455 * f7y + 357.6391179106141 * f8y
        + 93.40532418362432 * f9y - 37.45832313645163 * f10y
        + 104.0996495089623 * f11y + 29.8402934266605 * f12y
        - 43.53345659001114 * f13y + 96.32455395918828 * f14y
        - 39.17726167561544 * f15y - 149.72683625798564 * f16y)
    dy_0, dy_1, dy_2, dy_3 = z0 - y0, z1 - y1, w0 - v0, w1 - v1
    b_0, b_1, b_2, b_3 = p0 - dy_0, p1 - dy_1, h * f1x - dy_2, h * f1y - dy_3
    c_0, c_1 = dy_0 - h * w0 - b_0, dy_1 - h * w1 - b_1
    c_2, c_3 = dy_2 - h * f13x - b_2, dy_3 - h * f13y - b_3

    def at(tau: float) -> Vec:
        s = tau / h
        s1 = 1.0 - s
        return (
            y0 + s * (dy_0 + s1 * (b_0 + s * (c_0 + s1 * (d4_0 + s * (
                d5_0 + s1 * (d6_0 + s * d7_0)))))),
            y1 + s * (dy_1 + s1 * (b_1 + s * (c_1 + s1 * (d4_1 + s * (
                d5_1 + s1 * (d6_1 + s * d7_1)))))),
            v0 + s * (dy_2 + s1 * (b_2 + s * (c_2 + s1 * (d4_2 + s * (
                d5_2 + s1 * (d6_2 + s * d7_2)))))),
            v1 + s * (dy_3 + s1 * (b_3 + s * (c_3 + s1 * (d4_3 + s * (
                d5_3 + s1 * (d6_3 + s * d7_3)))))),
        )

    return at


def _brent(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
    f_tol: float, x_tol: float, max_iter: int,
) -> tuple[float, float, float]:
    """Brent-Dekker root finding (Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4) between a and b, whose values fa and fb are
    given and differ in sign: inverse quadratic interpolation or secant
    steps, with bisection whenever they would not shrink the bracket fast
    enough.

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
        if abs(fb) <= f_tol:
            return b, fb, c
    raise NoConvergence(
        f"|residual| > {f_tol} after {max_iter} iterations on [{lo}, {hi}]"
    )


def _locate(
    f, at, t0: float, h: float, r0: float, r1: float, event_tol: float,
) -> tuple[float, Vec]:
    """The time and state of the sign change of residual f over the step of
    size h from t0, f being r0 at its start and r1, of the opposite sign
    and nonzero, at its end.  `_brent` locates it on the step's interpolant
    `at`, to the midpoint of a bracket within event_tol (or to a probe
    where f is 0); r1 is the residual of the eighth-order state, not of
    at(h), which can round away from it.  Its budget is n^2, n bounding the
    probes in which bisection would halve the step to event_tol (Brent
    1973, ch. 4), read off their exponents so that no quotient overflows.
    The located state is the interpolant's at the located time t, read at
    t - t0 as a requested sample is; no stage has checked it, so it raises
    DomainError off the half plane y > 0."""
    n = math.frexp(h)[1] - math.frexp(event_tol)[1] + 3
    tau, r, other = _brent(lambda tau: f(at(tau)), 0.0, h, r0, r1, 0.0,
                           0.5 * event_tol, n * n)
    if r != 0.0:
        tau = 0.5 * (tau + other)
    t = t0 + tau
    y = at(t - t0)
    _check_upper(y[1])
    return t, y


def _at_rest(t: float, y: Vec) -> tuple[float, Vec]:
    """The located x-rest (t, y) moved to the rest by one first-order step
    of dt = -vx/ax, with a = (ax, ay) the field at y: (t + dt, (x + vx*dt
    + ax*dt^2/2, y + vy*dt + ay*dt^2/2, vx + ax*dt, vy + ay*dt)).  A
    located state lies up to event_tol/2 in time from the rest, so its vx
    is off zero, and its vy off alpha by (ay/ax)*vx, which is large near
    the collision line; after the step both errors are second order in
    vx/ax.  It costs one field evaluation; on the axis x = 0, where ax is
    0, dt is 0."""
    q0, q1, v0, v1 = y
    ax, ay = dynamics.acceleration(q0, q1)
    dt = -v0 / ax if ax else 0.0
    h = 0.5 * dt
    q1 += (v1 + h * ay) * dt
    _check_upper(q1)
    return t + dt, (q0 + (v0 + h * ax) * dt, q1, v0 + ax * dt, v1 + ay * dt)


class _Run:
    """One adaptive integration of the planar field from s0, launched at
    the energy level E (None: at none), made before its first step; it
    collects samples and events.  The run records the events of every kind
    in `watch` or `stop`, and stops at the first of any kind in `stop`, at
    the first collision proximity, and at the time limit.  advance() steps
    it to its next stop and writes the run's figures there: `samples` holds
    its (t, (x, y, vx, vy)) samples in time order, `events` its (kind, t,
    (x, y, vx, vy)) events, `drift` the largest relative energy drift of
    its own states (step ends and the stop) and `termination` the stop's
    kind; the checks in `analysis` read these, and `_build_trajectory`
    makes records of them.  Advanced past a stop event, the run goes on as
    though that event had not stopped it: only the orbit search does that,
    and its runs request no times.  The steps are `_steps`', which holds
    the lists but not the run, so a run is freed as soon as its last
    reference goes."""

    def __init__(
        self,
        s0: State,
        settings: IntegratorSettings,
        watch: Iterable[EventKind],
        stop: Iterable[EventKind],
        sample_times: Sequence[float],
        E: float | None = None,
    ):
        if isinstance(stop, Mapping):
            raise TypeError(
                f"stop takes event kinds, each ending the run at its first "
                f"event, not a mapping: {stop!r}"
            )
        self.samples: list[tuple[float, Vec]] = [
            (s0.t, (s0.x, s0.y, s0.vx, s0.vy))]
        self.events: list[tuple[EventKind, float, Vec]] = []
        self.drift = 0.0
        self.termination: EventKind | None = None
        stop = {*stop, EventKind.COLLISION_PROXIMITY}
        self._stops = _steps(settings, E, {*watch, *stop}, stop,
                             sample_times, self.samples, self.events)

    def advance(self) -> _Run:
        """The run stepped to its next stop, its `termination` and `drift`
        written there.  The time limit ends the run: it is not advanced
        again."""
        self.termination, self.drift = next(self._stops)
        return self


def _units(E: float | None, y: Vec, rel_tol: float,
           ) -> tuple[float, float, float, float]:
    """The units of a run launched from y at the level E (see the module
    docstring): (a, a^3/2, abs_q, abs_v), its scale, its unit of time and
    the error norm's absolute floors for positions and velocities."""
    a = (min(-1.0 / E, MAX_SCALE_RATIO * math.hypot(y[0], y[1])) if E
         else 1.0)
    sqrt_a = math.sqrt(a)
    floor = rel_tol * FLOOR_RATIO
    return a, a * sqrt_a, floor * a, floor / sqrt_a


def _steps(settings: IntegratorSettings, E: float | None,
           watch: set[EventKind], stop: set[EventKind],
           sample_times: Sequence[float],
           samples: list[tuple[float, Vec]],
           events: list[tuple[EventKind, float, Vec]],
           ) -> Iterator[tuple[EventKind, float]]:
    """The step loop of a run (see `_Run`) launched from samples[0] at the
    level E: it appends to `samples` and `events`, and yields (kind,
    drift) at each stop, the time limit last.  Resumed after a stop event,
    it drops that stop's sample and goes on to its next stop.  A step that
    ends within H_MIN of the time limit ends at it.

    The knobs, in the units of the run's scale, and the loop state live in
    locals.  A time unit out of range (see the module docstring) raises
    DomainError at the first step."""
    energy_fn = dynamics.energy_vec
    rest = EventKind.X_VELOCITY_ZERO
    t, y = samples[0]
    rel_tol = settings.rel_tol
    a, a15, abs_q, abs_v = _units(E, y, rel_tol)
    h_min, t_limit = H_MIN * a15, settings.t_limit * a15
    if not (h_min * h_min >= sys.float_info.min and t_limit < math.inf):
        raise DomainError(f"time unit {a15} out of range at E={E}")
    event_tol = min(1e-12, rel_tol) * a15
    distance = COLLISION_DISTANCE * a
    residuals = tuple((i, kind, f) for i, (kind, f) in enumerate(
        [(kind, f) for kind, f in _RESIDUALS.items() if kind in watch]
        + [(EventKind.COLLISION_PROXIMITY, lambda y: y[1] - distance)]))
    e0 = energy_fn(y)
    # drift is relative to the launch energy, but in the unit of energy
    # 1/a when the launch has less than half of it (at or near E = 0,
    # or far inside -1/E)
    e_unit = abs(e0) if abs(e0) * a > 0.5 else 1.0 / a
    # requested times still to come, latest first, so pop() is the next
    requests = sorted({s for s in sample_times if s > t}, reverse=True)

    def append_requests(t0, at, t_end):
        """Sample each requested time up to t_end from the interpolant `at`
        of the step from t0; the sample at t_end that ends the span answers
        a request at that time.  A requested sample adds nothing to the
        drift, which covers the run's own states."""
        while requests and requests[-1] <= t_end:
            t = requests.pop()
            if t == t_end:
                break
            samples.append((t, at(t - t0)))

    try:
        f1x, f1y = dynamics.acceleration(y[0], y[1])
    except ZeroDivisionError:  # r^3 or y^2 underflows to 0
        raise DomainError(
            f"launch at ({y[0]}, {y[1]}) too near the nucleus or the "
            f"collision line: the field there is out of the "
            f"floating-point range") from None
    res = [f(y) for _, _, f in residuals]
    h = H_FIRST * a15
    err_old = 1.0
    h_old = 0.0  # the last accepted step's size; 0 before the first
    # the rejection's and the PI controller's exponents (ibid., II.4), and
    # the predictive step's
    shrink_expo = -1.0 / ORDER
    expo_new, expo_old = -0.7 / ORDER, 0.4 / ORDER
    expo_pred = 1.0 / ORDER
    drift = 0.0
    while True:
        if t_limit - t < h_min:
            events.append((EventKind.TIME_LIMIT, t, y))
            yield EventKind.TIME_LIMIT, drift
            return
        # min() calls cost more than the comparison here
        if h > t_limit - t:
            h = t_limit - t
        if h < h_min:
            raise StepUnderflow(t, _vec_to_state(t, y))

        try:
            y8, ks, ratio = _trial(y, h, f1x, f1y, abs_q, abs_v, rel_tol)
        except DomainError:  # a stage left y > 0: the step is too long
            ratio = math.inf
        if not ratio <= 1.0:  # rejected, also when inf or nan
            h *= (max(0.1, 0.9 * ratio ** shrink_expo) if ratio < math.inf
                  else 0.2)
            continue

        # accepted
        t0, y0 = t, y
        t, y = t0 + h, y8
        if t_limit - t < h_min:
            t = t_limit
        # the interpolant is built only for a step that reads from it
        if requests and requests[-1] <= t:
            at = _dense_output(y0, y8, ks, h)
        else:
            at = None
        # events in (t0, t]: each residual's sign change, located on the
        # interpolant unless the residual is 0 at the step's end; `found`
        # is made only for a step that has one
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
                    at = _dense_output(y0, y8, ks, h)
                t_ev, y_ev = _locate(f, at, t0, h, r0, r1, event_tol)
                if kind is rest:
                    t_ev, y_ev = _at_rest(t_ev, y_ev)
                found.append((t_ev, y_ev, kind))
        if found is not None:
            if len(found) > 1:
                found.sort(key=lambda item: item[0])
            for t_ev, y_ev, kind in found:
                events.append((kind, t_ev, y_ev))
                if kind in stop:
                    if requests and requests[-1] <= t_ev:
                        append_requests(t0, at, t_ev)
                    samples.append((t_ev, y_ev))
                    d = energy_fn(y_ev) - e0
                    d = (-d if d < 0.0 else d) / e_unit
                    yield kind, d if d > drift else drift
                    # resumed: the stop's sample and drift go, and the run
                    # goes on to its next stop
                    samples.pop()

        if requests and requests[-1] <= t:
            append_requests(t0, at, t)
        samples.append((t, y))
        # |drift| by comparison, not abs()
        d = energy_fn(y) - e0
        d = (-d if d < 0.0 else d) / e_unit
        if d > drift:
            drift = d
        f1x, f1y = ks[24], ks[25]

        # PI controller (accepted step), and from the second accepted step
        # on the predictive step where it is smaller: it extrapolates the
        # error's growth over the last two steps, so it shrinks a step
        # before the error overshoots (Gustafsson 1994, ACM TOMS 20:496;
        # Solving ODEs II, IV.8)
        e = ratio if ratio >= 1e-10 else 1e-10
        fac = 0.9 * e ** expo_new * err_old ** expo_old
        if h_old:
            pred = 0.9 * (h / h_old) * (err_old / (e * e)) ** expo_pred
            if pred < fac:
                fac = pred
        h_old, err_old = h, e
        h *= 5.0 if fac >= 5.0 else 0.2 if fac <= 0.2 else fac


def _retrace(settings: IntegratorSettings, E: float, times: Sequence[float],
             y: Vec) -> Iterator[Vec]:
    """The arc of a run whose samples lie at `times` (its launch first),
    traced back from y, the state of its last sample with the velocities
    negated, on the run's own step mesh: one trial step per step of the
    run, their sizes the differences of `times` in reverse (the partial
    step to the last sample first), each step's first stage the FSAL stage
    of the one before.  It yields the eighth-order state at the end of each
    step, which lies at the mirror time of the sample before it: times[-2],
    then times[-3], down to the launch.  The knobs are those of a run
    launched from y at the level E (`_units`); no error ratio accepts or
    rejects a step, as the steps are the run's.  A stage that leaves the
    half plane y > 0 raises DomainError, as does a step whose state, FSAL
    stage or error estimate is not finite (its ratio is inf)."""
    rel_tol = settings.rel_tol
    _, _, abs_q, abs_v = _units(E, y, rel_tol)
    f1x, f1y = dynamics.acceleration(y[0], y[1])
    t = times[-1]
    for t0 in times[-2::-1]:
        y, ks, ratio = _trial(y, t - t0, f1x, f1y, abs_q, abs_v, rel_tol)
        if ratio == math.inf:
            raise DomainError(
                f"the backward step to the mirror of t={t0} is not finite")
        yield y
        f1x, f1y = ks[24], ks[25]
        t = t0


def _vec_to_state(t: float, y: Vec) -> State:
    """State(t=t, x=y[0], y=y[1], vx=y[2], vy=y[3])."""
    return State(t, *y)


def _magical_line_residual(y: Vec) -> float:
    """sqrt(3)*y - |x| of the state y, |x| by comparison: a signed
    distance surrogate for the line where the vertical force vanishes,
    positive above it (where y'' < 0).  Location probes are interpolated
    states, which nothing has checked, so it raises DomainError on
    y <= 0."""
    x, q = y[0], y[1]
    if q <= 0.0:
        _check_upper(q)
    return dynamics.SQRT3 * q - (-x if x < 0.0 else x)


# Defining residual of each locatable event kind, a function of the state
# alone: an event is a sign change of its residual.  Location probes read
# these on interpolated states (see _magical_line_residual).
_RESIDUALS: dict[EventKind, Callable[[Vec], float]] = {
    EventKind.X_VELOCITY_ZERO: lambda y: y[2],
    EventKind.MAGICAL_LINE_CROSS: _magical_line_residual,
}


def _magical_crossings(samples: Sequence[tuple[float, Vec]]) -> int:
    """The magical-line crossings between consecutive samples of a run:
    the sign changes of the line's residual, by the rule that `_steps`
    applies between step ends, so a residual of exactly 0 at a sample
    counts once."""
    f = _RESIDUALS[EventKind.MAGICAL_LINE_CROSS]
    n = 0
    r0 = f(samples[0][1])
    for _, y in samples[1:]:
        r1 = f(y)
        if (r0 > 0.0 and r1 <= 0.0) or (r0 < 0.0 and r1 >= 0.0):
            n += 1
        r0 = r1
    return n


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


def _integrate(s0: State, settings: IntegratorSettings, E: float | None,
               watch=(), stop=(), sample_times=()) -> Trajectory:
    """integrate() from s0, launched at the level E."""
    return _build_trajectory(
        _Run(s0, settings, watch, stop, sample_times, E).advance())


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
    included: a step that ends within H_MIN of it ends at it) adds one
    sample at exactly that time, read from the seventh-order dense output
    of the step that holds it, which costs that step three field
    evaluations; a sample already at that very time (a step's end or the
    final event) stands for it.  The steps, their end samples, the events
    and the drift are the same with or without requests: the drift, the
    largest relative energy error, covers the run's own states, its step
    ends and its stop, and no requested sample.  s0 carries no energy
    level, so the settings are read as given."""
    return _integrate(s0, settings, None, watch, stop, sample_times)
