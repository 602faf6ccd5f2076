"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is the Dormand-Prince 8(5,3) pair DOP853 (Prince & Dormand
1981; Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10) with PI
step-size control, written out by hand for the 4-component state
(x, v) = (x, y, vx, vy) of a second-order field x'' = f(x), in Nystrom form
(ibid., II.14): stage i is the acceleration f_i at the position
x + c_i*h*v + h^2 * sum_m (A.A)_im f_m, and no stage velocity is formed.
The eighth-order state, the two error estimates and the interpolant read
the same accelerations through the exact products of the tableau.  One
trial-step kernel computes the twelve stages, the FSAL stage and the error
norm that accepts or rejects the step, Hairer's combination of the fifth-
and third-order estimates; a step whose error, state or FSAL stage is not
finite, or whose stage leaves the half plane y > 0, is rejected, so the
step size shrinks until it underflows.  A run's first trial step is its
`h_max`: a rejection shrinks a step at once, where growth is at most
fivefold per step, so a run that started short would climb for several
steps.  Inside an accepted step, states come from the step's continuous
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
run gives both.

The problem is scale-invariant (`dynamics.scale_state`), so a run launched
at an energy level E < 0 reads its knobs in the units of the scale a = -1/E,
where E is -1, or of MAX_SCALE_RATIO times the launch's distance from the
nucleus when that is less (E near 0): the error norm's absolute floor,
`rel_tol` x FLOOR_RATIO, x a for positions and x a^-1/2 for velocities;
`h_max`, `t_limit`, H_MIN and the event time tolerance x a^3/2;
COLLISION_DISTANCE x a.  An a^3/2 out of the floating-point range raises
DomainError, as does one so small that H_MIN x a^3/2 squares to a
subnormal (a = -1/E below about 6e-94): the kernel's h^2 terms lose bits
there, so runs drift from the scaling law while they still rest.  At
E = 0, and in `integrate`, whose states carry no energy level, a = 1.

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
    FLOOR_RATIO); `h_max` and `t_limit` are in the units of the scale of a
    run launched at an energy level (see the module docstring)."""

    __slots__ = _fields = ("rel_tol", "h_max", "t_limit")

    def __init__(self, rel_tol: float = 1e-10, h_max: float = 0.1,
                 t_limit: float = 100.0):
        _set(self, "rel_tol", rel_tol)
        _set(self, "h_max", h_max)
        _set(self, "t_limit", t_limit)
        for name in self._fields:
            if not (0.0 < getattr(self, name) < math.inf):
                raise DomainError(f"{name} must be finite and positive")
        if not h_max > H_MIN:
            raise DomainError(f"h_max must exceed H_MIN = {H_MIN}")


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

    def first_event(self, kind: EventKind) -> Event | None:
        for ev in self.events:
            if ev.kind is kind:
                return ev
        return None


# The Dormand-Prince 8(5,3) pair DOP853 (Prince & Dormand 1981; Hairer,
# Norsett & Wanner, Solving ODEs I, II.5 and II.10) in Nystrom form.  Its
# coefficients are the published decimal tableau (c, b, the error weights
# E5 and E3, and the rows D4 to D7 of the continuous extension) and its
# exact products: A.A for the stage positions, b.A for the eighth-order
# position, E5.A and E3.A for the position errors, and D.A for the
# interpolant's positions.  Stage 13 is FSAL: its input is the eighth-order
# state, as b is row 13 of A; stages 14 to 16 are the interpolant's own.
# Zero entries are left out: stage 2's position has no acceleration term,
# stage 2 is read only by the positions of stages 4 and 5, stages 2 and 3
# by no weight but A.A's, and the products that the 30-digit decimals leave
# below 1e-25 (up to 3e-26: exact zeros of the rational tableau, as sum(E5),
# sum(E3) and the sum of each D row are) are zeros.  Each literal is the
# product computed exactly from the decimals and rounded once; the tests
# derive every one from the tableau (in `fractions`, which the package does
# not import, for start-up time).
(_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C14, _C15, _C16) = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 0.1, 0.2, 0.7777777777777778)
_AA3_1 = 0.003112622984346139
(_AA4_1, _AA4_2) = (
    0.0017508504286947032, 0.00525255128608411)
(_AA5_1, _AA5_2, _AA5_3) = (
    0.009915816237971964, -0.05234336665618131, 0.0820908153700972)
(_AA6_1, _AA6_3, _AA6_4) = (
    0.035337931304886355, -0.09581915952175495, 0.11603678377242416)
(_AA7_1, _AA7_3, _AA7_4, _AA7_5) = (
    0.018920483189113914, -0.03815245266364541, 0.05268745617004205,
    -0.0022054866955105506)
(_AA8_1, _AA8_3, _AA8_4, _AA8_5, _AA8_6) = (
    0.03067021189623757, -0.07975482628537983, 0.09799120567724122,
    -0.0014238754814449106, -0.00014543770014516837)
(_AA9_1, _AA9_3, _AA9_4, _AA9_5, _AA9_6, _AA9_7) = (
    -0.15229089727622042, 0.46966087733519885, -0.0681414047027942,
    0.010711857531715373, 0.3119698547460421, -0.3598261324728635)
(_AA10_1, _AA10_3, _AA10_4, _AA10_5, _AA10_6, _AA10_7, _AA10_8) = (
    -0.11020716722377502, 0.30128953154727944, 0.07865735349516378,
    0.030838873981239478, -0.319604147551303, -0.6851760518136165,
    0.8842016075650119)
(_AA11_1, _AA11_3, _AA11_4, _AA11_5, _AA11_6, _AA11_7, _AA11_8, _AA11_9) = (
    0.3721894995071434, -0.5050736261155677, -0.46149874648558276,
    -0.06518509348541916, 4.09803840386656, 3.8922102844072395,
    -7.025278165955343, 0.06194438303648046)
(_AA12_1, _AA12_3, _AA12_4, _AA12_5, _AA12_6, _AA12_7, _AA12_8, _AA12_9,
 _AA12_10) = (
    -0.7650750098382328, 0.8347994820739503, 1.755944144193115,
    0.23253698859550603, 11.90371935788187, -1.9034949405460306,
    -10.951226401858388, 1.3530625395360725, -1.960266160037863)
(_AA14_1, _AA14_6, _AA14_7, _AA14_8, _AA14_9, _AA14_10, _AA14_11, _AA14_12) = (
    0.005054351963776225, -0.41267006753617186, -0.11888400830261149,
    0.511250400071805, -0.05239733207549386, 0.06981946420649213,
    0.0031982003615129264, -0.000371008689309057)
(_AA15_1, _AA15_6, _AA15_7, _AA15_8, _AA15_9, _AA15_10, _AA15_11, _AA15_12,
 _AA15_13) = (
    0.009887781381457055, -0.007602503134799441, 0.04742334588757416,
    -0.03637906592918709, -0.021320408140087014, 0.026772748548590856,
    0.0013364963323445063, 0.001054215711719072, -0.0011726106576121006)
(_AA16_1, _AA16_6, _AA16_7, _AA16_8, _AA16_9, _AA16_10, _AA16_11, _AA16_12,
 _AA16_13, _AA16_14) = (
    0.3588663399722558, 9.38025080291835, 7.477758624830405,
    -15.729096304440624, -0.3664913832247408, 0.4520427193280568,
    0.024882489771726926, 0.018743046880517162, -0.02134289656466091,
    -1.293144303668819)
(_BA1, _BA6, _BA7, _BA8, _BA9, _BA10, _BA11) = (
    0.054293734116568765, 2.9668752618349394, 1.4186384244858752,
    -4.016218126161174, 0.10850859975965002, -0.06086437986500643,
    0.028766485829147193)
(_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12) = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259)
(_E5A_1, _E5A_4, _E5A_5, _E5A_6, _E5A_7, _E5A_8, _E5A_9, _E5A_10, _E5A_11) = (
    -0.18865188001798797, 0.9962151331241325, 0.23599761577747436,
    -2.854630682350911, -4.0828088279337065, 6.038341535948958,
    0.39584534789657555, -0.5259249995299615, -0.014383242914573597)
(_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12) = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
(_E3A_1, _E3A_4, _E3A_5, _E3A_6, _E3A_7, _E3A_8, _E3A_9, _E3A_10, _E3A_11) = (
    -0.4538545734291735, 2.6987585022618616, 0.6812767760191379,
    -16.885342816594818, -13.987876814514605, 27.96175549233409,
    0.3042333850581198, -0.3335239499192925, 0.01457399878468182)
(_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12) = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.42268232132379197, -0.1521609496625161,
    0.20136540080403034, 0.022651792198360825)
(_DA4_1, _DA4_6, _DA4_7, _DA4_8, _DA4_9, _DA4_10, _DA4_11, _DA4_12, _DA4_13,
 _DA4_14, _DA4_15) = (
    2.8611698796830125, 30.51215583852884, -24.61264508865549,
    -35.41960917471137, -3.863458628138401, 3.7761446592257837,
    0.5382666867527854, 0.12984961919289312, -0.14125972611089993,
    -14.374598829726839, 40.59398476395968)
(_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14,
 _D4_15, _D4_16) = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973,
    2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
    18.148505520854727, -9.194632392478356, -4.436036387594894)
(_DA5_1, _DA5_6, _DA5_7, _DA5_8, _DA5_9, _DA5_10, _DA5_11, _DA5_12, _DA5_13,
 _DA5_14, _DA5_15) = (
    -17.921210306702967, -124.2260787072285, 273.13795938281214,
    96.31318087284055, 27.684870153300384, -29.05563647508469,
    -3.0977069495595075, 0.4625952063992359, 0.21147048462990323,
    104.24898538523482, -327.75842904664137)
(_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14,
 _D5_15, _D5_16) = (
    10.427508642579134, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264,
    -30.674084731089398, -9.332130526430229, 15.697238121770845,
    -31.139403219565178, -9.35292435884448, 35.81684148639408)
(_DA6_1, _DA6_6, _DA6_7, _DA6_8, _DA6_9, _DA6_10, _DA6_11, _DA6_12, _DA6_13,
 _DA6_14, _DA6_15) = (
    -8.999411590110814, -250.14465065648488, -7.345168174338206,
    324.4120585596325, 1.3538496519789445, 3.8566662410202324,
    -0.5618712467427652, -0.5475191693050367, 0.45402652434053137,
    47.262978033508965, -109.74095817349945)
(_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14,
 _D6_15, _D6_16) = (
    19.985053242002433, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963,
    -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
    -60.19669523126412, 84.32040550667716, 11.99229113618279)
(_DA7_1, _DA7_6, _DA7_7, _DA7_8, _DA7_9, _DA7_10, _DA7_11, _DA7_12, _DA7_13,
 _DA7_14, _DA7_15) = (
    75.66260800528795, 904.821881520238, -991.2456491432964,
    -911.6644928639352, -83.34399475607842, 73.06569397631904,
    11.227103851084003, -1.2324213700720028, -0.5764911999188784,
    -446.85829878732994, 1370.1440607677016)
(_D7_1, _D7_6, _D7_7, _D7_8, _D7_9, _D7_10, _D7_11, _D7_12, _D7_13, _D7_14,
 _D7_15, _D7_16) = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455,
    357.6391179106141, 93.40532418362432, -37.45832313645163,
    104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
    -39.17726167561544, -149.72683625798564)


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
    x = y0 + _C2 * p0
    q = y1 + _C2 * p1
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f2y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f2x = -8.0 * x / r
    x = y0 + _C3 * p0 + hh * (_AA3_1 * f1x)
    q = y1 + _C3 * p1 + hh * (_AA3_1 * f1y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f3y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f3x = -8.0 * x / r
    x = y0 + _C4 * p0 + hh * (_AA4_1 * f1x + _AA4_2 * f2x)
    q = y1 + _C4 * p1 + hh * (_AA4_1 * f1y + _AA4_2 * f2y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f4y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f4x = -8.0 * x / r
    x = y0 + _C5 * p0 + hh * (_AA5_1 * f1x + _AA5_2 * f2x + _AA5_3 * f3x)
    q = y1 + _C5 * p1 + hh * (_AA5_1 * f1y + _AA5_2 * f2y + _AA5_3 * f3y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f5y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f5x = -8.0 * x / r
    x = y0 + _C6 * p0 + hh * (_AA6_1 * f1x + _AA6_3 * f3x + _AA6_4 * f4x)
    q = y1 + _C6 * p1 + hh * (_AA6_1 * f1y + _AA6_3 * f3y + _AA6_4 * f4y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f6y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f6x = -8.0 * x / r
    x = y0 + _C7 * p0 + hh * (_AA7_1 * f1x + _AA7_3 * f3x + _AA7_4 * f4x
                              + _AA7_5 * f5x)
    q = y1 + _C7 * p1 + hh * (_AA7_1 * f1y + _AA7_3 * f3y + _AA7_4 * f4y
                              + _AA7_5 * f5y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f7y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f7x = -8.0 * x / r
    x = y0 + _C8 * p0 + hh * (_AA8_1 * f1x + _AA8_3 * f3x + _AA8_4 * f4x
                              + _AA8_5 * f5x + _AA8_6 * f6x)
    q = y1 + _C8 * p1 + hh * (_AA8_1 * f1y + _AA8_3 * f3y + _AA8_4 * f4y
                              + _AA8_5 * f5y + _AA8_6 * f6y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f8y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f8x = -8.0 * x / r
    x = y0 + _C9 * p0 + hh * (_AA9_1 * f1x + _AA9_3 * f3x + _AA9_4 * f4x
                              + _AA9_5 * f5x + _AA9_6 * f6x + _AA9_7 * f7x)
    q = y1 + _C9 * p1 + hh * (_AA9_1 * f1y + _AA9_3 * f3y + _AA9_4 * f4y
                              + _AA9_5 * f5y + _AA9_6 * f6y + _AA9_7 * f7y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f9y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f9x = -8.0 * x / r
    x = y0 + _C10 * p0 + hh * (_AA10_1 * f1x + _AA10_3 * f3x + _AA10_4 * f4x
                               + _AA10_5 * f5x + _AA10_6 * f6x + _AA10_7 * f7x
                               + _AA10_8 * f8x)
    q = y1 + _C10 * p1 + hh * (_AA10_1 * f1y + _AA10_3 * f3y + _AA10_4 * f4y
                               + _AA10_5 * f5y + _AA10_6 * f6y + _AA10_7 * f7y
                               + _AA10_8 * f8y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f10y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f10x = -8.0 * x / r
    x = y0 + _C11 * p0 + hh * (_AA11_1 * f1x + _AA11_3 * f3x + _AA11_4 * f4x
                               + _AA11_5 * f5x + _AA11_6 * f6x + _AA11_7 * f7x
                               + _AA11_8 * f8x + _AA11_9 * f9x)
    q = y1 + _C11 * p1 + hh * (_AA11_1 * f1y + _AA11_3 * f3y + _AA11_4 * f4y
                               + _AA11_5 * f5y + _AA11_6 * f6y + _AA11_7 * f7y
                               + _AA11_8 * f8y + _AA11_9 * f9y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f11y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f11x = -8.0 * x / r
    x = y0 + p0 + hh * (_AA12_1 * f1x + _AA12_3 * f3x + _AA12_4 * f4x
                        + _AA12_5 * f5x + _AA12_6 * f6x + _AA12_7 * f7x
                        + _AA12_8 * f8x + _AA12_9 * f9x + _AA12_10 * f10x)
    q = y1 + p1 + hh * (_AA12_1 * f1y + _AA12_3 * f3y + _AA12_4 * f4y
                        + _AA12_5 * f5y + _AA12_6 * f6y + _AA12_7 * f7y
                        + _AA12_8 * f8y + _AA12_9 * f9y + _AA12_10 * f10y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f12y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f12x = -8.0 * x / r
    z0 = y0 + p0 + hh * (_BA1 * f1x + _BA6 * f6x + _BA7 * f7x + _BA8 * f8x
                         + _BA9 * f9x + _BA10 * f10x + _BA11 * f11x)
    z1 = y1 + p1 + hh * (_BA1 * f1y + _BA6 * f6y + _BA7 * f7y + _BA8 * f8y
                         + _BA9 * f9y + _BA10 * f10y + _BA11 * f11y)
    z2 = y2 + h * (_B1 * f1x + _B6 * f6x + _B7 * f7x + _B8 * f8x + _B9 * f9x
                   + _B10 * f10x + _B11 * f11x + _B12 * f12x)
    z3 = y3 + h * (_B1 * f1y + _B6 * f6y + _B7 * f7y + _B8 * f8y + _B9 * f9y
                   + _B10 * f10y + _B11 * f11y + _B12 * f12y)
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
    e5_0 = hh * (_E5A_1 * f1x + _E5A_4 * f4x + _E5A_5 * f5x + _E5A_6 * f6x
                 + _E5A_7 * f7x + _E5A_8 * f8x + _E5A_9 * f9x + _E5A_10 * f10x
                 + _E5A_11 * f11x)
    e5_1 = hh * (_E5A_1 * f1y + _E5A_4 * f4y + _E5A_5 * f5y + _E5A_6 * f6y
                 + _E5A_7 * f7y + _E5A_8 * f8y + _E5A_9 * f9y + _E5A_10 * f10y
                 + _E5A_11 * f11y)
    e5_2 = h * (_E5_1 * f1x + _E5_6 * f6x + _E5_7 * f7x + _E5_8 * f8x
                + _E5_9 * f9x + _E5_10 * f10x + _E5_11 * f11x + _E5_12 * f12x)
    e5_3 = h * (_E5_1 * f1y + _E5_6 * f6y + _E5_7 * f7y + _E5_8 * f8y
                + _E5_9 * f9y + _E5_10 * f10y + _E5_11 * f11y + _E5_12 * f12y)
    e3_0 = hh * (_E3A_1 * f1x + _E3A_4 * f4x + _E3A_5 * f5x + _E3A_6 * f6x
                 + _E3A_7 * f7x + _E3A_8 * f8x + _E3A_9 * f9x + _E3A_10 * f10x
                 + _E3A_11 * f11x)
    e3_1 = hh * (_E3A_1 * f1y + _E3A_4 * f4y + _E3A_5 * f5y + _E3A_6 * f6y
                 + _E3A_7 * f7y + _E3A_8 * f8y + _E3A_9 * f9y + _E3A_10 * f10y
                 + _E3A_11 * f11y)
    e3_2 = h * (_E3_1 * f1x + _E3_6 * f6x + _E3_7 * f7x + _E3_8 * f8x
                + _E3_9 * f9x + _E3_10 * f10x + _E3_11 * f11x + _E3_12 * f12x)
    e3_3 = h * (_E3_1 * f1y + _E3_6 * f6y + _E3_7 * f7y + _E3_8 * f8y
                + _E3_9 * f9y + _E3_10 * f10y + _E3_11 * f11y + _E3_12 * f12y)
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
    x = y0 + _C14 * p0 + hh * (_AA14_1 * f1x + _AA14_6 * f6x + _AA14_7 * f7x
                               + _AA14_8 * f8x + _AA14_9 * f9x
                               + _AA14_10 * f10x + _AA14_11 * f11x
                               + _AA14_12 * f12x)
    q = y1 + _C14 * p1 + hh * (_AA14_1 * f1y + _AA14_6 * f6y + _AA14_7 * f7y
                               + _AA14_8 * f8y + _AA14_9 * f9y
                               + _AA14_10 * f10y + _AA14_11 * f11y
                               + _AA14_12 * f12y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f14y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f14x = -8.0 * x / r
    x = y0 + _C15 * p0 + hh * (_AA15_1 * f1x + _AA15_6 * f6x + _AA15_7 * f7x
                               + _AA15_8 * f8x + _AA15_9 * f9x
                               + _AA15_10 * f10x + _AA15_11 * f11x
                               + _AA15_12 * f12x + _AA15_13 * f13x)
    q = y1 + _C15 * p1 + hh * (_AA15_1 * f1y + _AA15_6 * f6y + _AA15_7 * f7y
                               + _AA15_8 * f8y + _AA15_9 * f9y
                               + _AA15_10 * f10y + _AA15_11 * f11y
                               + _AA15_12 * f12y + _AA15_13 * f13y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f15y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f15x = -8.0 * x / r
    x = y0 + _C16 * p0 + hh * (_AA16_1 * f1x + _AA16_6 * f6x + _AA16_7 * f7x
                               + _AA16_8 * f8x + _AA16_9 * f9x
                               + _AA16_10 * f10x + _AA16_11 * f11x
                               + _AA16_12 * f12x + _AA16_13 * f13x
                               + _AA16_14 * f14x)
    q = y1 + _C16 * p1 + hh * (_AA16_1 * f1y + _AA16_6 * f6y + _AA16_7 * f7y
                               + _AA16_8 * f8y + _AA16_9 * f9y
                               + _AA16_10 * f10y + _AA16_11 * f11y
                               + _AA16_12 * f12y + _AA16_13 * f13y
                               + _AA16_14 * f14y)
    if q <= 0.0:
        _check_upper(q)
    r = hypot(x, q)
    r = r * r * r
    f16y = (1.0 - 8.0 * (q * q * q) / r) / (q * q)
    f16x = -8.0 * x / r
    d4_0 = hh * (_DA4_1 * f1x + _DA4_6 * f6x + _DA4_7 * f7x + _DA4_8 * f8x
                 + _DA4_9 * f9x + _DA4_10 * f10x + _DA4_11 * f11x
                 + _DA4_12 * f12x + _DA4_13 * f13x + _DA4_14 * f14x
                 + _DA4_15 * f15x)
    d4_1 = hh * (_DA4_1 * f1y + _DA4_6 * f6y + _DA4_7 * f7y + _DA4_8 * f8y
                 + _DA4_9 * f9y + _DA4_10 * f10y + _DA4_11 * f11y
                 + _DA4_12 * f12y + _DA4_13 * f13y + _DA4_14 * f14y
                 + _DA4_15 * f15y)
    d4_2 = h * (_D4_1 * f1x + _D4_6 * f6x + _D4_7 * f7x + _D4_8 * f8x
                + _D4_9 * f9x + _D4_10 * f10x + _D4_11 * f11x + _D4_12 * f12x
                + _D4_13 * f13x + _D4_14 * f14x + _D4_15 * f15x
                + _D4_16 * f16x)
    d4_3 = h * (_D4_1 * f1y + _D4_6 * f6y + _D4_7 * f7y + _D4_8 * f8y
                + _D4_9 * f9y + _D4_10 * f10y + _D4_11 * f11y + _D4_12 * f12y
                + _D4_13 * f13y + _D4_14 * f14y + _D4_15 * f15y
                + _D4_16 * f16y)
    d5_0 = hh * (_DA5_1 * f1x + _DA5_6 * f6x + _DA5_7 * f7x + _DA5_8 * f8x
                 + _DA5_9 * f9x + _DA5_10 * f10x + _DA5_11 * f11x
                 + _DA5_12 * f12x + _DA5_13 * f13x + _DA5_14 * f14x
                 + _DA5_15 * f15x)
    d5_1 = hh * (_DA5_1 * f1y + _DA5_6 * f6y + _DA5_7 * f7y + _DA5_8 * f8y
                 + _DA5_9 * f9y + _DA5_10 * f10y + _DA5_11 * f11y
                 + _DA5_12 * f12y + _DA5_13 * f13y + _DA5_14 * f14y
                 + _DA5_15 * f15y)
    d5_2 = h * (_D5_1 * f1x + _D5_6 * f6x + _D5_7 * f7x + _D5_8 * f8x
                + _D5_9 * f9x + _D5_10 * f10x + _D5_11 * f11x + _D5_12 * f12x
                + _D5_13 * f13x + _D5_14 * f14x + _D5_15 * f15x
                + _D5_16 * f16x)
    d5_3 = h * (_D5_1 * f1y + _D5_6 * f6y + _D5_7 * f7y + _D5_8 * f8y
                + _D5_9 * f9y + _D5_10 * f10y + _D5_11 * f11y + _D5_12 * f12y
                + _D5_13 * f13y + _D5_14 * f14y + _D5_15 * f15y
                + _D5_16 * f16y)
    d6_0 = hh * (_DA6_1 * f1x + _DA6_6 * f6x + _DA6_7 * f7x + _DA6_8 * f8x
                 + _DA6_9 * f9x + _DA6_10 * f10x + _DA6_11 * f11x
                 + _DA6_12 * f12x + _DA6_13 * f13x + _DA6_14 * f14x
                 + _DA6_15 * f15x)
    d6_1 = hh * (_DA6_1 * f1y + _DA6_6 * f6y + _DA6_7 * f7y + _DA6_8 * f8y
                 + _DA6_9 * f9y + _DA6_10 * f10y + _DA6_11 * f11y
                 + _DA6_12 * f12y + _DA6_13 * f13y + _DA6_14 * f14y
                 + _DA6_15 * f15y)
    d6_2 = h * (_D6_1 * f1x + _D6_6 * f6x + _D6_7 * f7x + _D6_8 * f8x
                + _D6_9 * f9x + _D6_10 * f10x + _D6_11 * f11x + _D6_12 * f12x
                + _D6_13 * f13x + _D6_14 * f14x + _D6_15 * f15x
                + _D6_16 * f16x)
    d6_3 = h * (_D6_1 * f1y + _D6_6 * f6y + _D6_7 * f7y + _D6_8 * f8y
                + _D6_9 * f9y + _D6_10 * f10y + _D6_11 * f11y + _D6_12 * f12y
                + _D6_13 * f13y + _D6_14 * f14y + _D6_15 * f15y
                + _D6_16 * f16y)
    d7_0 = hh * (_DA7_1 * f1x + _DA7_6 * f6x + _DA7_7 * f7x + _DA7_8 * f8x
                 + _DA7_9 * f9x + _DA7_10 * f10x + _DA7_11 * f11x
                 + _DA7_12 * f12x + _DA7_13 * f13x + _DA7_14 * f14x
                 + _DA7_15 * f15x)
    d7_1 = hh * (_DA7_1 * f1y + _DA7_6 * f6y + _DA7_7 * f7y + _DA7_8 * f8y
                 + _DA7_9 * f9y + _DA7_10 * f10y + _DA7_11 * f11y
                 + _DA7_12 * f12y + _DA7_13 * f13y + _DA7_14 * f14y
                 + _DA7_15 * f15y)
    d7_2 = h * (_D7_1 * f1x + _D7_6 * f6x + _D7_7 * f7x + _D7_8 * f8x
                + _D7_9 * f9x + _D7_10 * f10x + _D7_11 * f11x + _D7_12 * f12x
                + _D7_13 * f13x + _D7_14 * f14x + _D7_15 * f15x
                + _D7_16 * f16x)
    d7_3 = h * (_D7_1 * f1y + _D7_6 * f6y + _D7_7 * f7y + _D7_8 * f8y
                + _D7_9 * f9y + _D7_10 * f10y + _D7_11 * f11y + _D7_12 * f12y
                + _D7_13 * f13y + _D7_14 * f14y + _D7_15 * f15y
                + _D7_16 * f16y)
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
        if s0.y <= 0.0:
            raise DomainError(f"initial state must have y > 0, got y={s0.y}")
        self.settings, self.sample_times = settings, sample_times
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
    a = (min(-1.0 / E, MAX_SCALE_RATIO * math.hypot(y[0], y[1])) if E
         else 1.0)
    sqrt_a = math.sqrt(a)
    a15 = a * sqrt_a  # a^3/2, the unit of time
    rel_tol = settings.rel_tol
    floor = rel_tol * FLOOR_RATIO
    abs_q, abs_v = floor * a, floor / sqrt_a
    h_max, h_min, t_limit = (
        v * a15 for v in (settings.h_max, H_MIN, settings.t_limit))
    if not (h_min * h_min >= sys.float_info.min
            and max(h_max, t_limit) < math.inf):
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
    h = h_max
    err_old = 1.0
    # the rejection's and the PI controller's exponents (ibid., II.4)
    shrink_expo = -1.0 / ORDER
    expo_new, expo_old = -0.7 / ORDER, 0.4 / ORDER
    drift = 0.0
    while True:
        if t_limit - t < h_min:
            events.append((EventKind.TIME_LIMIT, t, y))
            yield EventKind.TIME_LIMIT, drift
            return
        # min() and max() calls cost more than the comparisons here
        if h > h_max:
            h = h_max
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

        # PI controller (accepted step)
        e = ratio if ratio >= 1e-10 else 1e-10
        fac = 0.9 * e ** expo_new * err_old ** expo_old
        err_old = e
        h *= 5.0 if fac >= 5.0 else 0.2 if fac <= 0.2 else fac


# State's slot setters: _vec_to_state fills a new instance through them,
# which skips State.__init__ (one object.__setattr__ per field)
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
        _check_upper(q)
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
