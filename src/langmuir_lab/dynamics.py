"""Closed-form dynamics of the planar symmetric two-electron problem.

Two electrons mirror each other across the x-axis around a fixed nucleus at
the origin; the reduced configuration is the upper-half-plane position
(x, y) of one electron, with y = 0 the electron-electron collision and the
origin the electron-nucleus collision.  The potential is
V(x, y) = -4/sqrt(x^2 + y^2) + 1/(2y): attraction by the nucleus (charge 2,
both mirrored electrons felt) plus mutual repulsion.  Everything here is a
pure function: the force field, energy, the admissible initial conditions
and the zero-velocity (Hill) boundary.

Velocities are stored, not momenta: the equations of motion come in the
second-order form x'' = -8x/rho^3, y'' = -8y/rho^3 + 1/y^2 with q' = 2p,
so momenta are recovered as v/2.
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT3 = math.sqrt(3.0)

# A state as the tuple (x, y, vx, vy), the form the integrator steps.
Vec = tuple[float, float, float, float]

# Rays from the origin meet {V < 0} only where sin(phi) > 1/8; the Hill
# boundary for E < 0 lives strictly inside that sector.
_HILL_SIN_MIN = 1.0 / 8.0


_set = object.__setattr__


class _Record:
    """Base of the package's immutable records.  A subclass lists its
    fields in `_fields`, declares them as slots and sets each in its own
    __init__ through `_set` (object.__setattr__), which its validation
    follows.  Records refuse assignment and deletion; `==` holds between
    records of the same class with equal fields, and hash and repr read the
    same fields.  replace(**changes) builds a new record through the
    constructor, so its validation runs again; pickling and copying do
    too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy of this record with the given fields changed; an unknown
        field raises TypeError, as the constructor does."""
        for name in self._fields:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)


class State(_Record):
    """Phase-space point (position, velocity) plus time."""

    __slots__ = _fields = ("t", "x", "y", "vx", "vy")

    def __init__(self, t: float, x: float, y: float, vx: float, vy: float):
        _set(self, "t", t)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "vx", vx)
        _set(self, "vy", vy)


class ProblemSpec(_Record):
    """Energy E <= 0 and launch height h > 0 of the horizontal-launch
    problem, at which the launch speed is positive: h < -3.5/E."""

    __slots__ = _fields = ("E", "h")

    def __init__(self, E: float, h: float):
        _set(self, "E", E)
        _set(self, "h", h)
        if not (h > 0.0):
            raise DomainError(f"height must be positive, got {h}")
        if not (E <= 0.0):
            raise DomainError(f"energy must be <= 0, got {E}")
        if E == -math.inf:
            raise DomainError(f"energy must be finite, got {E}")
        if not 7.0 / (2.0 * h) + E > 0.0:
            raise DomainError(
                f"(0, {h}) is not inside the Hill region at E={E}; "
                f"admissible heights are (0, {-3.5 / E if E < 0 else math.inf})"
            )


def _check_upper(y: float) -> None:
    """DomainError off the half plane y > 0, the origin included.  Every
    function that tests y makes the test y <= 0 in place and calls this
    only where it holds, so the message is written once."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")


def acceleration(x: float, y: float) -> tuple[float, float]:
    """Right-hand side of the second-order equations of motion."""
    if y <= 0.0:
        _check_upper(y)
    r = math.hypot(x, y)
    rho3 = r * r * r
    # grouped so that on the y-axis 8y^3/rho^3 is exactly 1 and the vertical
    # force reduces to -7/y^2 without rounding residue
    ay = (1.0 - 8.0 * (y * y * y) / rho3) / (y * y)
    return -8.0 * x / rho3, ay


def energy_vec(v: Vec) -> float:
    """Total energy |v|^2/4 + V(x, y) of the state tuple (x, y, vx, vy);
    conserved by the exact flow; with zero velocity it is V(x, y) itself
    (see the module docstring)."""
    x, y, vx, vy = v
    if y <= 0.0:
        _check_upper(y)
    return 0.25 * (vx * vx + vy * vy) + (-4.0 / math.hypot(x, y) + 0.5 / y)


def energy(s: State) -> float:
    """energy_vec of the state s."""
    return energy_vec((s.x, s.y, s.vx, s.vy))


def initial_state(spec: ProblemSpec) -> State:
    """Launch state: at (0, h) moving horizontally to the right with the
    speed that puts the total energy at spec.E exactly."""
    u = 7.0 / (2.0 * spec.h) + spec.E
    return State(t=0.0, x=0.0, y=spec.h, vx=2.0 * math.sqrt(u), vy=0.0)


def hill_boundary_sample(E: float, n: int) -> list[tuple[float, float]]:
    """n points on the zero-velocity curve {V = E} in the half-plane y > 0,
    ordered by polar angle (left to right: angle decreasing means x
    increasing; we return increasing angle).

    V is homogeneous of degree -1 in r: on the ray at angle phi it is
    (-4 + 1/(2 sin phi)) / r, so the curve is the closed form
    r(phi) = (4 - 1/(2 sin phi)) / (-E), positive where sin phi > 1/8."""
    if not (E < 0.0):
        raise DomainError(f"bounded Hill boundary requires E < 0, got {E}")
    if n < 2:
        raise DomainError(f"need at least 2 sample points, got {n}")
    phi_min = math.asin(_HILL_SIN_MIN)
    phi_max = math.pi - phi_min
    margin = 1e-6 * (phi_max - phi_min)
    a, b = phi_min + margin, phi_max - margin
    pts = []
    for i in range(n):
        phi = a + (b - a) * i / (n - 1)
        r = (4.0 - 0.5 / math.sin(phi)) / -E
        pts.append((r * math.cos(phi), r * math.sin(phi)))
    return pts
