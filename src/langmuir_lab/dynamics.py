"""Closed-form dynamics of the planar symmetric two-electron problem.

Two electrons mirror each other across the x-axis around a fixed nucleus at
the origin; the reduced configuration is the upper-half-plane position
(x, y) of one electron, with y = 0 the electron-electron collision and the
origin the electron-nucleus collision.  Everything here is a pure function:
the potential, the force field, energy, the admissible initial conditions,
the zero-velocity (Hill) boundary, the line where the vertical force
vanishes, the conformal rescaling between energy levels, and the circle
inversion chart used for the zero-energy analysis.

Velocities are stored, not momenta: the equations of motion come in the
second-order form x'' = -8x/rho^3, y'' = -8y/rho^3 + 1/y^2 with q' = 2p,
so momenta are recovered as v/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

SQRT3 = math.sqrt(3.0)

# A state as the tuple (x, y, vx, vy), the form the integrator steps.
Vec = tuple[float, float, float, float]

# Rays from the origin meet {V < 0} only where sin(phi) > 1/8; the Hill
# boundary for E < 0 lives strictly inside that sector.
_HILL_SIN_MIN = 1.0 / 8.0


@dataclass(frozen=True, slots=True)
class State:
    """Phase-space point (position, velocity) plus time."""

    t: float
    x: float
    y: float
    vx: float
    vy: float

    def speed2(self) -> float:
        return self.vx * self.vx + self.vy * self.vy


@dataclass(frozen=True)
class ProblemSpec:
    """Energy E <= 0 and launch height h > 0 of the horizontal-launch problem."""

    E: float
    h: float

    def __post_init__(self):
        if not (self.h > 0.0):
            raise DomainError(f"height must be positive, got {self.h}")
        if not (self.E <= 0.0):
            raise DomainError(f"energy must be <= 0, got {self.E}")
        if 7.0 / (2.0 * self.h) + self.E < 0.0:
            raise DomainError(
                f"(0, {self.h}) lies outside the Hill region at E={self.E}; "
                f"admissible heights are (0, {-3.5 / self.E if self.E < 0 else math.inf})"
            )


@dataclass(frozen=True)
class PolarState:
    """Polar chart (r, phi) with conjugate momenta; phi in (0, pi)."""

    t: float
    r: float
    phi: float
    pr: float
    pphi: float


def _check_upper(y: float) -> None:
    """DomainError off the half plane y > 0, the origin included; the
    functions evaluated at every step make the same test in place."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")


def potential(x: float, y: float) -> float:
    """V(x, y) = -4/sqrt(x^2 + y^2) + 1/(2y); attraction by the nucleus
    (charge 2, both mirrored electrons felt) plus mutual repulsion."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    return -4.0 / math.hypot(x, y) + 0.5 / y


def acceleration(x: float, y: float) -> tuple[float, float]:
    """Right-hand side of the second-order equations of motion."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    r = math.hypot(x, y)
    rho3 = r * r * r
    # grouped so that on the y-axis 8y^3/rho^3 is exactly 1 and the vertical
    # force reduces to -7/y^2 without rounding residue
    ay = (1.0 - 8.0 * (y * y * y) / rho3) / (y * y)
    return -8.0 * x / rho3, ay


def energy_vec(v: Vec) -> float:
    """Total energy |v|^2/4 + V(x, y) of the state tuple (x, y, vx, vy);
    conserved by the exact flow.  V is computed inline, as potential()
    computes it."""
    x, y, vx, vy = v
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    return 0.25 * (vx * vx + vy * vy) + (-4.0 / math.hypot(x, y) + 0.5 / y)


def energy(s: State) -> float:
    """energy_vec of the state s."""
    return energy_vec((s.x, s.y, s.vx, s.vy))


def initial_state(spec: ProblemSpec) -> State:
    """Launch state: at (0, h) moving horizontally to the right with the
    speed that puts the total energy at spec.E exactly."""
    u = 7.0 / (2.0 * spec.h) + spec.E
    if u <= 0.0:
        raise DomainError(
            f"zero or imaginary launch speed at E={spec.E}, h={spec.h}"
        )
    return State(t=0.0, x=0.0, y=spec.h, vx=2.0 * math.sqrt(u), vy=0.0)


def magical_line_residual(x: float, y: float) -> float:
    """Signed distance surrogate sqrt(3)*y - |x| for the line where the
    vertical force vanishes; positive above the line (where y'' < 0)."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    return SQRT3 * y - abs(x)


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


def scale_state(s: State, a: float) -> State:
    """Conformal rescaling between energy levels: positions x a,
    velocities x 1/sqrt(a), time x a^(3/2); energy maps to E/a."""
    if not (a > 0.0):
        raise DomainError(f"scale factor must be positive, got {a}")
    ra = math.sqrt(a)
    return State(
        t=a * ra * s.t, x=a * s.x, y=a * s.y, vx=s.vx / ra, vy=s.vy / ra
    )


def invert_state(s: State) -> State:
    """Circle inversion chart: q -> 1/conj(q), p -> -q^2 conj(p) (complex
    notation).  Involutive, preserves the upper half plane; time is kept."""
    _check_upper(s.y)
    q = complex(s.x, s.y)
    p = complex(0.5 * s.vx, 0.5 * s.vy)
    q_new = 1.0 / q.conjugate()
    p_new = -q * q * p.conjugate()
    return State(
        t=s.t, x=q_new.real, y=q_new.imag, vx=2.0 * p_new.real, vy=2.0 * p_new.imag
    )


def inverted_energy_vec(v: Vec) -> float:
    """Hamiltonian of the inverted chart, |p|^2 - 4/|q|^3 + 1/(2|q|^2 Im q),
    of the state tuple (x, y, vx, vy) living in that chart (p = v/2).
    Vanishes on images of zero-energy states."""
    x, y, vx, vy = v
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    r = math.hypot(x, y)
    return 0.25 * (vx * vx + vy * vy) - 4.0 / r**3 + 0.5 / (r * r * y)


def inverted_acceleration(x: float, y: float) -> tuple[float, float]:
    """v' = -2 grad of the inverted-chart potential -4/r^3 + 1/(2 r^2 y)."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    r2 = x * x + y * y
    r4 = r2 * r2
    r5 = r4 * math.sqrt(r2)
    ax = -24.0 * x / r5 + 2.0 * x / (y * r4)
    ay = -24.0 * y / r5 + 2.0 / r4 + 1.0 / (r2 * y * y)
    return ax, ay


def to_polar(s: State) -> PolarState:
    """Polar chart with momenta conjugate to (r, phi) for the |p|^2 kinetic
    term: p_r = (x vx + y vy)/(2r), p_phi = (x vy - y vx)/2."""
    _check_upper(s.y)
    r = math.hypot(s.x, s.y)
    phi = math.atan2(s.y, s.x)
    pr = (s.x * s.vx + s.y * s.vy) / (2.0 * r)
    pphi = 0.5 * (s.x * s.vy - s.y * s.vx)
    return PolarState(t=s.t, r=r, phi=phi, pr=pr, pphi=pphi)


def radial_velocity(s: State) -> float:
    """r' = (x vx + y vy)/r."""
    return (s.x * s.vx + s.y * s.vy) / math.hypot(s.x, s.y)
