"""Shared oracles for the test suite.

The fixed-step classical RK4 propagator below is deliberately independent
of the package's adaptive integrator: it hard-codes the vector field and
the Runge-Kutta arithmetic so that agreement between the two is a real
cross-check, not a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import strategies as st


def rk4_fixed(x, y, vx, vy, t_end, dt):
    """Classical 4th-order fixed-step integration of the planar
    two-electron field from t=0; returns (x, y, vx, vy) at t_end."""

    def acc(px, py):
        r3 = (px * px + py * py) ** 1.5
        return -8.0 * px / r3, -8.0 * py / r3 + 1.0 / (py * py)

    n = int(round(t_end / dt))
    t = 0.0
    for _ in range(n):
        ax1, ay1 = acc(x, y)
        k1 = (vx, vy, ax1, ay1)

        x2 = x + 0.5 * dt * k1[0]
        y2 = y + 0.5 * dt * k1[1]
        ax2, ay2 = acc(x2, y2)
        k2 = (vx + 0.5 * dt * k1[2], vy + 0.5 * dt * k1[3], ax2, ay2)

        x3 = x + 0.5 * dt * k2[0]
        y3 = y + 0.5 * dt * k2[1]
        ax3, ay3 = acc(x3, y3)
        k3 = (vx + 0.5 * dt * k2[2], vy + 0.5 * dt * k2[3], ax3, ay3)

        x4 = x + dt * k3[0]
        y4 = y + dt * k3[1]
        ax4, ay4 = acc(x4, y4)
        k4 = (vx + dt * k3[2], vy + dt * k3[3], ax4, ay4)

        x += dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        y += dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        vx += dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
        vy += dt * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6.0
        t += dt
    return x, y, vx, vy


# The published Dormand-Prince 5(4) tableau (Dormand & Prince 1980; Hairer,
# Norsett & Wanner, Solving ODEs I, II.5), exact: the stage matrix A, whose
# 7th row is the fifth-order weights b (the FSAL stage), the fourth-order
# weights BHAT, and the weights D of the last coefficient of the continuous
# extension (the CONTD5 of dopri5, ibid. II.6).
def _rows(*rows):
    """Rows of Fractions from (p, q) pairs, padded with zeros to 7
    columns."""
    return tuple(tuple(Fraction(*w) for w in row)
                 + (Fraction(0),) * (7 - len(row)) for row in rows)


DP5_A = _rows(
    (),
    ((1, 5),),
    ((3, 40), (9, 40)),
    ((44, 45), (-56, 15), (32, 9)),
    ((19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729)),
    ((9017, 3168), (-355, 33), (46732, 5247), (49, 176), (-5103, 18656)),
    ((35, 384), (0,), (500, 1113), (125, 192), (-2187, 6784), (11, 84)),
)
(DP5_BHAT, DP5_D) = _rows(
    ((5179, 57600), (0,), (7571, 16695), (393, 640), (-92097, 339200),
     (187, 2100), (1, 40)),
    ((-12715105075, 11282082432), (0,), (87487479700, 32700410799),
     (-10690763975, 1880347072), (701980252875, 199316789632),
     (-1453857185, 822651844), (69997945, 29380423)),
)
DP5_B = DP5_A[6]
DP5_C = tuple(sum(row) for row in DP5_A)
DP5_E = tuple(b - bh for b, bh in zip(DP5_B, DP5_BHAT))


def _times_a(w):
    """The row vector w.A, exact."""
    return tuple(sum(w[i] * DP5_A[i][m] for i in range(7)) for m in range(7))


# The exact products the Nystrom form reads: stage i's position weights
# (A.A)_i, the fifth-order position's b.A (row 7 of A.A), and the position
# parts of the error estimate and of the interpolant's last coefficient.
DP5_AA = tuple(_times_a(row) for row in DP5_A)
DP5_EA = _times_a(DP5_E)
DP5_DA = _times_a(DP5_D)


def dp5_reference_step(rhs, y, h, k1):
    """One Dormand-Prince 5(4) step of the first-order field rhs by the
    generic loop over the tableau; returns (y5, [k1, ..., k7]).

    Each stage input is y[j] + h * (running total of a_im * k_m[j] from 0,
    left to right).  The total is written out with reduce(), as float
    sum() is compensated from Python 3.12 on.
    """
    ks = [k1]
    yi = y
    for i in range(1, 7):
        ai = [float(w) for w in DP5_A[i]]
        yi = tuple(
            y[j] + h * reduce(add, (ai[m] * ks[m][j] for m in range(i)), 0)
            for j in range(len(y))
        )
        ks.append(rhs(yi))
    return yi, ks  # yi after the loop is the fifth-order solution


def _weighted(ws, ks, j):
    """The sum of float(w_m) * ks[m][j] over the nonzero exact weights
    w_m, left to right, or None when there is none."""
    terms = [float(w) * k[j] for w, k in zip(ws, ks) if w]
    return reduce(add, terms) if terms else None


def nystrom_reference_step(accel, y, h, k1):
    """One step of the same pair in Nystrom form, for the second-order
    field x'' = accel(x) with y = (x, v), by the generic loop over the
    exact products of the tableau; returns (y5, [k1, ..., k6]), each k_m
    the acceleration at stage m.

    Stage i's input position is x + c_i*(h*v) + (h*h) * sum_m (A.A)_im k_m
    (the last term only where some (A.A)_im is nonzero), the fifth-order
    state (x + h*v + (h*h) * sum_m (b.A)_m k_m, v + h * sum_m b_m k_m); each
    sum runs left to right over the nonzero weights.
    """
    hh = h * h

    def position(i, ks):
        out = []
        for j in range(2):
            p = y[j] + float(DP5_C[i]) * (h * y[j + 2])
            s = _weighted(DP5_AA[i], ks, j)
            out.append(p if s is None else p + hh * s)
        return out

    ks = [k1]
    for i in range(1, 6):
        ks.append(accel(*position(i, ks)))
    y5 = (*position(6, ks),
          *(y[j + 2] + h * _weighted(DP5_B, ks, j) for j in range(2)))
    return y5, ks


def nystrom_reference_error_ratio(y, y5, ks, h, abs_tols, rel_tol):
    """The scaled error norm of a Nystrom step with accelerations ks (k7
    at y5 included): the largest |err_j| / (abs_tols[j] + rel_tol *
    max(|y[j]|, |y5[j]|)), where a position's err is (h*h) * sum_m
    (e.A)_m k_m and a velocity's h * sum_m e_m k_m, sums left to right over
    the nonzero weights.  A step with a non-finite error or y5 component has
    norm inf."""
    errs = ([h * h * _weighted(DP5_EA, ks, j) for j in range(2)]
            + [h * _weighted(DP5_E, ks, j) for j in range(2)])
    if not all(map(math.isfinite, errs + list(y5))):
        return math.inf
    worst = 0.0
    for j in range(4):
        scale = abs_tols[j] + rel_tol * max(abs(y[j]), abs(y5[j]))
        worst = max(worst, abs(errs[j]) / scale)
    return worst


def trajectory_bits(traj):
    """Every float of a trajectory's samples and events as float.hex, with
    its drift and termination, so that signed zeros count."""
    states = [s for s in traj.samples] + [e.state for e in traj.events]
    return (
        [tuple(v.hex() for v in (s.t, s.x, s.y, s.vx, s.vy)) for s in states],
        [(e.kind, e.t.hex()) for e in traj.events],
        traj.max_energy_drift.hex(),
        traj.termination,
    )


def rest_cuts(s0, settings, E=None):
    """The arcs from s0 to each of its x-rests, in order, cut from one
    unstopped run that watches x-rests, launched at the energy level E as
    `_rest_arcs(s0, settings, E)` is: for each rest, the run's samples
    before it and its state, the run's events up to it, and the largest
    relative energy drift over those samples, recomputed with the energy
    `dynamics` holds now.  The steps do not depend on where a run stops,
    so a run stopped at the k-th rest must equal the k-th cut bit for
    bit."""
    from langmuir_lab import dynamics
    from langmuir_lab.integrator import EventKind, Trajectory, _integrate

    free = _integrate(s0, settings, E, watch={EventKind.X_VELOCITY_ZERO})
    energy = dynamics.energy_vec
    e0 = energy((s0.x, s0.y, s0.vx, s0.vy))
    cuts = []
    for rest in free.events:
        if rest.kind is not EventKind.X_VELOCITY_ZERO:
            continue
        samples = [s for s in free.samples if s.t < rest.t] + [rest.state]
        drift = max(abs(energy((s.x, s.y, s.vx, s.vy)) - e0) / abs(e0)
                    for s in samples)
        cuts.append(Trajectory(
            samples=tuple(samples),
            events=tuple(e for e in free.events if e.t <= rest.t),
            max_energy_drift=drift,
            termination=EventKind.X_VELOCITY_ZERO,
        ))
    return cuts

# Random admissible launches for Hypothesis: heights h = u * a with
# a = -1/E span the default grid rescaled to E.
launches = dict(
    E=st.floats(min_value=-2.0, max_value=-0.5),
    u=st.floats(min_value=0.05, max_value=3.45),
)


def ulps(a: float, b: float) -> float:
    """|a - b| measured in units of the last place of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)


@pytest.fixture
def retrace_without_samples(monkeypatch):
    """Make every `_integrate` run in `shooting` drop its requested sample
    times, so the backward retrace run yields no sample mirroring the
    forward arc."""
    from langmuir_lab import shooting

    real = shooting._integrate

    def integrate(*args, sample_times=(), **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(shooting, "_integrate", integrate)
