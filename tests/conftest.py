"""Shared oracles for the test suite.

The fixed-step classical RK4 propagator below is deliberately independent
of the package's adaptive integrator: it hard-codes the vector field and
the Runge-Kutta arithmetic so that agreement between the two is a real
cross-check, not a tautology.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import pytest


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


def dp5_reference_step(rhs, y, h, k1):
    """One Dormand-Prince 5(4) step by the generic tableau loop over the
    package's `_A`; returns (y5, [k1, ..., k7]).

    Each stage input is y[j] + h * (running total of a_im * k_m[j] from 0,
    left to right): the arithmetic of the loop the package stepped with
    before its step was unrolled.  That loop used sum(), which adds the
    same way up to Python 3.11; 3.12 made float sum() compensated, so the
    total is written out with reduce().
    """
    from langmuir_lab.integrator import _A

    ks = [k1]
    yi = y
    for i in range(1, 7):
        ai = _A[i]
        yi = tuple(
            y[j] + h * reduce(add, (ai[m] * ks[m][j] for m in range(i)), 0)
            for j in range(len(y))
        )
        ks.append(rhs(yi))
    return yi, ks  # yi after the loop is the fifth-order solution


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
    """Make every integration in `shooting` drop its requested sample
    times, so the backward retrace run yields no sample mirroring the
    forward arc."""
    from langmuir_lab import shooting

    real = shooting.integrate

    def integrate(*args, sample_times=(), **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", integrate)
