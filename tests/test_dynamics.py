import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langmuir_lab import dynamics as dyn
from langmuir_lab import integrator
from langmuir_lab.dynamics import ProblemSpec, State
from langmuir_lab.errors import DomainError
from langmuir_lab.integrator import _vec_to_state

from conftest import (
    invert_state,
    inverted_energy,
    polar,
    radial_velocity,
    scale_state,
    ulps,
)

SQRT3 = math.sqrt(3.0)


def _potential(x, y):
    """V(x, y) as the package computes it: the energy of the state at rest
    there, which is V bit for bit."""
    return dyn.energy_vec((x, y, 0.0, 0.0))


def _residual(x, y):
    """The magical-line residual sqrt(3)*y - |x| that every run locates
    crossings of."""
    return integrator._magical_line_residual((x, y, 0.0, 0.0))


# strategies over well-conditioned regions of the upper half plane
pos_y = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
any_x = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vel = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestState:
    @given(st.floats(allow_nan=False), any_x, pos_y, vel, vel)
    @settings(max_examples=100)
    def test_integrator_builds_the_same_state(self, t, x, y, vx, vy):
        # _vec_to_state builds the State from the integrator's state tuple,
        # its fields in order
        got = _vec_to_state(t, (x, y, vx, vy))
        want = State(t=t, x=x, y=y, vx=vx, vy=vy)
        assert type(got) is State
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("make", [
        lambda: State(t=0.0, x=0.0, y=1.0, vx=1.0, vy=0.0),
        lambda: _vec_to_state(0.0, (0.0, 1.0, 1.0, 0.0)),
    ], ids=["constructor", "integrator"])
    def test_frozen(self, make):
        s = make()
        with pytest.raises(AttributeError):
            s.x = 2.0
        assert s.x == 0.0
        assert not hasattr(s, "__dict__")


class TestPotential:
    def test_unit_height(self):
        assert _potential(0.0, 1.0) == pytest.approx(-3.5, abs=1e-15)

    def test_hill_boundary_point(self):
        # (0, 7/2) sits on the zero-velocity curve at E = -1
        assert _potential(0.0, 3.5) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        assert _potential(3.0, 4.0) == pytest.approx(-0.675, abs=1e-15)

    def test_rejects_lower_half_plane(self):
        # every function of the position that a run evaluates, and the
        # energy, on the collision line (either zero), below it and at the
        # origin
        def state(x, y):
            return State(t=0.0, x=x, y=y, vx=1.0, vy=1.0)

        checked = {
            "acceleration": dyn.acceleration,
            "magical_line_residual": _residual,
            "energy_vec": lambda x, y: dyn.energy_vec((x, y, 1.0, 1.0)),
            "energy": lambda x, y: dyn.energy(state(x, y)),
        }
        for name, f in checked.items():
            for x, y in ((1.0, 0.0), (1.0, -0.0), (1.0, -1.0), (0.0, 0.0)):
                with pytest.raises(DomainError) as exc:
                    f(x, y)
                assert str(exc.value) == f"y must be positive, got {y}", name

    @given(any_x, pos_y)
    def test_even_in_x(self, x, y):
        assert _potential(x, y) == _potential(-x, y)


class TestAcceleration:
    def test_on_axis_is_exact(self):
        _, ay = dyn.acceleration(0.0, 2.0)
        assert ay == -1.75

    def test_vertical_force_vanishes_on_magical_line(self):
        _, ay = dyn.acceleration(SQRT3, 1.0)
        assert abs(ay) < 1e-14

    def test_hand_value(self):
        ax, ay = dyn.acceleration(1.0, 1.0)
        assert ax == pytest.approx(-8.0 / 2.0**1.5, rel=1e-14)
        assert ay == pytest.approx(-8.0 / 2.0**1.5 + 1.0, rel=1e-13)

    @given(any_x, pos_y)
    def test_reflection_symmetry(self, x, y):
        ax, ay = dyn.acceleration(x, y)
        axm, aym = dyn.acceleration(-x, y)
        assert axm == -ax
        assert aym == ay

    @given(any_x, pos_y)
    def test_sign_matches_magical_line_side(self, x, y):
        res = _residual(x, y)
        _, ay = dyn.acceleration(x, y)
        if res > 1e-9:
            assert ay < 0.0
        elif res < -1e-9:
            assert ay > 0.0


class TestEnergy:
    def test_initial_state_has_requested_energy(self):
        for h in (0.1, 0.7, 1.398, 3.0, 3.4):
            s = dyn.initial_state(ProblemSpec(E=-1.0, h=h))
            assert ulps(dyn.energy(s), -1.0) <= 4

    def test_rest_on_boundary(self):
        s = State(t=0.0, x=0.0, y=3.5, vx=0.0, vy=0.0)
        assert dyn.energy(s) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        s = State(t=0.0, x=1.0, y=1.0, vx=2.0, vy=0.0)
        expected = 1.0 + (-4.0 / math.sqrt(2.0) + 0.5)
        assert dyn.energy(s) == pytest.approx(expected, rel=1e-15)


class TestInitialState:
    def test_langmuir_height(self):
        s = dyn.initial_state(ProblemSpec(E=-1.0, h=1.398))
        assert s.t == 0.0 and s.x == 0.0 and s.vy == 0.0
        assert s.y == 1.398
        assert s.vx == pytest.approx(2.0 * math.sqrt(7.0 / 2.796 - 1.0), rel=1e-15)

    def test_zero_energy(self):
        s = dyn.initial_state(ProblemSpec(E=0.0, h=1.0))
        assert s.vx == pytest.approx(2.0 * math.sqrt(3.5), rel=1e-15)

    def test_rest_point_rejected(self):
        # the launch speed is 0 where 7/(2h) + E is, at h = -3.5/E and at an
        # infinite h at E = 0: the spec refuses it, as it does any height
        # outside the open interval (0, -3.5/E)
        with pytest.raises(DomainError, match=r"are \(0, 3\.5\)"):
            ProblemSpec(E=-1.0, h=3.5)
        with pytest.raises(DomainError, match=r"are \(0, inf\)"):
            ProblemSpec(E=0.0, h=math.inf)

    def test_outside_hill_region_rejected(self):
        with pytest.raises(DomainError):
            ProblemSpec(E=-1.0, h=3.6)


class TestMagicalLine:
    def test_on_line(self):
        assert _residual(SQRT3, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_above(self):
        assert _residual(0.0, 1.0) == pytest.approx(SQRT3)
        assert dyn.acceleration(0.0, 1.0)[1] == -7.0

    def test_below(self):
        assert _residual(10.0, 1.0) < 0.0
        assert dyn.acceleration(10.0, 1.0)[1] > 0.0


class TestHillRegion:
    def test_interval_on_y_axis(self):
        assert _potential(0.0, 3.4) <= -1.0
        assert _potential(0.0, 3.6) > -1.0

    def test_zero_energy_wedge(self):
        k = 1.0 / math.sqrt(63.0)
        for x in (-3.0, -1.0, 1.0, 3.0):
            assert _potential(x, k * abs(x) * 1.01) <= 0.0
            assert _potential(x, k * abs(x) * 0.99) > 0.0

    def test_wide_x_excluded(self):
        assert _potential(4.0, 1.0) > -1.0

    @given(st.floats(min_value=-3.5, max_value=3.5),
           st.floats(min_value=1e-3, max_value=4.0))
    def test_bound_at_minus_one(self, x, y):
        if _potential(x, y) <= -1.0:
            assert abs(x) <= 3.5 + 1e-12
            assert y <= 3.5 + 1e-12


class TestHillBoundary:
    def test_contains_top_of_interval(self):
        for n in (51, 201):
            pts = dyn.hill_boundary_sample(-1.0, n)
            top = min(pts, key=lambda p: abs(p[0]))
            assert abs(top[0]) < 1e-10
            assert top[1] == pytest.approx(3.5, abs=1e-10)

    def test_on_equipotential(self):
        for x, y in dyn.hill_boundary_sample(-1.0, 100):
            assert abs(_potential(x, y) + 1.0) <= 1e-10

    def test_symmetric(self):
        pts = dyn.hill_boundary_sample(-1.0, 100)
        for (x1, y1), (x2, y2) in zip(pts, reversed(pts)):
            assert x1 == pytest.approx(-x2, abs=1e-10)
            assert y1 == pytest.approx(y2, abs=1e-10)

    def test_closed_form_oracle(self):
        # along the ray at angle phi, V = c(phi)/r with
        # c = -4 + 1/(2 sin phi), so the boundary radius is c/E exactly
        pts = dyn.hill_boundary_sample(-1.0, 37)
        for x, y in pts:
            phi = math.atan2(y, x)
            r_exact = (-4.0 + 0.5 / math.sin(phi)) / -1.0
            assert math.hypot(x, y) == pytest.approx(r_exact, rel=1e-12)

    def test_scaling_between_energies(self):
        p1 = dyn.hill_boundary_sample(-1.0, 64)
        p2 = dyn.hill_boundary_sample(-2.0, 64)
        for (x1, y1), (x2, y2) in zip(p1, p2):
            assert x2 == pytest.approx(0.5 * x1, abs=1e-10)
            assert y2 == pytest.approx(0.5 * y1, abs=1e-10)

    def test_requires_negative_energy(self):
        with pytest.raises(DomainError):
            dyn.hill_boundary_sample(0.0, 10)

    def test_requires_two_points(self):
        with pytest.raises(DomainError, match="at least 2"):
            dyn.hill_boundary_sample(-1.0, 1)


class TestScaling:
    def test_identity(self):
        s = State(t=1.0, x=0.5, y=1.5, vx=0.3, vy=-0.2)
        assert scale_state(s, 1.0) == s

    def test_energy_halves_when_doubled(self):
        s = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        s2 = scale_state(s, 2.0)
        assert ulps(dyn.energy(s2), -0.5) <= 8
        assert s2.y == 2.0
        assert s2.vx == pytest.approx(s.vx / math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0, 10.0])
    def test_scaling_law(self, a):
        s = State(t=0.7, x=0.4, y=1.2, vx=1.1, vy=-0.6)
        assert ulps(dyn.energy(scale_state(s, a)) * a, dyn.energy(s)) <= 8

    def test_time_rescaled(self):
        s = State(t=2.0, x=0.0, y=1.0, vx=1.0, vy=0.0)
        assert scale_state(s, 4.0).t == pytest.approx(16.0)


def _vec(s):
    return (s.x, s.y, s.vx, s.vy)


class TestInversion:
    # the circle-inverted chart of conftest, the oracle of the zero-energy
    # checks
    def test_unit_circle_fixed_point(self):
        s = State(t=0.0, x=0.0, y=1.0, vx=1.2, vy=0.8)
        x, y, vx, vy = invert_state(*_vec(s))
        assert (x, y) == pytest.approx((0.0, 1.0), abs=1e-15)
        assert vx == pytest.approx(1.2, rel=1e-15)
        assert vy == pytest.approx(-0.8, rel=1e-15)

    def test_point_maps_inside(self):
        x, y, _, _ = invert_state(0.0, 2.0, 0.0, 0.0)
        assert (x, y) == pytest.approx((0.0, 0.5), abs=1e-15)

    @given(any_x, pos_y, vel, vel)
    @settings(max_examples=100)
    def test_involution(self, x, y, vx, vy):
        v = (x, y, vx, vy)
        scale = max(abs(x), abs(y), abs(vx), abs(vy), 1.0)
        for a, b in zip(invert_state(*invert_state(*v)), v):
            assert abs(a - b) <= 8.0 * math.ulp(scale)

    @given(any_x, pos_y)
    def test_preserves_upper_half_plane(self, x, y):
        assert invert_state(x, y, 0.0, 0.0)[1] > 0.0


def _random_states(rng, n, energy=None):
    """n seeded random states around the unit circle, of random direction,
    with the speed that puts them at `energy` (any speed if None)."""
    out = []
    for _ in range(n):
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(0.3, 2.0)
        v = (rng.uniform(0.0, 10.0) if energy is None
             else 2.0 * math.sqrt(energy - _potential(x, y)))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append(State(t=0.0, x=x, y=y,
                         vx=v * math.cos(theta), vy=v * math.sin(theta)))
    return out


class TestInvertedEnergy:
    def test_zero_energy_image(self):
        s = dyn.initial_state(ProblemSpec(E=0.0, h=1.0))
        assert abs(inverted_energy(*invert_state(*_vec(s)))) <= 1e-12

    def test_closed_form_at_unit_height(self):
        v = 2.0 * math.sqrt(3.5)  # |p|^2 = 3.5
        assert inverted_energy(0.0, 1.0, v, 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_rest_at_unit_height(self):
        assert inverted_energy(0.0, 1.0, 0.0, 0.0) == pytest.approx(
            -3.5, abs=1e-15)

    def test_many_random_zero_energy_states(self, rng):
        # points with V < 0 admit a speed making the energy exactly zero
        worst = max(abs(inverted_energy(*invert_state(*_vec(s))))
                    for s in _random_states(rng, 1000, energy=0.0))
        assert worst <= 1e-10


def test_inverted_chart_reads_the_planar_state(rng):
    # the identities that let analysis.check_inverted_concavity read the
    # chart off the planar run: at the image of a planar state of any
    # energy, 2 p_rho = -r^2 r' and p_phi = (x vy - y vx)/2, and the chart's
    # energy is r^4 times the planar one (r the planar radius), each within
    # 1e-12 of its largest term (the identities are exact, so this is
    # rounding: measured at most 1.8e-15)
    for s in _random_states(rng, 1000):
        r = math.hypot(s.x, s.y)
        rdot = radial_velocity(s)
        _, _, p_rho, p_phi = polar(*invert_state(*_vec(s)))
        assert abs(2.0 * p_rho + r * r * rdot) <= 1e-12 * max(
            1.0, r * r * abs(rdot))
        l = 0.5 * (s.x * s.vy - s.y * s.vx)
        assert abs(p_phi - l) <= 1e-12 * max(1.0, abs(l))
        h = dyn.energy(s)
        terms = max(0.25 * (s.vx * s.vx + s.vy * s.vy), -_potential(s.x, s.y),
                    0.5 / s.y)
        assert (abs(inverted_energy(*invert_state(*_vec(s))) - r**4 * h)
                <= 1e-12 * r**4 * terms)


class TestPolar:
    # the polar chart of conftest, whose momenta the chart identities read
    def test_horizontal_launch(self):
        r, phi, pr, pphi = polar(0.0, 1.0, 3.0, 0.0)
        assert r == 1.0
        assert phi == pytest.approx(math.pi / 2.0)
        assert pr == pytest.approx(0.0, abs=1e-15)
        assert pphi == pytest.approx(-1.5)
        # launched to the left, the motion is counter-clockwise: pphi > 0
        assert polar(0.0, 1.0, -3.0, 0.0)[3] == 1.5

    def test_rest_state(self):
        r, phi, pr, pphi = polar(1.0, 1.0, 0.0, 0.0)
        assert r == pytest.approx(math.sqrt(2.0))
        assert phi == pytest.approx(math.pi / 4.0)
        assert pr == 0.0 and pphi == 0.0

    @given(any_x, pos_y, vel, vel)
    @settings(max_examples=100)
    def test_round_trip(self, x, y, vx, vy):
        # the chart maps back to the position, and its momenta carry the
        # kinetic energy: r (cos phi, sin phi) = (x, y) and
        # |v|^2/4 = pr^2 + (pphi/r)^2
        r, phi, pr, pphi = polar(x, y, vx, vy)
        for a, b in ((r * math.cos(phi), x), (r * math.sin(phi), y)):
            assert ulps(a, b) <= 8 or abs(a - b) < 1e-12
        assert pr**2 + (pphi / r) ** 2 == pytest.approx(
            0.25 * (vx * vx + vy * vy), rel=1e-12, abs=1e-12
        )

    @given(any_x, pos_y, vel, vel)
    @settings(max_examples=100)
    def test_radial_momentum_identity(self, x, y, vx, vy):
        r, _, pr, _ = polar(x, y, vx, vy)
        assert r * (2.0 * pr) == pytest.approx(
            x * vx + y * vy, rel=1e-12, abs=1e-12
        )
