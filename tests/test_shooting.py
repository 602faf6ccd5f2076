import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langmuir_lab import dynamics as dyn
from langmuir_lab import output, shooting
from langmuir_lab.cli import main
from langmuir_lab.errors import (
    BadBracket,
    ClosureFailure,
    NoConvergence,
    NoRest,
)
from langmuir_lab.integrator import EventKind, IntegratorSettings, integrate

from conftest import launches

# zeros of the shooting functional, frozen from converged bisection runs
H_STAR_E1 = 1.4070602237
T_QUARTER_E1 = 1.0619636445
H_STAR_BRAKE = 0.3312553369


class TestShoot:
    def test_alpha_negative_for_large_height(self):
        assert shooting.shoot(-1.0, 3.4).alpha < 0.0

    def test_alpha_positive_for_small_height(self):
        assert shooting.shoot(-1.0, 0.2).alpha > 0.0

    def test_alpha_flips_across_the_root(self):
        lo = shooting.shoot(-1.0, 1.39).alpha
        hi = shooting.shoot(-1.0, 1.41).alpha
        assert lo > 0.0 > hi

    def test_shoot_drift_small(self):
        res = shooting.shoot(-1.0, 1.398)
        assert res.energy_drift <= 1e-8

    def test_magical_crossing_counted(self):
        res = shooting.shoot(-1.0, 1.398)
        assert res.n_magical_crossings >= 1

    def test_alpha_1_matches_shoot(self):
        a = shooting.alpha_k(-1.0, 1.2, 1)
        assert a == pytest.approx(shooting.shoot(-1.0, 1.2).alpha, abs=1e-12)

    def test_alpha_k_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shooting.alpha_k(-1.0, 1.0, 0)


class TestLangmuirOrbit:
    def setup_method(self):
        self.rec = shooting.find_langmuir_orbit(-1.0)

    def test_height(self):
        assert abs(self.rec.h_star - H_STAR_E1) <= 1e-8
        assert abs(self.rec.h_star - 1.398) <= 0.02

    def test_quarter_period(self):
        assert abs(self.rec.quarter_period - T_QUARTER_E1) <= 1e-6

    def test_touch_is_a_full_stop(self):
        assert abs(self.rec.alpha_residual) <= shooting.ALPHA_TOL
        speed = math.sqrt(self.rec.touch_state.speed2())
        assert speed <= shooting.TOUCH_SPEED_TOL

    def test_touch_lies_on_the_energy_shell(self):
        s = self.rec.touch_state
        assert abs(dyn.potential(s.x, s.y) - (-1.0)) <= 1e-5

    def test_solver_trace_recorded(self):
        assert len(self.rec.solver_trace) >= 3
        hs = [h for h, _ in self.rec.solver_trace]
        assert all(0.5 <= h <= 3.0 for h in hs)

    def test_kind_and_reflection_count(self):
        assert self.rec.kind == "Langmuir"
        assert self.rec.reflection_count() == 1


class TestScalingLaw:
    def test_height_scales_inversely_with_energy(self):
        rec1 = shooting.find_langmuir_orbit(-1.0)
        rec2 = shooting.find_langmuir_orbit(-2.0, bracket=(0.25, 1.5))
        assert abs(rec2.h_star - 0.5 * rec1.h_star) <= 1e-5

    def test_touch_state_scales(self):
        rec1 = shooting.find_langmuir_orbit(-1.0)
        rec2 = shooting.find_langmuir_orbit(-2.0, bracket=(0.25, 1.5))
        mapped = dyn.scale_state(rec1.touch_state, 0.5)
        assert abs(rec2.touch_state.x - mapped.x) <= 1e-5
        assert abs(rec2.touch_state.y - mapped.y) <= 1e-5
        assert abs(rec2.quarter_period - 0.5**1.5 * rec1.quarter_period) <= 1e-5

    def test_alpha_scales_on_the_grid(self):
        for h in (0.6, 1.0, 2.0):
            a1 = shooting.shoot(-1.0, h).alpha
            a2 = shooting.shoot(-2.0, 0.5 * h).alpha
            # velocity scale is 1/sqrt(a) with a = 1/2
            assert abs(a2 - math.sqrt(2.0) * a1) <= 1e-6


class TestBrakeOrbit:
    def test_classifier_picks_three_rests(self):
        k = shooting.classify_reflection_count(-1.0)
        assert k == 3

    def test_brake_orbit_found(self):
        rec = shooting.find_brake_orbit(-1.0)
        assert rec.kind == "Brake-3"
        assert abs(rec.h_star - H_STAR_BRAKE) <= 1e-8
        lo, hi = shooting.DEFAULT_BRAKE_BRACKET
        assert lo < rec.h_star < hi
        assert math.sqrt(rec.touch_state.speed2()) <= shooting.TOUCH_SPEED_TOL

    def test_explicit_rest_count_matches_classifier(self):
        rec = shooting.find_brake_orbit(-1.0, k=3)
        assert abs(rec.h_star - H_STAR_BRAKE) <= 1e-8

    def test_bracket_holding_simple_orbit_rejected(self):
        with pytest.raises(BadBracket, match="simple orbit"):
            shooting.find_brake_orbit(-1.0, bracket=(1.0, 2.0))


FINDERS = {
    "langmuir": shooting.find_langmuir_orbit,
    "brake": shooting.find_brake_orbit,
}


@pytest.fixture(scope="module")
def orbits_at_e1():
    return {kind: find(-1.0) for kind, find in FINDERS.items()}


@pytest.mark.parametrize("kind", sorted(FINDERS))
@settings(max_examples=5, deadline=None)
@given(E=st.floats(min_value=-2.0, max_value=-0.5))
def test_default_brackets_follow_energy_scaling(orbits_at_e1, kind, E):
    # positions scale by a = -1/E and times by a^(3/2), so the default
    # search at E must find the E = -1 orbit rescaled
    ref = orbits_at_e1[kind]
    rec = FINDERS[kind](E)
    assert rec.kind == ref.kind
    assert abs(rec.h_star * -E / ref.h_star - 1.0) <= 1e-8
    assert abs(
        rec.quarter_period * (-E) ** 1.5 / ref.quarter_period - 1.0
    ) <= 1e-6


@pytest.fixture
def integrate_calls(monkeypatch):
    """Record (start state, settings) of every integration made in
    `shooting`."""
    real = shooting.integrate
    calls = []

    def integrate(s0, settings=IntegratorSettings(), *args, **kwargs):
        calls.append((s0, settings))
        return real(s0, settings, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", integrate)
    return calls


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_each_solver_evaluation_integrates_once(integrate_calls, kind):
    # each trace entry is one integration, coarse or at full tolerance (the
    # coarse root is integrated once more, at full tolerance, to open the
    # polish); the touch state is the last solver evaluation's rest, not a
    # second integration of h*; the brake rest count is given so that no
    # classification runs are counted
    kwargs = {"k": 3} if kind == "brake" else {}
    rec = FINDERS[kind](-1.0, **kwargs)
    assert len(integrate_calls) == len(rec.solver_trace)


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_find_orbit_integrates_each_launch_once(integrate_calls, tmp_path, kind):
    # classification integrates both bracket ends at rest counts 1..k; the
    # solver starts from its k-th-rest arcs, and assembly from the h* arc,
    # so beyond the retrace each integration is one trace entry (the coarse
    # root is one entry at each tolerance)
    prefix = tmp_path / kind
    argv = ["find-orbit", "--energy", "-1.0", "--kind", kind]
    assert main(argv + ["--out", str(prefix)]) == 0
    rec = output.parse_orbit_record(
        (tmp_path / f"{kind}.orbit.json").read_text()
    )
    classify = 2 * (rec.reflection_count() - 1)
    assert len(integrate_calls) == classify + len(rec.solver_trace) + 1


def _bits(traj):
    """Every float of a trajectory's samples and events as float.hex, with
    its drift and termination, so that signed zeros count."""
    states = [s for s in traj.samples] + [e.state for e in traj.events]
    return (
        [tuple(v.hex() for v in (s.t, s.x, s.y, s.vx, s.vy)) for s in states],
        [(e.kind, e.t.hex()) for e in traj.events],
        traj.max_energy_drift.hex(),
        traj.termination,
    )


def _full_search_only(monkeypatch):
    """Make every coarse quarter end without a rest, so that _find_orbit
    falls back to Brent-Dekker at the given settings on the whole bracket."""
    real = shooting._quarter
    default = IntegratorSettings()

    def quarter(E, h, k, settings, watch=frozenset()):
        if settings.rel_tol > default.rel_tol:
            raise NoRest(k, EventKind.TIME_LIMIT.value)
        return real(E, h, k, settings, watch)

    monkeypatch.setattr(shooting, "_quarter", quarter)


class TestTwoStageSearch:
    """The coarse solve and full-tolerance polish of the orbit search,
    against a fresh integration, a finer re-integration and the search on
    the whole bracket at full tolerance."""

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_record_arc_is_a_full_tolerance_arc(self, orbits_at_e1, kind):
        rec = orbits_at_e1[kind]
        settings, arc = rec._quarter_arc
        assert settings == IntegratorSettings()
        fresh = shooting._quarter(
            rec.E, rec.h_star, rec.reflection_count(), settings
        )
        assert _bits(arc) == _bits(fresh)

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_full_search_finds_the_same_root(
        self, orbits_at_e1, monkeypatch, kind
    ):
        _full_search_only(monkeypatch)
        rec = FINDERS[kind](-1.0)
        assert rec.kind == orbits_at_e1[kind].kind
        assert abs(rec.h_star - orbits_at_e1[kind].h_star) <= 1e-8
        assert abs(rec.alpha_residual) <= shooting.ALPHA_TOL

    def test_coarse_run_off_the_half_plane_falls_back(
        self, orbits_at_e1, monkeypatch
    ):
        # at rel_tol 1e-2 a coarse brake quarter steps to y < 0 and raises
        # DomainError; the search on the whole bracket still finds the orbit
        monkeypatch.setattr(shooting, "COARSE_REL_TOL", 1e-2)
        rec = shooting.find_brake_orbit(-1.0)
        assert abs(rec.h_star - orbits_at_e1["brake"].h_star) <= 1e-8

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    @pytest.mark.parametrize("E", [-2.0, -1.0, -0.5])
    def test_root_holds_at_a_finer_tolerance(self, kind, E):
        rec = FINDERS[kind](E)
        fine = IntegratorSettings(rel_tol=1e-12)
        alpha = shooting.alpha_k(E, rec.h_star, rec.reflection_count(), fine)
        assert abs(alpha) <= 1e-7

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_trace_ends_at_the_root_inside_the_bracket(
        self, integrate_calls, kind
    ):
        kwargs = {"k": 3} if kind == "brake" else {}
        rec = FINDERS[kind](-1.0, **kwargs)
        lo, hi = {"langmuir": shooting.DEFAULT_BRACKET,
                  "brake": shooting.DEFAULT_BRAKE_BRACKET}[kind]
        assert rec.solver_trace[-1] == (rec.h_star, rec.alpha_residual)
        assert all(lo <= h <= hi for h, _ in rec.solver_trace)
        # no launch is integrated twice at the same settings; both stages
        # ran, and the root is integrated at the given settings
        assert len(set(integrate_calls)) == len(integrate_calls)
        tols = [settings.rel_tol for _, settings in integrate_calls]
        assert tols[0] == pytest.approx(shooting.COARSE_REL_TOL)
        assert tols[-1] == IntegratorSettings().rel_tol
        assert integrate_calls[-1][0] == _launch(rec)

    def test_no_coarse_stage_at_coarse_settings(self, integrate_calls):
        coarse = IntegratorSettings(rel_tol=shooting.COARSE_REL_TOL)
        rec = shooting.find_langmuir_orbit(-1.0, settings=coarse)
        assert {settings for _, settings in integrate_calls} == {coarse}
        assert len(integrate_calls) == len(rec.solver_trace)

    def test_bracket_without_sign_change_raises_at_full_tolerance(self):
        # the error is the full-tolerance search's: its values are alpha
        # at the given settings
        alpha = shooting.shoot(-1.0, 0.2).alpha
        with pytest.raises(BadBracket, match=re.escape(f"f(lo)={alpha}")):
            shooting.find_langmuir_orbit(-1.0, bracket=(0.2, 0.3))

    def test_unconverged_brake_search_still_raises(self):
        with pytest.raises(NoConvergence, match="shrunk"):
            shooting.find_brake_orbit(
                -10.0, settings=IntegratorSettings(rel_tol=1e-8)
            )


# Closed-form laws of the exact flow, checked on random admissible launches.


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_first_rest_lies_on_the_energy_shell(E, u):
    rest = shooting.shoot(E, u / -E).state_at_th
    assert abs(dyn.energy(rest) - E) <= 1e-8 * -E


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_time_reversal_returns_to_the_launch(E, u):
    h = u / -E
    s0 = dyn.initial_state(dyn.ProblemSpec(E=E, h=h))
    res = shooting.shoot(E, h)
    rest = res.state_at_th
    back = integrate(
        dyn.State(t=0.0, x=rest.x, y=rest.y, vx=-rest.vx, vy=-rest.vy),
        replace(IntegratorSettings(), t_limit=res.t_h),
    )
    end = back.samples[-1]
    assert back.termination is EventKind.TIME_LIMIT
    assert end.t == pytest.approx(res.t_h, abs=1e-12)
    for got, want in zip(
        (end.x, end.y, end.vx, end.vy), (0.0, h, -s0.vx, 0.0)
    ):
        assert abs(got - want) <= 1e-7


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_mirrored_launch_rests_at_the_mirrored_state(E, u):
    h = u / -E
    s0 = dyn.initial_state(dyn.ProblemSpec(E=E, h=h))
    res = shooting.shoot(E, h)
    traj = integrate(
        dyn.State(t=0.0, x=0.0, y=h, vx=-s0.vx, vy=0.0),
        stop={EventKind.X_VELOCITY_ZERO: 1},
    )
    assert traj.termination is EventKind.X_VELOCITY_ZERO
    rest, ref = traj.samples[-1], res.state_at_th
    assert abs(rest.t - res.t_h) <= 1e-12
    for got, want in zip(
        (rest.x, rest.y, rest.vx, rest.vy), (-ref.x, ref.y, -ref.vx, ref.vy)
    ):
        assert abs(got - want) <= 1e-12


class TestBrackets:
    def test_bad_bracket_same_sign(self):
        with pytest.raises(BadBracket):
            shooting.find_langmuir_orbit(-1.0, bracket=(0.2, 0.3))

    def test_classifier_bad_bracket(self):
        with pytest.raises(BadBracket):
            shooting.classify_reflection_count(-1.0, (0.31, 0.315), k_max=1)

    def test_positive_energy_rejected(self):
        with pytest.raises(ValueError):
            shooting.find_langmuir_orbit(0.0)


def _solve(f, lo, hi, tol_f, max_iter=100):
    trace = []
    x, fx = shooting._solve_bracketed(f, lo, hi, tol_f, max_iter, trace)
    return x, fx, trace


class TestRootSolver:
    """_solve_bracketed against roots known in closed form."""

    @pytest.mark.parametrize("f, lo, hi, root, x_tol", [
        # Wallis's cubic; |f'| > 11 at the root
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 2.0945514815423265,
         1e-13),
        # flat on both sides of the root, |f| <= tol within tol**(1/3)
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3, 1e-4),
        # a root at a bracket end
        (lambda x: x - 1.0, 0.0, 1.0, 1.0, 0.0),
    ], ids=["wallis", "flat", "at_end"])
    def test_closed_form_roots(self, f, lo, hi, root, x_tol):
        tol = 1e-12
        x, fx, trace = _solve(f, lo, hi, tol)
        assert fx == f(x)
        assert abs(fx) <= tol
        assert lo <= x <= hi
        assert abs(x - root) <= x_tol
        # the answer is an evaluated point the orbit search has the arc of
        assert (x, fx) == trace[-1] or x in (lo, hi)

    def test_same_signs_raise_bad_bracket(self):
        with pytest.raises(BadBracket):
            _solve(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_iteration_limit_raises_no_convergence(self):
        with pytest.raises(NoConvergence, match="after 3 iterations"):
            _solve(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 0.0, max_iter=3)

    def test_collapsed_bracket_raises_no_convergence(self):
        # a jump: |f| never falls below the tolerance, and the solver stops
        # once the bracket is down to rounding, well before max_iter
        trace = []
        with pytest.raises(NoConvergence, match="shrunk"):
            shooting._solve_bracketed(
                lambda x: -1.0 if x < 0.5 else 1.0, 0.0, 1.0, 1e-12, 200,
                trace,
            )
        assert len(trace) < 100


class TestScan:
    def test_grid_has_one_sign_change(self):
        grid = shooting.default_grid(n=30)
        results = shooting.scan_alpha(-1.0, grid)
        brackets = shooting.sign_change_brackets(results)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo < H_STAR_E1 < hi

    def test_scan_single_point(self):
        results = shooting.scan_alpha(-1.0, [1.0])
        assert len(results) == 1
        assert results[0].status == "ok"

    def test_scan_order_matches_grid(self):
        grid = [0.4, 1.0, 2.2, 3.0]
        results = shooting.scan_alpha(-1.0, grid)
        assert [r.h for r in results] == grid


class TestAssembly:
    def setup_method(self):
        self.rec = shooting.find_langmuir_orbit(-1.0)
        self.orbit = shooting.assemble_periodic_orbit(self.rec)

    def test_full_period(self):
        T = self.rec.quarter_period
        assert self.orbit.samples[-1].t == pytest.approx(4.0 * T, abs=1e-9)

    def test_orbit_closes(self):
        first, last = self.orbit.samples[0], self.orbit.samples[-1]
        assert abs(last.x - first.x) <= 1e-6
        assert abs(last.y - first.y) <= 1e-6
        assert abs(last.vx - first.vx) <= 1e-5
        assert abs(last.vy - first.vy) <= 1e-5

    def test_time_reversal_symmetry(self):
        T = self.rec.quarter_period
        by_t = {round(s.t, 9): s for s in self.orbit.samples}
        for s in self.orbit.samples:
            if not (0.0 <= s.t <= T):
                continue
            mirror = by_t.get(round(2.0 * T - s.t, 9))
            if mirror is None:
                continue
            assert abs(mirror.x - s.x) <= 1e-9
            assert abs(mirror.vx + s.vx) <= 1e-9

    def test_retrace_guard(self):
        with pytest.raises(ClosureFailure):
            shooting.assemble_periodic_orbit(self.rec, closure_tol=0.0)

    def test_unmatched_retrace_samples_fail(self, retrace_without_samples):
        # only the time limit's sample can mirror a forward one
        with pytest.raises(
            ClosureFailure, match=r"matched [01] of \d+ forward samples"
        ):
            shooting.assemble_periodic_orbit(self.rec)

    def test_samples_stay_in_upper_half_plane(self):
        assert all(s.y > 0.0 for s in self.orbit.samples)


def _launch(rec):
    return dyn.initial_state(dyn.ProblemSpec(E=rec.E, h=rec.h_star))


class TestAssemblyArc:
    """Which quarter arc assemble_periodic_orbit closes into the orbit."""

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_search_arc_is_reused(self, orbits_at_e1, integrate_calls, kind):
        rec = orbits_at_e1[kind]
        shooting.assemble_periodic_orbit(rec)
        # only the backward retrace, which starts at the touch point
        assert len(integrate_calls) == 1
        assert integrate_calls[0][0].x == rec.touch_state.x

    def test_other_settings_integrate_their_own_quarter(
        self, orbits_at_e1, integrate_calls
    ):
        rec = orbits_at_e1["langmuir"]
        finer = IntegratorSettings(rel_tol=1e-9)
        orbit = shooting.assemble_periodic_orbit(rec, finer)
        assert len(integrate_calls) == 2
        assert integrate_calls[0] == (_launch(rec), finer)
        # the quarter is the one these settings integrate
        quarter = shooting._quarter(rec.E, rec.h_star, 1, finer)
        n = len(quarter.samples)
        assert orbit.samples[:n] == quarter.samples

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_parsed_record_assembles_to_the_same_bytes(
        self, orbits_at_e1, integrate_calls, kind
    ):
        rec = orbits_at_e1[kind]
        parsed = output.parse_orbit_record(output.orbit_record_json(rec))
        own = output.trajectory_csv(shooting.assemble_periodic_orbit(parsed))
        assert integrate_calls[0][0] == _launch(rec)
        assert len(integrate_calls) == 2
        reused = output.trajectory_csv(shooting.assemble_periodic_orbit(rec))
        assert own == reused


def _retrace_worst(rec):
    """The retrace deviation, in E = -1 units, that assemble_periodic_orbit
    reports when every deviation exceeds its tolerance."""
    with pytest.raises(ClosureFailure) as info:
        shooting.assemble_periodic_orbit(rec, closure_tol=0.0)
    return float(re.search(r"by (\S+) in E = -1 units", str(info.value))[1])


def test_brake_retrace_deviation_follows_the_scaling_law(orbits_at_e1):
    # the E = -4 brake orbit is the E = -1 one with positions scaled by 1/4
    # and velocities by 2; in E = -1 units only integration error differs
    ref = _retrace_worst(orbits_at_e1["brake"])
    worst = _retrace_worst(shooting.find_brake_orbit(-4.0))
    assert ref <= 1e-6
    assert abs(worst / ref - 1.0) <= 0.1


class TestQuarterArcInvariants:
    def test_vertical_velocity_negative_before_first_crossing(self):
        for h in (0.4, 1.0, 1.398, 2.7):
            s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
            traj = integrate(
                s0,
                IntegratorSettings(),
                stop={EventKind.MAGICAL_LINE_CROSS: 1},
            )
            for s in traj.samples:
                if s.t > 0.0:
                    assert s.vy < 1e-12, f"h={h}, t={s.t}"

    def test_speed_decreases_along_the_quarter(self):
        rec = shooting.find_langmuir_orbit(-1.0)
        s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=rec.h_star))
        traj = integrate(
            s0,
            IntegratorSettings(),
            stop={EventKind.X_VELOCITY_ZERO: 1},
        )
        speeds = [s.speed2() for s in traj.samples]
        for a, b in zip(speeds, speeds[1:]):
            assert b <= a + 1e-10
