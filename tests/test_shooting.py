import functools
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langmuir_lab import dynamics as dyn
from langmuir_lab import integrator, shooting
from langmuir_lab.cli import main
from langmuir_lab.errors import (
    BadBracket,
    ClosureFailure,
    DomainError,
    NoConvergence,
    NoRest,
)
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    _build_trajectory,
    _integrate,
    integrate,
)

from conftest import (
    launches,
    parse_orbit_record,
    rest_cuts,
    rk4_fixed,
    scale_state,
    taylor_alpha_k,
    taylor_rest,
    trajectory_bits,
)

# Reference values at E = -1 that owe nothing to this integrator: a
# 25-digit Taylor-series integration (mpmath 1.3.0's odefun).  The zeros of
# alpha and alpha_3, the quarter period, the time of the brake orbit's
# third x-rest, and alpha at the ends of DEFAULT_BRACKET and alpha_3 at
# those of DEFAULT_BRAKE_BRACKET, keyed by (h, k).
H_STAR_E1 = 1.4070602237456081289
T_QUARTER_E1 = 1.0619636445200052397
H_STAR_BRAKE = 0.33125533690417354682
T_REST_BRAKE = 5.1940972800492526947
BRACKET_END_ALPHAS = {
    (0.5, 1): 2.63291920512661,
    (3.0, 1): -1.82706130327770,
    (0.3, 3): -1.76133180721038,
    (0.8, 3): 1.98550663029369,
}
# Tolerances.  ALPHA_ERR bounds the integration error of alpha_k at the
# default settings: a search that stops at |alpha_k| <= ALPHA_TOL, its stop
# at the default rel_tol, is only that good if the error is well below
# ALPHA_TOL.  The error scales with rel_tol (the error norm's floor follows
# it): the worst bracket-end error, against the table above and the Taylor
# oracle of conftest, is 14.7, 11.6, 13.5, 12.1, 11.1 and 12.5 x rel_tol at
# rel_tol 1e-8 to 1e-13 (each time alpha_3(0.3), whose third rest lies at
# y = 0.016), so the bound is ALPHA_ERR_RATIO = 35 times rel_tol.  Below
# the default rel_tol the stop shrinks in proportion to rel_tol, as
# ALPHA_ERR does, so the bounds below shrink with both (see
# test_h_star_converges_with_rel_tol); these are the default's.  A root the
# search returns is off the true one by at most (ALPHA_TOL + ALPHA_ERR) /
# |dalpha_k/dh| to first order; |dalpha/dh| at h* is 3.62 and
# |dalpha_3/dh| at the brake h* is 47.3 (central differences), of which
# the bounds take 3.5 and 45.  T moves with h* at dT/dh = 0.603 (taken as
# 0.65), plus its own error: the rest time's vx error, at most ALPHA_ERR,
# over |ax| = 3.06 there (taken as 3).
ALPHA_ERR_RATIO = 35.0
ALPHA_ERR = ALPHA_ERR_RATIO * IntegratorSettings().rel_tol  # 3.5e-9
H_STAR_TOL = (shooting.ALPHA_TOL + ALPHA_ERR) / 3.5  # 3.9e-9
H_STAR_BRAKE_TOL = (shooting.ALPHA_TOL + ALPHA_ERR) / 45.0  # 3.0e-10
T_QUARTER_TOL = 0.65 * H_STAR_TOL + ALPHA_ERR / 3.0  # 3.7e-9


def _alpha_k(E, h, k, settings_=IntegratorSettings()):
    """alpha_k as the orbit search reads it: vy at the k-th x-rest of the
    run that `_rest_run` stops there."""
    return shooting._alpha(shooting._rest_run(E, h, k, settings_))


def _classified(E, bracket=None, settings_=IntegratorSettings()):
    """The rest count that classification finds on the bracket (the default
    brake bracket rescaled to E when None) at `settings_`, or None when no
    count up to MAX_RESTS separates its ends."""
    bracket = shooting._bracket_at(E, bracket, shooting.DEFAULT_BRAKE_BRACKET)
    return shooting._classify(E, bracket, settings_)[0]


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
        a = _alpha_k(-1.0, 1.2, 1)
        assert a == pytest.approx(shooting.shoot(-1.0, 1.2).alpha, abs=1e-12)

    def test_zero_energy_launch(self):
        # a = 1 at E = 0: the knobs are read as given, so shoot's run is
        # integrate's run of the same launch, which carries no energy
        # level, bit for bit
        res = shooting.shoot(0.0, 1.0)
        s0 = dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0))
        traj = integrate(s0, watch={EventKind.MAGICAL_LINE_CROSS},
                         stop={EventKind.X_VELOCITY_ZERO})
        rest = traj.samples[-1]
        crossings = [e for e in traj.events
                     if e.kind is EventKind.MAGICAL_LINE_CROSS]
        assert traj.termination is EventKind.X_VELOCITY_ZERO
        assert ((res.t_h.hex(), res.alpha.hex(), res.energy_drift.hex())
                == (rest.t.hex(), rest.vy.hex(),
                    traj.max_energy_drift.hex()))
        assert res.n_magical_crossings == len(crossings) == 2
        assert _alpha_k(0.0, 1.0, 1).hex() == res.alpha.hex()
        # and the fixed-step RK4 comes to the same rest at t_h
        n = math.ceil(res.t_h / 1e-4)
        x, y, vx, vy = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, res.t_h,
                                 res.t_h / n)
        assert abs(vx) <= 1e-9
        assert abs(vy - res.alpha) <= 1e-9

    @pytest.mark.parametrize("h, k", list(BRACKET_END_ALPHAS))
    def test_bracket_end_alphas(self, h, k):
        # the ends of the default brackets, which the sign changes behind
        # both orbits rest on
        ends = {(h_, 1) for h_ in shooting.DEFAULT_BRACKET}
        ends |= {(h_, 3) for h_ in shooting.DEFAULT_BRAKE_BRACKET}
        assert set(BRACKET_END_ALPHAS) == ends
        alpha = _alpha_k(-1.0, h, k)
        assert abs(alpha - BRACKET_END_ALPHAS[h, k]) <= ALPHA_ERR

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-9, 1e-11, 1e-12, 1e-13])
    @pytest.mark.parametrize("h, k", list(BRACKET_END_ALPHAS))
    def test_bracket_end_alphas_follow_the_tolerance(self, h, k, rel_tol):
        # alpha is read at the rest itself, not at the located time up to
        # event_tol/2 away, so its error falls with rel_tol below the
        # event tolerance of 1e-12 (at 1e-12, read at the located time,
        # alpha_3(0.3) was off by -7.5e-10; moved to the rest, by -8.6e-12)
        alpha = _alpha_k(-1.0, h, k, IntegratorSettings(rel_tol))
        err = alpha - BRACKET_END_ALPHAS[h, k]
        assert abs(err) <= ALPHA_ERR_RATIO * rel_tol

    def test_run_ending_before_its_rest_raises_no_rest(self):
        # the first rest at h = 1.398 comes at t = 1.06: a run stopped at
        # its time limit before then has no alpha
        with pytest.raises(NoRest) as exc:
            shooting.shoot(-1.0, 1.398, IntegratorSettings(t_limit=0.5))
        assert (exc.value.k, exc.value.termination) == (1, "TimeLimit")


def _secant(f, a, b):
    """A zero of f by secant steps from a and b, to a step of 1e-15."""
    fa, fb = f(a), f(b)
    for _ in range(20):
        a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
        fb = f(b)
        if abs(b - a) <= 1e-15:
            return b
    raise AssertionError(f"no zero near {b}")


class TestTaylorOracle:
    """conftest's Taylor-series integrator, an oracle in plain floats that
    shares no arithmetic with the package, against the 25-digit table, and
    the package against it where the table has no value."""

    @pytest.mark.parametrize("h, k", list(BRACKET_END_ALPHAS))
    def test_reproduces_the_bracket_end_alphas(self, h, k):
        assert abs(taylor_alpha_k(-1.0, h, k)
                   - BRACKET_END_ALPHAS[h, k]) <= 1e-13

    @pytest.mark.parametrize("k, h_star, t_rest, guess", [
        (1, H_STAR_E1, T_QUARTER_E1, (1.40, 1.41)),
        (3, H_STAR_BRAKE, T_REST_BRAKE, (0.331, 0.332)),
    ], ids=["langmuir", "brake"])
    def test_reproduces_the_orbits(self, k, h_star, t_rest, guess):
        root = _secant(lambda h: taylor_alpha_k(-1.0, h, k), *guess)
        assert abs(root - h_star) <= 1e-13
        assert abs(taylor_rest(-1.0, root, k)[0] - t_rest) <= 1e-13

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-11, 1e-12, 1e-13])
    def test_the_scan_agrees_with_it(self, rel_tol):
        # alpha on the whole default grid, none of whose heights the table
        # holds, within the same budget as the bracket ends
        grid = shooting.default_grid()
        rows = shooting.scan_alpha(-1.0, grid, IntegratorSettings(rel_tol))
        assert [r.status for r in rows] == ["ok"] * len(grid)
        for row, want in zip(rows, _taylor_grid()):
            assert abs(row.alpha - want) <= ALPHA_ERR_RATIO * rel_tol


@functools.cache
def _taylor_grid():
    """alpha by the Taylor oracle over the default grid at E = -1."""
    return tuple(taylor_alpha_k(-1.0, h, 1) for h in shooting.default_grid())


def _assert_full_stop(rec):
    """The touch state is the rest itself: its vy is the search's residual,
    so ALPHA_TOL bounds it, and its vx is zero but for rounding (at most
    1.1e-26 in E = -1 units over 90 searches: both kinds, 15 energies on
    [-2, -0.5] and rel_tol 1e-8, 1e-10 and 1e-12)."""
    touch = rec.touch_state
    assert touch.vy == rec.alpha_residual
    assert abs(touch.vx) <= 1e-20 * math.sqrt(-rec.E)


class TestLangmuirOrbit:
    def setup_method(self):
        self.rec = shooting.find_langmuir_orbit(-1.0)

    def test_height(self):
        assert abs(self.rec.h_star - H_STAR_E1) <= H_STAR_TOL
        assert abs(self.rec.h_star - 1.398) <= 0.02

    def test_quarter_period(self):
        assert abs(self.rec.quarter_period - T_QUARTER_E1) <= T_QUARTER_TOL

    def test_touch_is_a_full_stop(self):
        assert abs(self.rec.alpha_residual) <= shooting.ALPHA_TOL
        _assert_full_stop(self.rec)

    def test_touch_lies_on_the_energy_shell(self):
        s = self.rec.touch_state
        assert abs(dyn.energy_vec((s.x, s.y, 0.0, 0.0)) - (-1.0)) <= 1e-5

    def test_solver_trace_recorded(self):
        assert len(self.rec.solver_trace) >= 3
        hs = [h for h, _ in self.rec.solver_trace]
        assert all(0.5 <= h <= 3.0 for h in hs)

    def test_kind_and_reflection_count(self):
        # the quarter arc ends at the orbit's first x-rest
        assert self.rec.kind == "Langmuir"
        events = self.rec._quarter_arc[1].events
        assert [e.kind for e in events] == [EventKind.X_VELOCITY_ZERO]


class TestScalingLaw:
    def test_height_scales_inversely_with_energy(self):
        rec1 = shooting.find_langmuir_orbit(-1.0)
        rec2 = shooting.find_langmuir_orbit(-2.0, bracket=(0.25, 1.5))
        assert abs(rec2.h_star - 0.5 * rec1.h_star) <= 1e-5

    def test_touch_state_scales(self):
        rec1 = shooting.find_langmuir_orbit(-1.0)
        rec2 = shooting.find_langmuir_orbit(-2.0, bracket=(0.25, 1.5))
        mapped = scale_state(rec1.touch_state, 0.5)
        assert abs(rec2.touch_state.x - mapped.x) <= 1e-5
        assert abs(rec2.touch_state.y - mapped.y) <= 1e-5
        assert abs(rec2.quarter_period - 0.5**1.5 * rec1.quarter_period) <= 1e-5

    def test_alpha_scales_on_the_grid(self):
        for h in (0.6, 1.0, 2.0):
            a1 = shooting.shoot(-1.0, h).alpha
            a2 = shooting.shoot(-2.0, 0.5 * h).alpha
            # velocity scale is 1/sqrt(a) with a = 1/2
            assert abs(a2 - math.sqrt(2.0) * a1) <= 1e-6


# Bit-exact oracles.  At E = -4^k the scale a = 4^-k, its square root and
# a^3/2 are powers of two, so every state and every knob a run reads in
# E = -1 units (the error norm's floor, t_limit, H_FIRST, H_MIN, the event
# time tolerance, the collision distance) scales without rounding, and
# the scaling law holds bit for bit at any rel_tol.  A slip in the scaling
# of a knob these runs reach (all but the collision distance, which no
# grid run comes near) fails these tests at once, where the E = -2 tests
# above see only a change above their tolerances.
EXACT_ENERGIES = [-4.0, -16.0, -0.25]
EXACT_TOLS = [1e-10, 1e-8]


def _scan_bits(E, heights, rel_tol):
    """scan_alpha's rows at E, launched at the given E = -1 heights
    rescaled to E, each rescaled back to E = -1 units as float.hex."""
    a = -1.0 / E
    rows = shooting.scan_alpha(E, [h * a for h in heights],
                               IntegratorSettings(rel_tol))
    return [((r.h / a).hex(), (r.t_h / a ** 1.5).hex(),
             (r.alpha * a ** 0.5).hex(), r.n_magical_crossings,
             r.energy_drift.hex(), r.status) for r in rows]


@pytest.mark.parametrize("rel_tol", EXACT_TOLS)
@pytest.mark.parametrize("E", EXACT_ENERGIES)
def test_scan_scales_exactly(E, rel_tol):
    grid = shooting.default_grid()
    assert _scan_bits(E, grid, rel_tol) == _scan_bits(-1.0, grid, rel_tol)


@pytest.mark.parametrize("E", EXACT_ENERGIES)
def test_scan_scales_exactly_under_the_scale_clamp(E):
    # launches nearer the nucleus than 1 / MAX_SCALE_RATIO in E = -1 units
    # run at the clamped scale MAX_SCALE_RATIO x their distance from it,
    # which scales as -1/E does, so the clamp keeps the law exact
    heights = [0.002, 0.005, 0.0099]
    assert all(integrator.MAX_SCALE_RATIO * h < 1.0 for h in heights)
    assert _scan_bits(E, heights, 1e-10) == _scan_bits(-1.0, heights, 1e-10)


def test_scan_scales_exactly_at_the_deepest_level_run():
    # E = -4^154 is the deepest level -4^k at which a run's H_MIN step,
    # 1e-14 x 8^-k, squares to a normal float
    E = -(4.0 ** 154)
    assert (integrator.H_MIN * (-1.0 / E) ** 1.5) ** 2 >= sys.float_info.min
    grid = shooting.default_grid()
    assert _scan_bits(E, grid, 1e-10) == _scan_bits(-1.0, grid, 1e-10)


@pytest.mark.parametrize("k", [155, 167, 175])
def test_scan_rejects_a_level_off_the_scaling_law(k):
    # below -4^154 the H_MIN step squares to a subnormal.  Runs there
    # still rest, and until E = -4^166 they still scale exactly, but from
    # -4^167 their alphas drift off the E = -1 ones (by 8.9e-16 at k = 167
    # and 8.8e-4 at k = 175, in E = -1 units) under an `ok` status; so
    # every launch there is rejected
    E = -(4.0 ** k)
    with pytest.raises(DomainError, match=r"time unit \S+ out of range"):
        shooting.scan_alpha(E, [h / -E for h in shooting.default_grid()])


@pytest.mark.parametrize("rel_tol", EXACT_TOLS)
def test_orbits_scale_exactly(rel_tol):
    settings = IntegratorSettings(rel_tol)

    def unscaled(rec, E):
        a = -1.0 / E
        return (rec.kind, rec.h_star / a, rec.quarter_period / a ** 1.5,
                [(h / a, alpha * a ** 0.5) for h, alpha in rec.solver_trace])

    for kind, E in [("langmuir", -4.0), ("brake", -4.0), ("brake", -0.25)]:
        find = FINDERS[kind]
        assert unscaled(find(E, settings=settings), E) == unscaled(
            find(-1.0, settings=settings), -1.0)


class TestBrakeOrbit:
    def test_classifier_picks_three_rests(self):
        assert _classified(-1.0) == 3

    def test_brake_orbit_found(self):
        rec = shooting.find_brake_orbit(-1.0)
        assert rec.kind == "Brake-3"
        assert abs(rec.h_star - H_STAR_BRAKE) <= H_STAR_BRAKE_TOL
        lo, hi = shooting.DEFAULT_BRAKE_BRACKET
        assert lo < rec.h_star < hi
        _assert_full_stop(rec)

    def test_explicit_rest_count_matches_classifier(self):
        rec = shooting.find_brake_orbit(-1.0, k=3)
        assert abs(rec.h_star - H_STAR_BRAKE) <= H_STAR_BRAKE_TOL

    def test_bracket_holding_simple_orbit_rejected(self):
        with pytest.raises(BadBracket, match="simple orbit"):
            shooting.find_brake_orbit(-1.0, bracket=(1.0, 2.0))


FINDERS = {
    "langmuir": shooting.find_langmuir_orbit,
    "brake": shooting.find_brake_orbit,
}
# the rest count of each default search's orbit: Langmuir and Brake-3
REST_COUNTS = {"langmuir": 1, "brake": 3}


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


@pytest.mark.parametrize("kind, step", [("langmuir", 1e-3), ("brake", 1e-4)])
@pytest.mark.parametrize("E", [-50.0, -0.01])
def test_found_orbit_touches_under_fixed_step_rk4(kind, step, E):
    # the fixed-step RK4 of conftest, at the physical energy with steps of
    # `step` in E = -1 time units, from the found h* to T, ends at a touch
    # (measured |v| / sqrt(-E): 7.4e-13 to 9.3e-12 for Langmuir's orbit,
    # 1.6e-7 for the brake orbit)
    rec = FINDERS[kind](E)
    _assert_full_stop(rec)
    s0 = dyn.initial_state(dyn.ProblemSpec(E=E, h=rec.h_star))
    T = rec.quarter_period
    dt = T / math.ceil(T / (step * (-E) ** -1.5))
    _, _, vx, vy = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, T, dt)
    assert math.hypot(vx, vy) / math.sqrt(-E) <= 1e-6


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_each_solver_evaluation_integrates_once(made_runs, kind):
    # each trace entry is one integration, coarse or at full tolerance (the
    # coarse root is integrated once more, at full tolerance, to open the
    # polish); the touch state is the last solver evaluation's rest, not a
    # second integration of h*; the brake rest count is given, so the
    # bracket ends are solver evaluations rather than classification runs
    kwargs = {"k": 3} if kind == "brake" else {}
    rec = FINDERS[kind](-1.0, **kwargs)
    assert len(made_runs) == len(rec.solver_trace)


def test_whole_bracket_search_reuses_the_polish_run(made_runs):
    # a coarse root at the bracket's lower end leaves the polish no secant,
    # so the search on the whole bracket opens at the height the polish has
    # just read at the given settings: it reads that run again, and each
    # distinct launch is integrated once
    lo = H_STAR_E1 - 1e-7
    rec = shooting.find_langmuir_orbit(-1.0, bracket=(lo, 3.0))
    heights = [h for h, _ in rec.solver_trace]
    assert heights[:3] == [lo, lo, lo]  # coarse, polish, whole bracket
    launches = {(s0.y, settings_) for s0, settings_ in made_runs}
    assert len(made_runs) == len(launches) == len(rec.solver_trace) - 1
    # every value at the given settings is a fresh integration's, bit for
    # bit, the root and its residual included
    assert rec.solver_trace[-1] == (rec.h_star, rec.alpha_residual)
    for h, alpha in rec.solver_trace[1:]:
        assert alpha.hex() == _alpha_k(-1.0, h, 1).hex()


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_find_orbit_integrates_each_launch_once(made_runs, tmp_path, kind):
    # classification integrates each bracket end once, to its k-th rest, at
    # the coarse stage's tolerance; the coarse stage starts from those
    # runs' values, and assembly from the h* arc, whose retrace steps on the
    # arc's own mesh and makes no run, so each integration is one trace
    # entry (the coarse root is one entry at each tolerance)
    prefix = tmp_path / kind
    argv = ["find-orbit", "--energy", "-1.0", "--kind", kind]
    assert main(argv + ["--out", str(prefix)]) == 0
    rec = parse_orbit_record(
        (tmp_path / f"{kind}.orbit.json").read_text()
    )
    assert len(made_runs) == len(rec.solver_trace)


@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("kind, count", [("langmuir", 31), ("brake", 141)])
def test_find_orbit_builds_no_orbit_records(monkeypatch, tmp_path, kind,
                                            count, out):
    # the States a `find-orbit` command builds, with or without --out: its
    # quarter arc's samples and events (20 + 1 for Langmuir, 127 + 3 for
    # the brake orbit) and one launch per solver evaluation (10 and 11).
    # None of the 4T orbit and none of the retrace's states.  Every State
    # goes through State.__init__.  Pinned exactly as the field evaluations
    # are
    built = [0]
    real = dyn.State.__init__

    def count_built(*args, **kwargs):
        built[0] += 1
        real(*args, **kwargs)

    monkeypatch.setattr(dyn.State, "__init__", count_built)
    argv = ["find-orbit", "--energy", "-1.0", "--kind", kind]
    if out:
        argv += ["--out", str(tmp_path / kind)]
    assert main(argv) == 0
    assert built[0] == count


class TestResumedRun:
    """The run of one launch, advanced rest by rest, against the unstopped
    run of that launch cut at each rest."""

    @pytest.mark.parametrize("rel_tol", [IntegratorSettings().rel_tol, 1e-8])
    @settings(max_examples=5, deadline=None)
    @given(E=st.floats(min_value=-2.0, max_value=-0.5))
    @example(E=-2.0)
    @example(E=-1.0)
    @example(E=-0.7)
    @example(E=-0.5)
    def test_each_rest_arc_is_a_fresh_quarter(self, rel_tol, E):
        # the 4th rest of both default brake ends comes before t = 10 at
        # E = -1, and a launch at E reads t_limit in E = -1 units
        settings_ = IntegratorSettings(rel_tol=rel_tol, t_limit=10.0)
        for h in shooting._bracket_at(E, None, shooting.DEFAULT_BRAKE_BRACKET):
            s0 = dyn.initial_state(dyn.ProblemSpec(E=E, h=h))
            cuts = rest_cuts(s0, settings_, E)
            run = shooting._launch(E, h, settings_)
            for k in range(1, 5):
                want = trajectory_bits(cuts[k - 1])
                resumed = shooting._next_rest(run, k)
                assert trajectory_bits(_build_trajectory(resumed)) == want
                fresh = _build_trajectory(
                    shooting._rest_run(E, h, k, settings_))
                assert trajectory_bits(fresh) == want

    def test_run_stopped_short_rejects_the_bracket(self, made_runs):
        # both default ends rest twice before t = 4 and a third time after:
        # the brake search's classification integrates each end once, and
        # the message is the one for a bracket that no rest count up to
        # MAX_RESTS separates
        short = IntegratorSettings(t_limit=4.0)
        with pytest.raises(BadBracket, match=re.escape(
            "no rest count up to 8 separates the bracket (0.3, 0.8)"
        )):
            shooting.find_brake_orbit(-1.0, settings=short)
        assert len(made_runs) == 2

    def test_quarter_without_the_rest_raises_no_rest(self):
        # the same ends have no 3rd rest before t = 4: the error names the
        # rest count asked for, not the first one missing
        with pytest.raises(NoRest) as exc:
            shooting._rest_run(-1.0, 0.3, 4, IntegratorSettings(t_limit=4.0))
        assert (exc.value.k, exc.value.termination) == (4, "TimeLimit")


def test_only_kept_rests_build_an_arc(made_runs, monkeypatch):
    # classification and alpha_k read alpha at each rest without building
    # its arc; the brake search builds one arc, the root's at its own
    # settings, and none for its classification, coarse stage or the
    # polish's other evaluations
    builds = []
    real = shooting._build_trajectory
    settings_of = {}
    real_init = integrator._Run.__init__

    def build(run):
        builds.append(run)
        return real(run)

    def init(self, s0, settings_, *args, **kwargs):
        settings_of[self] = settings_
        real_init(self, s0, settings_, *args, **kwargs)

    monkeypatch.setattr(shooting, "_build_trajectory", build)
    monkeypatch.setattr(integrator._Run, "__init__", init)
    assert _classified(-1.0) == 3
    _alpha_k(-1.0, 0.8, 3)
    assert builds == []
    made_runs.clear()
    rec = shooting.find_brake_orbit(-1.0)
    full = [c for c in made_runs if c[1] == IntegratorSettings()]
    assert 1 < len(full) < len(made_runs)
    assert len(builds) == 1
    assert settings_of[builds[0]] == IntegratorSettings()
    assert builds[0].samples[-1][1][3] == rec.alpha_residual


class TestBrakeClassification:
    """The rest count the brake search picks at the coarse stage's
    tolerance, against the classifier at the given settings and the
    fixed-step RK4 of conftest."""

    def test_search_picks_the_given_settings_rest_count(
        self, rng, monkeypatch
    ):
        # find_brake_orbit's k, or its BadBracket, on random brackets is the
        # one classification finds at the default settings
        monkeypatch.setattr(shooting, "_find_orbit",
                            lambda E, bracket, k, *args: k)
        outcomes = set()
        for _ in range(10):
            bracket = tuple(sorted(rng.uniform(0.05, 3.3) for _ in "lh"))
            want = _classified(-1.0, bracket)
            outcomes.add(want)
            if want in (None, 1):
                with pytest.raises(BadBracket, match=(
                    "separates" if want is None else "simple orbit"
                )):
                    shooting.find_brake_orbit(-1.0, bracket)
            else:
                assert shooting.find_brake_orbit(-1.0, bracket) == want
        # the sample holds a rejected bracket, the simple orbit's and a
        # brake orbit's
        assert {None, 1} < outcomes

    def test_end_next_to_the_root_is_classified_at_full_tolerance(
        self, made_runs
    ):
        # an end a relative 1e-7 above h*, between h* and the coarse root
        # (about 6.9e-7 above it): its coarse alpha_3 has the wrong sign, and
        # lies within CLASSIFY_MARGIN, so classification runs again at the
        # given settings
        bracket = (0.3, H_STAR_BRAKE * (1.0 + 1e-7))
        rec = shooting.find_brake_orbit(-1.0, bracket)
        assert rec.kind == "Brake-3"
        assert abs(rec.h_star - H_STAR_BRAKE) <= H_STAR_BRAKE_TOL
        first = [(s0.y, settings_.rel_tol) for s0, settings_
                 in made_runs[:4]]
        full = IntegratorSettings().rel_tol
        assert first == [
            (bracket[0], pytest.approx(shooting.COARSE_REL_TOL)),
            (bracket[1], pytest.approx(shooting.COARSE_REL_TOL)),
            (bracket[0], full),
            (bracket[1], full),
        ]

    def test_work_of_a_classified_search(self, made_runs):
        # the default bracket's classification runs at the coarse stage's
        # tolerance; the only launches at the given settings are the
        # polish's, the trace's last entries
        rec = shooting.find_brake_orbit(-1.0)
        lo, hi = shooting.DEFAULT_BRAKE_BRACKET
        heights = [s0.y for s0, _ in made_runs]
        tols = [settings_.rel_tol for _, settings_ in made_runs]
        assert heights[:2] == [lo, hi]
        assert heights == [h for h, _ in rec.solver_trace]
        n_full = tols.count(IntegratorSettings().rel_tol)
        assert 0 < n_full < len(tols) - 2
        assert tols[:-n_full] == pytest.approx(
            [shooting.COARSE_REL_TOL] * (len(tols) - n_full)
        )
        assert not {lo, hi} & set(heights[-n_full:])

    def test_coarse_alphas_stay_within_the_margin(self, rng):
        # classification at the coarse stage's settings reads only signs,
        # and runs again at the given settings once an |alpha_j| is within
        # CLASSIFY_MARGIN, which is over twice the largest gap measured; so
        # alpha_k there and at the default settings (k <= 5) may differ by
        # at most half the margin, and do, over 60 seeded launches on
        # [0.05, 3.4] at E = -1 and at the launches of larger seeded
        # samples with the largest differences at earlier settings: when
        # runs started at a trial step of 1e-3, h = 0.37494... (2.4e-2 in
        # alpha_5), h = 3.33062... and 3.33402... (0.18 and 0.19 in alpha_4;
        # the latter passes 0.025 from the nucleus), and h = 3.35651...,
        # which passes 0.02 from it; and h = 3.31871..., where the coarse
        # stage, its steps capped at 0.316, was off by 0.27 in alpha_4.
        # With no cap, they differ by at most 2.8e-5.  The coarse stage runs
        # at these settings whatever the given ones (see the next test)
        coarse = shooting._coarse(IntegratorSettings())
        heights = [rng.uniform(0.05, 3.4) for _ in range(60)]
        for h in heights + [0.37494581732371746, 3.330620329714371,
                            3.334024910547552, 3.3565107859155803,
                            3.318712565244281]:
            full = shooting._launch(-1.0, h, IntegratorSettings())
            want = [shooting._alpha(shooting._next_rest(full, k))
                    for k in range(1, 6)]
            rough = shooting._launch(-1.0, h, coarse)
            for k in range(1, 6):
                got = shooting._alpha(shooting._next_rest(rough, k))
                assert (abs(got - want[k - 1])
                        <= shooting.CLASSIFY_MARGIN / 2)

    @pytest.mark.parametrize("given", [
        *(IntegratorSettings(rel_tol=tol)
          for tol in (1e-7, 1e-8, 1e-12, 1e-14, 1e-16)),
        IntegratorSettings(rel_tol=5e-7, t_limit=50.0),
    ], ids=["tol_1e-7", "tol_1e-8", "tol_1e-12", "tol_1e-14", "tol_1e-16",
            "all"])
    def test_coarse_settings_are_fixed(self, given):
        # CLASSIFY_MARGIN was measured at the coarse settings of the
        # defaults, so a finer --tol may not move them.  Only t_limit
        # carries over
        default = shooting._coarse(IntegratorSettings())
        assert default == IntegratorSettings(rel_tol=shooting.COARSE_REL_TOL)
        assert shooting._coarse(given) == default.replace(
            t_limit=given.t_limit)
        assert shooting._coarse(given.replace(t_limit=7.0)) == (
            default.replace(t_limit=7.0))
        assert shooting._coarse(given.replace(rel_tol=1e-6)) is None

    @pytest.mark.parametrize("h, alpha_3", [(0.3, -1.76133), (0.8, 1.98551)])
    def test_rk4_gives_the_coarse_signs(self, h, alpha_3):
        # the fixed-step RK4, run to each rest time of the coarse run, ends
        # with vy of the sign the coarse alpha_k has, for k = 1 to 3, and
        # alpha_3 has the sign of its full-tolerance value.  Only signs are
        # compared: the 3rd rest from h = 0.3 lies at y = 0.016, where vy
        # changes by about 4e3 per unit of time, and the coarse rest time is
        # 1.3e-6 off the full-tolerance one
        coarse = shooting._coarse(IntegratorSettings())
        s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
        run = shooting._launch(-1.0, h, coarse)
        for k in range(1, 4):
            t, (_, _, _, alpha) = shooting._next_rest(run, k).samples[-1]
            dt = t / math.ceil(t / 1e-4)
            vy = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, t, dt)[3]
            assert (vy > 0.0) == (alpha > 0.0)
        assert (alpha > 0.0) == (alpha_3 > 0.0)


def _full_search_only(monkeypatch, error=None):
    """Make every coarse quarter raise `error`, by default end without a
    rest, so that _find_orbit falls back to Brent-Dekker at the given
    settings on the whole bracket."""
    real = shooting._rest_run
    default = IntegratorSettings()

    def rest_run(E, h, k, settings):
        if settings.rel_tol > default.rel_tol:
            raise error or NoRest(k, EventKind.TIME_LIMIT.value)
        return real(E, h, k, settings)

    monkeypatch.setattr(shooting, "_rest_run", rest_run)


class TestTwoStageSearch:
    """The coarse solve and full-tolerance polish of the orbit search,
    against a fresh integration, a finer re-integration and the search on
    the whole bracket at full tolerance."""

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_record_arc_is_a_full_tolerance_arc(self, orbits_at_e1, kind):
        rec = orbits_at_e1[kind]
        settings, arc = rec._quarter_arc
        assert settings == IntegratorSettings()
        fresh = _build_trajectory(shooting._rest_run(
            rec.E, rec.h_star, REST_COUNTS[kind], settings))
        assert trajectory_bits(arc) == trajectory_bits(fresh)

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
        # a coarse quarter whose located event lies off the half plane
        # raises DomainError; the search on the whole bracket still finds
        # the orbit
        _full_search_only(monkeypatch, DomainError("y must be positive"))
        rec = shooting.find_brake_orbit(-1.0)
        lo, hi = shooting.DEFAULT_BRAKE_BRACKET
        # the coarse stage's bracket ends, then the whole-bracket search's
        assert [h for h, _ in rec.solver_trace[:4]] == [lo, hi, lo, hi]
        assert abs(rec.h_star - orbits_at_e1["brake"].h_star) <= 1e-8
        assert abs(rec.alpha_residual) <= shooting.ALPHA_TOL

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    @pytest.mark.parametrize("E", [-2.0, -1.0, -0.5])
    def test_root_holds_at_a_finer_tolerance(self, kind, E):
        rec = FINDERS[kind](E)
        fine = IntegratorSettings(rel_tol=1e-12)
        alpha = _alpha_k(E, rec.h_star, REST_COUNTS[kind], fine)
        assert abs(alpha) <= 1e-7

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_trace_ends_at_the_root_inside_the_bracket(
        self, made_runs, kind
    ):
        kwargs = {"k": 3} if kind == "brake" else {}
        rec = FINDERS[kind](-1.0, **kwargs)
        lo, hi = {"langmuir": shooting.DEFAULT_BRACKET,
                  "brake": shooting.DEFAULT_BRAKE_BRACKET}[kind]
        assert rec.solver_trace[-1] == (rec.h_star, rec.alpha_residual)
        assert all(lo <= h <= hi for h, _ in rec.solver_trace)
        # no launch is integrated twice at the same settings; both stages
        # ran, and the root is integrated at the given settings
        assert len(set(made_runs)) == len(made_runs)
        tols = [settings.rel_tol for _, settings in made_runs]
        assert tols[0] == pytest.approx(shooting.COARSE_REL_TOL)
        assert tols[-1] == IntegratorSettings().rel_tol
        assert made_runs[-1][0] == _launch(rec)

    def test_no_coarse_stage_at_coarse_settings(self, made_runs):
        coarse = IntegratorSettings(rel_tol=shooting.COARSE_REL_TOL)
        rec = shooting.find_langmuir_orbit(-1.0, settings=coarse)
        assert {settings for _, settings in made_runs} == {coarse}
        assert len(made_runs) == len(rec.solver_trace)

    def test_bracket_without_sign_change_raises_at_full_tolerance(self):
        # the error is the full-tolerance search's: its values are alpha
        # at the given settings
        alpha = shooting.shoot(-1.0, 0.2).alpha
        with pytest.raises(BadBracket, match=re.escape(f"f(lo)={alpha}")):
            shooting.find_langmuir_orbit(-1.0, bracket=(0.2, 0.3))

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12, 1e-13])
    @pytest.mark.parametrize("E", [-2.0, -1.6, -1.0, -0.77, -0.5])
    def test_polish_is_two_evaluations(self, monkeypatch, kind, rel_tol, E):
        # the traffic the polish is built for: the coarse stage is the one
        # Brent-Dekker solve, and the polish adds alpha_k at the coarse
        # root and chord steps from it, all at the given settings, the last
        # within the stop (in E = -1 units): ALPHA_TOL, scaled by rel_tol
        # below the default.  One step, two evaluations, at and above the
        # default rel_tol; below it the brake search takes a second step
        # (measured: 3 evaluations at 1e-12 and 1e-13, Langmuir's 2)
        solves = []
        real = shooting._solve_bracketed

        def solve(f, lo, hi, tol_f):
            f, trace = _traced(f)
            root = real(f, lo, hi, tol_f)
            solves.append((tol_f, len(trace), root))
            return root

        monkeypatch.setattr(shooting, "_solve_bracketed", solve)
        settings_ = IntegratorSettings(rel_tol=rel_tol)
        rec = FINDERS[kind](E, settings=settings_)
        [(tol_f, n_coarse, (h0, _))] = solves
        assert tol_f == 1e3 * (shooting.ALPHA_TOL * math.sqrt(-E))
        polish = rec.solver_trace[n_coarse:]
        default = IntegratorSettings().rel_tol
        assert len(polish) == 2 or (rel_tol < default and len(polish) == 3)
        (h_first, alpha_first), last = polish[0], polish[-1]
        k = REST_COUNTS[kind]
        assert h_first == h0
        assert alpha_first == _alpha_k(E, h0, k, settings_)
        assert last == (rec.h_star, rec.alpha_residual)
        stop = shooting.ALPHA_TOL * min(1.0, rel_tol / default)
        assert abs(rec.alpha_residual) / math.sqrt(-E) <= stop

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_h_star_converges_with_rel_tol(self, kind):
        # the search's stop follows rel_tol below the default, so h*
        # improves with the integration: against the 25-digit table, its
        # error at rel_tol 1e-12 is over 10 times smaller than at 1e-10
        # (measured: 77 times for the brake orbit, 1.7e-11 to 2.2e-13, and
        # 13.8 times for Langmuir's), and so is Langmuir's quarter
        # period's (measured 24.8 times)
        recs = [FINDERS[kind](-1.0, settings=IntegratorSettings(rel_tol))
                for rel_tol in (1e-10, 1e-12)]
        h_star = {"langmuir": H_STAR_E1, "brake": H_STAR_BRAKE}[kind]
        coarse, fine = (abs(rec.h_star - h_star) for rec in recs)
        assert fine * 10.0 <= coarse
        if kind == "langmuir":
            coarse, fine = (abs(rec.quarter_period - T_QUARTER_E1)
                            for rec in recs)
            assert fine * 10.0 <= coarse

    def test_unconverged_brake_search_still_raises(self, monkeypatch):
        # alpha_3 that jumps from -1 to 1 across the root, so no point
        # meets ALPHA_TOL: the search on the whole bracket, which the failed
        # coarse stage falls back to, shrinks its bracket to nothing, and
        # its error surfaces
        real = shooting._rest_run

        def rest_run(E, h, k, settings):
            run = real(E, h, k, settings)
            t, (x, y, vx, vy) = run.samples[-1]
            run.samples[-1] = (t, (x, y, vx, math.copysign(1.0, vy)))
            return run

        monkeypatch.setattr(shooting, "_rest_run", rest_run)
        _full_search_only(monkeypatch)
        with pytest.raises(NoConvergence, match="shrunk"):
            shooting.find_brake_orbit(-1.0)


# Closed-form laws of the exact flow, checked on random admissible launches.


def _first_rest(E, h):
    """The state at the first x-rest of the horizontal launch from (0, h) at
    energy E: the last sample of shoot's run."""
    run, res = shooting._shoot(E, h, IntegratorSettings())
    assert res.status == "ok"
    return _build_trajectory(run).samples[-1]


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_first_rest_lies_on_the_energy_shell(E, u):
    rest = _first_rest(E, u / -E)
    assert abs(dyn.energy(rest) - E) <= 1e-8 * -E


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_time_reversal_returns_to_the_launch(E, u):
    h = u / -E
    s0 = dyn.initial_state(dyn.ProblemSpec(E=E, h=h))
    res = shooting.shoot(E, h)
    rest = _first_rest(E, h)
    back = integrate(
        dyn.State(t=0.0, x=rest.x, y=rest.y, vx=-rest.vx, vy=-rest.vy),
        IntegratorSettings(t_limit=res.t_h),
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
    # launched at E, as shoot's run is
    traj = _integrate(
        dyn.State(t=0.0, x=0.0, y=h, vx=-s0.vx, vy=0.0), IntegratorSettings(),
        E, stop={EventKind.X_VELOCITY_ZERO},
    )
    assert traj.termination is EventKind.X_VELOCITY_ZERO
    rest, ref = traj.samples[-1], _first_rest(E, h)
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
        assert _classified(-1.0, (0.31, 0.315)) is None
        with pytest.raises(BadBracket, match="separates"):
            shooting.find_brake_orbit(-1.0, (0.31, 0.315))

    def test_positive_energy_rejected(self):
        with pytest.raises(ValueError):
            shooting.find_langmuir_orbit(0.0)

    @pytest.mark.parametrize("search", [
        shooting.find_langmuir_orbit, shooting.find_brake_orbit,
    ])
    def test_zero_energy_rejected_before_the_bracket_is_rescaled(
        self, search
    ):
        with pytest.raises(ValueError, match="requires E < 0"):
            search(0.0)


def _traced(f):
    """f, and the list of its evaluations (x, f(x)) in order, as the orbit
    search's alpha functions record them."""
    trace = []

    def traced(x):
        trace.append((x, f(x)))
        return trace[-1][1]

    return traced, trace


def _solve(f, lo, hi, tol_f):
    f, trace = _traced(f)
    x, fx = shooting._solve_bracketed(f, lo, hi, tol_f)
    return x, fx, trace


class TestRootSolver:
    """_solve_bracketed against roots known in closed form."""

    @pytest.mark.parametrize("f, lo, hi, root, x_tol", [
        # Wallis's cubic; |f'| > 11 at the root
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 2.0945514815423265,
         1e-13),
        # flat on both sides of the root, |f| <= tol within tol**(1/3)
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3, 1e-4),
        # a root at either bracket end
        (lambda x: x - 1.0, 0.0, 1.0, 1.0, 0.0),
        (lambda x: x, 0.0, 1.0, 0.0, 0.0),
    ], ids=["wallis", "flat", "at_end", "at_start"])
    def test_closed_form_roots(self, f, lo, hi, root, x_tol):
        tol = 1e-12
        x, fx, trace = _solve(f, lo, hi, tol)
        assert fx == f(x)
        assert abs(fx) <= tol
        assert lo <= x <= hi
        assert abs(x - root) <= x_tol
        # the answer is the latest evaluation, whose run the orbit search
        # keeps: f(hi) is not read when f(lo) is within the tolerance
        assert (x, fx) == trace[-1]

    def test_same_signs_raise_bad_bracket(self):
        with pytest.raises(BadBracket):
            _solve(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_iteration_limit_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(shooting, "MAX_ITER", 3)
        with pytest.raises(NoConvergence, match="after 3 iterations"):
            _solve(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 0.0)

    def test_collapsed_bracket_raises_no_convergence(self):
        # a jump: |f| never falls below the tolerance, and the solver stops
        # once the bracket is down to rounding, well before MAX_ITER
        f, trace = _traced(lambda x: -1.0 if x < 0.5 else 1.0)
        with pytest.raises(NoConvergence, match="shrunk"):
            shooting._solve_bracketed(f, 0.0, 1.0, 1e-12)
        assert len(trace) < 100


class TestPolish:
    """Each exit of _polish, on closed-form functions: chord steps from the
    coarse root h0 (0.5 unless given), each along the slope of the coarse
    stage's last two points, on the bracket [0, 1]."""

    @staticmethod
    def _polish(f, last, tol_f=1e-12, h0=0.5):
        f, trace = _traced(f)
        return shooting._polish(f, h0, last, (0.0, 1.0), tol_f), trace

    def test_start_within_tolerance(self):
        root, trace = self._polish(lambda x: x - 0.5, [(0.0, -0.5),
                                                        (1.0, 0.5)])
        assert root == (0.5, 0.0)
        assert trace == [root]

    def test_secant_step_lands(self):
        # a line, so the step along the secant through two of its points
        # lands on its root
        root, trace = self._polish(lambda x: x - 0.25, [(0.0, -0.25),
                                                         (1.0, 0.75)])
        assert root == (0.25, 0.0)
        assert trace == [(0.5, 0.25), root]

    @pytest.mark.parametrize("slope, steps", [(1.0, 5), (2.0, 38)])
    def test_chord_steps_land(self, slope, steps):
        # x^2 - 1/4 is not its secant, so each step from 0.9 misses 1/2 and
        # the next one starts there.  Along the slope 1, f' at the root,
        # the error squares at each step (0.4, 0.16, 0.026, 6.6e-4, 4.3e-7,
        # 1.8e-13); along the slope 2 it halves, so 1e-12 takes 38 steps
        f = lambda x: x * x - 0.25  # noqa: E731
        root, trace = self._polish(f, [(0.0, -0.25), (1.0, slope - 0.25)],
                                   h0=0.9)
        assert root == trace[-1]
        assert abs(root[1]) <= 1e-12
        assert abs(root[0] - 0.5) <= 1e-12
        assert len(trace) == steps + 1
        for (h, fh), (step, f_step) in zip(trace, trace[1:]):
            assert step == h - fh / slope
            assert abs(f_step) < abs(fh)

    def test_step_budget(self, monkeypatch):
        # the slope-2 chord steps above, cut after MAX_ITER steps
        monkeypatch.setattr(shooting, "MAX_ITER", 3)
        root, trace = self._polish(lambda x: x * x - 0.25,
                                   [(0.0, -0.25), (1.0, 1.75)], h0=0.9)
        assert root is None
        assert len(trace) == 4

    @pytest.mark.parametrize("f, last", [
        # a flat secant has no step
        (lambda x: x - 0.25, [(0.0, 2.0), (1.0, 2.0)]),
        # a step of -0.25 / 0.01 leaves the bracket
        (lambda x: x - 0.25, [(0.0, 0.0), (1.0, 0.01)]),
        # a step of 1e-20 stands still at 0.5
        (lambda x: 1e-20, [(0.0, 0.0), (1.0, 1.0)]),
        # a coarse stage that read one point (its root, the bracket's lower
        # end) has no secant
        (lambda x: x - 0.25, [(0.0, 2.0)]),
    ], ids=["flat", "off_the_bracket", "standing_still", "one_point"])
    def test_no_step_leaves_the_root_to_the_whole_bracket(self, f, last):
        root, trace = self._polish(f, last, tol_f=1e-30)
        assert root is None
        assert trace == [(0.5, f(0.5))]

    def test_step_that_misses(self):
        # a step that does not shrink |f| returns None: along the slope
        # 0.4, the step from 0.4 overshoots the root of x - 1/4 to 0.025,
        # where |f| = 0.225 > 0.15
        f = lambda x: x - 0.25  # noqa: E731
        root, trace = self._polish(f, [(0.0, 0.0), (1.0, 0.4)], h0=0.4)
        assert root is None
        assert [h for h, _ in trace] == [0.4, 0.4 - f(0.4) / 0.4]
        assert abs(trace[1][1]) > abs(trace[0][1])


class TestScan:
    # scan_alpha reads its results off the runs, as _shoot does; every
    # field of every row agrees with _shoot's and with the result read off
    # the trajectory of the same launch run by `_integrate` watching the
    # magical-line crossings, whose count is that of its located crossing
    # events, the NoRest rows' too, whose t_h and alpha are nan and whose
    # crossings and drift are the run's (t_limit = 1 stops the upper half
    # of the grid before its first rest).  _shoot's run, which watches no
    # crossing, has the watched run's samples bit for bit: watching
    # changes no step
    @pytest.mark.parametrize("E, settings_", [
        (-1.0, IntegratorSettings()),
        (-1000.0, IntegratorSettings()),
        (-1.0, IntegratorSettings(t_limit=1.0)),
    ], ids=["e-1", "e-1000", "no_rest"])
    def test_scan_rows_equal_the_shoot_run_results(self, E, settings_):
        grid = [h / -E for h in shooting.default_grid()]
        rows = shooting.scan_alpha(E, grid, settings_)
        runs = [shooting._shoot(E, h, settings_) for h in grid]
        assert len(rows) == len(runs) == len(grid)
        for h, row, (run, res) in zip(grid, rows, runs):
            traj = _integrate(dyn.initial_state(dyn.ProblemSpec(E=E, h=h)),
                              settings_, E,
                              watch={EventKind.MAGICAL_LINE_CROSS},
                              stop={EventKind.X_VELOCITY_ZERO})
            assert repr([(t, *y) for t, y in run.samples]) == repr(
                [(s.t, s.x, s.y, s.vx, s.vy) for s in traj.samples])
            crossings = sum(1 for e in traj.events
                            if e.kind is EventKind.MAGICAL_LINE_CROSS)
            if traj.termination is EventKind.X_VELOCITY_ZERO:
                rest = traj.samples[-1]
                want = shooting.ShootResult(h, rest.t, rest.vy, crossings,
                                            traj.max_energy_drift)
            else:
                want = shooting.ShootResult(
                    h, math.nan, math.nan, crossings, traj.max_energy_drift,
                    f"NoRest({traj.termination.value})")
            for name in want._fields:
                # repr tells every float bit, nan and -0.0 included
                got = repr(getattr(row, name))
                assert got == repr(getattr(res, name)), name
                assert got == repr(getattr(want, name)), name
        statuses = {r.status for r in rows}
        if settings_.t_limit < 100.0:
            assert statuses == {"ok", "NoRest(TimeLimit)"}
        else:
            assert statuses == {"ok"}

    # _shoot counts the crossings as the sign changes between its run's
    # samples, watching none; the oracle is the same launch run watching
    # them, whose located MAGICAL_LINE_CROSS events are counted.  The two
    # differ in one case alone: the residual changes sign between the last
    # step end and the stop and back before the stop's step ends, so the
    # watch, which sees the step ends, locates no crossing in that step and
    # the samples count one.  The time limit, log-uniform on [0.3, 100],
    # stops about a third of the launches before their first rest (at
    # t <= 2.2 in E = -1 units): NoRest rows
    @settings(max_examples=40, deadline=None)
    @given(E=st.floats(min_value=-31.0, max_value=-0.03),
           u=st.floats(min_value=0.05, max_value=3.45),
           rel_tol=st.floats(min_value=-12.0, max_value=-5.0).map(
               lambda p: 10.0 ** p),
           t_limit=st.floats(min_value=math.log10(0.3), max_value=2.0).map(
               lambda p: 10.0 ** p))
    # a magical-line crossing after the rest, in the rest's step
    @example(E=-1.0, u=0.5, rel_tol=1e-10, t_limit=100.0)
    def test_crossings_counted_at_samples_are_the_located_ones(
            self, E, u, rel_tol, t_limit):
        h = u / -E
        settings_ = IntegratorSettings(rel_tol=rel_tol, t_limit=t_limit)
        _, res = shooting._shoot(E, h, settings_)
        traj = _integrate(dyn.initial_state(dyn.ProblemSpec(E=E, h=h)),
                          settings_, E, watch={EventKind.MAGICAL_LINE_CROSS},
                          stop={EventKind.X_VELOCITY_ZERO})
        located = [e.t for e in traj.events
                   if e.kind is EventKind.MAGICAL_LINE_CROSS]
        f = integrator._RESIDUALS[EventKind.MAGICAL_LINE_CROSS]
        last, stop = traj.samples[-2:]
        r0, r1 = (f((s.x, s.y, s.vx, s.vy)) for s in (last, stop))
        undone = ((r0 > 0.0 and r1 <= 0.0) or (r0 < 0.0 and r1 >= 0.0)) \
            and not any(t > last.t for t in located)
        assert res.n_magical_crossings == len(located) + undone

    def test_no_rest_row_holds_the_run_crossings_and_drift(self):
        # the launch from h = 1 crosses the magical line at t = 0.384 and
        # rests only after t = 0.6: its row has no rest time or alpha, but
        # the one crossing, which the fixed-step RK4 confirms (sqrt(3) y -
        # |x| changes sign between t = 0.35 and 0.42), and a drift
        (row,) = shooting.scan_alpha(-1.0, [1.0],
                                     IntegratorSettings(t_limit=0.6))
        assert row.status == "NoRest(TimeLimit)"
        assert math.isnan(row.t_h) and math.isnan(row.alpha)
        assert row.n_magical_crossings == 1
        assert 0.0 < row.energy_drift <= 1e-10
        s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=1.0))
        sides = []
        for t in (0.35, 0.42):
            x, y, _, _ = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, t, 1e-4)
            sides.append(dyn.SQRT3 * y - abs(x) > 0.0)
        assert sides == [True, False]

    def test_grid_has_one_sign_change(self):
        grid = shooting.default_grid(n=30)
        results = shooting.scan_alpha(-1.0, grid)
        brackets = shooting.sign_change_brackets(results)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo < H_STAR_E1 < hi

    def test_grid_of_one_point_is_its_low_end(self):
        assert shooting.default_grid(0.5, 1.0, 1) == [0.5]
        assert shooting.default_grid(0.5, 1.0, 2) == [0.5, 1.0]

    def test_grid_ends_exactly_at_its_ends(self, rng):
        # lo + (hi - lo) * i / (n - 1) rounds above hi at i = n - 1 for
        # about 2% of these grids, so the last point is hi itself
        for _ in range(2_000):
            lo = rng.uniform(0.01, 3.0)
            hi = lo + rng.uniform(0.01, 3.0)
            n = rng.randint(2, 100)
            grid = shooting.default_grid(lo, hi, n)
            assert len(grid) == n
            assert grid[0] == lo and grid[-1] == hi
            assert all(a < b for a, b in zip(grid, grid[1:]))

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

    def test_retrace_guard(self, monkeypatch):
        monkeypatch.setattr(shooting, "CLOSURE_RATIO", 0.0)
        with pytest.raises(ClosureFailure):
            shooting.assemble_periodic_orbit(self.rec)

    def test_samples_stay_in_upper_half_plane(self):
        assert all(s.y > 0.0 for s in self.orbit.samples)


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_assembly_is_the_quarter_and_its_mirror_images(orbits_at_e1, kind):
    # the 4T orbit written out from its definition, sample by sample: the
    # quarter, its time reversal, then the x-reflection of that half but
    # its launch; bit for bit, signed zeros included
    rec = orbits_at_e1[kind]
    quarter = rec._quarter_arc[1]
    q = quarter.samples
    T = q[-1].t
    half = list(q) + [dyn.State(t=2.0 * T - s.t, x=s.x, y=s.y, vx=-s.vx,
                                vy=-s.vy) for s in reversed(q[:-1])]
    want = half + [dyn.State(t=2.0 * T + s.t, x=-s.x, y=s.y, vx=-s.vx,
                             vy=s.vy) for s in half[1:]]
    got = shooting.assemble_periodic_orbit(rec)
    assert trajectory_bits(got) == trajectory_bits(
        quarter.replace(samples=tuple(want)))


def _launch(rec):
    return dyn.initial_state(dyn.ProblemSpec(E=rec.E, h=rec.h_star))


class TestAssemblyArc:
    """Which quarter arc assemble_periodic_orbit closes into the orbit."""

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_search_arc_is_reused(self, orbits_at_e1, made_runs, kind):
        # the retrace steps back on the search's own arc: no run is made
        rec = orbits_at_e1[kind]
        shooting.assemble_periodic_orbit(rec)
        assert made_runs == []

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_retrace_runs_at_the_search_settings(self, monkeypatch,
                                                 made_runs, kind):
        # the record carries the settings its arc was made at, and the
        # retrace's stepper reads them, from the touch point with its
        # velocities negated, over the arc's sample times
        given = IntegratorSettings(rel_tol=1e-9, t_limit=50.0)
        rec = FINDERS[kind](-1.0, settings=given)
        made_runs.clear()
        calls = []

        def retrace(settings_, E, times, y, _real=shooting._retrace):
            calls.append((settings_, E, list(times), y))
            return _real(settings_, E, times, y)

        monkeypatch.setattr(shooting, "_retrace", retrace)
        shooting.assemble_periodic_orbit(rec)
        touch = rec.touch_state
        arc = rec._quarter_arc[1]
        assert calls == [(given, rec.E, [s.t for s in arc.samples],
                          (touch.x, touch.y, -touch.vx, -touch.vy))]
        assert made_runs == []

    @pytest.mark.parametrize("kind", sorted(FINDERS))
    def test_one_backward_step_per_forward_step(self, orbits_at_e1,
                                                monkeypatch, kind):
        # every forward sample but the touch, where the retrace starts, is
        # the end of one backward step; none is rejected or skipped
        rec = orbits_at_e1[kind]
        sizes = []

        def trial(y, h, *args, _real=integrator._trial):
            sizes.append(h)
            return _real(y, h, *args)

        monkeypatch.setattr(integrator, "_trial", trial)
        shooting.assemble_periodic_orbit(rec)
        times = [s.t for s in rec._quarter_arc[1].samples]
        assert len(sizes) == len(times) - 1
        assert sizes == [b - a for a, b in zip(times[-2::-1], times[::-1])]


def _retrace_worst(monkeypatch, rec):
    """The retrace deviation, in E = -1 units, that assemble_periodic_orbit
    reports when every deviation exceeds its tolerance."""
    monkeypatch.setattr(shooting, "CLOSURE_RATIO", 0.0)
    with pytest.raises(ClosureFailure) as info:
        shooting.assemble_periodic_orbit(rec)
    return float(re.search(r"by (\S+) in E = -1 units", str(info.value))[1])


@pytest.mark.parametrize("kind", sorted(FINDERS))
@pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12])
def test_closure_tolerance_catches_a_displaced_sample(kind, tol):
    # the closure tolerance, 1e4 x rel_tol, fails a quarter arc with one
    # forward sample 10 times that far off: the search's own arc, at the
    # settings --tol gives, with the x of its launch, of the sample after
    # it, of its middle sample or of the last sample before the touch
    # moved.  At 1e-12 that is 1e-7, under the fixed floor of 1e-6 that
    # finer tolerances once kept
    settings = IntegratorSettings(rel_tol=tol)
    closure_tol = 1e4 * tol
    rec = FINDERS[kind](-1.0, settings=settings)
    shooting.assemble_periodic_orbit(rec)
    arc_settings, arc = rec._quarter_arc
    n = len(arc.samples)
    for i in (0, 1, n // 2, n - 2):
        samples = list(arc.samples)
        samples[i] = samples[i].replace(x=samples[i].x + 10.0 * closure_tol)
        object.__setattr__(
            rec, "_quarter_arc",
            (arc_settings, arc.replace(samples=tuple(samples))))
        with pytest.raises(ClosureFailure, match="deviates"):
            shooting.assemble_periodic_orbit(rec)


def _closes_by_requests(rec):
    """Whether the quarter arc of `rec` retraces by an independent method:
    a chain of adaptive backward runs from the touch state with negated
    velocities, at the arc's settings and launched at the arc's level,
    each from the last one's end to the mirror time T - t of the next
    forward sample back, its time limit, where its last sample lies; the
    launch pairs with the chain's end at T.  Every forward sample must lie
    within CLOSURE_RATIO x rel_tol of its mirror state, in E = -1 units."""
    settings_, quarter = rec._quarter_arc
    touch = quarter.samples[-1]
    T = touch.t
    state = dyn.State(t=0.0, x=touch.x, y=touch.y, vx=-touch.vx,
                      vy=-touch.vy)
    time_unit, q_unit, v_unit = (-rec.E) ** 1.5, -rec.E, math.sqrt(-rec.E)
    mirror_t = 0.0
    for s in reversed(quarter.samples[:-1]):
        span, mirror_t = T - s.t - mirror_t, T - s.t
        back = integrator._Run(
            state, settings_.replace(t_limit=span * time_unit), (), (),
            rec.E).advance()
        if back.termination is not EventKind.TIME_LIMIT:
            return False
        state = dyn.State(0.0, *back.samples[-1][1])
        if not max(q_unit * abs(state.x - s.x), q_unit * abs(state.y - s.y),
                   abs(state.vx + s.vx) / v_unit,
                   abs(state.vy + s.vy) / v_unit) <= 1e4 * settings_.rel_tol:
            return False
    return True


def _closes(rec):
    try:
        shooting._closed_quarter_arc(rec)
    except ClosureFailure:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(FINDERS))
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("E", [-1.0, -1.6])
def test_retrace_agrees_with_a_run_that_requests_the_mirror_times(E, tol,
                                                                 kind):
    # the retrace on the arc's own steps and the adaptive backward runs,
    # each ending at the mirror time it asks for, give the same verdict,
    # and both close these orbits
    rec = FINDERS[kind](E, settings=IntegratorSettings(rel_tol=tol))
    assert _closes(rec) is _closes_by_requests(rec) is True


@pytest.mark.parametrize("E", [-1.0, -1.6])
def test_both_retraces_fail_the_brake_orbit_at_a_coarse_tolerance(E):
    # the brake orbit is unstable: at rel_tol 1e-5 either retrace deviates
    # from its quarter arc by more than 1e4 x rel_tol
    rec = shooting.find_brake_orbit(E, settings=IntegratorSettings(1e-5))
    assert _closes(rec) is _closes_by_requests(rec) is False


def test_brake_retrace_deviation_follows_the_scaling_law(orbits_at_e1,
                                                         monkeypatch):
    # the E = -4 brake orbit is the E = -1 one with positions scaled by 1/4
    # and velocities by 2; in E = -1 units only integration error differs
    ref = _retrace_worst(monkeypatch, orbits_at_e1["brake"])
    worst = _retrace_worst(monkeypatch, shooting.find_brake_orbit(-4.0))
    assert ref <= 1e-6
    assert abs(worst / ref - 1.0) <= 0.1


class TestQuarterArcInvariants:
    def test_vertical_velocity_negative_before_first_crossing(self):
        for h in (0.4, 1.0, 1.398, 2.7):
            s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
            traj = integrate(
                s0,
                IntegratorSettings(),
                stop={EventKind.MAGICAL_LINE_CROSS},
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
            stop={EventKind.X_VELOCITY_ZERO},
        )
        speeds = [s.vx * s.vx + s.vy * s.vy for s in traj.samples]
        for a, b in zip(speeds, speeds[1:]):
            assert b <= a + 1e-10
