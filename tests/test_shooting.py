import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langmuir_lab import dynamics as dyn
from langmuir_lab import output, shooting
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

from conftest import launches, rest_cuts, rk4_fixed, trajectory_bits

# Reference values at E = -1 that owe nothing to this integrator: a
# 25-digit Taylor-series integration (mpmath 1.3.0's odefun).  The zeros of
# alpha and alpha_3, the quarter period, and alpha at the ends of
# DEFAULT_BRACKET and alpha_3 at those of DEFAULT_BRAKE_BRACKET, keyed by
# (h, k).
H_STAR_E1 = 1.4070602237456081289
T_QUARTER_E1 = 1.0619636445200052397
H_STAR_BRAKE = 0.33125533690417354682
BRACKET_END_ALPHAS = {
    (0.5, 1): 2.63291920512661,
    (3.0, 1): -1.82706130327770,
    (0.3, 3): -1.76133180721038,
    (0.8, 3): 1.98550663029369,
}
# Tolerances.  ALPHA_ERR bounds the integration error of alpha_k at the
# default settings: a search that stops at |alpha_k| <= ALPHA_TOL is only
# that good if the error is well below ALPHA_TOL, and the bracket ends
# check the bound (their errors are 1.5e-13 to 3.4e-10).  So a root the
# search returns is off the true one by at most (ALPHA_TOL + ALPHA_ERR) /
# |dalpha_k/dh| to first order; |dalpha/dh| at h* is 3.62 and
# |dalpha_3/dh| at the brake h* is 47.3 (central differences), of which
# the bounds take 3.5 and 45.  T moves with h* at dT/dh = 0.603 (taken as
# 0.65), plus its own error: the rest time's vx error, at most ALPHA_ERR,
# over |ax| = 3.06 there (taken as 3).
ALPHA_ERR = 0.1 * shooting.ALPHA_TOL
H_STAR_TOL = (shooting.ALPHA_TOL + ALPHA_ERR) / 3.5  # 3.1e-9
H_STAR_BRAKE_TOL = (shooting.ALPHA_TOL + ALPHA_ERR) / 45.0  # 2.4e-10
T_QUARTER_TOL = 0.65 * H_STAR_TOL + ALPHA_ERR / 3.0  # 2.4e-9


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
        assert shooting.alpha_k(0.0, 1.0, 1).hex() == res.alpha.hex()
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
        alpha = shooting.alpha_k(-1.0, h, k)
        assert abs(alpha - BRACKET_END_ALPHAS[h, k]) <= ALPHA_ERR

    def test_alpha_k_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shooting.alpha_k(-1.0, 1.0, 0)


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
        assert abs(rec.h_star - H_STAR_BRAKE) <= H_STAR_BRAKE_TOL
        lo, hi = shooting.DEFAULT_BRAKE_BRACKET
        assert lo < rec.h_star < hi
        assert math.sqrt(rec.touch_state.speed2()) <= shooting.TOUCH_SPEED_TOL

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
    s0 = dyn.initial_state(dyn.ProblemSpec(E=E, h=rec.h_star))
    T = rec.quarter_period
    dt = T / math.ceil(T / (step * (-E) ** -1.5))
    _, _, vx, vy = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, T, dt)
    assert math.hypot(vx, vy) / math.sqrt(-E) <= shooting.TOUCH_SPEED_TOL


@pytest.fixture
def integrate_calls(monkeypatch):
    """Record (start state, settings) of every integration made in
    `shooting`: each `_integrate` call (the retrace), and each `_rest_arcs`
    run, the one launch path of shoot's runs, quarter arcs and
    classification, once however far it is advanced."""
    calls = []

    def recording(real):
        def run(s0, settings=IntegratorSettings(), *args, **kwargs):
            calls.append((s0, settings))
            return real(s0, settings, *args, **kwargs)
        return run

    for name in ("_integrate", "_rest_arcs"):
        monkeypatch.setattr(shooting, name, recording(getattr(shooting, name)))
    return calls


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_each_solver_evaluation_integrates_once(integrate_calls, kind):
    # each trace entry is one integration, coarse or at full tolerance (the
    # coarse root is integrated once more, at full tolerance, to open the
    # polish); the touch state is the last solver evaluation's rest, not a
    # second integration of h*; the brake rest count is given, so the
    # bracket ends are solver evaluations rather than classification runs
    kwargs = {"k": 3} if kind == "brake" else {}
    rec = FINDERS[kind](-1.0, **kwargs)
    assert len(integrate_calls) == len(rec.solver_trace)


@pytest.mark.parametrize("kind", sorted(FINDERS))
def test_find_orbit_integrates_each_launch_once(integrate_calls, tmp_path, kind):
    # classification integrates each bracket end once, to its k-th rest, at
    # the coarse stage's tolerance; the coarse stage starts from those
    # runs' values, and assembly from the h* arc, so beyond the retrace each
    # integration is one trace entry (the coarse root is one entry at each
    # tolerance)
    prefix = tmp_path / kind
    argv = ["find-orbit", "--energy", "-1.0", "--kind", kind]
    assert main(argv + ["--out", str(prefix)]) == 0
    rec = output.parse_orbit_record(
        (tmp_path / f"{kind}.orbit.json").read_text()
    )
    assert len(integrate_calls) == len(rec.solver_trace) + 1


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
            rests = shooting._rest_arcs(s0, settings_, E)
            for k in range(1, 5):
                want = trajectory_bits(cuts[k - 1])
                resumed = shooting._next_rest(rests, k)
                assert trajectory_bits(_build_trajectory(resumed)) == want
                fresh = _build_trajectory(
                    shooting._rest_run(E, h, k, settings_))
                assert trajectory_bits(fresh) == want

    def test_run_stopped_short_rejects_the_bracket(self, integrate_calls):
        # both default ends rest twice before t = 4 and a third time after:
        # each end is integrated once, and the message is the one for a
        # bracket that no rest count up to MAX_RESTS separates
        short = IntegratorSettings(t_limit=4.0)
        with pytest.raises(BadBracket, match=re.escape(
            "no rest count up to 8 separates the bracket (0.3, 0.8)"
        )):
            shooting.classify_reflection_count(-1.0, settings=short)
        assert len(integrate_calls) == 2

    def test_quarter_without_the_rest_raises_no_rest(self):
        # the same ends have no 3rd rest before t = 4: the error names the
        # rest count asked for, not the first one missing
        with pytest.raises(NoRest) as exc:
            shooting._rest_run(-1.0, 0.3, 4, IntegratorSettings(t_limit=4.0))
        assert (exc.value.k, exc.value.termination) == (4, "TimeLimit")


def test_only_kept_rests_build_an_arc(integrate_calls, monkeypatch):
    # classification and alpha_k read alpha at each rest without building
    # its arc; the brake search builds one arc, the root's at its own
    # settings, and none for its classification, coarse stage or the
    # polish's other evaluations
    builds = []
    real = shooting._build_trajectory

    def build(run):
        builds.append(run)
        return real(run)

    monkeypatch.setattr(shooting, "_build_trajectory", build)
    assert shooting.classify_reflection_count(-1.0) == 3
    shooting.alpha_k(-1.0, 0.8, 3)
    assert builds == []
    integrate_calls.clear()
    rec = shooting.find_brake_orbit(-1.0)
    full = [c for c in integrate_calls if c[1] == IntegratorSettings()]
    assert 1 < len(full) < len(integrate_calls)
    assert len(builds) == 1
    assert builds[0].settings == IntegratorSettings()
    assert builds[0].samples[-1][1][3] == rec.alpha_residual


class TestBrakeClassification:
    """The rest count the brake search picks at the coarse stage's
    tolerance, against the classifier at the given settings and the
    fixed-step RK4 of conftest."""

    def test_search_picks_the_given_settings_rest_count(
        self, rng, monkeypatch
    ):
        # find_brake_orbit's k, or its BadBracket, on random brackets is the
        # one classify_reflection_count finds at the default settings
        monkeypatch.setattr(shooting, "_find_orbit",
                            lambda E, bracket, k, *args: k)
        outcomes = set()
        for _ in range(10):
            bracket = tuple(sorted(rng.uniform(0.05, 3.3) for _ in "lh"))
            try:
                want = shooting.classify_reflection_count(-1.0, bracket)
            except BadBracket:
                want = None
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
        self, integrate_calls
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
                 in integrate_calls[:4]]
        full = IntegratorSettings().rel_tol
        assert first == [
            (bracket[0], pytest.approx(shooting.COARSE_REL_TOL)),
            (bracket[1], pytest.approx(shooting.COARSE_REL_TOL)),
            (bracket[0], full),
            (bracket[1], full),
        ]

    def test_work_of_a_classified_search(self, integrate_calls):
        # the default bracket's classification runs at the coarse stage's
        # tolerance; the only launches at the given settings are the
        # polish's, the trace's last entries
        rec = shooting.find_brake_orbit(-1.0)
        lo, hi = shooting.DEFAULT_BRAKE_BRACKET
        heights = [s0.y for s0, _ in integrate_calls]
        tols = [settings_.rel_tol for _, settings_ in integrate_calls]
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
        # CLASSIFY_MARGIN; so alpha_k there and at the default settings
        # (k <= 5) may differ by less than the margin, and do, over 60
        # seeded launches on [0.05, 3.4] at E = -1 (largest 5.1e-4) and at
        # h = 3.35651..., a launch of a larger seeded sample that passes
        # 0.02 from the nucleus (1.5e-4), where a coarse stage without a
        # step cap is off by 0.27 in alpha_4.  The coarse stage of a finer
        # given tolerance (--tol 1e-12) runs at the same tolerances and
        # must be no further off
        coarse = [shooting._coarse(IntegratorSettings()),
                  shooting._coarse(IntegratorSettings(rel_tol=1e-12,
                                                      abs_tol=1e-14))]
        heights = [rng.uniform(0.05, 3.4) for _ in range(60)]
        for h in heights + [3.3565107859155803]:
            full = shooting._rests(-1.0, h, IntegratorSettings())
            want = [shooting._alpha(shooting._next_rest(full, k))
                    for k in range(1, 6)]
            for settings in coarse:
                rough = shooting._rests(-1.0, h, settings)
                for k in range(1, 6):
                    got = shooting._alpha(shooting._next_rest(rough, k))
                    assert abs(got - want[k - 1]) <= shooting.CLASSIFY_MARGIN

    @pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16])
    def test_coarse_cap_is_no_longer_than_at_the_default_tolerance(self, tol):
        # the coarse stage runs at rel_tol 1e-6 whatever the given one, so
        # a finer --tol must not loosen its step cap past the measured one
        default = shooting._coarse(IntegratorSettings())
        given = shooting._coarse(IntegratorSettings(rel_tol=tol,
                                                    abs_tol=tol * 1e-2))
        assert given.rel_tol == pytest.approx(shooting.COARSE_REL_TOL)
        assert IntegratorSettings().h_max < given.h_max <= default.h_max
        assert default.h_max == pytest.approx(0.1 * 10 ** 0.5)

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
        rests = shooting._rests(-1.0, h, coarse)
        for k in range(1, 4):
            t, (_, _, _, alpha) = shooting._next_rest(rests, k).samples[-1]
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
            rec.E, rec.h_star, rec.reflection_count(), settings))
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
    traj, res = shooting._shoot_run(E, h, IntegratorSettings())
    assert res.status == "ok"
    return traj.samples[-1]


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
        with pytest.raises(BadBracket):
            shooting.classify_reflection_count(-1.0, (0.31, 0.315))

    def test_positive_energy_rejected(self):
        with pytest.raises(ValueError):
            shooting.find_langmuir_orbit(0.0)

    @pytest.mark.parametrize("search", [
        shooting.classify_reflection_count, shooting.find_brake_orbit,
    ])
    def test_zero_energy_rejected_before_the_bracket_is_rescaled(
        self, search
    ):
        with pytest.raises(ValueError, match="requires E < 0"):
            search(0.0)


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
    # scan_alpha reads its results off the runs, as _shoot_run does before
    # it builds the run's trajectory; every field of every row agrees with
    # _shoot_run's and with the result read off that trajectory, the NoRest
    # rows' too, whose t_h and alpha are nan and whose crossings and drift
    # are the run's (t_limit = 1 stops the upper half of the grid before
    # its first rest)
    @pytest.mark.parametrize("E, settings_", [
        (-1.0, IntegratorSettings()),
        (-1000.0, IntegratorSettings()),
        (-1.0, IntegratorSettings(t_limit=1.0)),
    ], ids=["e-1", "e-1000", "no_rest"])
    def test_scan_rows_equal_the_shoot_run_results(self, E, settings_):
        grid = [h / -E for h in shooting.default_grid()]
        rows = shooting.scan_alpha(E, grid, settings_)
        runs = [shooting._shoot_run(E, h, settings_) for h in grid]
        assert len(rows) == len(runs) == len(grid)
        for h, row, (traj, res) in zip(grid, rows, runs):
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
            for f in fields(want):
                # repr tells every float bit, nan and -0.0 included
                got = repr(getattr(row, f.name))
                assert got == repr(getattr(res, f.name)), f.name
                assert got == repr(getattr(want, f.name)), f.name
        statuses = {r.status for r in rows}
        if settings_.t_limit < 100.0:
            assert statuses == {"ok", "NoRest(TimeLimit)"}
        else:
            assert statuses == {"ok"}

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
        quarter = _build_trajectory(
            shooting._rest_run(rec.E, rec.h_star, 1, finer))
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
        speeds = [s.speed2() for s in traj.samples]
        for a, b in zip(speeds, speeds[1:]):
            assert b <= a + 1e-10
