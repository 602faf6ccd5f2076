import math
from dataclasses import replace

import pytest

from langmuir_lab import analysis, shooting
from langmuir_lab.integrator import EventKind, IntegratorSettings, integrate
from langmuir_lab import dynamics as dyn

from conftest import rk4_fixed


class TestConstants:
    def test_rest_time_bound_value(self):
        # pi / (2 * sqrt(8 * (24.5)^(-3/2)))
        expected = math.pi / (2.0 * math.sqrt(8.0 * 24.5**-1.5))
        assert abs(analysis.T_MAX - expected) <= 1e-12
        assert abs(analysis.T_MAX - 6.11582) <= 1e-4

    def test_stiffness_value(self):
        assert abs(analysis.GAMMA - 24.5**-1.5) <= 1e-18


class TestIndividualChecks:
    def test_initial_acceleration_passes(self):
        rep = analysis.check_initial_acceleration()
        assert rep.passed
        assert rep.worst_violation <= 1e-12
        assert rep.details["n_samples"] == 1000

    def test_tmax_bound_passes_with_margin(self):
        rep = analysis.check_tmax_bound()
        assert rep.passed
        # the bound should never be within 5% of being violated
        assert rep.details["min_relative_margin"] >= 0.05
        assert rep.details["no_rest"] == []

    def test_magical_prefix_passes(self):
        rep = analysis.check_magical_prefix()
        assert rep.passed
        assert rep.details["n_checked"] > 0

    def test_zero_energy_monotone_passes(self):
        rep = analysis.check_zero_energy_monotone()
        assert rep.passed
        assert rep.details["min_radial_velocity_over_t"] > 0.0
        assert rep.details["max_energy_drift"] <= 1e-8

    def test_zero_energy_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            analysis.check_zero_energy_monotone(t_end=-1.0)

    def test_inverted_concavity_passes(self):
        rep = analysis.check_inverted_concavity()
        assert rep.passed
        assert rep.details["max_closed_form_rdd"] < 0.0
        assert rep.details["fd_mismatch_worst"] <= 0.0

    def test_tau_growth_passes(self):
        rep = analysis.check_tau_growth()
        assert rep.passed
        taus = rep.details["tau"]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_energy_drift_passes(self):
        rep = analysis.check_energy_drift()
        assert rep.passed
        assert rep.worst_violation <= 1e-8


@pytest.mark.parametrize(
    "check, kwargs",
    [
        pytest.param(analysis.check_initial_acceleration, {"h_samples": []},
                     id="initial_acceleration"),
        pytest.param(analysis.check_tmax_bound, {"h_grid": []},
                     id="tmax_bound"),
        pytest.param(analysis.check_magical_prefix, {"h_grid": []},
                     id="magical_prefix"),
        pytest.param(analysis.check_tau_growth, {"h_sequence": (0.5,)},
                     id="tau_growth"),
        pytest.param(analysis.check_energy_drift, {"h_grid": ()},
                     id="energy_drift"),
        # a horizon shorter than h_min: the run has no sample after launch
        pytest.param(analysis.check_zero_energy_monotone, {"t_end": 1e-15},
                     id="zero_energy_monotone"),
    ],
)
def test_check_with_nothing_to_compare_fails(check, kwargs):
    rep = check(**kwargs)
    assert not rep.passed
    assert rep.worst_violation == math.inf


def test_magical_prefix_stops_at_the_first_crossing(monkeypatch):
    # the check reads nothing past the first crossing, so no run that
    # crosses may integrate beyond it
    real = analysis.integrate
    runs = []

    def integrate(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(analysis, "integrate", integrate)
    rep = analysis.check_magical_prefix(h_grid=[0.3, 1.0, 1.398, 2.7])
    crossed = [
        t for t in runs if t.first_event(EventKind.MAGICAL_LINE_CROSS)
    ]
    assert len(crossed) == rep.details["n_checked"] > 0
    assert all(t.termination is EventKind.MAGICAL_LINE_CROSS for t in crossed)


def _plant(monkeypatch, edit):
    """Make analysis.integrate return its run with one step-end sample in
    the middle of the run replaced by edit(sample)."""
    real = analysis.integrate
    planted = []

    def integrate(*args, **kwargs):
        traj = real(*args, **kwargs)
        samples = list(traj.samples)
        i = len(samples) // 2
        samples[i] = edit(samples[i])
        planted.append(samples[i])
        return replace(traj, samples=tuple(samples))

    monkeypatch.setattr(analysis, "integrate", integrate)
    return planted


def test_magical_prefix_fails_on_a_rising_sample(monkeypatch):
    # one step-end sample before the crossing that moves upward
    planted = _plant(monkeypatch, lambda s: replace(s, vy=1e-6))
    rep = analysis.check_magical_prefix(h_grid=[1.398])
    assert rep.details["n_checked"] == 1
    assert not rep.passed
    assert rep.worst_violation == 1e-6 / planted[0].t


def test_zero_energy_monotone_fails_on_an_approaching_sample(monkeypatch):
    # one step-end sample moving towards the nucleus: r' < 0
    planted = _plant(monkeypatch, lambda s: replace(s, vx=-s.vx, vy=-s.vy))
    rep = analysis.check_zero_energy_monotone()
    assert dyn.radial_velocity(planted[0]) < 0.0
    assert not rep.passed
    assert rep.worst_violation == (
        -dyn.radial_velocity(planted[0]) / planted[0].t
    )


def _rk4_steps(s0, t_end, dt=1e-4):
    """(t, (x, y, vx, vy)) after each step of the conftest RK4 from s0 to
    t_end, in equal steps of at most dt."""
    n = math.ceil(t_end / dt)
    v, out = (s0.x, s0.y, s0.vx, s0.vy), []
    for i in range(1, n + 1):
        v = rk4_fixed(*v, t_end / n, t_end / n)
        out.append((t_end * i / n, v))
    return out


def test_magical_prefix_margin_agrees_with_fixed_step_rk4():
    # the fixed-step RK4 of conftest, in steps of at most 1e-4, to each
    # crossing: vy/t at the crossing agrees with the package's within 1e-9
    # (measured 2.0e-11), and no RK4 step before it has a larger vy/t, so
    # the step ends miss no rise; h = 2.7 rests before it crosses, which
    # the RK4 confirms: x-velocity at its rest below 1e-9 and the magical
    # residual positive at every step up to it
    grid = [1.0, 1.398, 2.7]
    rep = analysis.check_magical_prefix(h_grid=grid)
    assert rep.details == {"n_checked": 2, "no_crossing": [2.7]}
    stop = {EventKind.MAGICAL_LINE_CROSS: 1, EventKind.X_VELOCITY_ZERO: 1}
    margins = []
    for h in grid:
        s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
        end = integrate(s0, stop=stop).samples[-1]
        steps = _rk4_steps(s0, end.t)
        if h == 2.7:
            assert abs(steps[-1][1][2]) <= 1e-9
            assert all(dyn.magical_line_residual(v[0], v[1]) > 0.0
                       for _, v in steps)
            continue
        margin = steps[-1][1][3] / end.t
        assert abs(margin - end.vy / end.t) <= 1e-9
        assert max(v[3] / t for t, v in steps) <= margin
        margins.append(margin)
    assert abs(rep.worst_violation - max(margins)) <= 1e-9


def test_zero_energy_margin_agrees_with_fixed_step_rk4():
    # over (0, 0.5] r'/t is smallest at the horizon; the fixed-step RK4 of
    # conftest, in steps of 1e-4, reproduces it within 1e-9 (measured
    # 1.2e-12) and finds no smaller r'/t at any of its steps
    t_end = 0.5
    rep = analysis.check_zero_energy_monotone(t_end=t_end)
    traj = integrate(dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0)),
                     IntegratorSettings(t_limit=t_end))
    end = traj.samples[-1]
    got = rep.details["min_radial_velocity_over_t"]
    assert got == dyn.radial_velocity(end) / end.t
    steps = _rk4_steps(traj.samples[0], t_end)
    rdot_t = [dyn.radial_velocity(dyn.State(t, *v)) / t for t, v in steps]
    assert abs(rdot_t[-1] - got) <= 1e-9
    assert min(rdot_t) == rdot_t[-1]


@pytest.mark.parametrize("h", [0.3, 1.0, 1.398, 2.0, 3.0])
def test_shoot_run_holds_the_magical_prefix_run(h):
    # up to its first crossing, the run shoot() makes is the run
    # check_magical_prefix makes, bit for bit: its samples before the
    # crossing, then the crossing event's state
    def bits(s):
        return tuple(v.hex() for v in (s.t, s.x, s.y, s.vx, s.vy))

    s0 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
    alone = integrate(s0, stop={EventKind.MAGICAL_LINE_CROSS: 1,
                                EventKind.X_VELOCITY_ZERO: 1})
    shot, _ = shooting._shoot_run(-1.0, h, IntegratorSettings())
    cross = shot.first_event(EventKind.MAGICAL_LINE_CROSS)
    if cross is None:
        assert alone.termination is EventKind.X_VELOCITY_ZERO
        return
    prefix = [s for s in shot.samples if s.t < cross.t] + [cross.state]
    assert [bits(s) for s in prefix] == [bits(s) for s in alone.samples]


class TestTauValues:
    # first rest times of the height-1 launch at shrinking |E|, frozen
    # from converged adaptive runs
    FROZEN = {0.5: 1.2319, 0.2: 1.9169, 0.1: 2.4083, 0.05: 2.7839}

    def test_frozen_values(self):
        rep = analysis.check_tau_growth()
        for h, tau in zip(rep.details["h_sequence"], rep.details["tau"]):
            assert abs(tau - self.FROZEN[h]) <= 5e-4

    def test_rescaled_rest_time_recovers_tau(self):
        # the E=-h launch from height 1 is the E=-1 launch from height h,
        # slowed down by h^(-3/2)
        for h in (0.5, 0.2):
            s0 = dyn.initial_state(dyn.ProblemSpec(E=-h, h=1.0))
            traj = integrate(
                s0,
                IntegratorSettings(t_limit=100.0),
                stop={EventKind.X_VELOCITY_ZERO: 1},
            )
            tau = traj.first_event(EventKind.X_VELOCITY_ZERO).t

            s1 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
            ref = integrate(
                s1,
                IntegratorSettings(),
                stop={EventKind.X_VELOCITY_ZERO: 1},
            ).first_event(EventKind.X_VELOCITY_ZERO).t
            assert abs(tau - h**-1.5 * ref) <= 1e-6


class TestSuite:
    def test_all_checks_pass(self):
        reports = analysis.run_all_checks()
        assert len(reports) == 7
        assert all(r.passed for r in reports)

    def test_reports_sorted_and_named(self):
        reports = analysis.run_all_checks()
        names = [r.name for r in reports]
        assert names == sorted(names)
        assert names == [
            "energy_drift",
            "initial_acceleration",
            "inverted_concavity",
            "magical_prefix",
            "tau_growth",
            "tmax_bound",
            "zero_energy_monotone",
        ]

    def test_suite_gives_the_standalone_reports(self):
        # tmax_bound and magical_prefix read one shared scan in the suite
        reports = {r.name: r for r in analysis.run_all_checks()}
        assert reports["tmax_bound"] == analysis.check_tmax_bound()
        assert reports["magical_prefix"] == analysis.check_magical_prefix()

    def test_suite_is_deterministic(self):
        a = analysis.run_all_checks()
        b = analysis.run_all_checks()
        for ra, rb in zip(a, b):
            assert ra.name == rb.name
            assert ra.worst_violation == rb.worst_violation
            assert ra.passed == rb.passed
