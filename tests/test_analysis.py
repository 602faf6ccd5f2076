import math

import pytest

from langmuir_lab import analysis, shooting
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    integrate,
)
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


@pytest.fixture(scope="module")
def runs():
    """The E = -1 launches from the default grid, integrated once."""
    return analysis.grid_runs()


@pytest.fixture(scope="module")
def zero_run():
    """The zero-energy launch, integrated once to the default span."""
    return analysis.zero_energy_run()


class TestIndividualChecks:
    def test_initial_acceleration_passes(self):
        rep = analysis.check_initial_acceleration()
        assert rep.passed
        assert rep.worst_violation <= 1e-12
        assert rep.details["n_samples"] == 1000

    def test_tmax_bound_passes_with_margin(self, runs):
        rep = analysis.check_tmax_bound(runs)
        assert rep.passed
        # the bound should never be within 5% of being violated
        assert rep.details["min_relative_margin"] >= 0.05
        assert rep.details["no_rest"] == []

    def test_magical_prefix_passes(self, runs):
        rep = analysis.check_magical_prefix(runs)
        assert rep.passed
        assert rep.details["n_checked"] > 0

    def test_zero_energy_monotone_passes(self, zero_run):
        rep = analysis.check_zero_energy_monotone(zero_run)
        assert rep.passed
        assert rep.details["min_radial_velocity_over_t"] > 0.0
        assert rep.details["max_energy_drift"] <= 1e-8
        # no fewer points than the 771 the run read when its step was
        # capped at the default h_max
        assert rep.details["n_samples"] >= 771

    def test_zero_energy_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            analysis.zero_energy_run(t_end=-1.0)

    def test_inverted_concavity_passes(self, zero_run):
        # the closed form is largest at launch, -7 = -2 p_phi^2 there, and
        # the differences cover t <= 2, which is tau = 0.321 in the chart
        rep = analysis.check_inverted_concavity(zero_run)
        assert rep.passed
        assert rep.details["max_closed_form_rdd"] == pytest.approx(-7.0)
        assert rep.details["fd_mismatch_worst"] <= 0.0
        assert rep.details["t_end"] == analysis.CONCAVITY_SPAN

    def test_tau_growth_passes(self, runs):
        # tau grows strictly as h falls, over the whole default grid
        rep = analysis.check_tau_growth(runs)
        assert rep.passed
        tau_by_h = rep.details["tau_by_h"]
        assert list(tau_by_h) == shooting.default_grid()
        taus = list(tau_by_h.values())
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_energy_drift_passes(self, runs):
        rep = analysis.check_energy_drift(runs)
        assert rep.passed
        assert rep.worst_violation <= 1e-8
        assert len(rep.details["drift_by_h"]) == len(runs)


def test_tau_agrees_with_the_launch_at_energy_minus_h(runs):
    # the scaling law's oracle: re-integrating the launch at E = -h from
    # height 1 gives tau(h) within a relative 1e-9 at every grid height
    tau_by_h = analysis.check_tau_growth(runs).details["tau_by_h"]
    assert len(tau_by_h) == len(runs)
    for h, tau in tau_by_h.items():
        t_h = shooting.shoot(-h, 1.0).t_h
        assert abs(tau - t_h) <= 1e-9 * t_h


def test_energy_drift_fails_on_a_drifting_run(runs):
    # one run whose drift exceeds the tolerance fails the check, whatever
    # the other runs hold
    bad = [runs[0], (runs[1][0].replace(max_energy_drift=1e-6), runs[1][1]),
           *runs[2:]]
    rep = analysis.check_energy_drift(bad)
    assert not rep.passed
    assert rep.worst_violation == 1e-6


def test_runs_without_a_rest_fail_the_rest_time_checks():
    # at t_limit = 1 most launches stop at the time limit before their
    # first x-rest; the rest times they lack fail both checks
    runs = analysis.grid_runs(settings=IntegratorSettings(t_limit=1.0))
    assert any(res.status == "NoRest(TimeLimit)" for _, res in runs)
    for check in (analysis.check_tmax_bound, analysis.check_tau_growth):
        rep = check(runs)
        assert not rep.passed
        assert rep.worst_violation == math.inf
        assert rep.details["no_rest"]


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda: analysis.check_initial_acceleration([]),
                     id="initial_acceleration"),
        pytest.param(lambda: analysis.check_tmax_bound([]), id="tmax_bound"),
        pytest.param(lambda: analysis.check_magical_prefix([]),
                     id="magical_prefix"),
        # one height: no successive pair of rest times to compare
        pytest.param(
            lambda: analysis.check_tau_growth(analysis.grid_runs([0.5])),
            id="tau_growth"),
        pytest.param(lambda: analysis.check_energy_drift([]),
                     id="energy_drift"),
        # a horizon shorter than h_min: the run has no sample after launch
        pytest.param(lambda: analysis.check_zero_energy_monotone(
            analysis.zero_energy_run(1e-15)), id="zero_energy_monotone"),
        # a horizon shorter than h_min: the run has no sample after launch,
        # so no interior one for the central difference
        pytest.param(lambda: analysis.check_inverted_concavity(
            analysis.zero_energy_run(1e-15)), id="inverted_concavity"),
    ],
)
def test_check_with_nothing_to_compare_fails(check):
    rep = check()
    assert not rep.passed
    assert rep.worst_violation == math.inf


def _plant(monkeypatch, module, edit, name="integrate"):
    """Make module.<name>, a function that returns a run, return it with
    one step-end sample replaced by edit(sample): the middle one of the
    samples before the run's first magical-line crossing, or of all its
    samples if it has none."""
    real = getattr(module, name)
    planted = []

    def integrate(*args, **kwargs):
        traj = real(*args, **kwargs)
        cross = traj.first_event(EventKind.MAGICAL_LINE_CROSS)
        end = math.inf if cross is None else cross.t
        samples = list(traj.samples)
        i = sum(1 for s in samples if s.t < end) // 2
        samples[i] = edit(samples[i])
        planted.append(samples[i])
        return traj.replace(samples=tuple(samples))

    monkeypatch.setattr(module, name, integrate)
    return planted


def test_magical_prefix_fails_on_a_rising_sample(monkeypatch):
    # one step-end sample before the crossing that moves upward
    planted = _plant(monkeypatch, shooting, lambda s: s.replace(vy=1e-6),
                     "_build_trajectory")
    rep = analysis.check_magical_prefix(analysis.grid_runs([1.398]))
    assert rep.details["n_checked"] == 1
    assert not rep.passed
    assert rep.worst_violation == 1e-6 / planted[0].t


def test_zero_energy_monotone_fails_on_an_approaching_sample(monkeypatch):
    # one step-end sample moving towards the nucleus: r' < 0
    planted = _plant(monkeypatch, analysis,
                     lambda s: s.replace(vx=-s.vx, vy=-s.vy))
    rep = analysis.check_zero_energy_monotone(analysis.zero_energy_run())
    assert dyn.radial_velocity(planted[0]) < 0.0
    assert not rep.passed
    assert rep.worst_violation == (
        -dyn.radial_velocity(planted[0]) / planted[0].t
    )


def test_inverted_concavity_fails_on_a_displaced_sample(zero_run):
    # the sample at t = 1, on the concavity grid, with its velocity 1e-3
    # too long: the closed form stays negative, but the central
    # differences beside it miss it
    samples = list(zero_run.samples)
    i = next(i for i, s in enumerate(samples) if s.t == 1.0)
    samples[i] = samples[i].replace(vx=1.001 * samples[i].vx,
                                    vy=1.001 * samples[i].vy)
    rep = analysis.check_inverted_concavity(
        zero_run.replace(samples=tuple(samples)))
    assert rep.details["max_closed_form_rdd"] < 0.0
    assert not rep.passed
    assert rep.worst_violation == rep.details["fd_mismatch_worst"] > 0.0


def test_uncapped_zero_energy_run_agrees_with_fixed_step_rk4(monkeypatch):
    # the checks' run steps as its error control allows, up to its whole
    # span; at requested times up to t = 5 its samples agree with the
    # fixed-step RK4 of conftest, in steps of 1e-3, within 1e-9 (measured
    # 3.6e-11 at t = 5, about the RK4's own error: 5.4e-10 at steps of
    # 2e-3, 4.5e-12 at 5e-4)
    runs = []
    real = analysis.integrate

    def integrate(s0, settings, **kwargs):
        runs.append((settings, real(s0, settings, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(analysis, "integrate", integrate)
    assert analysis.check_zero_energy_monotone(
        analysis.zero_energy_run()).passed
    (settings, traj), = runs
    assert settings.h_max == settings.t_limit == 50.0
    by_time = {s.t: s for s in traj.samples}
    s0 = traj.samples[0]
    for t in (1.0, 2.5, 5.0):
        got = by_time[t]
        want = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, t, 1e-3)
        assert max(abs(a - b) for a, b in zip(
            want, (got.x, got.y, got.vx, got.vy))) <= 1e-9


def _zero_energy_run_settings(monkeypatch, t_end, settings):
    """The settings and requested times of zero_energy_run's run, which is
    not made."""
    seen = []

    class Stop(Exception):
        pass

    def integrate(s0, settings, sample_times):
        seen.append((settings, sample_times))
        raise Stop

    monkeypatch.setattr(analysis, "integrate", integrate)
    with pytest.raises(Stop):
        analysis.zero_energy_run(t_end, settings)
    return seen[0]


def test_zero_energy_samples_are_no_further_apart_than_h_max():
    # a long span reads its samples at least as densely as capped steps'
    # ends would lie: 5,000 points or more over t = 500
    rep = analysis.check_zero_energy_monotone(
        analysis.zero_energy_run(t_end=500.0))
    assert rep.passed
    assert rep.details["n_samples"] >= 5000


def test_zero_energy_step_is_capped_where_events_are_located(monkeypatch):
    # the run's h_max is its span at any tolerance, however many event
    # tolerances that span holds (an event's location budget grows with the
    # step); the run requests its evenly spaced times, then the concavity
    # grid's
    fine = IntegratorSettings(rel_tol=1e-20, abs_tol=1e-22, h_max=0.01)
    points = analysis.CONCAVITY_POINTS
    settings, times = _zero_energy_run_settings(monkeypatch, 1.0, fine)
    assert settings.h_max == settings.t_limit == 1.0
    assert len(times) == 800 + points and times[799] == 1.0
    assert times[800:] == [j / points for j in range(1, points + 1)]
    settings, times = _zero_energy_run_settings(monkeypatch, 20.0, fine)
    assert settings.h_max == settings.t_limit == 20.0
    assert len(times) == 2000 + points and times[1999] == 20.0
    assert times[-1] == analysis.CONCAVITY_SPAN


def _rk4_steps(s0, t_end, dt=1e-4):
    """(t, (x, y, vx, vy)) after each step of the conftest RK4 from s0 to
    t_end, in equal steps of at most dt."""
    n = math.ceil(t_end / dt)
    v, out = (s0.x, s0.y, s0.vx, s0.vy), []
    for i in range(1, n + 1):
        v = rk4_fixed(*v, t_end / n, t_end / n)
        out.append((t_end * i / n, v))
    return out


def test_magical_prefix_margin_agrees_with_fixed_step_rk4(runs):
    # the fixed-step RK4 of conftest, in steps of at most 1e-4 h^3/2, from
    # each crossing launch of the default grid to its crossing: vy < 0 at
    # every RK4 step, none has a larger vy/t than the last, and that agrees
    # with the package's vy/t at the crossing within 1e-9 relative
    # (measured 2.7e-12).  So the run's step ends, which are all that the
    # check reads before the crossing, miss no rise.  Each launch that rests
    # before it crosses does so in the RK4 too: x-velocity at its rest
    # below 1e-9 and the magical residual positive at every step up to it
    rep = analysis.check_magical_prefix(runs)
    margins = []
    for traj, res in runs:
        cross = traj.first_event(EventKind.MAGICAL_LINE_CROSS)
        if cross is None:
            steps = _rk4_steps(traj.samples[0], res.t_h, 1e-4 * res.h**1.5)
            assert abs(steps[-1][1][2]) <= 1e-9
            assert all(dyn.magical_line_residual(v[0], v[1]) > 0.0
                       for _, v in steps)
            continue
        steps = _rk4_steps(traj.samples[0], cross.t, 1e-4 * res.h**1.5)
        assert all(v[3] < 0.0 for _, v in steps)
        margin = steps[-1][1][3] / cross.t
        assert max(v[3] / t for t, v in steps) == margin
        assert abs(margin / (cross.state.vy / cross.t) - 1.0) <= 1e-9
        margins.append(margin)
    assert rep.details["n_checked"] == len(margins) == 34
    assert len(rep.details["no_crossing"]) == 16
    assert abs(rep.worst_violation / max(margins) - 1.0) <= 1e-9


def test_grid_runs_are_the_scan(runs):
    # verify's launches are scan's, bit for bit: the grid checks reduce the
    # rows of `scan --energy -1` on the default grid
    scan = shooting.scan_alpha(-1.0, shooting.default_grid())
    assert [repr(res) for _, res in runs] == [repr(res) for res in scan]


def test_zero_energy_margin_agrees_with_fixed_step_rk4():
    # over (0, 0.5] r'/t is smallest at the horizon; the fixed-step RK4 of
    # conftest, in steps of 1e-4, reproduces it within 1e-9 (measured
    # 1.2e-12) and finds no smaller r'/t at any of its steps
    t_end = 0.5
    rep = analysis.check_zero_energy_monotone(analysis.zero_energy_run(t_end))
    traj = integrate(dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0)),
                     IntegratorSettings(t_limit=t_end))
    end = traj.samples[-1]
    got = rep.details["min_radial_velocity_over_t"]
    assert got == dyn.radial_velocity(end) / end.t
    steps = _rk4_steps(traj.samples[0], t_end)
    rdot_t = [dyn.radial_velocity(dyn.State(t, *v)) / t for t, v in steps]
    assert abs(rdot_t[-1] - got) <= 1e-9
    assert min(rdot_t) == rdot_t[-1]


class TestTauValues:
    # first rest times of the height-1 launch at shrinking |E|, frozen
    # from converged adaptive runs
    FROZEN = {0.5: 1.2319, 0.2: 1.9169, 0.1: 2.4083, 0.05: 2.7839}

    def test_frozen_values(self):
        for h, tau in self.FROZEN.items():
            assert abs(shooting.shoot(-h, 1.0).t_h - tau) <= 5e-4

    def test_rescaled_rest_time_recovers_tau(self):
        # the E=-h launch from height 1 is the E=-1 launch from height h,
        # slowed down by h^(-3/2)
        for h in (0.5, 0.2):
            s0 = dyn.initial_state(dyn.ProblemSpec(E=-h, h=1.0))
            traj = integrate(
                s0,
                IntegratorSettings(t_limit=100.0),
                stop={EventKind.X_VELOCITY_ZERO},
            )
            tau = traj.first_event(EventKind.X_VELOCITY_ZERO).t

            s1 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
            ref = integrate(
                s1,
                IntegratorSettings(),
                stop={EventKind.X_VELOCITY_ZERO},
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

    def test_suite_is_deterministic(self):
        a = analysis.run_all_checks()
        b = analysis.run_all_checks()
        for ra, rb in zip(a, b):
            assert ra.name == rb.name
            assert ra.worst_violation == rb.worst_violation
            assert ra.passed == rb.passed
