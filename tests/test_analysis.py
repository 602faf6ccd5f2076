import copy
import math

import pytest

from langmuir_lab import analysis, integrator, shooting
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    integrate,
)
from langmuir_lab import dynamics as dyn
from langmuir_lab.errors import DomainError

from conftest import first_event, radial_velocity, rk4_fixed


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
        # the run names its own span, before it replaces the settings'
        # t_limit and h_max with it
        with pytest.raises(ValueError):
            analysis.zero_energy_run(t_end=-1.0)
        for t_end in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(DomainError,
                               match="t_end must be finite and positive"):
                analysis.zero_energy_run(t_end)

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
    drifting = copy.copy(runs[1][0])
    drifting.drift = 1e-6
    bad = [runs[0], (drifting, runs[1][1]), *runs[2:]]
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


def _plant(run, edit):
    """Replace one step-end sample's state of `run` by edit(state): the
    middle one of the samples before the run's first magical-line crossing,
    or of all its samples if it has none.  Returns the planted sample as a
    `State`."""
    end = min((t for kind, t, _ in run.events
               if kind is EventKind.MAGICAL_LINE_CROSS), default=math.inf)
    i = sum(1 for t, _ in run.samples if t < end) // 2
    t, v = run.samples[i]
    run.samples[i] = (t, edit(v))
    return dyn.State(t, *run.samples[i][1])


def test_magical_prefix_fails_on_a_rising_sample():
    # one step-end sample before the crossing that moves upward
    runs = analysis.grid_runs([1.398])
    planted = _plant(runs[0][0], lambda v: (*v[:3], 1e-6))
    rep = analysis.check_magical_prefix(runs)
    assert rep.details["n_checked"] == 1
    assert not rep.passed
    assert rep.worst_violation == 1e-6 / planted.t


def test_zero_energy_monotone_fails_on_an_approaching_sample():
    # one step-end sample moving towards the nucleus: r' < 0
    run = analysis.zero_energy_run()
    planted = _plant(run, lambda v: (v[0], v[1], -v[2], -v[3]))
    rep = analysis.check_zero_energy_monotone(run)
    assert radial_velocity(planted) < 0.0
    assert not rep.passed
    assert rep.worst_violation == (
        -radial_velocity(planted) / planted.t
    )


def test_inverted_concavity_fails_on_a_displaced_sample(zero_run):
    # the sample at t = 1, on the concavity grid, with its velocity 1e-3
    # too long: the closed form stays negative, but the central
    # differences beside it miss it
    samples = list(zero_run.samples)
    i = next(i for i, (t, _) in enumerate(samples) if t == 1.0)
    t, (x, y, vx, vy) = samples[i]
    samples[i] = (t, (x, y, 1.001 * vx, 1.001 * vy))
    displaced = copy.copy(zero_run)
    displaced.samples = samples
    rep = analysis.check_inverted_concavity(displaced)
    assert rep.details["max_closed_form_rdd"] < 0.0
    assert not rep.passed
    assert rep.worst_violation == rep.details["fd_mismatch_worst"] > 0.0


def test_uncapped_zero_energy_run_agrees_with_fixed_step_rk4():
    # the checks' run steps as its error control allows, up to its whole
    # span; at requested times up to t = 5 its samples agree with the
    # fixed-step RK4 of conftest, in steps of 1e-3, within 1e-9 (measured
    # 3.6e-11 at t = 5, about the RK4's own error: 5.4e-10 at steps of
    # 2e-3, 4.5e-12 at 5e-4)
    run = analysis.zero_energy_run()
    assert analysis.check_zero_energy_monotone(run).passed
    assert run.settings.h_max == run.settings.t_limit == 50.0
    by_time = dict(run.samples)
    _, v0 = run.samples[0]
    for t in (1.0, 2.5, 5.0):
        want = rk4_fixed(*v0, t, 1e-3)
        assert max(abs(a - b) for a, b in zip(want, by_time[t])) <= 1e-9


def _zero_energy_run_settings(monkeypatch, t_end, settings):
    """The settings and requested times of zero_energy_run's run, which is
    made but not stepped."""
    monkeypatch.setattr(integrator._Run, "advance", lambda run: run)
    run = analysis.zero_energy_run(t_end, settings)
    return run.settings, run.sample_times


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
    fine = IntegratorSettings(rel_tol=1e-20, h_max=0.01)
    points = analysis.CONCAVITY_POINTS
    settings, times = _zero_energy_run_settings(monkeypatch, 1.0, fine)
    assert settings.h_max == settings.t_limit == 1.0
    assert len(times) == 800 + points and times[799] == 1.0
    assert times[800:] == [j / points for j in range(1, points + 1)]
    settings, times = _zero_energy_run_settings(monkeypatch, 20.0, fine)
    assert settings.h_max == settings.t_limit == 20.0
    assert len(times) == 2000 + points and times[1999] == 20.0
    assert times[-1] == analysis.CONCAVITY_SPAN


def _rk4_steps(v0, t_end, dt=1e-4):
    """(t, (x, y, vx, vy)) after each step of the conftest RK4 from the
    state (x, y, vx, vy) v0 to t_end, in equal steps of at most dt; the
    last step's time is t_end itself, which t_end * n / n can miss by an
    ulp."""
    n = math.ceil(t_end / dt)
    v, out = v0, []
    for i in range(1, n + 1):
        v = rk4_fixed(*v, t_end / n, t_end / n)
        out.append((t_end * i / n if i < n else t_end, v))
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
    for run, res in runs:
        _, v0 = run.samples[0]
        cross = next(((t, v) for kind, t, v in run.events
                      if kind is EventKind.MAGICAL_LINE_CROSS), None)
        if cross is None:
            steps = _rk4_steps(v0, res.t_h, 1e-4 * res.h**1.5)
            assert abs(steps[-1][1][2]) <= 1e-9
            assert all(integrator._magical_line_residual(v) > 0.0
                       for _, v in steps)
            continue
        t_cross, v_cross = cross
        steps = _rk4_steps(v0, t_cross, 1e-4 * res.h**1.5)
        assert all(v[3] < 0.0 for _, v in steps)
        margin = steps[-1][1][3] / t_cross
        assert max(v[3] / t for t, v in steps) == margin
        assert abs(margin / (v_cross[3] / t_cross) - 1.0) <= 1e-9
        margins.append(margin)
    assert rep.details["n_checked"] == len(margins) == 34
    assert len(rep.details["no_crossing"]) == 16
    assert abs(rep.worst_violation / max(margins) - 1.0) <= 1e-9


def test_grid_runs_are_the_scan(runs):
    # verify's launches are scan's, bit for bit: the grid checks reduce the
    # rows of `scan --energy -1` on the default grid
    scan = shooting.scan_alpha(-1.0, shooting.default_grid())
    assert [repr(res) for _, res in runs] == [repr(res) for res in scan]


def test_reduced_checks_agree_with_the_records_of_integrate(runs, zero_run):
    # an independent reference for the six checks that reduce runs: each
    # worst_violation, bit for bit, recomputed here from the State samples
    # and Events of the public integrate for the same launches.  At E = -1
    # from the default grid's heights and at E = 0, integrate (whose start
    # state carries no energy level) reads its settings in the runs' own
    # units, so its runs are the checks' runs, step for step
    crossing, rest = EventKind.MAGICAL_LINE_CROSS, EventKind.X_VELOCITY_ZERO
    grid = shooting.default_grid()
    trajs = [integrate(dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h)),
                       watch={crossing}, stop={rest}) for h in grid]
    assert all(traj.termination is rest for traj in trajs)
    t_rest = [traj.samples[-1].t for traj in trajs]
    taus = [h**-1.5 * t for h, t in zip(grid, t_rest)]
    prefix = []
    for traj in trajs:
        cross = first_event(traj, crossing)
        if cross is not None:
            prefix += [cross.state.vy / cross.t] + [
                s.vy / s.t for s in traj.samples if 0.0 < s.t < cross.t]

    t_end, span = 50.0, analysis.CONCAVITY_SPAN
    zero = integrate(
        dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0)),
        IntegratorSettings(h_max=t_end, t_limit=t_end),
        sample_times=[t_end * j / 800 for j in range(1, 801)]
        + [span * j / 300 for j in range(1, 301)])
    samples = zero.samples
    monotone = max(
        -min(radial_velocity(s) / s.t for s in samples if s.t > 0.0),
        max(abs(s.x) / math.sqrt(63.0) - s.y for s in samples))

    def minus_r2_rdot(s):
        r = math.hypot(s.x, s.y)
        return -r * r * radial_velocity(s)

    def closed_form(s):  # d(-r^2 r')/dt
        r, rdot = math.hypot(s.x, s.y), radial_velocity(s)
        pphi = 0.5 * (s.x * s.vy - s.y * s.vx)
        return -1.5 * r * rdot * rdot - 2.0 * pphi * pphi / r

    by_time = {s.t: s for s in samples}
    on_grid = [by_time[span * j / 300] for j in range(301)]
    mismatch = []
    for sm, s, sp in zip(on_grid, on_grid[1:], on_grid[2:]):
        rdd = closed_form(s)
        fd = (minus_r2_rdot(sp) - minus_r2_rdot(sm)) / (sp.t - sm.t)
        mismatch.append(abs(rdd - fd) - max(1e-6, 1e-3 * abs(rdd)))
    concavity = max(max(map(closed_form, samples)), max(mismatch))

    want = {
        "energy_drift": max(traj.max_energy_drift for traj in trajs),
        "magical_prefix": max(prefix),
        "tau_growth": max(b - a for a, b in zip(taus, taus[1:])),
        "tmax_bound": max(t - analysis.T_MAX for t in t_rest),
        "zero_energy_monotone": monotone,
        "inverted_concavity": concavity,
    }
    got = {
        "energy_drift": analysis.check_energy_drift(runs),
        "magical_prefix": analysis.check_magical_prefix(runs),
        "tau_growth": analysis.check_tau_growth(runs),
        "tmax_bound": analysis.check_tmax_bound(runs),
        "zero_energy_monotone": analysis.check_zero_energy_monotone(zero_run),
        "inverted_concavity": analysis.check_inverted_concavity(zero_run),
    }
    for name, rep in got.items():
        assert rep.worst_violation.hex() == want[name].hex(), name


def test_zero_energy_margin_agrees_with_fixed_step_rk4():
    # over (0, 0.5] r'/t is smallest at the horizon; the fixed-step RK4 of
    # conftest, in steps of 1e-4, reproduces it within 1e-9 (measured
    # 1.2e-12) and finds no smaller r'/t at any of its steps.  The end
    # state is the checked run's own last sample, at t_end
    t_end = 0.5
    run = analysis.zero_energy_run(t_end)
    rep = analysis.check_zero_energy_monotone(run)
    t, end = run.samples[-1]
    assert t == t_end
    got = rep.details["min_radial_velocity_over_t"]
    assert got == radial_velocity(dyn.State(t, *end)) / t
    s0 = dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0))
    steps = _rk4_steps((s0.x, s0.y, s0.vx, s0.vy), t_end)
    rdot_t = [radial_velocity(dyn.State(t, *v)) / t for t, v in steps]
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
            tau = first_event(traj, EventKind.X_VELOCITY_ZERO).t

            s1 = dyn.initial_state(dyn.ProblemSpec(E=-1.0, h=h))
            ref = first_event(integrate(
                s1,
                IntegratorSettings(),
                stop={EventKind.X_VELOCITY_ZERO},
            ), EventKind.X_VELOCITY_ZERO).t
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
