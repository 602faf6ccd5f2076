import copy
import math
import re

import pytest

from langmuir_lab import analysis, integrator, shooting
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    integrate,
)
from langmuir_lab import dynamics as dyn
from langmuir_lab.errors import DomainError

from conftest import first_event, radial_velocity, rk4_fixed, taylor_rest


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

    def test_initial_acceleration_fails_on_the_ungrouped_field(
            self, monkeypatch):
        # ay = 1/y^2 - 8y/rho^3 rounds its two terms apart, so on the axis
        # it misses -7/y^2 by 9.3e-10 at the second height, 1.0116e-3:
        # the check fails there and names that height
        def ungrouped(x, y):
            r = math.hypot(x, y)
            rho3 = r * r * r
            return -8.0 * x / rho3, 1.0 / (y * y) - 8.0 * y / rho3

        monkeypatch.setattr(dyn, "acceleration", ungrouped)
        rep = analysis.check_initial_acceleration()
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(9.3e-10, rel=0.01)
        assert rep.details["worst_h"] == 1e-3 * 1e5 ** (1 / 999)

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
        # V < 0 at every sample of the run and q.v rising across every
        # step, by the margins measured on the run: its largest V is
        # -0.0851, at its end, and its smallest rise 2.7e-2.  It reads each
        # of the run's own samples, and those alone
        rep = analysis.check_zero_energy_monotone(zero_run)
        assert rep.passed
        assert rep.details["max_potential"] == pytest.approx(-0.0851,
                                                             abs=1e-4)
        assert rep.details["min_qv_rise"] >= 0.02
        assert rep.worst_violation == -rep.details["min_qv_rise"]
        assert rep.details["max_energy_drift"] <= 1e-8
        assert rep.details["n_samples"] == len(zero_run.samples)
        assert rep.details["t_end"] == 50.0

    def test_zero_energy_rejects_bad_horizon(self):
        # the run names its own span, before it replaces the settings'
        # t_limit with it
        with pytest.raises(ValueError):
            analysis.zero_energy_run(t_end=-1.0)
        for t_end in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(DomainError,
                               match="t_end must be finite and positive"):
                analysis.zero_energy_run(t_end)
        # a span past T_END_MAX (1e4) is refused before the first step,
        # 1e308 with it: a run to 1e150 underflows its step before it
        # gets there
        assert analysis.T_END_MAX == 1e4
        for t_end in (math.nextafter(1e4, math.inf), 1e9, 1e308):
            with pytest.raises(DomainError, match=re.escape(
                    f"t_end must be at most 10000, got {t_end!r}: ")):
                analysis.zero_energy_run(t_end)

    def test_longest_zero_energy_span_passes(self):
        # the bound itself is a span the run ends, in 143 samples
        run = analysis.zero_energy_run(1e4)
        assert len(run.samples) == 143 and run.samples[-1][0] == 1e4
        assert analysis.check_zero_energy_monotone(run).passed
        assert analysis.check_inverted_concavity(run).passed

    def test_inverted_concavity_passes(self, zero_run):
        # the chain rule's d(-r^2 r')/dt and the closed form agree at every
        # sample of the whole run, t <= 50, within 0.09 x rel_tol as
        # measured (at most 1e-2 x the tolerance of 100 x rel_tol)
        rep = analysis.check_inverted_concavity(zero_run)
        assert rep.passed
        assert rep.tolerance == analysis.CONCAVITY_RATIO * 1e-10 == 1e-8
        assert 0.0 < rep.worst_violation <= 1e-2 * rep.tolerance
        assert rep.details["t_end"] == 50.0
        assert rep.details["n_samples"] == len(zero_run.samples)

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
        # DRIFT_RATIO x the default rel_tol is 1e-8, bit for bit
        assert rep.tolerance == analysis.DRIFT_RATIO * 1e-10 == 1e-8
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


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-13])
def test_energy_drift_tolerance_follows_rel_tol(runs, rel_tol):
    # a run whose drift is DRIFT_RATIO (100) x rel_tol passes, and one at
    # 101 x fails, at any tolerance
    settings = IntegratorSettings(rel_tol=rel_tol)
    planted = copy.copy(runs[0][0])
    for ratio, passed in ((100.0, True), (101.0, False)):
        planted.drift = ratio * rel_tol
        rep = analysis.check_energy_drift([(planted, runs[0][1])], settings)
        assert rep.tolerance == analysis.DRIFT_RATIO * rel_tol
        assert rep.passed is passed


@pytest.mark.parametrize("rel_tol", [3e-6, 1e-3, 0.5])
def test_integration_error_tolerances_stop_at_the_ceiling(runs, zero_run,
                                                          rel_tol):
    # above rel_tol 1e-6 both tolerances on integration error are
    # TOL_CEILING, 1e-4, not 100 x rel_tol: a drift of 1e-4 passes and the
    # next float above it fails
    settings = IntegratorSettings(rel_tol=rel_tol)
    planted = copy.copy(runs[0][0])
    for drift, passed in ((1e-4, True), (math.nextafter(1e-4, 1.0), False)):
        planted.drift = drift
        rep = analysis.check_energy_drift([(planted, runs[0][1])], settings)
        assert rep.tolerance == analysis.TOL_CEILING == 1e-4
        assert rep.passed is passed
    rep = analysis.check_inverted_concavity(zero_run, settings)
    assert rep.tolerance == 1e-4


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
        # a horizon shorter than h_min: the run takes no step, so its one
        # sample is its launch
        pytest.param(lambda: analysis.check_zero_energy_monotone(
            analysis.zero_energy_run(1e-15)), id="zero_energy_monotone"),
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


def _qv(v):
    """q.v = x vx + y vy of the state tuple v, which is r r'."""
    return v[0] * v[2] + v[1] * v[3]


def test_zero_energy_monotone_fails_on_an_approaching_sample():
    # one step-end sample moving towards the nucleus: r' < 0, so q.v falls
    # in the step to it
    run = analysis.zero_energy_run()
    planted = _plant(run, lambda v: (v[0], v[1], -v[2], -v[3]))
    i = [t for t, _ in run.samples].index(planted.t)
    rep = analysis.check_zero_energy_monotone(run)
    assert radial_velocity(planted) < 0.0
    assert not rep.passed
    assert rep.worst_violation == (
        _qv(run.samples[i - 1][1]) - _qv(run.samples[i][1]))


def test_zero_energy_monotone_fails_on_a_step_that_does_not_rise():
    # a step end whose state is the previous one's: q.v does not rise in
    # that step (it rises in the next), and every V stays negative.  The
    # rise must be strict, so a worst of exactly 0 fails
    run = analysis.zero_energy_run()
    i = len(run.samples) // 2
    run.samples[i] = (run.samples[i][0], run.samples[i - 1][1])
    rep = analysis.check_zero_energy_monotone(run)
    assert rep.details["max_potential"] < 0.0
    assert rep.details["min_qv_rise"] == 0.0
    assert rep.worst_violation == 0.0
    assert not rep.passed


def test_zero_energy_monotone_fails_on_a_sample_outside_the_hill_region():
    # one step-end sample moved onto the zero-energy Hill boundary
    # |x| = sqrt(63) y, where V = -4/(8y) + 1/(2y) = 0 (exactly, at a y
    # that is a power of two), its velocity scaled so that q.v, and so
    # every rise, is as before.  V must be negative, so 0 fails
    run = analysis.zero_energy_run()

    def onto_the_boundary(v):
        y = 2.0 ** round(math.log2(v[1]))
        x = math.copysign(math.sqrt(63.0) * y, v[0])
        k = _qv(v) / (x * v[2] + y * v[3])
        return x, y, k * v[2], k * v[3]

    planted = _plant(run, onto_the_boundary)
    rep = analysis.check_zero_energy_monotone(run)
    assert dyn.energy_vec((planted.x, planted.y, 0.0, 0.0)) == 0.0
    assert rep.details["max_potential"] == 0.0
    assert rep.details["min_qv_rise"] > 0.0
    assert rep.worst_violation == 0.0
    assert not rep.passed


def test_inverted_concavity_fails_on_a_displaced_sample(zero_run):
    # a step-end sample with its velocity 1e-3 too long, off E = 0 by
    # about 2e-3 of its kinetic energy: the closed form, which assumes
    # E = 0, misses the chain rule's value there by about 1e-3 relative,
    # 1e5 x the tolerance
    displaced = copy.copy(zero_run)
    displaced.samples = list(zero_run.samples)
    planted = _plant(displaced, lambda v: (v[0], v[1], 1.001 * v[2],
                                           1.001 * v[3]))
    rep = analysis.check_inverted_concavity(displaced)
    assert not rep.passed
    assert rep.details["worst_t"] == planted.t
    assert rep.worst_violation > 1e4 * rep.tolerance


@pytest.mark.parametrize("wrong", [
    lambda r, rdot, pphi: 1.5 * r * rdot * rdot - 2.0 * pphi * pphi / r,
    lambda r, rdot, pphi: -1.5 * r * rdot * rdot + 2.0 * pphi * pphi / r,
], ids=["radial_term", "angular_term"])
def test_inverted_concavity_fails_on_a_wrong_closed_form(monkeypatch,
                                                         zero_run, wrong):
    # the closed form with one term's sign flipped misses the chain rule's
    # value by O(1) relative, where the true one misses it by 1e-11
    monkeypatch.setattr(analysis, "_inverted_rdd", wrong)
    rep = analysis.check_inverted_concavity(zero_run)
    assert not rep.passed
    assert rep.worst_violation > 0.1


def _made_runs(monkeypatch):
    """The (settings, watch, stop) of each integrator `_Run` made from now
    on, in order, read by wrapping its __init__ as the made_runs fixture
    does."""
    made = []
    real = integrator._Run.__init__

    def init(self, s0, settings, watch, stop, *args):
        made.append((settings, watch, stop))
        real(self, s0, settings, watch, stop, *args)

    monkeypatch.setattr(integrator._Run, "__init__", init)
    return made


def test_uncapped_zero_energy_run_agrees_with_fixed_step_rk4(monkeypatch):
    # the checks' run steps as its error control allows, up to its time
    # limit, its span; at each of its step ends up to t = 5 its state
    # agrees with the fixed-step RK4 of conftest, stepped from one step end
    # to the next in steps of at most 1e-3, within 1e-9 (measured 3.8e-11
    # at worst, at the last of the 56 step ends, about the RK4's own error
    # at t = 5: 5.4e-10 at steps of 2e-3, 4.5e-12 at 5e-4)
    made = _made_runs(monkeypatch)
    run = analysis.zero_energy_run()
    assert analysis.check_zero_energy_monotone(run).passed
    [(settings, _, _)] = made
    assert settings.t_limit == 50.0
    (t0, v), *ends = [(t, v) for t, v in run.samples if t <= 5.0]
    assert t0 == 0.0 and len(ends) >= 10
    for t, got in ends:
        n = math.ceil((t - t0) / 1e-3)
        v = rk4_fixed(*v, t - t0, (t - t0) / n)
        assert max(abs(a - b) for a, b in zip(v, got)) <= 1e-9
        t0 = t


def test_zero_energy_samples_are_the_run_s_step_ends(monkeypatch):
    # over a long span, t = 500, the checks read the run's launch and one
    # sample per accepted trial step, the last of them at the span
    accepted = [0]

    def trial(*args, _real=integrator._trial):
        out = _real(*args)
        accepted[0] += out[2] <= 1.0
        return out

    monkeypatch.setattr(integrator, "_trial", trial)
    run = analysis.zero_energy_run(t_end=500.0)
    rep = analysis.check_zero_energy_monotone(run)
    assert rep.passed
    assert rep.details["n_samples"] == accepted[0] + 1
    times = [t for t, _ in run.samples]
    assert times[0] == 0.0 and times[-1] == 500.0
    assert all(a < b for a, b in zip(times, times[1:]))


def test_zero_energy_run_requests_nothing(monkeypatch):
    # at any tolerance, however long its span, the run is made with the
    # given settings at t_limit = t_end, so only its span caps its step; it
    # watches and stops at no kind of its own (collision proximity and the
    # time limit end every run)
    fine = IntegratorSettings(rel_tol=1e-20)
    made = _made_runs(monkeypatch)
    monkeypatch.setattr(integrator._Run, "advance", lambda run: run)
    for t_end in (1.0, 200.0, 1e4):
        analysis.zero_energy_run(t_end, fine)
    assert made == [(fine.replace(t_limit=t_end), (), ())
                    for t_end in (1.0, 200.0, 1e4)]


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

    zero = integrate(dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0)),
                     IntegratorSettings(t_limit=50.0)).samples
    qv = [s.x * s.vx + s.y * s.vy for s in zero]
    monotone = max(
        max(-4.0 / math.hypot(s.x, s.y) + 0.5 / s.y for s in zero),
        -min(b - a for a, b in zip(qv, qv[1:])))

    def concavity_mismatch(s):
        # the chain rule's d(-r^2 r')/dt against the closed form, relative
        r, rdot = math.hypot(s.x, s.y), radial_velocity(s)
        ax, ay = dyn.acceleration(s.x, s.y)
        rdd = (s.vx * s.vx + s.vy * s.vy + s.x * ax + s.y * ay
               - rdot * rdot) / r
        pphi = 0.5 * (s.x * s.vy - s.y * s.vx)
        closed = -1.5 * r * rdot * rdot - 2.0 * pphi * pphi / r
        return abs(-(2.0 * r * rdot * rdot + r * r * rdd) - closed) / abs(
            closed)

    concavity = max(map(concavity_mismatch, zero))

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
    # over (0, 0.5] V is largest at the horizon and q.v rises throughout:
    # the fixed-step RK4 of conftest, in steps of 1e-4, reproduces the
    # check's largest V within 1e-9 (measured 3.0e-12) and finds no larger
    # V and no fall of q.v at any of its steps, between the run's step ends
    # too.  The end state is the checked run's own last sample, at t_end
    t_end = 0.5
    run = analysis.zero_energy_run(t_end)
    rep = analysis.check_zero_energy_monotone(run)
    assert rep.passed
    t, (x, y, _, _) = run.samples[-1]
    assert t == t_end
    got = rep.details["max_potential"]
    assert got == -4.0 / math.hypot(x, y) + 0.5 / y
    s0 = dyn.initial_state(dyn.ProblemSpec(E=0.0, h=1.0))
    steps = _rk4_steps((s0.x, s0.y, s0.vx, s0.vy), t_end)
    pot = [-4.0 / math.hypot(x, y) + 0.5 / y for _, (x, y, _, _) in steps]
    assert abs(pot[-1] - got) <= 1e-9
    assert max(pot) == pot[-1] < 0.0
    qv = [0.0] + [x * vx + y * vy for _, (x, y, vx, vy) in steps]
    assert all(a < b for a, b in zip(qv, qv[1:]))


class TestTauValues:
    # first rest times of the height-1 launch at shrinking |E|, against the
    # Taylor oracle of conftest (measured within 1.3e-11)
    HEIGHTS = (0.5, 0.2, 0.1, 0.05)

    def test_frozen_values(self):
        for h in self.HEIGHTS:
            tau = taylor_rest(-h, 1.0, 1)[0]
            assert abs(shooting.shoot(-h, 1.0).t_h - tau) <= 1e-9

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
