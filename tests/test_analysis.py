import math

import pytest

from langmuir_lab import analysis
from langmuir_lab.integrator import EventKind, IntegratorSettings, integrate
from langmuir_lab import dynamics as dyn


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
        assert rep.details["min_radial_velocity"] > 0.0
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

    def test_suite_is_deterministic(self):
        a = analysis.run_all_checks()
        b = analysis.run_all_checks()
        for ra, rb in zip(a, b):
            assert ra.name == rb.name
            assert ra.worst_violation == rb.worst_violation
            assert ra.passed == rb.passed
