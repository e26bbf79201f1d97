"""System objectives: emission curve, TTT, aggregates, charge search, gains."""

from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from tcsmfd import (
    Aggregates,
    CapInactiveError,
    EmissionModel,
    EquilibriumReport,
    MfdCurve,
    ModalState,
    TcsParams,
    compute_aggregates,
    emission_charge_gradient,
    emission_per_distance,
    emission_per_distance_dv,
    equilibrium_solve,
    group_gains,
    optimize_charge,
    simulate,
    sweep_charges,
    total_emission,
    total_travel_time,
    ttt_charge_gradient,
)
import tcsmfd.objectives
from tcsmfd.objectives import _predicted_start

from conftest import make_scenario


def decimal_rate(v, model=EmissionModel()):
    """Exact-arithmetic evaluation of the folded intensity quartic."""
    c0 = Decimal(str(model.c0))
    c1 = Decimal(str(model.c1))
    c2 = Decimal(str(model.c2))
    c3 = Decimal(str(model.c3))
    c4 = Decimal(str(model.c4))
    c5 = Decimal(str(model.c5))
    v = Decimal(str(v))
    a4 = c1
    a3 = c2
    a2 = c3 + 2 * c1 * c0 ** 2
    a1 = c4 + c2 * c0 ** 2
    a0 = c5 + (c3 / 3) * c0 ** 2 + (c1 / 5) * c0 ** 4
    return a4 * v ** 4 + a3 * v ** 3 + a2 * v ** 2 + a1 * v + a0


class TestEmissionCurve:
    def test_spot_value_at_50(self):
        # frozen from the exact-arithmetic oracle below
        assert emission_per_distance(50.0) == pytest.approx(144.8985677083, abs=1e-9)

    def test_matches_decimal_oracle(self):
        for v in (5.0, 12.5, 30.0, 50.0, 87.3):
            want = float(decimal_rate(v))
            assert emission_per_distance(v) == pytest.approx(want, rel=1e-12)

    def test_decreasing_over_urban_speeds(self):
        v = np.arange(10.0, 60.001, 0.5)
        rate = emission_per_distance(v)
        assert np.all(np.diff(rate) < 0)
        assert np.all(emission_per_distance_dv(v) < 0)

    def test_derivative_matches_fd(self):
        h = 1e-6
        for v in (12.0, 25.0, 40.0, 55.0):
            fd = (emission_per_distance(v + h) - emission_per_distance(v - h)) / (2 * h)
            assert emission_per_distance_dv(v) == pytest.approx(fd, rel=1e-6)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            emission_per_distance(0.0)
        with pytest.raises(ValueError):
            emission_per_distance_dv(np.array([30.0, -5.0]))

    def test_array_shape(self):
        v = np.array([[20.0, 30.0], [40.0, 50.0]])
        assert emission_per_distance(v).shape == (2, 2)


class TestTotalTravelTime:
    def test_hand_value_constant_mfd(self):
        # t_car = l / V exactly, so TTT reduces to a weighted average
        sc = make_scenario(
            [(100.0, 0.0, 4000.0, 900.0), (50.0, 10.0, 2000.0, 500.0)],
            mfd=MfdCurve.constant(8.0),
        )
        x = np.array([0.4, 0.7])
        sim = simulate(sc, x)
        want_s = 100.0 * (0.4 * 500.0 + 0.6 * 900.0) + 50.0 * (0.7 * 250.0 + 0.3 * 500.0)
        got = total_travel_time(sc, ModalState(x=x, p=0.0), sim)
        assert got == pytest.approx(want_s / 3600.0, rel=1e-12)

    def test_all_pt(self):
        sc = make_scenario([(100.0, 0.0, 4000.0, 900.0)], mfd=MfdCurve.constant(8.0))
        x = np.zeros(1)
        got = total_travel_time(sc, ModalState(x=x, p=0.0), simulate(sc, x))
        assert got == pytest.approx(100.0 * 900.0 / 3600.0, rel=1e-12)


class TestTotalEmission:
    def test_one_group_hand_oracle(self):
        # constant speed: person-distance is gamma x l, rate is the curve at V
        gamma, x, length, v = 120.0, 0.55, 3500.0, 7.0
        sc = make_scenario([(gamma, 0.0, length, 800.0)], mfd=MfdCurve.constant(v))
        sim = simulate(sc, np.array([x]))
        want_g = gamma * x * (length / 1000.0) * emission_per_distance(v * 3.6)
        assert total_emission(sim) == pytest.approx(want_g * 1e-6, rel=1e-9)

    def test_group_split_invariance(self):
        # same accumulation profile, different bookkeeping
        rows = [(100.0, 0.0, 3000.0, 700.0), (80.0, 40.0, 2500.0, 600.0)]
        split = [(60.0, 0.0, 3000.0, 700.0), (40.0, 0.0, 3000.0, 700.0),
                 (80.0, 40.0, 2500.0, 600.0)]
        a = make_scenario(rows)
        b = make_scenario(split)
        x_a = np.array([0.5, 0.8])
        x_b = np.array([0.5, 0.5, 0.8])
        assert total_emission(simulate(b, x_b)) == pytest.approx(
            total_emission(simulate(a, x_a)), rel=1e-12
        )

    def test_no_cars_no_emission(self):
        sc = make_scenario([(100.0, 0.0, 3000.0, 700.0)])
        assert total_emission(simulate(sc, np.zeros(1))) == 0.0

    def test_custom_model_passes_through(self):
        sc = make_scenario([(100.0, 0.0, 3000.0, 700.0)], mfd=MfdCurve.constant(9.0))
        sim = simulate(sc, np.array([0.5]))
        flat = EmissionModel(c0=0.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0, c5=100.0)
        want = 100.0 * 0.5 * 3.0 * 100.0 * 1e-6
        assert total_emission(sim, flat) == pytest.approx(want, rel=1e-12)


class TestAggregates:
    def agg_for(self, sc, x, p=0.01, params=None):
        params = params or TcsParams()
        sim = simulate(sc, x)
        return compute_aggregates(sc, ModalState(x=x, p=p), sim, params)

    def test_constant_mfd_values(self):
        sc = make_scenario(
            [(100.0, 0.0, 4000.0, 900.0), (50.0, 10.0, 2000.0, 500.0)],
            mfd=MfdCurve.constant(8.0),
        )
        agg = self.agg_for(sc, np.array([0.4, 0.7]))
        params = TcsParams()
        assert agg.n_car_cap == pytest.approx(150.0 * params.kappa / params.tau)
        assert agg.v_bar == pytest.approx(8.0, rel=1e-12)   # everyone drives at V
        assert agg.speed_drop == 0.0
        assert agg.t_dept == pytest.approx(10.0)
        want_len = (100 * 0.4 * 4000 + 50 * 0.7 * 2000) / (100 * 0.4 + 50 * 0.7)
        assert agg.len_mean == pytest.approx(want_len, rel=1e-12)
        assert agg.len_total == pytest.approx(100 * 0.4 * 4000 + 50 * 0.7 * 2000)

    def test_greenshields_speed_drop(self):
        sc = make_scenario(
            [(20.0, 0.0, 600.0, 300.0), (30.0, 50.0, 400.0, 500.0)],
            mfd=MfdCurve.greenshields(10.0, 100.0),
        )
        agg = self.agg_for(sc, np.array([0.5, 0.5]))
        assert agg.speed_drop == pytest.approx(10.0 / 100.0, rel=1e-12)

    def test_guard_no_car_users(self):
        sc = make_scenario([(100.0, 0.0, 3000.0, 700.0)])
        with pytest.raises(ValueError, match="no car users"):
            self.agg_for(sc, np.zeros(1))

    def test_guard_saturated_weights(self):
        sc = make_scenario([(100.0, 0.0, 3000.0, 700.0)])
        params = TcsParams(theta=1e4)   # psi pinned at 0 or 1
        with pytest.raises(ValueError, match="saturated"):
            self.agg_for(sc, np.array([0.5]), params=params)

    def test_guard_degenerate_window(self):
        sc = make_scenario(
            [(50.0, 30.0, 3000.0, 700.0), (50.0, 30.0, 2000.0, 600.0)]
        )
        with pytest.raises(ValueError, match="window"):
            self.agg_for(sc, np.array([0.5, 0.5]))

    def test_edie_length_closure(self):
        # total vehicle-meters equals the sum of car trips completed
        sc = make_scenario(
            [(20.0, 0.0, 600.0, 300.0), (30.0, 50.0, 400.0, 500.0)],
            mfd=MfdCurve.greenshields(10.0, 100.0),
        )
        x = np.array([0.6, 0.9])
        sim = simulate(sc, x)
        agg = self.agg_for(sc, x)
        want = 20.0 * 0.6 * 600.0 + 30.0 * 0.9 * 400.0
        assert agg.edie_length_total(sim) == pytest.approx(want, rel=1e-9)


class TestChargeGradients:
    def test_cap_inactive_raises(self, small_scenario):
        params = TcsParams()
        x = np.full(small_scenario.n, 0.2)
        sim = simulate(small_scenario, x)
        state = ModalState(x=x, p=0.0)
        agg = compute_aggregates(small_scenario, state, sim, params)
        with pytest.raises(CapInactiveError):
            ttt_charge_gradient(agg, state, params)
        with pytest.raises(CapInactiveError):
            emission_charge_gradient(agg, state, params)

    def test_signs_at_binding_equilibrium(self, small_scenario):
        params = TcsParams()
        rep = equilibrium_solve(small_scenario, params)
        assert rep.state.p > 1e-6
        sim = simulate(small_scenario, rep.state.x)
        agg = compute_aggregates(small_scenario, rep.state, sim, params)
        d_em = emission_charge_gradient(agg, rep.state, params)
        # expelling drivers and speeding the rest both cut emissions
        assert d_em < 0
        assert np.isfinite(ttt_charge_gradient(agg, rep.state, params))


class TestOptimizeCharge:
    def test_validation(self, small_scenario):
        with pytest.raises(ValueError):
            optimize_charge(small_scenario, TcsParams(), objective="speed")
        with pytest.raises(ValueError):
            optimize_charge(small_scenario, TcsParams(), lo=50, hi=500)

    def test_solve_budget_and_bounds(self, small_scenario):
        res = optimize_charge(small_scenario, TcsParams(), objective="ttt",
                              lo=100, hi=500)
        assert res.n_solves <= 10   # ceil(log2(400)) + 1
        assert 100 <= res.tau_star <= 500
        assert res.report.converged
        assert res.steps
        assert np.isfinite(res.final_objective)

    def test_flat_cap_pushes_up(self):
        # PT dominant: the cap never binds on this range, search climbs to hi
        sc = make_scenario(
            [(1000.0, 0.0, 4000.0, 200.0)], mfd=MfdCurve.constant(8.0)
        )
        params = TcsParams(max_iters=600)
        res = optimize_charge(sc, params, lo=100, hi=116)
        assert res.tau_star == 116.0
        assert all(s.flat_cap for s in res.steps if np.isfinite(s.derivative) is False)
        assert all(s.derivative == -np.inf for s in res.steps[:-1])


class TestSweep:
    def test_rejects_tau_below_kappa(self, small_scenario):
        with pytest.raises(ValueError):
            sweep_charges(small_scenario, TcsParams(), [80.0])

    def test_rows_and_identities(self, small_scenario):
        params = TcsParams()
        rows = sweep_charges(small_scenario, params, [150.0, 250.0])
        assert [r.tau for r in rows] == [150.0, 250.0]
        for r in rows:
            assert r.converged
            assert r.toll_equivalent == pytest.approx(
                r.price * (r.tau - params.kappa), rel=1e-12
            )
            assert r.car_share == pytest.approx(
                r.car_users / small_scenario.total_travelers, rel=1e-12
            )
            assert r.cap_slack >= -1e-6


class TestWarmStart:
    @staticmethod
    def record_starts(monkeypatch):
        """Route objectives.equilibrium_solve through a recorder of
        (tau, x_init, p_init, report) per call."""
        calls = []
        solve = tcsmfd.objectives.equilibrium_solve

        def recording(scenario, params, x_init=None, p_init=None, **kwargs):
            rep = solve(scenario, params, x_init=x_init, p_init=p_init, **kwargs)
            calls.append((params.tau, x_init, p_init, rep))
            return rep

        monkeypatch.setattr(tcsmfd.objectives, "equilibrium_solve", recording)
        return calls

    def test_reruns_are_byte_identical(self, small_scenario):
        params = TcsParams()
        taus = [260.0, 150.0, 300.0, 200.0]
        assert repr(sweep_charges(small_scenario, params, taus)) == \
            repr(sweep_charges(small_scenario, params, taus))
        first, second = (optimize_charge(small_scenario, params, objective="mixed",
                                         lo=150, hi=300) for _ in range(2))
        assert repr(first.steps) == repr(second.steps)

    @pytest.mark.parametrize("runner", ["sweep_charges", "stability_runs"])
    def test_nearest_charge_ties_to_the_lower(self, small_scenario, monkeypatch,
                                              runner):
        from tcsmfd.cli import stability_runs

        calls = self.record_starts(monkeypatch)
        run = sweep_charges if runner == "sweep_charges" else stability_runs
        params = TcsParams()
        run(small_scenario, params, [200.0, 300.0, 250.0])
        assert [t for t, _, _, _ in calls] == [200.0, 300.0, 250.0]
        assert calls[0][1] is None and calls[0][2] is None   # the first solve is cold
        assert calls[0][3].state.p != calls[1][3].state.p
        # each start is the predictor's over the charges solved before it;
        # 250 is 50 from both, so 200 leads the fit
        solved = {}
        for tau, x_init, p_init, rep in calls:
            want_x, want_p = _predicted_start(small_scenario,
                                              replace(params, tau=tau), solved)
            if want_x is None:
                assert x_init is None and p_init is None
            else:
                np.testing.assert_array_equal(x_init, want_x)
                assert p_init == want_p
            solved[tau] = rep.state

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    def test_cap_scaled_start_is_accepted(self, small_scenario, monkeypatch, cap):
        params = TcsParams(cap_constraint=cap)
        calls = self.record_starts(monkeypatch)
        rows = sweep_charges(small_scenario, params, [150.0, 400.0])
        (_, _, _, rep150), (tau, x_init, p_init, _) = calls
        c = params.cap_weights(small_scenario.gammas)
        supply = params.kappa * float(c.sum())
        # the start had to be scaled: 150's shares break the cap at 400
        assert tau * float(c @ rep150.state.x) > supply
        used = tau * float(c @ rep150.state.x)
        np.testing.assert_array_equal(x_init, rep150.state.x * (supply / used))
        np.testing.assert_allclose(tau * float(c @ x_init), supply, rtol=1e-12)
        assert p_init == rep150.state.p
        assert all(r.converged for r in rows)
        assert rows[1].cap_slack >= -1e-9 * supply

    # _predicted_start on hand-built states.  kappa = 100 with shares below
    # 0.4 keeps every start under the cap up to tau = 250, so no scaling.

    @staticmethod
    def path(taus, x_of, p_of):
        return {float(t): ModalState(x=x_of(t), p=p_of(t)) for t in taus}

    @staticmethod
    def predict(scenario, tau, starts, kappa=100.0):
        return _predicted_start(scenario, TcsParams(kappa=kappa, tau=float(tau)), starts)

    def test_reproduces_linear_and_quadratic_paths(self, small_scenario):
        n = small_scenario.n
        a, b, c = (np.linspace(lo, hi, n) for lo, hi in
                   ((0.1, 0.2), (0.05, -0.05), (0.02, -0.03)))

        def x_of(t):
            u = (t - 150.0) / 100.0
            return a + b * u + c * u * u

        def p_of(t):
            u = (t - 150.0) / 100.0
            return 0.004 + 0.003 * u - 0.001 * u * u

        lines = (lambda t: a + b * (t - 150.0) / 100.0,
                 lambda t: 0.004 + 0.003 * (t - 150.0) / 100.0)
        cases = [(self.path([150, 200], *lines), lines),
                 (self.path([150, 180, 200], *lines), lines),
                 (self.path([150, 180, 200], x_of, p_of), (x_of, p_of))]
        for starts, (want_x, want_p) in cases:
            for tau in (170.0, 230.0, 250.0):   # inside and beyond the nodes
                x, p = self.predict(small_scenario, tau, starts)
                np.testing.assert_allclose(x, want_x(tau), rtol=1e-12, atol=1e-15)
                assert p == pytest.approx(want_p(tau), rel=1e-12)

    def test_clips_shares_and_price(self, small_scenario):
        n = small_scenario.n
        lo = np.full(n, 0.5)
        lo[:2] = (0.2, 0.9)
        hi = np.full(n, 0.5)
        hi[:2] = (0.05, 0.95)
        starts = {100.0: ModalState(x=lo, p=0.002), 200.0: ModalState(x=hi, p=0.001)}
        # kappa = tau: the cap holds any shares, so only the clipping acts
        x, p = self.predict(small_scenario, 400.0, starts, kappa=400.0)
        assert x[0] == 0.0 and x[1] == 1.0      # -0.25 and 1.05 on the line
        np.testing.assert_allclose(x[2:], 0.5, rtol=1e-12)
        assert p == 0.0                          # -0.001 on the line

    def test_fits_only_the_nearest_charges_cap_branch(self, small_scenario):
        n = small_scenario.n
        slack = np.full(n, 0.35)
        starts = {160.0: ModalState(x=slack, p=0.0),
                  180.0: ModalState(x=np.full(n, 0.3), p=0.004),
                  200.0: ModalState(x=np.full(n, 0.2), p=0.006)}
        # 180 is nearest and binding: the slack state at 160 stays out
        x, p = self.predict(small_scenario, 190.0, starts)
        np.testing.assert_allclose(x, 0.25, rtol=1e-12)
        assert p == pytest.approx(0.005, rel=1e-12)
        alone = self.predict(small_scenario, 190.0, {t: starts[t] for t in (180.0, 200.0)})
        np.testing.assert_array_equal(x, alone[0])
        assert p == alone[1]
        # 160 is nearest and slack: the binding states stay out
        x, p = self.predict(small_scenario, 150.0, starts)
        np.testing.assert_array_equal(x, slack)
        assert p == 0.0

    def test_one_solved_charge_is_the_start_and_none_is_cold(self, small_scenario):
        state = ModalState(x=np.linspace(0.1, 0.3, small_scenario.n), p=0.007)
        x, p = self.predict(small_scenario, 250.0, {200.0: state})
        np.testing.assert_array_equal(x, state.x)
        assert p == state.p
        assert self.predict(small_scenario, 250.0, {}) == (None, None)

    def test_equidistant_charges_order_to_the_lower(self, small_scenario):
        n = small_scenario.n
        # not on one quadratic, so the three chosen charges show in the start
        starts = {t: ModalState(x=np.full(n, s), p=0.001 * s)
                  for t, s in ((150.0, 0.1), (200.0, 0.3), (300.0, 0.2), (350.0, 0.35))}
        x, p = self.predict(small_scenario, 250.0, starts)
        lower = {t: starts[t] for t in (150.0, 200.0, 300.0)}
        upper = {t: starts[t] for t in (200.0, 300.0, 350.0)}
        want_x, want_p = self.predict(small_scenario, 250.0, lower)
        np.testing.assert_array_equal(x, want_x)
        assert p == want_p
        assert p != self.predict(small_scenario, 250.0, upper)[1]
        # the nearest charge sets the branch, again ties to the lower
        tie = {200.0: starts[200.0], 300.0: ModalState(x=np.full(n, 0.2), p=0.0)}
        x, p = self.predict(small_scenario, 250.0, tie)
        np.testing.assert_array_equal(x, starts[200.0].x)
        assert p == starts[200.0].p


class TestGroupGains:
    def test_trade_identity(self, small_scenario):
        params = TcsParams()
        ref = equilibrium_solve(small_scenario, params, tcs=False, p_init=0.0)
        rep = equilibrium_solve(small_scenario, params)
        gains = group_gains(ref, rep, small_scenario, params)
        g = small_scenario.gammas
        want_total = rep.state.p * float(
            g @ (params.kappa - params.tau * rep.state.x)
        )
        assert gains.weighted_trade_total(g) == pytest.approx(want_total, rel=1e-12)
        # binding cap drives the aggregate transfer to zero
        assert abs(gains.weighted_trade_total(g)) <= 1e-6 * float(g.sum())

    def test_identical_states_mean_no_time_gain(self, small_scenario):
        params = TcsParams()
        x = np.full(small_scenario.n, 0.4)
        s = ModalState(x=x, p=0.02)
        rep = EquilibriumReport(state=s, converged=True, iterations=0,
                                sim=simulate(small_scenario, x))
        gains = group_gains(rep, rep, small_scenario, params)
        np.testing.assert_allclose(gains.time_gain_s, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            gains.net_eur, gains.trade_eur, atol=1e-12
        )
        np.testing.assert_allclose(
            gains.trade_eur, 0.02 * (params.kappa - params.tau * x), rtol=1e-12
        )

    def test_reads_the_reports_simulations(self, small_scenario, monkeypatch):
        params = TcsParams()
        ref = equilibrium_solve(small_scenario, params, tcs=False, p_init=0.0)
        rep = equilibrium_solve(small_scenario, params)

        def refuse(*args, **kwargs):
            raise AssertionError("group_gains simulated a known state")

        monkeypatch.setattr(tcsmfd.objectives, "simulate", refuse)
        gains = group_gains(ref, rep, small_scenario, params)
        t_pt = small_scenario.pt_times
        exp_ref, exp_tcs = (
            r.state.x * simulate(small_scenario, r.state.x).car_times
            + (1.0 - r.state.x) * t_pt
            for r in (ref, rep)
        )
        assert gains.time_gain_s.tobytes() == (exp_ref - exp_tcs).tobytes()
        with pytest.raises(ValueError, match="simulation"):
            group_gains(EquilibriumReport(state=ref.state, converged=True,
                                          iterations=0), rep, small_scenario, params)
