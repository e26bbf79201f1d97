"""System objectives: emission curve, TTT, charge derivatives, charge search, gains."""

import math
from dataclasses import replace
from decimal import Decimal
from functools import lru_cache

import numpy as np
import pytest

from tcsmfd import (
    EquilibriumReport,
    MfdCurve,
    ModalState,
    TcsParams,
    equilibrium_solve,
    generate_synthetic,
    group_gains,
    logit_choice,
    optimize_charge,
    preset_spec,
    simulate,
    sweep_charges,
    total_emission,
    total_travel_time,
)
import tcsmfd.objectives
from tcsmfd.equilibrium import _onto_cap
from tcsmfd.objectives import (
    _EMISSION_COEFFS,
    _charge_derivatives,
    _charge_search,
    _node_maps,
    _predicted_start,
    _probe,
    _solve_bound,
    _Solved,
    _solved,
    _widest,
    emission_per_distance,
    emission_per_distance_dv,
)

from conftest import make_scenario
from reference_formulas import dichotomy, dichotomy_charge


def decimal_rate(v):
    """Exact-arithmetic evaluation of the folded intensity quartic."""
    c0, c1, c2, c3, c4, c5 = (Decimal(str(c)) for c in _EMISSION_COEFFS)
    v = Decimal(str(v))
    a4 = c1
    a3 = c2
    a2 = c3 + 2 * c1 * c0 ** 2
    a1 = c4 + c2 * c0 ** 2
    a0 = c5 + (c3 / 3) * c0 ** 2 + (c1 / 5) * c0 ** 4
    return a4 * v ** 4 + a3 * v ** 3 + a2 * v ** 2 + a1 * v + a0


@lru_cache(maxsize=None)
def preset_scenario(preset, seed):
    return generate_synthetic(seed, preset_spec(preset))


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


def derivatives_at(sc, x, p=0.01, params=None):
    """``_charge_derivatives`` at shares x and price p, on their simulation
    and the logit shares there."""
    params = params or TcsParams()
    sim = simulate(sc, x)
    rep = EquilibriumReport(state=ModalState(x=x, p=p), converged=True, iterations=0,
                            sim=sim, psis=logit_choice(sim.car_times, sc.pt_times, p, params))
    return _charge_derivatives(sc, rep, params)


def switching_mean(sc, sim, values, p=0.01, params=None):
    """Mean of ``values`` over the marginal travelers, weighted by gamma and
    the logit switching weights theta psi (1 - psi)."""
    params = params or TcsParams()
    psi = logit_choice(sim.car_times, sc.pt_times, p, params)
    w = sc.gammas * params.theta * psi * (1.0 - psi)
    return float(w @ values) / float(w.sum())


class TestAggregates:
    """The network aggregates ``_charge_derivatives`` reads, and its guards."""

    def test_constant_mfd_values(self):
        # no MFD slope: dTTT/dtau is the swap term alone, and dE/dtau the
        # expelled users' emissions at the one speed every car drives
        sc = make_scenario(
            [(100.0, 0.0, 4000.0, 900.0), (50.0, 10.0, 2000.0, 500.0)],
            mfd=MfdCurve.constant(8.0),
        )
        x = np.array([0.4, 0.7])
        params = TcsParams()
        d_ttt, d_em = derivatives_at(sc, x)
        sim = simulate(sc, x)
        np.testing.assert_allclose(sim.car_times, [500.0, 250.0], rtol=1e-12)
        users_per_credit = 150.0 * params.kappa / params.tau ** 2
        swap = switching_mean(sc, sim, sc.pt_times - sim.car_times)
        assert d_ttt == pytest.approx(swap * users_per_credit, rel=1e-12)
        # the estimate divides the expelled emissions by tau once more than
        # the users expelled per credit
        len_w_km = switching_mean(sc, sim, sc.trip_lens) / 1000.0
        want_em = (-len_w_km * emission_per_distance(8.0 * 3.6) * users_per_credit
                   / params.tau * 1e-6)
        assert d_em == pytest.approx(want_em, rel=1e-12)

    def test_greenshields_speed_drop(self):
        # the MFD slope -dV/dn = v_free / n_jam adds the speed-up of the
        # remaining cars at the implied steady accumulation
        sc = make_scenario(
            [(20.0, 0.0, 600.0, 300.0), (30.0, 50.0, 400.0, 500.0)],
            mfd=MfdCurve.greenshields(10.0, 100.0),
        )
        x = np.array([0.5, 0.5])
        params = TcsParams()
        d_ttt, _ = derivatives_at(sc, x)
        sim = simulate(sc, x)
        g = sc.gammas
        tt_mean = float(g @ (x * sim.car_times)) / float(g @ x)
        len_mean = float(g @ (x * sc.trip_lens)) / float(g @ x)
        n_car_cap = 50.0 * params.kappa / params.tau
        n_bar = n_car_cap * tt_mean / 50.0   # departure window of 50 s
        speed = -len_mean * (10.0 / 100.0) * n_bar / (len_mean / tt_mean) ** 2
        swap = switching_mean(sc, sim, sc.pt_times - sim.car_times)
        assert speed < 0
        assert d_ttt == pytest.approx((speed + swap) * n_car_cap / params.tau, rel=1e-12)

    def test_guard_no_car_users(self):
        sc = make_scenario([(100.0, 0.0, 3000.0, 700.0)])
        with pytest.raises(ValueError, match="no car users"):
            derivatives_at(sc, np.zeros(1))

    def test_guard_saturated_weights(self):
        sc = make_scenario([(100.0, 0.0, 3000.0, 700.0)])
        params = TcsParams(theta=1e4)   # psi pinned at 0 or 1
        with pytest.raises(ValueError, match="saturated"):
            derivatives_at(sc, np.array([0.5]), params=params)

    def test_guard_degenerate_window(self):
        sc = make_scenario(
            [(50.0, 30.0, 3000.0, 700.0), (50.0, 30.0, 2000.0, 600.0)]
        )
        with pytest.raises(ValueError, match="window"):
            derivatives_at(sc, np.array([0.5, 0.5]))


class TestChargeGradients:
    """``_charge_derivatives`` at solved equilibria."""

    def test_signs_at_binding_equilibrium(self, small_scenario):
        params = TcsParams()
        rep = equilibrium_solve(small_scenario, params)
        assert rep.state.p > 1e-6
        d_ttt, d_em = _charge_derivatives(small_scenario, rep, params)
        # expelling drivers and speeding the rest both cut emissions
        assert d_em < 0
        assert np.isfinite(d_ttt)

    # ids by the charge alone, so that a re-pin keeps the tests' names
    @pytest.mark.parametrize("tau, ttt, mixed", [
        (200.0, -40.61977699212992, -53.824264216668006),
        (225.0, 10.475256086122682, 1.7428935240778856),
        (250.0, 66.95592639862372, 60.892079093007965),
    ], ids=["200", "225", "250"])
    def test_pinned_on_congested(self, tau, ttt, mixed):
        # the objective derivatives the charge search steers by, at solves
        # from the centre of the share box scaled onto the cap, on congested
        # seed 0 with default parameters; the sign change between 200 and
        # 250 brackets both searches' optima
        sc = generate_synthetic(0, preset_spec("congested"))
        params = TcsParams(tau=tau)
        centre = _onto_cap(np.full(sc.n, 0.5), params.cap_weights(sc.gammas), params)
        rep = equilibrium_solve(sc, params, x_init=centre)
        d_ttt, d_em = _charge_derivatives(sc, rep, params)
        assert params.alpha * d_ttt == pytest.approx(ttt, rel=1e-12)
        d_mixed = params.alpha * d_ttt
        d_mixed += params.gamma_emission * params.p_carbon * d_em
        assert d_mixed == pytest.approx(mixed, rel=1e-12)


class TestOptimizeCharge:
    def test_validation(self, small_scenario):
        with pytest.raises(ValueError):
            optimize_charge(small_scenario, TcsParams(), objective="speed")
        with pytest.raises(ValueError):
            optimize_charge(small_scenario, TcsParams(), lo=50, hi=500)
        # a fractional or text bound is refused, not truncated below itself
        with pytest.raises(ValueError, match="lo must be an integer"):
            optimize_charge(small_scenario, TcsParams(), objective="ttt", lo=200.9, hi=201.9)
        with pytest.raises(ValueError, match="lo must be an integer"):
            optimize_charge(small_scenario, TcsParams(), lo="200")
        with pytest.raises(ValueError, match="hi must be an integer"):
            optimize_charge(small_scenario, TcsParams(), lo=200, hi=201.5)

    def test_solve_budget_and_bounds(self, small_scenario):
        res = optimize_charge(small_scenario, TcsParams(), objective="ttt",
                              lo=100, hi=500)
        assert res.n_solves <= 10   # ceil(log2(400)) + 1
        assert 100 <= res.tau_star <= 500
        assert res.report.converged
        assert res.steps
        assert np.isfinite(res.final_objective)

    @pytest.mark.parametrize("lo, hi", [(100, 500), (151, 350)])
    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    @pytest.mark.parametrize("objective", ["ttt", "mixed"])
    @pytest.mark.parametrize("preset, seed", [("small", 0), ("small", 1),
                                              ("congested", 0), ("congested", 1)])
    def test_meets_the_dichotomy(self, preset, seed, objective, cap, lo, hi):
        # the search lands where the plain dichotomy on the same derivative
        # does, within the documented solve bound
        sc = preset_scenario(preset, seed)
        params = TcsParams(cap_constraint=cap)
        res = optimize_charge(sc, params, objective=objective, lo=lo, hi=hi)
        assert res.tau_star == dichotomy_charge(sc, params, objective, lo, hi)
        assert res.n_solves <= solve_bound(hi - lo)

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


def solve_bound(width):
    """The documented bound on a charge search's solves over
    [lo, lo + width]: ceil(log2(width)) + 1, and one and two at widths 0
    and 1."""
    return width + 1 if width < 2 else math.ceil(math.log2(width)) + 1


@lru_cache(maxsize=None)
def dichotomy_solves(width, end_solved):
    """The most solves the reference dichotomy takes over [100, 100 + width]
    across every answer: its probes, plus the solve at tau* when no probe
    made it and it is not an upper end solved before the search."""
    worst = 0
    for z in range(100, 100 + width + 2):
        tau_star, probes = dichotomy(scripted("step", z), 100, 100 + width)
        unsolved = tau_star not in probes and not (end_solved and tau_star == 100 + width)
        worst = max(worst, len(probes) + unsolved)
    return worst


def scripted(kind, z):
    """A derivative over integer charges whose first charge with d >= 0 is
    ``z``: a unit step, a steep tanh through z - 0.3, a line through z
    (d(z) is exactly 0), or -inf (a slack cap) below the midpoint of 100
    and z, a steep cubic above it."""
    if kind == "step":
        return lambda t: -1.0 if t < z else 1.0
    if kind == "tanh":
        return lambda t: math.tanh((t - z + 0.3) / 0.2)
    if kind == "zero":
        return lambda t: float(t - z)
    flat_below = (100 + z) // 2
    return lambda t: -math.inf if t < flat_below else (t - z + 0.5) ** 3


class TestChargeSearch:
    """``_charge_search`` and its probe rule on scripted derivatives."""

    WIDTHS = list(range(65)) + [400]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_solve_bound_covers_the_dichotomys_worst_case(self, width):
        assert _solve_bound(width) == solve_bound(width) >= dichotomy_solves(width, False)

    @pytest.mark.parametrize("end_solved", [False, True])
    def test_widest_bracket_within_a_budget(self, end_solved):
        for budget in range(7):
            fits = [w for w in range(130) if dichotomy_solves(w, end_solved) <= budget]
            assert _widest(budget, end_solved) == max(fits, default=-1)

    @pytest.mark.parametrize("kind", ["step", "tanh", "zero", "flat"])
    def test_first_nonnegative_charge_within_the_bound(self, kind):
        zeros = 0
        for width in self.WIDTHS:
            lo, hi = 100, 100 + width
            for z in range(lo, hi + 2):
                d = scripted(kind, z)
                tau_star, probes = _charge_search(d, lo, hi)
                assert tau_star == next((t for t in range(lo, hi + 1) if d(t) >= 0), hi)
                a, c = lo, hi
                for tau, a_next, c_next, d_tau in probes:
                    assert a <= tau < c
                    assert d_tau == d(tau)
                    assert (a_next, c_next) == ((tau + 1, c) if d_tau < 0 else (a, tau))
                    a, c = a_next, c_next
                    zeros += d_tau == 0.0
                assert a == c == tau_star
                taus = [p[0] for p in probes]
                assert len(taus) + (tau_star not in taus) <= solve_bound(width)
        if kind == "zero":
            assert zeros

    def test_chord_steps_save_solves(self):
        # on a line, over every answer in [100, 500], the chord probes take
        # 2104 solves where the dichotomy takes 3508
        chord = plain = 0
        for z in range(100, 502):
            tau_star, probes = _charge_search(scripted("zero", z), 100, 500)
            taus = [p[0] for p in probes]
            chord += len(taus) + (tau_star not in taus)
            tau_star, taus = dichotomy(scripted("zero", z), 100, 500)
            plain += len(taus) + (tau_star not in taus)
        assert chord <= 2 * plain / 3

    @pytest.mark.parametrize("derivative, tau_star, taus", [
        # convex: midpoints 132 and 116 while an end is unprobed, then the
        # chord to 121 keeps the upper end 132 a second time; halved, the
        # next chord lands on 125 (123.3 without the halving)
        (lambda t: math.exp((t - 124.5) / 10) - 1, 125, [132, 116, 121, 125, 124]),
        # concave: midpoints 132 and 148, then the chord to 140 keeps the
        # lower end 132 a second time; halved, the next chord lands on 136
        # (137.0 without the halving)
        (lambda t: 1 - math.exp(-(t - 135.5) / 5), 136, [132, 148, 140, 136, 135]),
    ], ids=["upper", "lower"])
    def test_an_end_kept_twice_is_halved(self, derivative, tau_star, taus):
        found, probes = _charge_search(derivative, 100, 164)
        assert found == tau_star
        assert [p[0] for p in probes] == taus

    @pytest.mark.parametrize("end_solved", [False, True])
    def test_probe_moves_only_as_far_as_the_bound_needs(self, end_solved):
        def cost(a, c, m):
            return 1 + max(dichotomy_solves(m - a, True),
                           dichotomy_solves(c - m - 1, end_solved))

        assert _probe(100, 500, end_solved, 10, None) == 300
        assert _probe(100, 500, end_solved, 10, math.nan) == 300
        for width in range(1, 40):
            a, c = 100, 100 + width
            budget = dichotomy_solves(width, end_solved)
            for target in np.arange(a - 3.0, c + 3.0, 0.25):
                m = _probe(a, c, end_solved, budget, target)
                assert a <= m < c
                assert cost(a, c, m) <= budget
                nearest = min(max(math.floor(target + 0.5), a), c - 1)
                if m != nearest:
                    # one charge nearer the target would break the bound
                    toward = m + (1 if nearest > m else -1)
                    assert cost(a, c, toward) > budget


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

    @staticmethod
    def solved(scenario, params, taus):
        """The predictor's records of cold solves at ``taus``."""
        out = {}
        for tau in taus:
            p_tau = replace(params, tau=float(tau))
            out[float(tau)] = _solved(scenario, p_tau, equilibrium_solve(scenario, p_tau))
        return out

    @staticmethod
    def predict(scenario, params, tau, starts):
        return _predicted_start(scenario, replace(params, tau=float(tau)), starts)

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
        # each start is the predictor's over the charges solved before it
        # (250 is 50 from both; test_equidistant_charges_order_to_the_lower
        # shows the tie broken at the last node)
        solved = {}
        for tau, x_init, p_init, rep in calls:
            p_tau = replace(params, tau=tau)
            want_x, want_p = _predicted_start(small_scenario, p_tau, solved)
            if want_x is None:
                assert x_init is None and p_init is None
            else:
                np.testing.assert_array_equal(x_init, want_x)
                assert p_init == want_p
            solved[tau] = _solved(small_scenario, p_tau, rep)

    def test_a_repeated_charge_is_solved_once(self, small_scenario, monkeypatch):
        params = TcsParams()
        calls = self.record_starts(monkeypatch)
        rows = sweep_charges(small_scenario, params, [200.0, 300, 200, 250.0, 300.0])
        assert [t for t, _, _, _ in calls] == [200.0, 300.0, 250.0]
        assert rows[2] == rows[0] and rows[4] == rows[1]
        # the repeats leave the later charges' starts as they were
        once = sweep_charges(small_scenario, params, [200.0, 300.0, 250.0])
        assert repr([rows[0], rows[1], rows[3]]) == repr(once)

    def test_a_repeated_stability_charge_is_solved_once(self, small_scenario,
                                                        monkeypatch):
        from tcsmfd.cli import stability_runs, stability_table

        calls = self.record_starts(monkeypatch)
        runs = stability_runs(small_scenario, TcsParams(), [200.0, 300.0, 200.0])
        assert [t for t, _, _, _ in calls] == [200.0, 300.0]
        assert runs[2][1] is runs[0][1] is calls[0][3]
        table = stability_table(runs)
        assert table[3] == table[1]

    def test_n_solves_counts_the_searchs_solves(self, small_scenario, monkeypatch):
        calls = self.record_starts(monkeypatch)
        res = optimize_charge(small_scenario, TcsParams(), objective="mixed",
                              lo=150, hi=300)
        solved = {t: rep for t, _, _, rep in calls}
        assert res.n_solves == len(calls) == len(solved)
        assert {float(s.tau) for s in res.steps} == set(solved)
        assert res.report is solved[res.tau_star]
        # each step's totals are its report's own
        for s in res.steps:
            rep = solved[s.tau]
            assert s.ttt_h == total_travel_time(small_scenario, rep.state, rep.sim)
            assert s.emission_t == total_emission(rep.sim)

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    def test_cap_scaled_start_is_accepted(self, small_scenario, monkeypatch, cap):
        params = TcsParams(cap_constraint=cap)
        calls = self.record_starts(monkeypatch)
        rows = sweep_charges(small_scenario, params, [150.0, 400.0, 110.0, 250.0, 130.0])
        c = params.cap_weights(small_scenario.gammas)
        supply = params.kappa * float(c.sum())
        # 150's shares break the cap at 400: every start is held onto it
        assert 400.0 * float(c @ calls[0][3].state.x) > supply
        for tau, x_init, p_init, _ in calls[1:]:
            assert np.all((x_init >= 0.0) & (x_init <= 1.0))
            assert tau * float(c @ x_init) <= supply * (1.0 + 1e-12), tau
            assert p_init >= 0.0
        assert all(r.converged for r in rows)
        assert all(r.cap_slack >= -1e-9 * supply for r in rows)

    def test_one_solved_charge_is_the_start_and_none_is_cold(self, small_scenario,
                                                             monkeypatch):
        # the cap is slack from 100 to 130, where the equilibrium does not
        # move with the charge: a solved slack charge meets x_tol at the next
        # one and is its start, bit for bit, which the solve accepts at once
        params = TcsParams()
        calls = self.record_starts(monkeypatch)
        rows = sweep_charges(small_scenario, params, [100.0, 120.0, 130.0])
        for (_, _, _, before), (_, x_init, p_init, rep) in zip(calls, calls[1:]):
            assert before.state.p == 0.0
            assert x_init.tobytes() == before.state.x.tobytes()
            assert p_init == 0.0
            assert rep.iterations == 1
            assert rep.state.x.tobytes() == before.state.x.tobytes()
        assert [r.iterations for r in rows[1:]] == [1, 1]
        assert self.predict(small_scenario, params, 250.0, {}) == (None, None)

    def test_equidistant_charges_order_to_the_lower(self, small_scenario):
        params = TcsParams()
        # 250 is 20 from 230, 50 from 200 and 300, and 80 from 170 and 330:
        # the four nodes take 170, not 330
        solved = self.solved(small_scenario, params, [170, 200, 230, 300, 330])
        x, p = self.predict(small_scenario, params, 250.0, solved)
        lower = {t: solved[t] for t in (170.0, 200.0, 230.0, 300.0)}
        upper = {t: solved[t] for t in (200.0, 230.0, 300.0, 330.0)}
        want_x, want_p = self.predict(small_scenario, params, 250.0, lower)
        np.testing.assert_array_equal(x, want_x)
        assert p == want_p
        assert x.tobytes() != self.predict(small_scenario, params, 250.0, upper)[0].tobytes()

    def test_clips_shares_and_price(self, small_scenario):
        # two hand-built nodes at price 0 with residuals v and 2v: the
        # Anderson weights 2 and -1 extrapolate out of the box in groups 0
        # and 1, and to a negative price, as only the second node's cap binds
        n = small_scenario.n
        c = TcsParams().cap_weights(small_scenario.gammas)
        psi_1 = np.full(n, 0.3)
        psi_1[:2] = (0.9, 0.05)
        psi_2 = np.full(n, 0.5)
        # the supply lies just above c'psi_1 and below c'psi_2
        params = TcsParams(tau=0.99 * 100.0 * float(c.sum()) / float(c @ psi_1))

        def record(x, psi):
            exps = 1.0 / psi - 1.0
            used = float(psi @ c)
            return _Solved(ModalState(x=x, p=0.0), exps, used, used - float(psi * psi @ c))

        nodes = [record(psi_1, psi_1), record(psi_2, psi_2)]
        qs, psis = _node_maps(nodes, [0.0, 0.0], c, params)
        assert qs[0] == 0.0 and qs[1] > 0.0
        v = np.full(n, 0.01)
        starts = {params.tau - 10.0: record(psis[0] - v, psi_1),
                  params.tau - 20.0: record(psis[1] - 2.0 * v, psi_2)}
        x, p = _predicted_start(small_scenario, params, starts)
        want = 2.0 * psis[0] - psis[1]
        assert want[0] > 1.0 and want[1] < 0.0
        assert x[0] == 1.0 and x[1] == 0.0
        np.testing.assert_allclose(x[2:], want[2:], rtol=1e-5)
        assert p == 0.0

    def test_predictor_makes_no_simulation(self, small_scenario, monkeypatch):
        params = TcsParams()
        solved = self.solved(small_scenario, params, [120, 180, 240, 320])

        def refuse(*args, **kwargs):
            raise AssertionError("the predictor simulated")

        monkeypatch.setattr(tcsmfd.equilibrium, "simulate", refuse)
        monkeypatch.setattr(tcsmfd.objectives, "simulate", refuse)
        for tau in (150.0, 200.0, 280.0, 450.0):
            x, p = self.predict(small_scenario, params, tau, solved)
            assert x.shape == (small_scenario.n,) and p >= 0.0

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    def test_node_maps_clear_each_market(self, small_scenario, cap):
        # each node's map value is the logit response on its own travel
        # times at a price that clears this charge's market, or 0 if slack
        params = TcsParams(cap_constraint=cap)
        solved = self.solved(small_scenario, params, [110, 200, 400])
        nodes = sorted(solved)
        reports = {t: equilibrium_solve(small_scenario, replace(params, tau=t))
                   for t in nodes}
        c = params.cap_weights(small_scenario.gammas)
        for tau in (120.0, 160.0, 300.0):
            p_tau = replace(params, tau=tau)
            base = [t * solved[t].state.p / tau for t in nodes]
            qs, psis = _node_maps([solved[t] for t in nodes], base, c, p_tau)
            supply = params.kappa * float(c.sum()) / tau
            for t, q, psi in zip(nodes, qs, psis):
                want = logit_choice(reports[t].sim.car_times, small_scenario.pt_times,
                                    q, p_tau)
                np.testing.assert_allclose(psi, want, rtol=1e-12, atol=1e-15)
                if q == 0.0:
                    assert float(c @ psi) <= supply * (1.0 + 1e-6)
                else:
                    assert float(c @ psi) == pytest.approx(supply, rel=1e-6)

    def test_congested_counts(self):
        # the acceptance scenario: the C08 grid and both searches over
        # 100..500, counted in outer iterations (one simulation each)
        sc = generate_synthetic(0, preset_spec("congested"))
        params = TcsParams()
        rows = sweep_charges(sc, params, list(range(100, 501, 20)))
        assert all(r.converged for r in rows)
        assert sum(r.iterations for r in rows) <= 60
        for objective, tau_star in (("ttt", 220.0), ("mixed", 225.0)):
            res = optimize_charge(sc, params, objective=objective, lo=100, hi=500)
            assert res.tau_star == tau_star
            per_charge = {s.tau: s.iterations for s in res.steps}
            assert len(per_charge) == res.n_solves
            assert sum(per_charge.values()) <= 14, objective


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
