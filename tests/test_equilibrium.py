import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import (
    MfdCurve,
    ModalState,
    Scenario,
    TcsParams,
    build_qp,
    equilibrium_solve,
    generate_synthetic,
    j_value,
    logit_choice,
    logit_costs,
    logit_gradient,
    msa_solve,
    preset_spec,
    simulate,
    solve_qp,
    travel_time_gradient,
)
import tcsmfd.equilibrium

from conftest import make_scenario, small_random_scenario


def assert_operator_matches(P, dense, same_order=None, rtol=1e-14):
    """The never-formed QP matrix ``P`` against an assembled ``dense``:
    products with every unit vector and with seeded random vectors, the
    diagonal and the shape, to ``rtol``; bit for bit against
    ``same_order(v)``, a reference with the operator's order of operations,
    where given."""
    m = dense.shape[0]
    assert P.shape == (m, m)
    vectors = list(np.eye(m)) + list(np.random.default_rng(5).normal(size=(4, m)))
    for v in vectors:
        np.testing.assert_allclose(P @ v, dense @ v, rtol=rtol, atol=0)
        if same_order is not None:
            np.testing.assert_array_equal(P @ v, same_order(v))
    np.testing.assert_allclose(P.diagonal(), np.diagonal(dense), rtol=rtol, atol=0)


class TestLogit:
    def test_equal_costs_give_half(self):
        params = TcsParams(tau=200.0)
        assert logit_choice(500.0, 500.0, 0.0, params) == 0.5

    def test_frozen_value(self):
        # equal travel times, price 0.02, tau 200, theta 1:
        # psi = 1 / (1 + e^(tau p)) = 1 / (1 + e^4)
        params = TcsParams(tau=200.0, theta=1.0)
        want = 1.0 / (1.0 + math.exp(4.0))
        assert logit_choice(600.0, 600.0, 0.02, params) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(0.017986209962091559, rel=1e-12)

    def test_car_time_advantage_raises_share(self):
        params = TcsParams()
        fast = logit_choice(300.0, 900.0, 0.0, params)
        slow = logit_choice(900.0, 300.0, 0.0, params)
        assert fast > 0.5 > slow

    def test_vector_broadcast(self):
        params = TcsParams()
        t_car = np.array([300.0, 600.0, 900.0])
        psi = logit_choice(t_car, 600.0, 0.01, params)
        assert psi.shape == (3,)
        assert np.all(np.diff(psi) < 0)

    @pytest.mark.parametrize("theta", [1.0, 0.37])
    def test_bitwise_expit(self, theta):
        # libm's exp, as the package computes the logistic, against scipy's
        # expit, which evaluates the same formula with the same exp; gaps span
        # +-1e6 and both sides of the exp overflow edge log(DBL_MAX)
        from scipy.special import expit

        params = TcsParams(theta=theta)
        rng = np.random.default_rng(0)
        edge = math.log(np.finfo(float).max) / theta
        near_edge = np.linspace(edge - 1e-6, edge + 1e-6, 401)
        gaps = np.concatenate([
            rng.uniform(-1e6, 1e6, 2000),
            rng.uniform(-40.0, 40.0, 2000),
            near_edge, -near_edge, [0.0, -0.0, 1e6, -1e6],
        ])
        t_car = gaps / params.alpha
        t_pt = np.zeros(gaps.size)
        t_pt[:4000] = rng.uniform(0.0, 5.0, 4000)
        for p in (0.013, 0.0):
            want = expit(-params.theta * (params.alpha * (t_car - t_pt) + params.tau * p))
            assert logit_choice(t_car, t_pt, p, params).tobytes() == want.tobytes()
            got_2d = logit_choice(t_car.reshape(-1, 2), t_pt.reshape(-1, 2), p, params)
            assert got_2d.shape == (gaps.size // 2, 2)
            assert got_2d.tobytes() == want.tobytes()
            for i in range(0, gaps.size, 97):
                for args in ((float(t_car[i]), float(t_pt[i])),
                             (np.array(t_car[i]), np.array(t_pt[i]))):
                    got = logit_choice(*args, p, params)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == want[i].tobytes()
        # at p = 0 the edge is crossed: a subnormal probability on one side,
        # 0.0 on the other
        assert np.any((want > 0.0) & (want < 1e-300)) and np.any(want == 0.0)

    def test_costs_hand_values(self):
        # alpha=0.003, tau=200, kappa=100, p=0.01:
        # car = 0.003*1000 + 100*0.01 = 4.0 ; pt = 0.003*800 - 100*0.01 = 1.4
        params = TcsParams(alpha=0.003, tau=200.0, kappa=100.0)
        c_car, c_pt = logit_costs(1000.0, 800.0, 0.01, params)
        assert c_car == pytest.approx(4.0)
        assert c_pt == pytest.approx(1.4)

    def test_saturated_rows_zero_gradient(self):
        params = TcsParams()
        dT = np.ones((2, 2))
        grad = logit_gradient(np.array([0.0, 1.0]), dT, params)
        assert np.all(grad == 0.0)


class TestLogitGradient:
    def test_matches_fd_on_linear_model(self):
        # T(x) = T0 + dT x is a toy smooth travel-time model; the chain rule
        # through it must match finite differences of the composed logit
        rng = np.random.default_rng(0)
        n = 4
        params = TcsParams()
        dT = rng.uniform(0, 30, (n, n))
        T0 = rng.uniform(300, 900, n)
        t_pt = rng.uniform(300, 900, n)
        x0 = rng.uniform(0.2, 0.8, n)
        p0 = 0.012

        def psi(x, p):
            return logit_choice(T0 + dT @ x, t_pt, p, params)

        grad = logit_gradient(psi(x0, p0), dT, params)
        h = 1e-5
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (psi(x0 + e, p0) - psi(x0 - e, p0)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, rtol=1e-5, atol=1e-12)
        fd_p = (psi(x0, p0 + h) - psi(x0, p0 - h)) / (2 * h)
        np.testing.assert_allclose(grad[:, n], fd_p, rtol=1e-5, atol=1e-12)


class TestBuildQp:
    def test_single_group_hand_assembly(self):
        params = TcsParams(alpha=0.003, theta=1.0, tau=200.0, kappa=100.0, eta=1.0)
        gamma = np.array([800.0])
        x0, p0 = np.array([0.42]), 0.004
        psi0 = np.array([0.55])
        d = 25.0
        grad = logit_gradient(psi0, np.array([[d]]), params)
        prob = build_qp(x0, p0, psi0, grad, gamma, params, k=2)

        w = 0.55 * (0.55 - 1.0) * 1.0
        g_row = np.array([w * 0.003 * d - 1.0, w * 200.0])
        P_hand = np.outer(g_row, g_row)
        P_hand[0, 1] += 1.0 * -200.0      # eta * I_p coupling
        P_hand[1, 0] += 1.0 * -200.0
        q_hand = g_row * (0.55 - 0.42)
        q_hand[0] += 1.0 * (-200.0 * p0)
        q_hand[1] += 1.0 * (100.0 - 200.0 * 0.42)

        assert_operator_matches(prob.P, P_hand)
        np.testing.assert_allclose(prob.q, q_hand, rtol=1e-14)
        # trust region at k=2 is 0.5, wider than the remaining headroom up
        np.testing.assert_allclose(prob.lower, [-0.42, -0.004])
        np.testing.assert_allclose(prob.upper, [0.5, 0.5])
        np.testing.assert_allclose(prob.cap_coeffs, [200.0 * 800.0, 0.0])
        assert prob.cap_rhs == pytest.approx(100.0 * 800.0 - 200.0 * 800.0 * 0.42)

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    def test_three_group_matches_dense_assembly(self, cap):
        params = TcsParams(cap_constraint=cap, eta=1.7)
        gamma = np.array([120.0, 340.0, 75.0])
        x0 = np.array([0.2, 0.45, 0.3])
        psi0 = np.array([0.35, 0.5, 0.1])
        p0 = 0.006
        dT = np.random.default_rng(11).normal(scale=40.0, size=(3, 3))
        grad = logit_gradient(psi0, dT, params)
        G = grad - np.hstack([np.eye(3), np.zeros((3, 1))])
        fresh = grad.copy()  # build_qp consumes its grad_psi
        prob = build_qp(x0, p0, psi0, grad, gamma, params, k=1)

        if cap == "gamma-weighted":
            w = gamma / gamma.sum()
        else:
            w = np.full(3, 1.0 / 3)
        Ip = np.zeros((4, 4))
        Ip[:3, 3] = Ip[3, :3] = -w * params.tau
        ip = np.append(-w * params.tau * p0, w @ (params.kappa - params.tau * x0))
        # the border as build_qp scales it, eta * (-w tau), so that its
        # products round as the operator's do
        border = np.zeros((4, 4))
        border[:3, 3] = border[3, :3] = params.eta * (-w * params.tau)
        assert_operator_matches(prob.P, G.T @ G + params.eta * Ip,
                                same_order=lambda v: G.T @ (G @ v) + border @ v)
        np.testing.assert_array_equal(prob.q, G.T @ (psi0 - x0) + params.eta * ip)
        # without the scheme: the share block of the same assembly.  BLAS
        # orders a matrix-vector sum by the column count, so q matches the
        # N-column product exactly and the (N+1)-column one to rounding
        free = build_qp(x0, p0, psi0, fresh, gamma, params, k=1, tcs=False)
        Gx = G[:, :3]
        assert_operator_matches(free.P, (G.T @ G)[:3, :3],
                                same_order=lambda v: Gx.T @ (Gx @ v))
        np.testing.assert_array_equal(free.q, G[:, :3].T @ (psi0 - x0))
        np.testing.assert_allclose(free.q, (G.T @ (psi0 - x0))[:3], rtol=1e-15, atol=0)
        # G was formed in grad_psi's storage: all of it with the scheme, the
        # share columns without it, the price column left as it was
        assert grad.tobytes() == G.tobytes()
        assert fresh[:, :3].tobytes() == G[:, :3].tobytes()
        assert fresh[:, 3].tobytes() == G[:, 3].tobytes()

    def test_cap_variants(self):
        params = TcsParams(cap_constraint="printed")
        gamma = np.array([100.0, 300.0])
        x0 = np.array([0.2, 0.3])
        psi0 = np.array([0.4, 0.5])
        grad = logit_gradient(psi0, np.zeros((2, 2)), params)
        prob = build_qp(x0, 0.01, psi0, grad, gamma, params, k=1)
        np.testing.assert_allclose(prob.cap_coeffs[:2], [200.0, 200.0])
        assert prob.cap_rhs == pytest.approx(100.0 * 2 - 200.0 * 0.5)

    def test_no_tcs_freezes_price(self, small_scenario):
        params = TcsParams()
        gamma = np.array([50.0])
        psi0 = np.array([0.5])
        grad = logit_gradient(psi0, np.array([[10.0]]), params)
        g = grad[0, 0] - 1.0  # read first: build_qp consumes grad
        prob = build_qp(np.array([0.4]), 0.0, psi0, grad, gamma, params, k=1, tcs=False)
        # no price coordinate and no cap row: P is the 1x1 block g^2
        assert_operator_matches(prob.P, np.array([[g * g]]))
        assert len(prob.lower) == len(prob.upper) == 1
        assert prob.cap_coeffs is None and prob.cap_rhs is None
        rep = equilibrium_solve(small_scenario, params, tcs=False, p_init=0.004)
        assert rep.state.p == 0.004

    def test_printed_cap_tolerance_counts_groups(self):
        # 1e-3 credits over the printed cap of kappa * N = 200 credits: beyond
        # the rounding allowance 1e-9 * kappa * N, though far inside
        # 1e-9 * kappa * sum(gamma) = 0.2 credits
        params = TcsParams(cap_constraint="printed")
        gamma = np.array([1e6, 1e6])
        x0 = np.array([0.5, 0.5 + 1e-3 / params.tau])
        psi0 = np.array([0.5, 0.5])
        grad = logit_gradient(psi0, np.zeros((2, 2)), params)
        with pytest.raises(ValueError, match="credit cap"):
            build_qp(x0, 0.01, psi0, grad, gamma, params, k=1)

    def test_infeasible_start_rejected(self):
        params = TcsParams()
        gamma = np.array([100.0])
        psi0 = np.array([0.5])
        grad = logit_gradient(psi0, np.array([[10.0]]), params)
        with pytest.raises(ValueError):
            build_qp(np.array([0.9]), 0.01, psi0, grad, gamma, params, k=1)

    def test_iteration_index_validated(self):
        params = TcsParams()
        with pytest.raises(ValueError):
            build_qp(np.array([0.1]), 0.0, np.array([0.5]),
                     np.zeros((1, 2)), np.array([1.0]), params, k=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tcs,entry", [
        (True, (1, 0)), (True, (2, 2)), (True, (0, 3)),   # column 3: the price
        (False, (1, 0)), (False, (2, 2)),
    ])
    def test_non_finite_jacobian_rejected(self, tcs, entry, bad):
        # P is never formed, so build_qp itself refuses a Jacobian that would
        # make it non-finite, before any solve sees the problem
        params = TcsParams()
        gamma = np.array([120.0, 340.0, 75.0])
        x0 = np.array([0.2, 0.45, 0.3])
        psi0 = np.array([0.35, 0.5, 0.1])
        dT = np.random.default_rng(11).normal(scale=40.0, size=(3, 3))
        grad = logit_gradient(psi0, dT, params)
        grad[entry] = bad
        with pytest.raises(ValueError, match="^P must be finite"):
            build_qp(x0, 0.006, psi0, grad, gamma, params, k=1, tcs=tcs)


@pytest.fixture(scope="module")
def congested_qps():
    """The build_qp calls of one congested seed-0 equilibrium with the
    scheme and one without: (tcs, build_qp arguments, its problem).  The
    recorded grad_psi is a copy taken before build_qp consumes it."""
    scenario = generate_synthetic(0, preset_spec("congested"))
    params = TcsParams()
    calls = []

    def recording(*args, tcs=True):
        recorded = args[:3] + (args[3].copy(),) + args[4:]
        calls.append((tcs, recorded, build_qp(*args, tcs=tcs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcsmfd.equilibrium, "build_qp", recording)
        for tcs in (True, False):
            assert equilibrium_solve(scenario, params, tcs=tcs).converged
    assert {tcs for tcs, _, _ in calls} == {True, False}
    return calls


def dense_p(args, tcs):
    """P = G'G + border assembled from build_qp's arguments."""
    x0, _, _, grad_psi, gammas, params, _ = args
    n = len(x0)
    m = n + 1 if tcs else n
    G = grad_psi[:, :m] - np.eye(n, m)
    P = G.T @ G
    if tcs:
        c = params.cap_weights(gammas)
        border = params.eta * (-c / c.sum() * params.tau)
        P[:n, n] += border
        P[n, :n] += border
    return P


class TestNeverFormedP:
    def test_operator_solves_as_the_dense_matrix(self, congested_qps):
        for tcs, args, prob in congested_qps:
            bounds = (prob.q, prob.lower, prob.upper, prob.cap_coeffs, prob.cap_rhs)
            op = solve_qp(prob.P, *bounds)
            dense = solve_qp(dense_p(args, tcs), *bounds)
            assert op.iterations == dense.iterations
            assert op.converged == dense.converged
            np.testing.assert_allclose(op.z, dense.z, rtol=0, atol=1e-10)
            assert op.objective == pytest.approx(dense.objective, rel=1e-12, abs=0)

    def test_build_and_solve_never_hold_p(self, congested_qps):
        # G is formed in grad_psi's storage, so building and solving the QP
        # allocates no matrix-sized array: not a copy of G, let alone
        # P = G'G
        _, args, _ = next(call for call in congested_qps if call[0])
        n = len(args[0])
        g_bytes = n * (n + 1) * 8
        args = args[:3] + (args[3].copy(),) + args[4:]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prob = build_qp(*args)
            solve_qp(prob.P, prob.q, prob.lower, prob.upper, prob.cap_coeffs, prob.cap_rhs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * g_bytes


@pytest.mark.parametrize("tcs", [True, False])
def test_in_place_linearization_matches_the_allocating_calls(congested, tcs):
    # the logit Jacobian written over dT in the gradient's storage, and G
    # formed in that storage, against a fresh logit Jacobian and a copy of
    # its QP columns: the same bits in q, the bounds, the cap row and every
    # product and diagonal of P
    params = TcsParams()
    n = congested.n
    x, p = np.full(n, 0.4), 0.006
    sim = simulate(congested, x)
    psi = logit_choice(sim.car_times, congested.pt_times, p, params)
    gm = travel_time_gradient(congested, sim)
    fresh = logit_gradient(psi, gm.dT, params)
    m = n + 1 if tcs else n
    want = build_qp(x, p, psi, fresh[:, :m].copy(), congested.gammas, params, k=2, tcs=tcs)

    grad_psi = logit_gradient(psi, gm.dT, params, out=gm.storage)
    assert grad_psi is gm.storage
    assert grad_psi.tobytes() == fresh.tobytes()
    prob = build_qp(x, p, psi, grad_psi, congested.gammas, params, k=2, tcs=tcs)
    assert np.shares_memory(prob.P.G, gm.storage)
    for name in ("q", "lower", "upper"):
        assert getattr(prob, name).tobytes() == getattr(want, name).tobytes(), name
    if tcs:
        assert prob.cap_coeffs.tobytes() == want.cap_coeffs.tobytes()
        assert prob.cap_rhs == want.cap_rhs
    else:
        assert prob.cap_coeffs is None and prob.cap_rhs is None
    assert prob.P.diagonal().tobytes() == want.P.diagonal().tobytes()
    vectors = list(np.eye(m)[::7]) + list(np.random.default_rng(3).normal(size=(4, m)))
    for v in vectors:
        assert (prob.P @ v).tobytes() == (want.P @ v).tobytes()


@pytest.fixture(scope="module")
def citywide():
    return generate_synthetic(0, preset_spec("citywide"))


@pytest.mark.parametrize("tcs", [True, False])
def test_solve_holds_one_jacobian_sized_array(citywide, tcs):
    # each linearization lives in one N x (N+1) array, shared by dT, the
    # logit Jacobian and G and dropped before the next gradient; a second
    # one alive at any point would put the peak at twice that
    n = citywide.n
    g_bytes = n * (n + 1) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = equilibrium_solve(citywide, TcsParams(), tcs=tcs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.converged and len(rep.qp_iterations) >= 2
    assert peak < 1.5 * g_bytes


def test_j_value_hand_case():
    params = TcsParams(eta=2.0, tau=200.0, kappa=100.0)
    gammas = np.array([100.0, 300.0])
    x = np.array([0.3, 0.5])
    psi = np.array([0.4, 0.45])
    # gap = 0.5 (0.01 + 0.0025); slack per traveler = (400*100 - 200*180)/400
    want = 0.5 * 0.0125 + 2.0 * 0.02 * (40000.0 - 36000.0) / 400.0
    assert j_value(x, 0.02, psi, gammas, params, tcs=True) == pytest.approx(want, rel=1e-12)
    assert j_value(x, 0.02, psi, gammas, params, tcs=False) == pytest.approx(0.5 * 0.0125)


class TestSingleGroupEquilibrium:
    def closed_form_price(self, scenario, params, x_cap):
        # at a binding cap the logit argument must vanish at x = x_cap
        sim = simulate(scenario, np.array([x_cap]))
        t_car = float(sim.car_times[0])
        return params.alpha * (scenario.pt_times[0] - t_car) / params.tau

    def test_constant_mfd_binding_cap(self):
        # car 400 s faster than PT, so the unconstrained share would exceed
        # kappa/tau = 0.5; the cap binds and the price follows in closed form
        sc = make_scenario([(1000.0, 0.0, 4000.0, 900.0)], mfd=MfdCurve.constant(8.0))
        params = TcsParams(tau=200.0, kappa=100.0)
        # the default x_tol of 1e-4 bounds p only to about 2e-6; the price
        # assertion below needs a tighter residual, as in the next test
        rep = equilibrium_solve(sc, params, x_tol=1e-8)
        assert rep.converged
        assert rep.state.x[0] == pytest.approx(0.5, abs=1e-6)
        want_p = self.closed_form_price(sc, params, 0.5)
        assert want_p == pytest.approx((10.8 / 3600) * 400.0 / 200.0, rel=1e-12)
        assert rep.state.p == pytest.approx(want_p, abs=1e-7)

    def test_congestible_mfd_binding_cap(self):
        sc = make_scenario(
            [(80.0, 0.0, 3000.0, 700.0)],
            mfd=MfdCurve.greenshields(10.0, 100.0),
        )
        params = TcsParams(tau=200.0, kappa=100.0, j_goal=1e-10)
        rep = equilibrium_solve(sc, params, x_tol=1e-8)
        assert rep.converged
        assert rep.state.x[0] == pytest.approx(0.5, abs=1e-6)
        assert rep.state.p == pytest.approx(
            self.closed_form_price(sc, params, 0.5), abs=1e-7
        )

    def test_slack_cap_gives_zero_price(self):
        # PT much faster: unconstrained share far below 0.5, price must die.
        # With the cap slack the market term makes the step matrix indefinite
        # at N=1; the QP minimizes it as it is, so the price step reaches its
        # bound at once and the default iteration budget suffices.
        sc = make_scenario([(1000.0, 0.0, 4000.0, 200.0)], mfd=MfdCurve.constant(8.0))
        params = TcsParams(tau=200.0, kappa=100.0)
        rep = equilibrium_solve(sc, params, x_tol=1e-7)
        assert rep.converged
        assert rep.state.p == 0.0
        # and the share is the plain logit fixed point
        want = logit_choice(4000.0 / 8.0, 200.0, 0.0, params)
        assert rep.state.x[0] == pytest.approx(float(want), abs=1e-6)


class TestEquilibriumSolver:
    def test_small_scenario_converges(self, small_scenario):
        params = TcsParams()
        rep = equilibrium_solve(small_scenario, params)
        assert rep.converged
        assert rep.j_final < params.j_goal
        assert rep.residual_final < 1e-4
        assert rep.cap_slack >= -1e-6
        assert rep.mcc_trace[-1] < 1e-4
        g = small_scenario.gammas
        assert float(g @ rep.state.x) <= params.kappa / params.tau * g.sum() + 1e-6

    def test_inert_when_tau_equals_kappa(self, small_scenario):
        params = TcsParams(tau=100.0, kappa=100.0)
        rep = equilibrium_solve(small_scenario, params)
        ref = equilibrium_solve(small_scenario, params, tcs=False, p_init=0.0)
        assert rep.converged and ref.converged
        assert rep.state.p == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(rep.state.x, ref.state.x, atol=1e-4)

    def test_no_scheme_solve_ignores_the_charge(self):
        # scripts/run_full_study.py reuses one no-scheme reference at every charge
        scenario = generate_synthetic(0, preset_spec("small"))
        a, b = (equilibrium_solve(scenario, TcsParams(tau=tau), tcs=False, p_init=0.0)
                for tau in (200.0, 300.0))
        assert a.iterations == b.iterations
        assert np.array(a.j_trace).tobytes() == np.array(b.j_trace).tobytes()
        assert a.state.x.tobytes() == b.state.x.tobytes()
        assert a.sim.car_times.tobytes() == b.sim.car_times.tobytes()

    def test_infeasible_x_init_rejected(self, small_scenario):
        n = small_scenario.n
        with pytest.raises(ValueError):
            equilibrium_solve(small_scenario, TcsParams(), x_init=np.ones(n))

    def test_report_traces_lengths(self, small_scenario):
        rep = equilibrium_solve(small_scenario, TcsParams())
        assert len(rep.j_trace) == rep.iterations
        assert len(rep.residual_trace) == rep.iterations
        assert len(rep.mcc_trace) == rep.iterations

    def test_unconverged_inner_qp_is_counted(self):
        scenario = generate_synthetic(0, preset_spec("small"))
        params = TcsParams()
        assert equilibrium_solve(scenario, params).qp_unconverged == 0
        # a zero tolerance cannot be met, so every inner QP hits max_iter
        rep = equilibrium_solve(scenario, params, qp_tol=0.0)
        assert rep.qp_unconverged >= 1

    def test_near_ties_are_counted(self):
        # two groups entering at the same instant tie at every iterate
        scenario = make_scenario(
            [(20.0, 0.0, 500.0, 200.0), (15.0, 0.0, 600.0, 250.0)]
        )
        rep = equilibrium_solve(scenario, TcsParams())
        assert rep.near_ties >= 1
        # one gradient per outer iteration, except the one that converged
        assert rep.near_ties == rep.iterations - int(rep.converged)

    @pytest.mark.parametrize("case", ["tcs", "no_tcs", "max_iters"])
    def test_report_sim_is_the_simulation_of_its_state(self, small_scenario, case):
        if case == "max_iters":
            # x_tol=0 never converges; J bottoms out before the last iterate
            rep = equilibrium_solve(small_scenario, TcsParams(max_iters=6), x_tol=0.0)
            assert not rep.converged
            assert int(np.argmin(rep.j_trace)) < rep.iterations - 1
        else:
            rep = equilibrium_solve(small_scenario, TcsParams(), tcs=case == "tcs")
            assert rep.converged
        fresh = simulate(small_scenario, rep.state.x)
        for name in ("x", "times", "kinds", "event_groups", "n_after", "v_after",
                     "durations", "distances", "entry_index", "exit_index",
                     "car_times"):
            assert getattr(rep.sim, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_last_iteration_builds_no_step(self, small_scenario, monkeypatch):
        # the step of iteration max_iters would never be simulated
        calls = {"travel_time_gradient": 0, "solve_qp": 0}
        for name in calls:
            def counted(*args, _fn=getattr(tcsmfd.equilibrium, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(tcsmfd.equilibrium, name, counted)
        m = 4
        rep = equilibrium_solve(small_scenario, TcsParams(max_iters=m), x_tol=0.0)
        assert not rep.converged and rep.iterations == m
        assert calls == {"travel_time_gradient": m - 1, "solve_qp": m - 1}

    @pytest.mark.parametrize("case", ["converged", "max_iters"])
    def test_qp_counts_per_step(self, small_scenario, monkeypatch, case):
        solutions = []

        def recording(*args, **kwargs):
            solutions.append(solve_qp(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(tcsmfd.equilibrium, "solve_qp", recording)
        if case == "converged":
            rep = equilibrium_solve(small_scenario, TcsParams())
        else:
            rep = equilibrium_solve(small_scenario, TcsParams(max_iters=4), x_tol=0.0)
        assert rep.converged == (case == "converged")
        # neither exit takes a step from its last iterate
        assert len(rep.qp_iterations) == len(rep.cg_iterations) == rep.iterations - 1
        assert rep.qp_iterations == [sol.iterations for sol in solutions]
        assert rep.cg_iterations == [sol.cg_iterations for sol in solutions]

    def test_printed_cap_variant_runs(self, small_scenario):
        params = TcsParams(cap_constraint="printed")
        rep = equilibrium_solve(small_scenario, params)
        assert rep.cap_constraint == "printed"
        assert rep.converged


@pytest.fixture(scope="module")
def congested():
    return generate_synthetic(0, preset_spec("congested"))


class TestColdStart:
    @pytest.mark.parametrize("tau", [150.0, 300.0])
    @pytest.mark.parametrize("case", ["gamma-weighted", "printed", "no_tcs"])
    def test_starts_at_the_centre_scaled_onto_the_cap(self, small_scenario, monkeypatch,
                                                      case, tau):
        seen = []

        def recording(scenario, x):
            seen.append(np.array(x))
            return simulate(scenario, x)

        monkeypatch.setattr(tcsmfd.equilibrium, "simulate", recording)
        tcs = case != "no_tcs"
        params = TcsParams(tau=tau, cap_constraint=case if tcs else "gamma-weighted")
        equilibrium_solve(small_scenario, params, tcs=tcs)
        want = min(0.5, params.kappa / tau) if tcs else 0.5
        np.testing.assert_allclose(seen[0], np.full(small_scenario.n, want),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tau, tcs", [(120.0, True), (200.0, True), (300.0, True),
                                          (200.0, False)])
    def test_no_more_iterations_than_from_zero(self, congested, tau, tcs):
        params = TcsParams(tau=tau)
        p_init = None if tcs else 0.0
        centre = equilibrium_solve(congested, params, tcs=tcs, p_init=p_init)
        zero = equilibrium_solve(congested, params, tcs=tcs, p_init=p_init,
                                 x_init=np.zeros(congested.n))
        assert centre.converged and zero.converged
        assert centre.iterations <= zero.iterations


def _contract_curve(form, v_free, n_jam, v_floor):
    if form == "greenshields":
        return MfdCurve.greenshields(v_free, n_jam, v_floor)
    points = [(0.0, v_free), (0.3 * n_jam, 0.7 * v_free),
              (0.6 * n_jam, 0.35 * v_free), (n_jam, 0.05 * v_free)]
    if form == "piecewise":
        return MfdCurve.piecewise_linear(points, v_floor)
    return MfdCurve.tabulated(points, v_floor)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    congestion=st.floats(0.3, 1.5),
    form=st.sampled_from(["greenshields", "piecewise", "tabulated"]),
    floor=st.booleans(),
    cap=st.sampled_from(["gamma-weighted", "printed"]),
    eps=st.sampled_from(["inverse", "const:0.3"]),
    tau=st.floats(100.0, 400.0),
)
def test_converges_with_invariants_or_is_flagged(seed, n, congestion, form, floor, cap,
                                                  eps, tau):
    base = small_random_scenario(seed, n_groups=n, congestion=congestion)
    v_free, n_jam = base.mfd.params
    # a floor at 0.8 v_free binds above 0.2 n_jam on greenshields
    v_floor = 0.8 * v_free if floor else 1.0
    scenario = Scenario(groups=base.groups, mfd=_contract_curve(form, v_free, n_jam, v_floor))
    params = TcsParams(tau=tau, cap_constraint=cap, eps_schedule=eps)
    rep = equilibrium_solve(scenario, params)
    x, p = rep.state.x, rep.state.p
    assert np.all((x >= 0.0) & (x <= 1.0)) and p >= 0.0
    if not rep.converged:
        assert rep.message
        return
    c = params.cap_weights(scenario.gammas)
    assert rep.cap_slack >= -tcsmfd.equilibrium._cap_tolerance(c, params)
    assert rep.residual_final < 1e-4
    assert float(np.max(np.abs(rep.psis - x))) < 1e-4


class TestModalState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModalState(x=np.array([0.5, 1.2]), p=0.0)
        with pytest.raises(ValueError):
            ModalState(x=np.array([0.5]), p=-0.1)


class TestMsa:
    def test_tracks_qp_at_equilibrium_price(self, small_scenario):
        params = TcsParams()
        qp = equilibrium_solve(small_scenario, params)
        msa = msa_solve(small_scenario, params, p_fixed=qp.state.p)
        rel = np.linalg.norm(msa.x - qp.state.x) / np.linalg.norm(qp.state.x)
        assert rel < 0.10
        assert not msa.cap_violated

    def test_flags_cap_violation_at_low_price(self, small_scenario):
        params = TcsParams()
        msa = msa_solve(small_scenario, params, p_fixed=0.0)
        assert msa.cap_violated
        assert msa.car_credits > msa.credit_supply

    def test_printed_totals_count_groups(self, small_scenario):
        n = small_scenario.n
        params = TcsParams(cap_constraint="printed")
        msa = msa_solve(small_scenario, params, p_fixed=0.005, iters=20)
        base = msa_solve(small_scenario, TcsParams(), p_fixed=0.005, iters=20)
        np.testing.assert_array_equal(msa.x, base.x)
        assert msa.credit_supply == params.kappa * n
        assert msa.car_credits == params.tau * float(np.ones(n) @ msa.x)
        assert msa.cap_violated == (msa.car_credits > 1.01 * msa.credit_supply)

    def test_residual_shrinks(self, small_scenario):
        msa = msa_solve(small_scenario, TcsParams(), p_fixed=0.005, iters=40)
        assert msa.residual_trace[-1] < msa.residual_trace[0]
