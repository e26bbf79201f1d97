import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import (
    MfdCurve,
    ModalState,
    ScenarioError,
    TcsParams,
    build_qp,
    equilibrium_solve,
    generate_synthetic,
    logit_choice,
    msa_solve,
    preset_spec,
    simulate,
    solve_qp,
    travel_time_gradient,
    uniqueness_check,
)
import tcsmfd.equilibrium
from tcsmfd.equilibrium import _clearing_price
from tcsmfd.gradients import _GROW, _ROWS_PER_BLOCK

from conftest import (FALLBACK_TAU, PROBE_UNCONVERGED, TIED_GROUPS, hypercongested_scenario,
                      make_scenario, probe_draw, small_random_scenario)
from reference_formulas import identity_layout, logit_gradient, price_column_first

# an x_tol below every nonzero fixed-point residual: a solve given it runs to
# max_iters (x_tol must be > 0)
NEVER = 5e-324

# a solve falls back to QP steps after at least this many substitution
# steps: the first, then one retaken at each of omega = 0.8, 0.64 and 0.512
FALLBACK_AFTER = 4


def fallback_input(**params):
    """A solve that falls back to QP steps: (scenario, params)."""
    return hypercongested_scenario(), TcsParams(tau=FALLBACK_TAU, **params)


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
        c_car, c_pt = tcsmfd.equilibrium._logit_costs(1000.0, 800.0, 0.01, params)
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
        grad = price_column_first(logit_gradient(psi0, np.array([[d]]), params))
        prob = build_qp(x0, p0, psi0, grad, gamma, params, k=2, layout=identity_layout(grad))
        order = prob.coords  # the QP's coordinates: the price, then the share

        w = 0.55 * (0.55 - 1.0) * 1.0
        g_row = np.array([w * 0.003 * d - 1.0, w * 200.0])
        P_hand = np.outer(g_row, g_row)
        P_hand[0, 1] += 1.0 * -200.0      # eta * I_p coupling
        P_hand[1, 0] += 1.0 * -200.0
        q_hand = g_row * (0.55 - 0.42)
        q_hand[0] += 1.0 * (-200.0 * p0)
        q_hand[1] += 1.0 * (100.0 - 200.0 * 0.42)

        assert_operator_matches(prob.P, P_hand[np.ix_(order, order)])
        np.testing.assert_allclose(prob.step(prob.q), q_hand, rtol=1e-14)
        # trust region at k=2 is 0.5, wider than the remaining headroom up
        np.testing.assert_allclose(prob.step(prob.lower), [-0.42, -0.004])
        np.testing.assert_allclose(prob.step(prob.upper), [0.5, 0.5])
        np.testing.assert_allclose(prob.step(prob.cap_coeffs), [200.0 * 800.0, 0.0])
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
        first = price_column_first(grad)
        fresh = first.copy()  # build_qp consumes its grad_psi
        prob = build_qp(x0, p0, psi0, first, gamma, params, k=1, layout=identity_layout(first))
        # the same assembly with the QP's coordinates, the price first
        order = prob.coords
        G_first = price_column_first(G)

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
        border = border[np.ix_(order, order)]
        assert_operator_matches(prob.P, (G.T @ G + params.eta * Ip)[np.ix_(order, order)],
                                same_order=lambda v: G_first.T @ (G_first @ v) + border @ v)
        np.testing.assert_array_equal(prob.step(prob.q), G.T @ (psi0 - x0) + params.eta * ip)
        # without the scheme: the share block of the same assembly.  BLAS
        # orders a matrix-vector sum by the column count, so q matches the
        # N-column product exactly and the (N+1)-column one to rounding
        free = build_qp(x0, p0, psi0, fresh, gamma, params, k=1, tcs=False,
                        layout=identity_layout(fresh))
        Gx = G[:, :3]
        assert_operator_matches(free.P, (G.T @ G)[:3, :3],
                                same_order=lambda v: Gx.T @ (Gx @ v))
        np.testing.assert_array_equal(free.q, G[:, :3].T @ (psi0 - x0))
        np.testing.assert_allclose(free.q, (G.T @ (psi0 - x0))[:3], rtol=1e-15, atol=0)
        # G was formed in grad_psi's storage: all of it with the scheme, the
        # share columns without it, the price column left as it was
        assert first.tobytes() == G_first.tobytes()
        assert fresh[:, 1:].tobytes() == G[:, :3].tobytes()
        assert fresh[:, 0].tobytes() == G[:, 3].tobytes()

    def test_trust_radius_is_one_over_k(self):
        # |dz| <= 1/k, cut by the share box [-x0, 1 - x0] and by p >= 0; the
        # shares use 0.95 of the cap
        params = TcsParams()
        x0, p0 = np.array([0.9, 0.05]), 0.4
        psi0 = np.array([0.35, 0.8])
        for k in (1, 2, 4, 9):
            grad = price_column_first(logit_gradient(psi0, np.zeros((2, 2)), params))
            prob = build_qp(x0, p0, psi0, grad, np.array([10.0, 10.0]), params, k=k,
                            layout=identity_layout(grad))
            eps = 1.0 / k
            np.testing.assert_array_equal(
                prob.step(prob.lower), [-min(0.9, eps), -min(0.05, eps), -min(0.4, eps)])
            np.testing.assert_array_equal(
                prob.step(prob.upper), [min(1.0 - 0.9, eps), min(1.0 - 0.05, eps), eps])

    def test_cap_variants(self):
        params = TcsParams(cap_constraint="printed")
        gamma = np.array([100.0, 300.0])
        x0 = np.array([0.2, 0.3])
        psi0 = np.array([0.4, 0.5])
        grad = price_column_first(logit_gradient(psi0, np.zeros((2, 2)), params))
        prob = build_qp(x0, 0.01, psi0, grad, gamma, params, k=1, layout=identity_layout(grad))
        np.testing.assert_allclose(prob.step(prob.cap_coeffs)[:2], [200.0, 200.0])
        assert prob.cap_rhs == pytest.approx(100.0 * 2 - 200.0 * 0.5)

    def test_no_tcs_freezes_price(self, small_scenario):
        params = TcsParams()
        gamma = np.array([50.0])
        psi0 = np.array([0.5])
        grad = price_column_first(logit_gradient(psi0, np.array([[10.0]]), params))
        g = grad[0, 1] - 1.0  # read first: build_qp consumes grad
        prob = build_qp(np.array([0.4]), 0.0, psi0, grad, gamma, params, k=1, tcs=False,
                        layout=identity_layout(grad))
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
        grad = price_column_first(logit_gradient(psi0, np.zeros((2, 2)), params))
        with pytest.raises(ValueError, match="credit cap"):
            build_qp(x0, 0.01, psi0, grad, gamma, params, k=1, layout=identity_layout(grad))

    def test_infeasible_start_rejected(self):
        params = TcsParams()
        gamma = np.array([100.0])
        psi0 = np.array([0.5])
        grad = price_column_first(logit_gradient(psi0, np.array([[10.0]]), params))
        with pytest.raises(ValueError):
            build_qp(np.array([0.9]), 0.01, psi0, grad, gamma, params, k=1,
                     layout=identity_layout(grad))

    def test_iteration_index_validated(self):
        params = TcsParams()
        grad = price_column_first(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            build_qp(np.array([0.1]), 0.0, np.array([0.5]),
                     grad, np.array([1.0]), params, k=0, layout=identity_layout(grad))

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
        grad = price_column_first(grad)
        with pytest.raises(ValueError, match="^P must be finite"):
            build_qp(x0, 0.006, psi0, grad, gamma, params, k=1, tcs=tcs,
                     layout=identity_layout(grad))


@pytest.fixture(scope="module")
def congested_qps():
    """The build_qp calls of one equilibrium of the congested preset at
    generator seed 5 with the scheme and one without: (tcs, build_qp
    arguments, its problem).  The recorded grad_psi is a copy taken before
    build_qp consumes it, and the arguments end with the keywords: tcs and
    the gradient's layout.  The charge is 160, where the binding solve falls
    back from substitution steps to QP steps, as the solve without the
    scheme does (the charge does not enter it)."""
    scenario = generate_synthetic(5, preset_spec("congested"))
    params = TcsParams(tau=160.0)
    calls = []

    def recording(*args, tcs=True, layout):
        recorded = args[:3] + (args[3].copy(),) + args[4:] + (tcs, layout)
        calls.append((tcs, recorded, build_qp(*args, tcs=tcs, layout=layout)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcsmfd.equilibrium, "build_qp", recording)
        for tcs in (True, False):
            assert equilibrium_solve(scenario, params, tcs=tcs).converged
    assert {tcs for tcs, _, _ in calls} == {True, False}
    return calls


def dense_p(args):
    """P = G'G + border assembled from build_qp's arguments, in id order,
    then ordered as the QP's coordinates."""
    x0, _, _, grad_psi, gammas, params, _, tcs, layout = args
    n = len(x0)
    m = n + 1 if tcs else n
    _, coords, _ = layout.columns(price=tcs)
    grad = np.zeros((n, m))  # id order, price last
    for rows, block in layout.spans(grad_psi, price=tcs):
        grad[np.ix_(layout.rows[rows], coords[:block.shape[1]])] = block
    G = grad - np.eye(n, m)
    P = G.T @ G
    if tcs:
        c = params.cap_weights(gammas)
        border = params.eta * (-c / c.sum() * params.tau)
        P[:n, n] += border
        P[n, :n] += border
    return P[np.ix_(coords, coords)]


class TestNeverFormedP:
    def test_operator_solves_as_the_dense_matrix(self, congested_qps):
        for tcs, args, prob in congested_qps:
            bounds = (prob.q, prob.lower, prob.upper, prob.cap_coeffs, prob.cap_rhs)
            op = solve_qp(prob.P, *bounds)
            dense = solve_qp(dense_p(args), *bounds)
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
        *args, tcs, layout = args[:3] + (args[3].copy(),) + args[4:]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prob = build_qp(*args, tcs=tcs, layout=layout)
            solve_qp(prob.P, prob.q, prob.lower, prob.upper, prob.cap_coeffs, prob.cap_rhs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * g_bytes


@pytest.mark.parametrize("tcs", [True, False])
def test_in_place_linearization_matches_the_allocating_calls(congested, tcs):
    # the logit Jacobian that _linearize writes over the gradient's storage
    # against a fresh one of the id-ordered dT: the same bits in every
    # stored entry of the QP's columns (with the price column or without
    # it) and zeros elsewhere; build_qp then forms G over that buffer
    params = TcsParams()
    n = congested.n
    x, p = np.full(n, 0.4), 0.006
    sim = simulate(congested, x)
    psi = logit_choice(sim.car_times, congested.pt_times, p, params)
    gm = travel_time_gradient(congested, sim)
    fresh = logit_gradient(psi, gm.dT, params)

    grad_psi, layout, ties = tcsmfd.equilibrium._linearize(congested, params, sim, psi)
    assert ties == gm.near_ties
    assert grad_psi.size == layout.size == gm.storage.size
    _, coords, _ = layout.columns(price=tcs)
    for rows, entries in layout.spans(grad_psi, price=tcs):
        want = fresh[np.ix_(layout.rows[rows], coords[:entries.shape[1]])]
        assert entries.tobytes() == want.tobytes()
    scattered = layout.scatter(grad_psi, np.zeros((n, n + 1)), price=tcs)
    assert np.array_equal(scattered[:, coords], fresh[:, coords])
    prob = build_qp(x, p, psi, grad_psi, congested.gammas, params, k=2, tcs=tcs,
                    layout=layout)
    assert all(np.shares_memory(g, grad_psi) for g, _, _ in prob.P._blocks)


@pytest.fixture(scope="module")
def citywide():
    return generate_synthetic(0, preset_spec("citywide"))


def staircase_bytes(extents):
    """Bytes of a linearization stored as blocks of ``_ROWS_PER_BLOCK``
    rows, each as wide as its widest extent with the share columns rounded
    up to a multiple of ``_GROW``."""
    n = len(extents)
    size = 0
    for a in range(0, n, _ROWS_PER_BLOCK):
        b = min(a + _ROWS_PER_BLOCK, n)
        shares = -(-(int(extents[b - 1]) - 1) // _GROW) * _GROW
        size += (b - a) * (1 + min(shares, n))
    return 8 * size


@pytest.mark.parametrize("tcs", [True, False])
def test_solve_holds_one_jacobian_sized_array(citywide, tcs, monkeypatch):
    # each linearization lives in one buffer of row blocks cut at their
    # widest extents, shared by dT, the logit Jacobian and G and dropped
    # before the next gradient; an N x (N+1) rectangle or a second buffer
    # alive at any point would put the peak past the bound.  At theta = 8
    # the substitution steps stop contracting and the solve falls back to QP
    # steps; the charge is 120, where the cap is slack and the scheme's QP
    # steps carry the price column (the charge does not enter the solve
    # without it)
    gradient = tcsmfd.equilibrium.travel_time_gradient
    extents = []

    def recording(scenario, sim):
        gm = gradient(scenario, sim)
        extents.append(gm.layout.extents)
        return gm

    monkeypatch.setattr(tcsmfd.equilibrium, "travel_time_gradient", recording)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = equilibrium_solve(citywide, TcsParams(tau=120.0, theta=8.0), tcs=tcs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.converged and len(rep.qp_iterations) == len(extents) >= 2
    assert rep.substitution_steps >= FALLBACK_AFTER
    staircase = max(map(staircase_bytes, extents))
    assert staircase < 0.75 * citywide.n * (citywide.n + 1) * 8
    assert peak < 1.15 * staircase


def test_substitution_solve_holds_no_jacobian_sized_array(citywide, monkeypatch):
    # a binding solve of substitution steps alone builds no linearization:
    # its peak is the simulations' and the logit's arrays, far below one
    # N x (N+1) rectangle
    def refused(*args, **kwargs):
        raise AssertionError("substitution steps need no travel-time gradient")

    monkeypatch.setattr(tcsmfd.equilibrium, "travel_time_gradient", refused)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = equilibrium_solve(citywide, TcsParams())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.substitution_steps == rep.iterations - 1 >= 1
    assert peak < 0.1 * citywide.n * (citywide.n + 1) * 8


def test_j_value_hand_case():
    params = TcsParams(eta=2.0, tau=200.0, kappa=100.0)
    gammas = np.array([100.0, 300.0])
    x = np.array([0.3, 0.5])
    psi = np.array([0.4, 0.45])
    # gap = 0.5 (0.01 + 0.0025); slack per traveler = (400*100 - 200*180)/400
    want = 0.5 * 0.0125 + 2.0 * 0.02 * (40000.0 - 36000.0) / 400.0
    j_value = tcsmfd.equilibrium._j_value
    slack = tcsmfd.equilibrium._mean_slack(x, params.cap_weights(gammas), params)
    assert j_value(x, 0.02, psi, slack, params) == pytest.approx(want, rel=1e-12)
    # without the scheme the solve passes a slack of 0, which leaves the gap
    assert j_value(x, 0.02, psi, 0.0, params) == pytest.approx(0.5 * 0.0125)


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
        # `tcsmfd study` reuses one no-scheme reference at every charge
        scenario = generate_synthetic(0, preset_spec("small"))
        a, b = (equilibrium_solve(scenario, TcsParams(tau=tau), tcs=False, p_init=0.0)
                for tau in (200.0, 300.0))
        assert a.iterations == b.iterations
        assert np.array(a.j_trace).tobytes() == np.array(b.j_trace).tobytes()
        assert a.state.x.tobytes() == b.state.x.tobytes()
        assert a.sim.car_times.tobytes() == b.sim.car_times.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), -0.01])
    def test_bad_p_init_rejected(self, small_scenario, bad):
        with pytest.raises(ValueError, match="^p_init must be >= 0$"):
            equilibrium_solve(small_scenario, TcsParams(), p_init=bad)

    @pytest.mark.parametrize("tcs", [True, False])
    def test_infinite_p_init_rejected(self, small_scenario, tcs):
        # without the scheme the price is held, and p = inf read as converged
        with pytest.raises(ValueError, match="^p_init must be finite$"):
            equilibrium_solve(small_scenario, TcsParams(), p_init=math.inf, tcs=tcs)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1e-4, math.inf])
    def test_bad_x_tol_rejected(self, small_scenario, bad):
        with pytest.raises(ValueError, match="^x_tol must be finite and > 0$"):
            equilibrium_solve(small_scenario, TcsParams(), x_tol=bad)

    def test_infeasible_x_init_rejected(self, small_scenario):
        n = small_scenario.n
        with pytest.raises(ValueError):
            equilibrium_solve(small_scenario, TcsParams(), x_init=np.ones(n))

    @pytest.mark.parametrize("solver", ["tcs", "no_tcs"])
    def test_nan_x_init_rejected(self, small_scenario, solver):
        # NaN fails both bounds, so it reaches neither the cap nor simulate
        x = np.full(small_scenario.n, 0.2)
        x[3] = math.nan
        with pytest.raises(ValueError, match=r"^x_init must be N shares within \[0, 1\]$"):
            equilibrium_solve(small_scenario, TcsParams(), x_init=x, tcs=solver == "tcs")

    def test_report_traces_lengths(self, small_scenario):
        rep = equilibrium_solve(small_scenario, TcsParams())
        assert len(rep.j_trace) == rep.iterations
        assert len(rep.residual_trace) == rep.iterations
        assert len(rep.mcc_trace) == rep.iterations

    def test_unconverged_inner_qp_is_counted(self, monkeypatch):
        # the count is per QP step, and this solve falls back to QP steps
        scenario, params = fallback_input()
        rep = equilibrium_solve(scenario, params)
        assert rep.qp_unconverged == 0 and len(rep.qp_iterations) >= 1
        # a zero tolerance cannot be met, so every inner QP hits max_iter
        monkeypatch.setattr(tcsmfd.equilibrium, "solve_qp",
                            lambda *args, **kwargs: solve_qp(*args, **kwargs, tol=0.0))
        rep = equilibrium_solve(scenario, params)
        assert rep.qp_unconverged >= 1

    def test_near_ties_are_counted(self):
        # two groups entering at the same instant tie at every iterate
        scenario = make_scenario(TIED_GROUPS)
        # the count is per QP step, and this solve falls back to QP steps
        rep = equilibrium_solve(scenario, TcsParams(), tcs=False)
        assert rep.converged and rep.near_ties >= 1
        # one gradient per QP step; the substitution steps take none
        assert rep.substitution_steps >= FALLBACK_AFTER
        assert rep.near_ties == len(rep.qp_iterations) == (
            rep.iterations - 1 - rep.substitution_steps)

    @pytest.mark.parametrize("case", ["tcs", "no_tcs", "max_iters"])
    def test_report_sim_is_the_simulation_of_its_state(self, small_scenario, case):
        if case == "max_iters":
            # a tolerance below every nonzero residual never converges; the
            # QP steps of a solve that falls back to them reach a J that the
            # last iterates repeat, so J bottoms out before the last iterate
            # (the substitution steps of a binding solve lower J to the last)
            scenario, params = fallback_input(max_iters=12)
            rep = equilibrium_solve(scenario, params, x_tol=NEVER)
            assert not rep.converged and len(rep.qp_iterations) >= 1
            assert int(np.argmin(rep.j_trace)) < rep.iterations - 1
            fresh = simulate(scenario, rep.state.x)
        else:
            rep = equilibrium_solve(small_scenario, TcsParams(), tcs=case == "tcs")
            assert rep.converged
            fresh = simulate(small_scenario, rep.state.x)
        for name in ("x", "times", "kinds", "event_groups", "n_after", "v_after",
                     "durations", "entry_index", "exit_index",
                     "car_times"):
            assert getattr(rep.sim, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_last_iteration_builds_no_step(self, small_scenario, monkeypatch):
        # the step of iteration max_iters would never be simulated: neither
        # a QP step (the last steps of a solve that falls back to them) nor
        # a substitution step (every step of this binding solve)
        calls = {}
        for name in ("travel_time_gradient", "solve_qp", "_clearing_price"):
            def counted(*args, _fn=getattr(tcsmfd.equilibrium, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(tcsmfd.equilibrium, name, counted)
        m = 8
        rep = equilibrium_solve(*fallback_input(max_iters=m), x_tol=NEVER)
        assert not rep.converged and rep.iterations == m
        # one clearing price per substitution step and one at the switch
        qp_steps = m - 1 - rep.substitution_steps
        assert qp_steps >= 1
        assert calls == {"_clearing_price": rep.substitution_steps + 1,
                         "travel_time_gradient": qp_steps, "solve_qp": qp_steps}
        calls.clear()
        m = 4
        rep = equilibrium_solve(small_scenario, TcsParams(max_iters=m), x_tol=NEVER)
        assert not rep.converged and rep.iterations == m
        assert rep.substitution_steps == m - 1
        # and one more for the start, cleared on free-flow times
        assert calls == {"_clearing_price": m}

    @pytest.mark.parametrize("case", ["converged", "max_iters"])
    def test_qp_counts_per_step(self, monkeypatch, case):
        solutions = []

        def recording(*args, **kwargs):
            solutions.append(solve_qp(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(tcsmfd.equilibrium, "solve_qp", recording)
        # this solve falls back to QP steps
        if case == "converged":
            rep = equilibrium_solve(*fallback_input())
        else:
            rep = equilibrium_solve(*fallback_input(max_iters=8), x_tol=NEVER)
        assert rep.converged == (case == "converged")
        assert rep.substitution_steps >= FALLBACK_AFTER
        # neither exit takes a step from its last iterate
        assert len(rep.qp_iterations) == len(rep.cg_iterations) == (
            rep.iterations - 1 - rep.substitution_steps) >= 1
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


def cold_start(scenario, params, tcs=True):
    """The shares a cold solve simulates first: a one-iteration solve
    returns the iterate it simulated, its start."""
    rep = equilibrium_solve(scenario, dataclasses.replace(params, max_iters=1), tcs=tcs)
    return rep.state.x


def free_flow_market(scenario, params):
    """``_clearing_price`` on the free-flow car times L / V(0): (p, psi)."""
    t_free = scenario.trip_lens / scenario.mfd.speed(0.0)
    return _clearing_price(t_free, scenario.pt_times, params.cap_weights(scenario.gammas),
                           params)


class TestColdStart:
    @pytest.mark.parametrize("case, tau", [("gamma-weighted", 150.0), ("printed", 150.0),
                                           ("no_tcs", 150.0), ("no_tcs", 300.0)])
    def test_starts_at_the_centre_scaled_onto_the_cap(self, small_scenario, case, tau):
        # where the centre leaves credits unused (2 kappa > tau), or
        # without the scheme
        tcs = case != "no_tcs"
        params = TcsParams(tau=tau, cap_constraint=case if tcs else "gamma-weighted")
        want = min(0.5, params.kappa / tau) if tcs else 0.5
        np.testing.assert_allclose(cold_start(small_scenario, params, tcs),
                                   np.full(small_scenario.n, want), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("preset", ["small", "congested"])
    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    @pytest.mark.parametrize("tau", [200.0, 300.0])
    def test_a_full_centre_starts_from_the_market_at_free_flow(self, congested, preset, cap,
                                                               tau):
        # the centre fills the cap (2 kappa <= tau), and the cap binds at
        # free-flow car times: the start is the market cleared there, bit
        # for bit
        scenario = congested if preset == "congested" else generate_synthetic(
            0, preset_spec(preset))
        params = TcsParams(tau=tau, cap_constraint=cap)
        p, psi = free_flow_market(scenario, params)
        assert p > 0.0
        assert cold_start(scenario, params).tobytes() == psi.tobytes()

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    @pytest.mark.parametrize("tau", [200.0, 300.0])
    def test_a_slack_cap_at_free_flow_keeps_the_centre(self, cap, tau):
        # public transport beats every car trip even at free flow, so the
        # market clears at p = 0 there and the start stays the centre
        scenario = make_scenario([(100.0, 0.0, 3000.0, 60.0), (80.0, 60.0, 4000.0, 90.0),
                                  (120.0, 90.0, 2500.0, 50.0)])
        params = TcsParams(tau=tau, cap_constraint=cap)
        assert free_flow_market(scenario, params)[0] == 0.0
        np.testing.assert_allclose(cold_start(scenario, params),
                                   np.full(scenario.n, params.kappa / tau), rtol=1e-12, atol=0)

    def test_citywide_cold_solve_takes_three_iterations(self):
        # from the centre it took 4: its first simulation landed at a
        # residual of 0.499, the free-flow start's at 0.118
        rep = equilibrium_solve(generate_synthetic(0, preset_spec("citywide")),
                                TcsParams(tau=200.0))
        assert rep.converged and rep.iterations == 3
        assert rep.residual_trace[0] < 0.2

    @settings(max_examples=100, deadline=None)
    @given(draw=st.integers(0, 1999), cap=st.sampled_from(["gamma-weighted", "printed"]),
           tau=st.floats(100.0, 400.0))  # kappa to 4 kappa
    def test_start_uses_no_more_credits_than_the_centre(self, draw, cap, tau):
        scenario = probe_draw(draw)[0]
        params = TcsParams(tau=tau, cap_constraint=cap)
        x = cold_start(scenario, params)
        assert np.all((x >= 0.0) & (x <= 1.0))
        c = params.cap_weights(scenario.gammas)
        centre = min(0.5, params.kappa / tau) * float(c.sum())
        assert tau * float(c @ x) <= tau * centre + tcsmfd.equilibrium._cap_tolerance(c, params)

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


def clearing_inputs(scenario, params, x):
    """``_clearing_price``'s inputs at the simulation of shares x."""
    sim = simulate(scenario, x)
    return sim.car_times, scenario.pt_times, params.cap_weights(scenario.gammas)


def counting_logit(monkeypatch):
    """The price of each logit evaluation the clearing-price search makes,
    exact (``_logit_exps``) or a trial from kept exponentials
    (``_shifted_shares``).  The solve's own evaluation at each iterate is
    not the search's and is not recorded (``counting_exact`` counts it)."""
    prices = []

    def counting(fn):
        def counted(*args):
            if sys._getframe(1).f_code.co_name == "_clearing_price":
                prices.append(args[2])
            return fn(*args)
        return counted

    for name in ("_logit_exps", "_shifted_shares"):
        monkeypatch.setattr(tcsmfd.equilibrium, name,
                            counting(getattr(tcsmfd.equilibrium, name)))
    return prices


def counting_exact(monkeypatch):
    """The price of each exact logit evaluation of ``tcsmfd.equilibrium``,
    the solve's and the search's alike: each ``_logit_exps`` call."""
    prices = []
    exps = tcsmfd.equilibrium._logit_exps

    def counted(*args):
        prices.append(args[2])
        return exps(*args)

    monkeypatch.setattr(tcsmfd.equilibrium, "_logit_exps", counted)
    return prices


def search_spans(monkeypatch, calls):
    """The slice of ``calls`` each clearing-price search made, as (begin,
    end), one per search in the order the solve makes them."""
    spans = []
    clearing = tcsmfd.equilibrium._clearing_price

    def spanned(*args, **kwargs):
        begin = len(calls)
        out = clearing(*args, **kwargs)
        spans.append((begin, len(calls)))
        return out

    monkeypatch.setattr(tcsmfd.equilibrium, "_clearing_price", spanned)
    return spans


def recording_build_qp(monkeypatch):
    """The iteration index k of each build_qp call, as the solve makes them."""
    ks = []

    def recording(*args, **kwargs):
        ks.append(args[6])
        return build_qp(*args, **kwargs)

    monkeypatch.setattr(tcsmfd.equilibrium, "build_qp", recording)
    return ks


# substitution steps of the cold solves on the congested preset, by charge
COLD_STEPS = {200.0: 4, 300.0: 3, 440.0: 3}


class TestSubstitution:
    def test_clearing_price_is_zero_on_a_slack_cap(self, congested, monkeypatch):
        params = TcsParams(tau=120.0)
        t_car, t_pt, c = clearing_inputs(congested, params, np.full(congested.n, 0.5))
        at_zero = logit_choice(t_car, t_pt, 0.0, params)
        assert float(c @ at_zero) < params.kappa * float(c.sum()) / params.tau
        calls = counting_logit(monkeypatch)
        # hint 0 starts the cold search; 0.006 is a price at which the cap
        # binds at the other charges of these tests, and from which the
        # Newton step aims below 0, so p = 0 is evaluated next
        for hint, want in ((0.0, [0.0]), (0.006, [0.006, 0.0])):
            calls.clear()
            p, psi = _clearing_price(t_car, t_pt, c, params, hint=hint)
            assert p == 0.0 and calls == want
            assert psi.tobytes() == at_zero.tobytes()

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    @pytest.mark.parametrize("tau", [160.0, 200.0, 300.0, 440.0])
    def test_clearing_price_holds_the_cap(self, congested, monkeypatch, tau, cap):
        params = TcsParams(tau=tau, cap_constraint=cap)
        t_car, t_pt, c = clearing_inputs(congested, params, np.full(congested.n, 0.4))
        supply = params.kappa * float(c.sum()) / params.tau
        root, _ = _clearing_price(t_car, t_pt, c, params)
        calls = counting_logit(monkeypatch)
        # the cold search (hint 0), then hints below, at and above its root
        for hint in (0.0, 0.5 * root, root, 1.5 * root):
            calls.clear()
            p, psi = _clearing_price(t_car, t_pt, c, params, hint=hint)
            assert p > 0.0
            assert psi.tobytes() == logit_choice(t_car, t_pt, p, params).tobytes()
            assert supply * (1.0 - 1e-12) <= float(c @ psi) <= supply
            # where the cap binds, p = 0 is evaluated only from a start there
            assert (0.0 in calls) == (hint == 0.0)
        # a hint in the band is returned as it is
        assert _clearing_price(t_car, t_pt, c, params, hint=root)[0] == root

    @pytest.mark.parametrize("off", [-1e-3, 1e-3])
    @pytest.mark.parametrize("tau", [200.0, 300.0, 440.0])
    def test_a_close_hint_takes_few_logit_evaluations(self, congested, monkeypatch, tau, off):
        # a hint within 1e-3 of the root, relative, as the iterate's price
        # in a converging solve is: at most 4 evaluations, fewer than the
        # cold search from p = 0 takes
        params = TcsParams(tau=tau)
        t_car, t_pt, c = clearing_inputs(congested, params, np.full(congested.n, 0.4))
        root, _ = _clearing_price(t_car, t_pt, c, params)
        calls = counting_logit(monkeypatch)
        p, psi = _clearing_price(t_car, t_pt, c, params, hint=root * (1.0 + off))
        hinted = len(calls)
        assert hinted <= 4 and calls[0] == root * (1.0 + off)
        supply = params.kappa * float(c.sum()) / params.tau
        assert supply * (1.0 - 1e-12) <= float(c @ psi) <= supply
        calls.clear()
        _clearing_price(t_car, t_pt, c, params)
        assert calls[0] == 0.0 and len(calls) > hinted

    def test_a_given_response_is_not_evaluated_again(self, congested, monkeypatch):
        # the solve passes its iterate's price, logit response and its
        # exponentials: a start in the band costs no evaluation, and one
        # outside it takes the search of the same start without the response
        params = TcsParams(tau=200.0)
        t_car, t_pt, c = clearing_inputs(congested, params, np.full(congested.n, 0.4))
        root, at_root = _clearing_price(t_car, t_pt, c, params)
        calls = counting_logit(monkeypatch)
        p, psi = _clearing_price(t_car, t_pt, c, params, hint=root, psi=at_root)
        assert calls == [] and p == root and psi is at_root
        for start in (0.0, 0.5 * root, 1.5 * root):
            exps = tcsmfd.equilibrium._logit_exps(t_car, t_pt, start, params)
            at_start = 1.0 / (1.0 + exps)
            assert at_start.tobytes() == logit_choice(t_car, t_pt, start, params).tobytes()
            calls.clear()
            want = _clearing_price(t_car, t_pt, c, params, hint=start)
            searched = calls[1:]
            calls.clear()
            p, psi = _clearing_price(t_car, t_pt, c, params, hint=start, psi=at_start,
                                     exps=exps)
            assert calls == searched
            assert p == want[0] and psi.tobytes() == want[1].tobytes()

    def test_clearing_price_doubles_from_a_saturated_start(self, monkeypatch):
        # every car share is exactly 1 at p = 0, so Newton has no slope
        # there and the bracket's upper end is found by doubling from
        # 1 / (theta tau); the cap admits half of the three groups
        params = TcsParams(tau=200.0, kappa=100.0)
        t_car, t_pt, c = np.zeros(3), np.array([9e4, 1e5, 1.1e5]), np.ones(3)
        assert logit_choice(t_car, t_pt, 0.0, params).tolist() == [1.0, 1.0, 1.0]
        calls = counting_logit(monkeypatch)
        p, psi = _clearing_price(t_car, t_pt, c, params)
        slope = params.theta * params.tau
        assert calls[:3] == [0.0, 1.0 / slope, 2.0 / slope]
        assert psi.tobytes() == logit_choice(t_car, t_pt, p, params).tobytes()
        assert 1.5 * (1.0 - 1e-12) <= float(c @ psi) <= 1.5

    @pytest.mark.parametrize("tau", [200.0, 300.0, 440.0])
    def test_trial_shares_agree_with_the_logit(self, congested, tau):
        # a trial is one scalar exp times the exponentials kept at another
        # price: from those at 0 and at the root, every price from 0 to
        # twice the root gives logit_choice's shares to a few ulp of 1
        params = TcsParams(tau=tau)
        t_car, t_pt, c = clearing_inputs(congested, params, np.full(congested.n, 0.4))
        root, _ = _clearing_price(t_car, t_pt, c, params)
        for base in (0.0, root):
            exps = tcsmfd.equilibrium._logit_exps(t_car, t_pt, base, params)
            for p in np.linspace(0.0, 2.0 * root, 41):
                trial = tcsmfd.equilibrium._shifted_shares(exps, base, p, params)
                exact = logit_choice(t_car, t_pt, p, params)
                assert np.max(np.abs(trial - exact)) <= 4 * np.finfo(float).eps

    def test_trial_shares_keep_the_logits_limits(self):
        # exponents 700, -25 and 1 at the base price 0.1, moved by
        # theta tau (p - 0.1) = +-20: past log(DBL_MAX) the product
        # overflows and the share is exactly 0.0, and at -45 it is exactly
        # 1.0, as logit_choice's
        params = TcsParams(tau=200.0)
        w = np.array([700.0, -25.0, 1.0])
        t_car, t_pt = w / (params.theta * params.alpha) - params.tau * 0.1 / params.alpha, \
            np.zeros(3)
        exps = tcsmfd.equilibrium._logit_exps(t_car, t_pt, 0.1, params)
        assert np.all((exps > 0.0) & (exps < np.inf))
        for p, edge, limit in ((0.2, 0, 0.0), (0.0, 1, 1.0)):
            trial = tcsmfd.equilibrium._shifted_shares(exps, 0.1, p, params)
            exact = logit_choice(t_car, t_pt, p, params)
            assert trial[edge] == exact[edge] == limit
            assert np.max(np.abs(trial - exact)) <= 4 * np.finfo(float).eps

    def test_overflowed_exponentials_take_no_trial(self, monkeypatch):
        # a fourth group whose car share is exactly 0 at p = 0, its
        # exponential inf: no scalar factor recovers a share from it, so
        # the search evaluates every price exactly, and nothing is NaN
        params = TcsParams(tau=200.0, kappa=100.0)
        t_car, t_pt = np.array([0.0, 0.0, 0.0, 3e5]), np.array([9e4, 1e5, 1.1e5, 0.0])
        c = np.ones(4)
        assert logit_choice(t_car, t_pt, 0.0, params).tolist() == [1.0, 1.0, 1.0, 0.0]
        trials = []
        shifted = tcsmfd.equilibrium._shifted_shares
        monkeypatch.setattr(tcsmfd.equilibrium, "_shifted_shares",
                            lambda *args: trials.append(args[2]) or shifted(*args))
        p, psi = _clearing_price(t_car, t_pt, c, params)
        assert trials == []
        assert psi.tobytes() == logit_choice(t_car, t_pt, p, params).tobytes()
        assert 2.0 * (1.0 - 1e-12) <= float(c @ psi) <= 2.0

    @pytest.mark.parametrize("bias", [1e-9, -1e-9])
    def test_an_end_the_exact_shares_overturn_is_searched_exactly(self, congested,
                                                                  monkeypatch, bias):
        # trials that read the shares of a price off by ``bias``, relative,
        # move c'psi by far more than the band: the exact shares at the
        # price where a trial ends the search overturn it (above the cap
        # for a positive bias, below the band for a negative one), and the
        # search goes on with exact evaluations alone to a price whose exact
        # shares lie in the band
        params = TcsParams(tau=200.0)
        t_car, t_pt, c = clearing_inputs(congested, params, np.full(congested.n, 0.4))
        supply = params.kappa * float(c.sum()) / params.tau
        gap = params.alpha * (t_car - t_pt)
        trials = []

        def biased(exps, base, p, params):
            trials.append(p)
            return 1.0 / (1.0 + np.exp(params.theta * (gap + params.tau * p * (1.0 + bias))))

        monkeypatch.setattr(tcsmfd.equilibrium, "_shifted_shares", biased)
        exact = counting_exact(monkeypatch)
        p, psi = _clearing_price(t_car, t_pt, c, params)
        # p = 0, the price of the last trial, overturned, then exact steps
        # alone, the last at the price returned
        assert exact[:2] == [0.0, trials[-1]] and exact[-1] == p != trials[-1]
        assert len(exact) <= 4
        assert psi.tobytes() == logit_choice(t_car, t_pt, p, params).tobytes()
        assert supply * (1.0 - 1e-12) <= float(c @ psi) <= supply

    @pytest.mark.parametrize("tau, budget", [(200.0, 19), (300.0, 19), (440.0, 18)])
    def test_cold_solves_keep_their_logit_budget(self, congested, monkeypatch, tau, budget):
        # the searches of the clearing price, trials and exact evaluations
        # alike, each started from its iterate's price, response and
        # exponentials; the start's search on free-flow times comes first,
        # counted apart
        calls = counting_logit(monkeypatch)
        spans = search_spans(monkeypatch, calls)
        rep = equilibrium_solve(congested, TcsParams(tau=tau))
        steps = COLD_STEPS[tau]
        assert rep.converged and rep.substitution_steps == rep.iterations - 1 == steps
        assert len(spans) == steps + 1 and spans[0] == (0, 7) and calls[0] == 0.0
        assert len(calls) - spans[0][1] <= budget

    @pytest.mark.parametrize("tau", [200.0, 300.0, 440.0])
    def test_cold_solves_make_one_exact_evaluation_per_iteration_and_search(
            self, congested, monkeypatch, tau):
        # one at each iterate, one at the price each search returns, and the
        # first search's own start at p = 0; every other price a search
        # tries is a trial.  The start's search on free-flow times makes two
        # before the first iterate: at p = 0 and at the price it returns
        exact = counting_exact(monkeypatch)
        spans = search_spans(monkeypatch, exact)
        rep = equilibrium_solve(congested, TcsParams(tau=tau))
        assert rep.converged and rep.substitution_steps == rep.iterations - 1 == COLD_STEPS[tau]
        assert len(spans) == COLD_STEPS[tau] + 1
        assert spans[0] == (0, 2) and exact[0] == 0.0
        assert len(exact) - 2 <= rep.iterations + rep.substitution_steps + 1
        assert exact[3] == 0.0

    def test_clearing_price_ignores_the_start_price(self, congested):
        a, b = TcsParams(p0=0.01), TcsParams(p0=0.3)
        inputs = clearing_inputs(congested, a, np.full(congested.n, 0.4))
        (p_a, psi_a), (p_b, psi_b) = (_clearing_price(*inputs, params) for params in (a, b))
        assert p_a == p_b and psi_a.tobytes() == psi_b.tobytes()
        # so a solve of substitution steps alone lands on the same bits
        # from either start price
        rep_a, rep_b = (equilibrium_solve(congested, params) for params in (a, b))
        assert rep_a.converged and rep_a.substitution_steps == rep_a.iterations - 1 >= 1
        assert rep_a.state.p == rep_b.state.p
        assert rep_a.state.x.tobytes() == rep_b.state.x.tobytes()

    def test_a_step_that_stops_halving_switches_to_qp(self, monkeypatch):
        # at tau = 160 the substitution residual of the congested preset at
        # generator seed 5 stops falling at every damping while the cap
        # still binds
        prices = []

        def clearing(*args, **kwargs):
            prices.append(_clearing_price(*args, **kwargs))
            return prices[-1]

        monkeypatch.setattr(tcsmfd.equilibrium, "_clearing_price", clearing)
        ks = recording_build_qp(monkeypatch)
        rep = equilibrium_solve(generate_synthetic(5, preset_spec("congested")),
                                TcsParams(tau=160.0))
        assert rep.converged and rep.qp_unconverged == 0 and rep.state.p > 0.0
        assert rep.substitution_steps >= FALLBACK_AFTER and len(rep.qp_iterations) >= 1
        assert rep.substitution_steps + len(rep.qp_iterations) == rep.iterations - 1
        # one clearing price per substitution step, and one more at the
        # step that switched, where the cap bound
        assert len(prices) == rep.substitution_steps + 1 and prices[-1][0] > 0.0
        # the trust region counts QP steps only: the first has k = 1
        assert ks == list(range(1, len(rep.qp_iterations) + 1))

    @pytest.mark.parametrize("seed, congestion, cap, tau", [
        (8563, 1.3, "printed", 130.0), (6042, 1.442, "gamma-weighted", 153.2),
        (8734, 1.534, "gamma-weighted", 155.3), (834, 1.785, "gamma-weighted", 140.1),
    ])
    def test_qp_steps_start_from_the_last_accepted_point(self, monkeypatch, seed,
                                                         congestion, cap, tau):
        # two hypercongested groups: the first substitution step raises the
        # car shares until the cap is slack at p = 0 and the residual grows,
        # and the damped retakes stop contracting.  In the last three
        # cases a rejected step holds the lowest J, and QP steps from such
        # a point cycled on other draws of this kind
        scenario = small_random_scenario(seed, n_groups=2, congestion=congestion)
        xs, maps, hints = recording_substitution(monkeypatch)
        ks = recording_build_qp(monkeypatch)
        starts = []
        build = tcsmfd.equilibrium.build_qp

        def starting(*args, **kwargs):
            starts.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(tcsmfd.equilibrium, "build_qp", starting)
        params = TcsParams(tau=tau, cap_constraint=cap)
        rep = equilibrium_solve(scenario, params)
        assert rep.converged and rep.state.p == 0.0
        assert ks == list(range(1, len(rep.qp_iterations) + 1)) and ks
        anchor, omega, *_ = replay_substitution(xs, maps, hints, rep.substitution_steps,
                                                params, params.cap_weights(scenario.gammas))
        assert omega < tcsmfd.equilibrium._STEP_FLOOR
        assert starts[0].tobytes() == xs[anchor].tobytes()

    @pytest.mark.parametrize("case", ["no_scheme-0", "no_scheme-0.00575", "100", "120",
                                      "160", "180"])
    def test_congested_solves_take_no_qp_step(self, congested, monkeypatch, case):
        # damped substitution steps converge with the scheme or without it,
        # on a slack cap (tau 100, 120) or a binding one, so these solves
        # build no linearization at all
        def refused(*args, **kwargs):
            raise AssertionError("substitution steps need no travel-time gradient")

        monkeypatch.setattr(tcsmfd.equilibrium, "travel_time_gradient", refused)
        if case.startswith("no_scheme"):
            rep = equilibrium_solve(congested, TcsParams(), tcs=False,
                                    p_init=float(case.split("-")[1]))
        else:
            rep = equilibrium_solve(congested, TcsParams(tau=float(case)))
        assert rep.converged and rep.qp_iterations == []
        assert rep.substitution_steps == rep.iterations - 1 >= 1

    @pytest.mark.parametrize("tau", [200.0, 300.0])
    def test_undamped_steps_go_to_the_substitution_map(self, congested, monkeypatch, tau):
        # every step passes at omega = 1: the first goes to the recorded
        # psi_hat itself, bit for bit, and each later one is a secant step
        # through the last two accepted points
        xs, maps, hints = recording_substitution(monkeypatch)
        params = TcsParams(tau=tau)
        rep = equilibrium_solve(congested, params)
        assert rep.converged and rep.substitution_steps == rep.iterations - 1 >= 2
        assert len(xs) == rep.iterations and len(maps) == rep.substitution_steps
        assert xs[1].tobytes() == maps[0][1].tobytes()
        _, omega, secants, _, p = replay_substitution(
            xs, maps, hints, rep.substitution_steps, params,
            params.cap_weights(congested.gammas))
        assert omega == 1.0 and secants == rep.accelerated_steps == rep.substitution_steps - 1
        assert p == rep.state.p

    @pytest.mark.parametrize("cap", ["gamma-weighted", "printed"])
    @pytest.mark.parametrize("tau", [160.0, 200.0, 300.0, 440.0])
    def test_iterates_stay_in_the_box_and_under_the_cap(self, congested, monkeypatch, tau,
                                                        cap):
        # a secant step may leave the segment between two maps' values, so
        # it is clipped to the box and scaled onto the cap
        xs, maps, hints = recording_substitution(monkeypatch)
        params = TcsParams(tau=tau, cap_constraint=cap)
        rep = equilibrium_solve(congested, params)
        assert rep.converged
        c = params.cap_weights(congested.gammas)
        replay_substitution(xs, maps, hints, rep.substitution_steps, params, c)
        tol = tcsmfd.equilibrium._cap_tolerance(c, params)
        for x in xs:
            assert np.all((x >= 0.0) & (x <= 1.0))
            assert params.tau * float(c @ x) <= params.kappa * float(c.sum()) + tol

    def test_a_rejected_secant_point_is_retaken_as_a_plain_step(self, congested,
                                                                 monkeypatch):
        # at tau = 160 the secant point through the first two iterates
        # fails to halve the second one's residual; the step is retaken
        # from the second iterate as a plain step to its psi_hat at
        # omega = 1, and only when that fails too is omega cut
        xs, maps, hints = recording_substitution(monkeypatch)
        params = TcsParams(tau=160.0)
        rep = equilibrium_solve(congested, params)
        assert rep.converged and rep.qp_iterations == []
        residual = [float(np.max(np.abs(psi_hat - x))) for x, (_, psi_hat) in zip(xs, maps)]
        assert residual[1] <= 0.5 * residual[0] and residual[2] > 0.5 * residual[1]
        assert xs[3].tobytes() == maps[1][1].tobytes()
        _, omega, secants, rejected, p = replay_substitution(
            xs, maps, hints, rep.substitution_steps, params,
            params.cap_weights(congested.gammas))
        assert secants == rejected == rep.accelerated_steps == 1
        assert omega == tcsmfd.equilibrium._STEP_CUT and p == rep.state.p

    def test_a_fixed_price_passes_the_secant_steps_unchanged(self, congested):
        # without the scheme the map's price is the fixed one, which a
        # secant step keeps bit for bit although its weights sum to 1 only
        # to rounding
        rep = equilibrium_solve(congested, TcsParams(), tcs=False, p_init=0.00575)
        assert rep.converged and rep.accelerated_steps >= 1
        assert rep.state.p == 0.00575

    def test_secant_step_is_held_to_the_box_and_the_cap(self):
        # two groups of equal cap weight at tau = 2 kappa: the cap is
        # x_1 + x_2 <= 1.  The anchor (x_1, psi_hat_1, p_hat_1) comes
        # first, as in a secant step.  Through two points the ridge-
        # regularized weights are (1 - gamma, gamma) with gamma =
        # (df'f_1 + r) / (df'df + 2 r), f = psi_hat - x, df = f_1 - f_0 and
        # r = _RIDGE * max(|f_0|^2, |f_1|^2).  In the first two cases f
        # halves along group 0, so gamma is -1 up to the ridge and the step
        # goes as far past psi_hat_1 as psi_hat_1 lies past psi_hat_0
        params = TcsParams(tau=200.0, kappa=100.0)
        c = np.ones(2)

        def step(anchor, previous, tcs=True):
            (x_1, psi_1, p_1), (x_0, psi_0, p_0) = anchor, previous
            return tcsmfd.equilibrium._anderson_step(
                np.array([x_1, x_0]), np.array([psi_1, psi_0]), np.array([p_1, p_0]),
                c, params, tcs)

        def secant(anchor, previous):
            (x_1, psi_1, p_1), (x_0, psi_0, p_0) = anchor, previous
            f_1, f_0 = np.subtract(psi_1, x_1), np.subtract(psi_0, x_0)
            df = f_1 - f_0
            r = tcsmfd.equilibrium._RIDGE * max(f_0 @ f_0, f_1 @ f_1)
            gamma = (df @ f_1 + r) / (df @ df + 2.0 * r)
            return (np.subtract(psi_1, gamma * np.subtract(psi_1, psi_0)),
                    p_1 - gamma * (p_1 - p_0))

        # to (0.9, 0.2) and p = 0.03, which uses 1.1 times the credits:
        # scaled down onto the cap
        previous = ([0.5, 0.2], [0.7, 0.2], 0.01)
        anchor = ([0.7, 0.2], [0.8, 0.2], 0.02)
        want_x, want_p = secant(anchor, previous)
        np.testing.assert_allclose(want_x, [0.9, 0.2], rtol=2e-6)
        x, p = step(anchor, previous)
        np.testing.assert_allclose(x, want_x / want_x.sum(), rtol=1e-12)
        assert p == pytest.approx(want_p, rel=1e-12)
        # without the scheme both p_hat are the fixed price, which the step
        # keeps bit for bit, and the shares are not scaled
        previous = ([0.5, 0.2], [0.7, 0.2], 0.02)
        x, p = step(anchor, previous, tcs=False)
        np.testing.assert_allclose(x, secant(anchor, previous)[0], rtol=1e-12)
        assert p == 0.02
        # to (1.1, 0) and p = -0.01: clipped into the box, the price to 0
        previous = ([0.5, 0.0], [0.8, 0.0], 0.01)
        anchor = ([0.8, 0.0], [0.95, 0.0], 0.0)
        x, p = step(anchor, previous)
        assert x.tolist() == [1.0, 0.0] and p == 0.0
        # no change in f (exactly, in binary fractions): gamma = 1/2, the
        # midpoint of psi_hat_0 and psi_hat_1, at the mean price, up to the
        # rounding of normal equations whose condition number is 1 / _RIDGE
        previous = ([0.125, 0.125], [0.25, 0.25], 0.01)
        anchor = ([0.25, 0.25], [0.375, 0.375], 0.02)
        x, p = step(anchor, previous)
        np.testing.assert_allclose(x, [0.3125, 0.3125], rtol=1e-9)
        assert p == pytest.approx(0.015, rel=1e-9)

    def test_anderson_weights(self):
        weights = tcsmfd.equilibrium._anderson_weights
        v = np.array([1.0, -2.0, 0.5])
        # opposite residuals cancel; equal ones split evenly through the
        # ridge, up to the rounding of a nearly singular system
        np.testing.assert_allclose(weights(np.array([v, -v])), [0.5, 0.5])
        np.testing.assert_allclose(weights(np.array([v, v])), [0.5, 0.5], atol=1e-5)
        res = np.array([v, 2.0 * v + np.array([0.0, 0.0, 1.0]), -0.5 * v])
        a = weights(res)
        assert a.sum() == pytest.approx(1.0)
        assert np.linalg.norm(a @ res) <= 1e-5 * np.linalg.norm(v)   # the ridge's bias
        # no finite weights: the best row alone, the first of equals
        np.testing.assert_array_equal(weights(np.zeros((3, 3))), [1.0, 0.0, 0.0])
        bad = np.array([v, [np.inf, 0.0, 0.0], 0.1 * v])
        np.testing.assert_array_equal(weights(bad), [0.0, 0.0, 1.0])

    def test_bracket_step(self):
        step = tcsmfd.equilibrium._bracket_step
        # a Newton point inside the bracket, held at 0 below it
        assert step(0.3, 0.1, 0.5, 4.0) == 0.3
        assert step(-0.2, -math.inf, 0.5, 4.0) == 0.0
        # a NaN or outside Newton point: a bisection of a closed bracket
        assert step(math.nan, 0.1, 0.5, 4.0) == 0.5 * (0.1 + 0.5)
        assert step(0.7, 0.1, 0.5, 4.0) == 0.5 * (0.1 + 0.5)
        # no upper end: a doubling, from 1 / slope while no positive price
        # exceeds the cap, else from lo
        assert step(math.nan, -math.inf, math.inf, 4.0) == 0.25
        assert step(math.nan, 0.0, math.inf, 4.0) == 0.25
        assert step(0.1, 0.2, math.inf, 4.0) == 0.4
        # a bisection with no lower end is clamped at 0
        assert step(math.nan, -math.inf, 0.5, 4.0) == 0.0


def recording_substitution(monkeypatch):
    """The shares of each simulation, and each clearing price's (p_hat,
    psi_hat) and the hint it was given, as the solve makes them.  The
    start's search on free-flow times, the one called without a hint, is
    not a substitution step's and is not recorded."""
    xs, maps, hints = [], [], []

    def simulating(scenario, x):
        xs.append(np.array(x))
        return simulate(scenario, x)

    def clearing(*args, **kwargs):
        if not kwargs:
            return _clearing_price(*args)
        hint, psi, exps = kwargs["hint"], kwargs["psi"], kwargs["exps"]
        hints.append(hint)
        maps.append(_clearing_price(*args, hint=hint, psi=psi, exps=exps))
        return maps[-1]

    monkeypatch.setattr(tcsmfd.equilibrium, "simulate", simulating)
    monkeypatch.setattr(tcsmfd.equilibrium, "_clearing_price", clearing)
    return xs, maps, hints


def replay_substitution(xs, maps, hints, steps, params, c):
    """Check the step rule, bit for bit, on a scheme solve's first ``steps``
    substitution steps, recorded by ``recording_substitution`` with cap
    weights ``c``.

    The first clearing price is hinted with 0, each later one with the
    price of its iterate.  Each iterate with a clearing price is accepted
    when its substitution residual is at most (1 - omega / 2) times that of
    the last accepted iterate a.  At omega = 1, with an accepted iterate b
    before a, iterate i + 1 is the secant step w_a psi_hat_a + w_b psi_hat_b,
    clipped to the box and scaled onto the cap, at the price w_a p_hat_a +
    w_b p_hat_b kept >= 0, with the weights (w_a, w_b) of
    ``_anderson_weights`` on the residuals psi_hat - x of a and b, a first.
    A rejected secant point drops b, and the plain step psi_hat_a is
    retaken at omega = 1; any other rejection cuts omega.  Otherwise
    iterate i + 1 is x_a + omega (psi_hat_a - x_a) (psi_hat_a itself at
    omega = 1).

    Returns the last accepted iterate, the final omega, the number of secant
    steps, the number of them rejected, and the price of iterate ``steps``.
    """
    cut = tcsmfd.equilibrium._STEP_CUT
    supply = params.kappa * float(c.sum())
    residual = [float(np.max(np.abs(psi_hat - x))) for x, (_, psi_hat) in zip(xs, maps)]
    assert hints[0] == 0.0
    anchor, before, omega = 0, None, 1.0
    secants = rejected = 0
    for i in range(1, steps + 1):
        p, psi_hat = maps[anchor]
        secant = omega == 1.0 and before is not None
        if secant:
            p_0, psi_hat_0 = maps[before]
            psis = np.array([psi_hat, psi_hat_0])
            a = tcsmfd.equilibrium._anderson_weights(psis - np.array([xs[anchor], xs[before]]))
            want = np.clip(a @ psis, 0.0, 1.0)
            used = params.tau * float(c @ want)
            if used > supply:
                want = want * (supply / used)
            p = max(float(a @ np.array([p, p_0])), 0.0)
            secants += 1
        else:
            want = psi_hat if omega == 1.0 else xs[anchor] + omega * (psi_hat - xs[anchor])
        assert xs[i].tobytes() == want.tobytes(), i
        if i < len(maps):
            assert hints[i] == p, i
            if residual[i] <= (1.0 - 0.5 * omega) * residual[anchor]:
                before, anchor = anchor, i
            elif secant:
                before = None
                rejected += 1
            else:
                omega *= cut
    return anchor, omega, secants, rejected, p


def test_single_group_price_overshoot_converges():
    # once a stall: the price's QP steps went 0.01 -> 0.042 -> 0 -> 0.269,
    # into the logit's flat tail where the price column vanishes, and the
    # solve sat at residual 0.5 until max_iters
    base = small_random_scenario(622, n_groups=1, congestion=0.3)
    v_free, n_jam = base.mfd.params
    scenario = dataclasses.replace(base, mfd=MfdCurve.greenshields(v_free, n_jam, 0.8 * v_free))
    rep = equilibrium_solve(scenario, TcsParams())
    assert rep.converged and rep.residual_final < 1e-4
    assert rep.state.p == pytest.approx(0.02274, rel=1e-3)


def test_hypercongested_two_group_draw_converges():
    # a stall while slack-cap solves took QP steps from the start: they
    # two-cycled at residual 0.16-0.23 until max_iters.  The damped
    # substitution steps converge in 8 iterations
    scenario = small_random_scenario(1416, n_groups=2, congestion=1.532)
    rep = equilibrium_solve(scenario, TcsParams(tau=147.9, cap_constraint="printed"))
    assert rep.converged and rep.residual_final < 1e-4
    assert rep.iterations <= 10


@pytest.mark.parametrize("tau, qp_steps", [(160.0, True), (200.0, False)])
def test_hypercongested_preset_converges(tau, qp_steps):
    # the congested preset at 0.9 of its jam accumulation (n_jam 4 500),
    # where the sampled monotonicity still holds: tau = 160 converges at a
    # zero price through QP steps (11 iterations, 5 of them QP steps) and
    # tau = 200 by substitution steps alone (8 iterations)
    spec = preset_spec("congested")
    spec = dataclasses.replace(spec, n_jam=0.9 * spec.n_jam)
    assert spec.n_jam == 4500.0
    rep = equilibrium_solve(generate_synthetic(0, spec), TcsParams(tau=tau))
    assert rep.converged and rep.residual_final < 1e-4
    assert rep.qp_unconverged == 0
    assert bool(rep.qp_iterations) == qp_steps
    assert (rep.state.p == 0.0) == qp_steps


def test_probe_draws_converge():
    # 0 of the first 2 000 draws were flagged while only binding solves
    # substituted; now draw 1 is (``PROBE_UNCONVERGED``)
    flagged = set()
    for i in range(500):
        scenario, params, tcs, p_init = probe_draw(i)
        if not equilibrium_solve(scenario, params, tcs=tcs, p_init=p_init).converged:
            flagged.add(i)
    assert flagged <= PROBE_UNCONVERGED


@pytest.fixture(scope="module")
def held_out():
    """Generated scenarios by (preset, seed), each made once."""
    cache = {}

    def get(preset, seed):
        if (preset, seed) not in cache:
            cache[preset, seed] = generate_synthetic(seed, preset_spec(preset))
        return cache[preset, seed]

    return get


@pytest.mark.parametrize("preset, seed, tau", [
    ("congested", seed, tau) for seed in range(10) for tau in (120.0, 160.0, 200.0, 300.0)
] + [
    ("citywide", seed, tau) for seed in (1, 2, 3) for tau in (200.0, 300.0)
])
def test_held_out_solves_converge(held_out, preset, seed, tau):
    # cold solves on generator seeds the presets' references do not use
    scenario = held_out(preset, seed)
    rep = equilibrium_solve(scenario, TcsParams(tau=tau))
    assert rep.converged and rep.qp_unconverged == 0
    assert abs(rep.state.p * rep.cap_slack) / float(scenario.gammas.sum()) < 1e-4


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
    tau=st.floats(100.0, 400.0),
)
def test_converges_with_invariants_or_is_flagged(seed, n, congestion, form, floor, cap, tau):
    base = small_random_scenario(seed, n_groups=n, congestion=congestion)
    v_free, n_jam = base.mfd.params
    # a floor at 0.8 v_free binds above 0.2 n_jam on greenshields
    v_floor = 0.8 * v_free if floor else 1.0
    scenario = dataclasses.replace(base, mfd=_contract_curve(form, v_free, n_jam, v_floor))
    params = TcsParams(tau=tau, cap_constraint=cap)
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
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ModalState(x=np.array([0.5]), p=p)


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

    @pytest.mark.parametrize("bad", [float("nan"), -0.01])
    def test_bad_price_rejected(self, small_scenario, bad):
        with pytest.raises(ValueError, match="^p_fixed must be >= 0$"):
            msa_solve(small_scenario, TcsParams(), p_fixed=bad)

    def test_needs_an_iteration(self, small_scenario):
        with pytest.raises(ValueError, match="^iters must be >= 1$"):
            msa_solve(small_scenario, TcsParams(), p_fixed=0.0, iters=0)

    def test_infinite_price_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="^p_fixed must be finite$"):
            msa_solve(small_scenario, TcsParams(), p_fixed=math.inf)

    def test_residual_shrinks(self, small_scenario):
        msa = msa_solve(small_scenario, TcsParams(), p_fixed=0.005, iters=40)
        assert msa.residual_trace[-1] < msa.residual_trace[0]


# each integer count: the error it raises, and a call that passes it value
COUNTS = {
    "max_iters": (ScenarioError, lambda sc, v: TcsParams(max_iters=v)),
    "iters": (ValueError, lambda sc, v: msa_solve(sc, TcsParams(), p_fixed=0.0, iters=v)),
    "n_samples": (ValueError, lambda sc, v: uniqueness_check(sc, n_samples=v)),
    "max_pairs": (ValueError, lambda sc, v: uniqueness_check(sc, n_samples=3, max_pairs=v)),
}


@pytest.mark.parametrize("value, accepted", [
    (2, True), (np.int64(2), True), (np.int32(2), True),
    (2.5, False), (2.0, False), (np.float64(2.0), False), (math.inf, False),
    (True, False), (np.bool_(True), False), ("2", False),
])
@pytest.mark.parametrize("name", list(COUNTS))
def test_counts_must_be_integers(small_scenario, name, value, accepted):
    # a fraction, an infinity or a bool fails up front, naming the count,
    # not later inside range() or numpy
    error, call = COUNTS[name]
    if accepted:
        call(small_scenario, value)
    else:
        with pytest.raises(error, match=f"^{name} must be an integer, got "):
            call(small_scenario, value)
