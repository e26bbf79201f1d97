"""Uniqueness sampling and day-to-day stability diagnostics."""

import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import qmc

from tcsmfd import analysis
from tcsmfd import (
    MfdCurve,
    ModalState,
    TcsParams,
    eig_values,
    equilibrium_solve,
    histogram_rows,
    logit_choice,
    simulate,
    stability_check,
    travel_time_gradient,
    uniqueness_check,
)

from conftest import make_scenario, small_random_scenario
from reference_formulas import logit_gradient, stability_jacobian
from test_gradient_reference import memory_case


class TestUniqueness:
    def test_constant_mfd_dots_vanish(self):
        # car times do not depend on shares at all, so every pair dots to 0
        sc = make_scenario(
            [(100.0, 0.0, 3000.0, 700.0), (50.0, 40.0, 2000.0, 600.0)],
            mfd=MfdCurve.constant(8.0),
        )
        rep = uniqueness_check(sc, n_samples=20, seed=1)
        assert rep.min_dot == 0.0
        assert not rep.positive
        np.testing.assert_allclose(rep.dots, 0.0, atol=0.0)

    def test_congestible_dots_positive(self):
        sc = small_random_scenario(0)
        rep = uniqueness_check(sc, n_samples=40, seed=0)
        assert rep.all_pairs
        assert rep.n_pairs == 40 * 39 // 2
        assert rep.positive
        assert rep.min_dot > 0.0
        assert rep.percentiles[0.0] == pytest.approx(rep.min_dot)
        assert rep.percentiles[100.0] >= rep.percentiles[50.0] >= rep.min_dot

    def test_subsample_path(self):
        sc = small_random_scenario(1, n_groups=5)
        rep = uniqueness_check(sc, n_samples=30, seed=2, max_pairs=50)
        assert not rep.all_pairs
        assert rep.n_pairs == 50
        assert rep.dots.shape == (50,)
        # same samples, all 435 pairs: each drawn dot is a different pair's
        full = uniqueness_check(sc, n_samples=30, seed=2)
        assert full.all_pairs
        idx = [int(np.argmin(np.abs(full.dots - d))) for d in rep.dots]
        assert len(set(idx)) == 50
        np.testing.assert_allclose(rep.dots, full.dots[idx], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, k", [(4, 2), (4, 3), (1000, 100), (1000, 501)])
    def test_distinct_ranks(self, n, k):
        ranks = analysis._distinct_ranks(np.random.default_rng(0), n, k)
        assert len(ranks) == k
        assert np.all(np.diff(ranks) > 0)  # sorted and distinct
        assert 0 <= ranks[0] and ranks[-1] < n

    @pytest.mark.parametrize("k", [2, 3])
    def test_distinct_ranks_uniform(self, k):
        # every k-subset of range(4) is about equally likely, on both branches
        rng = np.random.default_rng(1)
        counts = {}
        for _ in range(6000):
            key = tuple(analysis._distinct_ranks(rng, 4, k))
            counts[key] = counts.get(key, 0) + 1
        n_subsets = len(list(combinations(range(4), k)))
        assert len(counts) == n_subsets
        want = 6000 / n_subsets
        assert all(abs(c - want) < 0.1 * want for c in counts.values()), counts

    def test_needs_two_samples(self):
        sc = small_random_scenario(0)
        with pytest.raises(ValueError):
            uniqueness_check(sc, n_samples=1)

    @pytest.mark.parametrize("max_pairs", [0, -3])
    def test_needs_a_pair(self, max_pairs):
        sc = small_random_scenario(0)
        with pytest.raises(ValueError, match="^max_pairs must be >= 1$"):
            uniqueness_check(sc, n_samples=5, max_pairs=max_pairs)

    def test_deterministic_in_seed(self):
        sc = small_random_scenario(2, n_groups=4)
        a = uniqueness_check(sc, n_samples=15, seed=5)
        b = uniqueness_check(sc, n_samples=15, seed=5)
        np.testing.assert_array_equal(a.dots, b.dots)

    @pytest.mark.parametrize("block_elements", [None, 7 * 8])
    @pytest.mark.parametrize("max_pairs", [1_000_000, 300])
    def test_blocked_dots_match_full_formula(self, monkeypatch, block_elements, max_pairs):
        # the full formula forms every pair difference at once; the blocked
        # one may round differently (BLAS blocking), never by more than 1e-12
        if block_elements is not None:  # 7 pairs per block on 8 groups
            monkeypatch.setattr(analysis, "_BLOCK_ELEMENTS", block_elements)
        sc = small_random_scenario(0)
        n_samples, seed = 40, 3
        rep = uniqueness_check(sc, n_samples=n_samples, seed=seed, max_pairs=max_pairs)

        xs = analysis._latin_hypercube(sc.n, n_samples, seed)
        times = np.array([simulate(sc, x).car_times for x in xs])
        n_all = n_samples * (n_samples - 1) // 2
        all_pairs = max_pairs >= n_all
        pairs = np.array(list(combinations(range(n_samples), 2)))  # row-major
        if not all_pairs:
            rng = np.random.default_rng(seed)
            pairs = pairs[analysis._distinct_ranks(rng, n_all, max_pairs)]
        dx = xs[pairs[:, 0]] - xs[pairs[:, 1]]
        dt = times[pairs[:, 0]] - times[pairs[:, 1]]
        want = ((dt * dx) @ sc.gammas)[np.any(dx != 0.0, axis=1)]

        assert rep.all_pairs == all_pairs
        assert rep.dots.shape == want.shape
        np.testing.assert_allclose(rep.dots, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d, n, seed", [(216, 200, 0), (216, 200, 7), (2163, 20, 0), (3, 2, 5),
                                            (1, 5, 3)])
    def test_latin_hypercube_is_scipys(self, d, n, seed):
        # the package's own sampler draws scipy's samples bit for bit
        with warnings.catch_warnings():
            # scipy deprecates seed= in favour of rng=, which 1.10 lacks
            warnings.simplefilter("ignore", DeprecationWarning)
            want = qmc.LatinHypercube(d=d, seed=seed).random(n)
        assert analysis._latin_hypercube(d, n, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, n, seed", [(216, 200, 0), (3, 50, 1), (1, 500, 2)])
    def test_samples_differ_in_every_column(self, d, n, seed):
        # each column holds one point per stratum, so no two samples share a
        # coordinate, let alone a share vector: no pair has nothing to compare
        xs = analysis._latin_hypercube(d, n, seed)
        assert xs.shape == (n, d)
        assert np.all((xs >= 0.0) & (xs < 1.0))
        for column in xs.T:
            assert len(np.unique(column)) == n
            np.testing.assert_array_equal(np.sort(np.floor(column * n)), np.arange(n))


class TestStabilityJacobian:
    def test_hand_assembly_two_groups(self):
        grad_psi = np.array([[0.1, -0.2, 0.3], [0.05, 0.0, -0.4]])
        gammas = np.array([10.0, 20.0])
        tau = 2.0
        a = stability_jacobian(grad_psi, gammas, tau)
        want = np.array(
            [
                [0.1 - 1.0, -0.2, 0.3],
                [0.05, 0.0 - 1.0, -0.4],
                [2.0 * (10 * 0.1 + 20 * 0.05), 2.0 * (10 * -0.2), 2.0 * (10 * 0.3 + 20 * -0.4)],
            ]
        )
        np.testing.assert_allclose(a, want, rtol=1e-15)

    def test_shape(self):
        a = stability_jacobian(np.zeros((3, 4)), np.ones(3), 1.0)
        assert a.shape == (4, 4)

    def test_peak_memory_is_the_result(self):
        # the Jacobian is assembled in its own (N+1) x (N+1) array with no
        # N x N identity alongside, and with the bits of subtracting one
        n, tau = 300, 200.0
        rng = np.random.default_rng(2)
        grad_psi = rng.normal(size=(n, n + 1))
        gammas = rng.uniform(10.0, 100.0, n)
        tracemalloc.start()
        try:
            a = stability_jacobian(grad_psi, gammas, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * a.nbytes
        want = np.vstack([grad_psi - np.eye(n, n + 1), tau * (gammas @ grad_psi)])
        assert a.tobytes() == want.tobytes()


class TestStabilityCheck:
    def test_requires_positive_price(self, small_scenario):
        state = ModalState(x=np.full(small_scenario.n, 0.3), p=0.0)
        with pytest.raises(ValueError, match="p > 0"):
            stability_check(small_scenario, TcsParams(), state)

    def test_rejects_a_non_finite_price(self, small_scenario):
        # an infinite price used to pass the p > 0 test and come back as an
        # unstable verdict with abscissa 0.0 and a converged eigensolve
        with pytest.raises(ValueError, match="finite"):
            state = ModalState(x=np.full(small_scenario.n, 0.3), p=math.inf)
            stability_check(small_scenario, TcsParams(), state)

    def test_printed_price_row_counts_groups(self, small_scenario):
        n = small_scenario.n
        params = TcsParams(cap_constraint="printed")
        state = ModalState(x=np.full(n, 0.3), p=0.005)
        st = stability_check(small_scenario, params, state)
        sim = simulate(small_scenario, state.x)
        psi = logit_choice(sim.car_times, small_scenario.pt_times, state.p, params)
        grad_psi = logit_gradient(psi, travel_time_gradient(small_scenario, sim).dT, params)
        want = stability_jacobian(grad_psi, np.ones(n), params.tau)
        np.testing.assert_array_equal(analysis._jacobian(small_scenario, params, sim, psi), want)
        assert st.eigenvalues.tobytes() == eig_values(want).values.tobytes()

    @pytest.mark.parametrize("scenario", ["congested", "mid"])
    def test_gathers_the_jacobian_of_the_logit_gradient(self, scenario):
        # the logit Jacobian is scattered from the solver's event-ordered
        # row blocks straight into the Jacobian: the same bits as assembling
        # it from a fresh logit Jacobian of the id-ordered dT, signed zeros
        # included; "mid" (N = 1000) stores its dT in more than one block
        sc, sim = memory_case(scenario)
        params = TcsParams()
        state = ModalState(x=sim.x, p=0.006)
        gm = travel_time_gradient(sc, sim)
        assert len(gm.layout.blocks) >= (2 if scenario == "mid" else 1)
        psi = logit_choice(sim.car_times, sc.pt_times, state.p, params)
        want = stability_jacobian(logit_gradient(psi, gm.dT, params),
                                  params.cap_weights(sc.gammas), params.tau)
        st = stability_check(sc, params, state)
        assert analysis._jacobian(sc, params, sim, psi).tobytes() == want.tobytes()
        values = eig_values(want).values
        assert st.eigenvalues.tobytes() == values.tobytes()
        assert st.spectral_abscissa == float(np.max(values.real))

    @pytest.mark.parametrize("scenario", ["congested", "mid"])
    def test_report_simulation_gives_the_state_check(self, scenario):
        # the CLI checks an equilibrium report from its own sim and psis
        # instead of simulating its state again: the same Jacobian bytes,
        # eigenvalues and abscissa; "mid" stores its dT in two blocks
        sc, _ = memory_case(scenario)
        params = TcsParams()
        rep = equilibrium_solve(sc, params)
        assert rep.converged and rep.state.p > 0
        st = analysis._stability_at(sc, params, rep.sim, rep.psis)
        want = stability_check(sc, params, rep.state)
        sim = simulate(sc, rep.state.x)
        psi = logit_choice(sim.car_times, sc.pt_times, rep.state.p, params)
        assert (analysis._jacobian(sc, params, rep.sim, rep.psis).tobytes()
                == analysis._jacobian(sc, params, sim, psi).tobytes())
        assert st.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert st.spectral_abscissa == want.spectral_abscissa
        assert (st.stable, st.eig_converged) == (want.stable, want.eig_converged)

    def test_binding_equilibrium_is_stable(self, small_scenario):
        params = TcsParams()
        rep = equilibrium_solve(small_scenario, params)
        assert rep.state.p > 0
        st = stability_check(small_scenario, params, rep.state)
        assert st.eig_converged
        assert st.spectral_abscissa < 0.0
        assert st.stable
        assert st.eigenvalues.shape == (small_scenario.n + 1,)
        # the (N+1)^2 Jacobian is dropped once its eigenvalues are known
        assert all(np.size(v) <= small_scenario.n + 1 for v in vars(st).values())

    def test_constant_mfd_closed_form_spectrum(self):
        # with share-independent car times the Jacobian is block triangular:
        # spectrum is {-1} (n-fold) plus the scalar price-reaction rate
        sc = make_scenario(
            [(100.0, 0.0, 3000.0, 500.0), (60.0, 30.0, 2500.0, 450.0)],
            mfd=MfdCurve.constant(8.0),
        )
        params = TcsParams(theta=0.001)
        state = ModalState(x=np.array([0.4, 0.5]), p=0.02)
        st = stability_check(sc, params, state)
        vals = np.sort(st.eigenvalues.real)
        assert np.max(np.abs(st.eigenvalues.imag)) < 1e-12
        np.testing.assert_allclose(vals[1:], -1.0, atol=1e-10)
        from tcsmfd import logit_choice, simulate

        sim = simulate(sc, state.x)
        psi = logit_choice(sim.car_times, sc.pt_times, state.p, params)
        d_dp = -params.theta * psi * (1 - psi) * params.tau
        want = params.tau * float(sc.gammas @ d_dp)
        assert vals[0] == pytest.approx(want, rel=1e-10)


class TestHistogramRows:
    def test_counts_and_edges(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(500)
        rows = list(histogram_rows(vals, bins=20))
        assert rows[0] == ("bin_lo", "bin_hi", "count")
        body = rows[1:]
        assert len(body) == 20
        assert sum(r[2] for r in body) == 500
        los = [float(r[0]) for r in body]
        his = [float(r[1]) for r in body]
        assert all(h > lo for lo, h in zip(los, his))
        assert los[1:] == his[:-1]   # contiguous bins, repr round-trips
