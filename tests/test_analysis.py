"""Uniqueness sampling and day-to-day stability diagnostics."""

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
    equilibrium_solve,
    histogram_rows,
    logit_choice,
    logit_gradient,
    simulate,
    stability_check,
    stability_jacobian,
    travel_time_gradient,
    uniqueness_check,
)

from conftest import make_scenario, small_random_scenario


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

    @pytest.mark.parametrize("d, n, seed", [(216, 200, 0), (216, 200, 7), (2163, 20, 0), (3, 2, 5)])
    def test_latin_hypercube_is_scipys(self, d, n, seed):
        # the package's own sampler draws scipy's samples bit for bit
        with warnings.catch_warnings():
            # scipy deprecates seed= in favour of rng=, which 1.10 lacks
            warnings.simplefilter("ignore", DeprecationWarning)
            want = qmc.LatinHypercube(d=d, seed=seed).random(n)
        assert analysis._latin_hypercube(d, n, seed).tobytes() == want.tobytes()

    def test_identical_share_vectors_excluded(self, monkeypatch):
        # samples 0, 2 and 5 coincide: 3 of the 28 pairs have nothing to compare
        def repeating(d, n, seed):
            xs = np.random.default_rng(0).uniform(0.0, 1.0, (n, d))
            xs[[2, 5]] = xs[0]
            return xs

        monkeypatch.setattr(analysis, "_latin_hypercube", repeating)
        monkeypatch.setattr(analysis, "_BLOCK_ELEMENTS", 5 * 4)  # 5 pairs per block
        sc = small_random_scenario(2, n_groups=4)
        rep = uniqueness_check(sc, n_samples=8, seed=0)
        assert rep.all_pairs
        assert rep.n_pairs == 28 - 3 == len(rep.dots)
        assert np.all(rep.dots != 0.0)


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


class TestStabilityCheck:
    def test_requires_positive_price(self, small_scenario):
        state = ModalState(x=np.full(small_scenario.n, 0.3), p=0.0)
        with pytest.raises(ValueError, match="p > 0"):
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
        np.testing.assert_array_equal(st.jacobian, want)

    def test_binding_equilibrium_is_stable(self, small_scenario):
        params = TcsParams()
        rep = equilibrium_solve(small_scenario, params)
        assert rep.state.p > 0
        st = stability_check(small_scenario, params, rep.state)
        assert st.eig_converged
        assert st.spectral_abscissa < 0.0
        assert st.stable
        assert st.jacobian.shape == (small_scenario.n + 1, small_scenario.n + 1)
        assert st.eigenvalues.shape == (small_scenario.n + 1,)

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
