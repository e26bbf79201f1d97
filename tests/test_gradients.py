"""Travel-time Jacobian against central finite differences.

Finite differences are the independent oracle for the recursion; columns
whose perturbation reorders events are excluded because the travel times
are only piecewise smooth there.
"""

import time

import numpy as np
import pytest

from tcsmfd import MfdCurve, simulate, travel_time_gradient
from tcsmfd.gradients import grad_speed

from conftest import fd_gradient, make_scenario, small_random_scenario, three_group_scenario


def rel_error(analytic, fd, valid):
    diff = np.abs(analytic[:, valid] - fd[:, valid])
    denom = np.maximum(np.abs(fd[:, valid]), 1e-6)
    return float(np.max(diff / denom))


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed,n", [(0, 5), (1, 8), (2, 12), (3, 16)])
    def test_matches_fd(self, seed, n):
        sc = small_random_scenario(seed, n_groups=n)
        x = np.random.default_rng(seed + 100).uniform(0.2, 0.95, n)
        sim = simulate(sc, x)
        gm = travel_time_gradient(sc, sim)
        fd, valid = fd_gradient(sc, x)
        assert valid.sum() >= n - 2
        assert rel_error(gm.dT, fd, valid) < 1e-3

    def test_three_group_case_coverage(self):
        sc = three_group_scenario()
        x = np.array([0.5, 0.8, 0.75])
        sim = simulate(sc, x)
        # the event walk is entry, entry, exit, entry, exit, exit, so the
        # recursion visits all three branch kinds
        assert sim.kinds.tolist() == [0, 0, 1, 0, 1, 1]
        gm = travel_time_gradient(sc, sim)
        fd, valid = fd_gradient(sc, x)
        assert valid.all()
        assert rel_error(gm.dT, fd, valid) < 1e-5


class TestStructure:
    def test_conservation_per_trip(self):
        # the gradient of each trip's total distance is identically zero:
        # sum over the trip's events of (grad T_e * V_e + T_e * grad V_e)
        sc = small_random_scenario(5, n_groups=10)
        x = np.random.default_rng(2).uniform(0.1, 1.0, sc.n)
        sim = simulate(sc, x)
        gm = travel_time_gradient(sc, sim)
        speed_grads = np.array([grad_speed(sc, sim, e) for e in range(2 * sc.n)])
        # period e spans (t_[e-1], t_e] and runs at the speed set after e-1
        v_period = np.concatenate([[sim.v_after[0]], sim.v_after[:-1]])
        contrib = (
            gm.event_time_grads * v_period[:, None]
            + sim.durations[:, None] * speed_grads
        )
        for i in range(sc.n):
            lo, hi = sim.entry_index[i] + 1, sim.exit_index[i] + 1
            total = contrib[lo:hi].sum(axis=0)
            assert np.max(np.abs(total)) < 1e-6

    def test_causal_zeros_exact(self):
        # group 1 departs long after group 0 exits: no influence either way,
        # and the causal direction must be a hard zero
        sc = make_scenario(
            [(20.0, 0.0, 500.0, 200.0), (15.0, 5000.0, 600.0, 250.0)]
        )
        x = np.array([0.7, 0.6])
        gm = travel_time_gradient(sc, simulate(sc, x))
        assert gm.dT[0, 1] == 0.0
        assert gm.dT[1, 0] == 0.0

    def test_later_entrant_cannot_move_earlier_exit(self):
        sc = three_group_scenario()
        x = np.array([0.5, 0.8, 0.75])
        gm = travel_time_gradient(sc, simulate(sc, x))
        # group 2 enters after group 0 exited
        assert gm.dT[0, 2] == 0.0

    def test_constant_mfd_gradient_is_zero(self):
        sc = make_scenario(
            [(30.0, 0.0, 900.0, 400.0), (25.0, 60.0, 700.0, 300.0),
             (10.0, 150.0, 1200.0, 500.0)],
            mfd=MfdCurve.constant(9.0),
        )
        gm = travel_time_gradient(sc, simulate(sc, np.array([0.4, 0.9, 0.6])))
        assert np.all(gm.dT == 0.0)
        assert np.all(gm.event_time_grads == 0.0)

    def test_near_tie_flagged(self):
        sc = make_scenario(
            [(20.0, 0.0, 500.0, 200.0), (15.0, 0.0, 600.0, 250.0)]
        )
        gm = travel_time_gradient(sc, simulate(sc, np.array([0.7, 0.6])))
        assert gm.near_ties

    def test_diagonal_dominates_offdiagonal_sign(self):
        # adding cars to your own group can only slow you down
        sc = small_random_scenario(7, n_groups=9)
        x = np.random.default_rng(4).uniform(0.2, 0.9, sc.n)
        gm = travel_time_gradient(sc, simulate(sc, x))
        assert np.all(np.diag(gm.dT) >= 0.0)


class TestRecursion:
    @pytest.mark.parametrize("sc,x", [
        (three_group_scenario(), np.array([0.0, 1.0, 0.75])),
        (three_group_scenario(), np.array([1.0, 0.0, 1.0])),
        (small_random_scenario(3, n_groups=16),
         np.array([0.0, 1.0, 0.4, 1.0, 0.0, 0.7, 1.0, 0.2,
                   0.0, 0.9, 1.0, 0.5, 0.0, 1.0, 0.3, 0.6])),
    ])
    def test_rows_are_running_sum_differences(self, sc, x):
        # each row of dT is the running gradient of the event time at the
        # group's exit minus the one at its entry, bit for bit as a cumsum
        sim = simulate(sc, x)
        kinds = sim.kinds.tolist()
        assert [1, 0] in [kinds[e:e + 2] for e in range(len(kinds) - 1)]
        gm = travel_time_gradient(sc, sim)
        cum = np.cumsum(gm.event_time_grads, axis=0)
        want = cum[sim.exit_index] - cum[sim.entry_index]
        assert np.any(want != 0.0)
        # entries are fixed departures: their running gradient is exactly 0
        assert not np.any(cum[sim.entry_index])
        assert gm.dT.tobytes() == want.tobytes()

    def test_speed_gradient_rows(self):
        sc = three_group_scenario()
        x = np.array([0.5, 0.8, 0.75])
        sim = simulate(sc, x)
        # before the first event nothing is on the road
        assert np.all(grad_speed(sc, sim, 0) == 0.0)
        # during period (0, 1] only group 0 travels; dV/dn = -0.1
        g1 = grad_speed(sc, sim, 1)
        assert g1[0] == pytest.approx(20.0 * -0.1)
        assert g1[1] == g1[2] == 0.0


def test_runtime_scales_quadratically():
    # loose: N=200 must stay well under a second
    sc = small_random_scenario(1, n_groups=200)
    x = np.random.default_rng(0).uniform(0.3, 0.9, sc.n)
    sim = simulate(sc, x)
    t0 = time.perf_counter()
    travel_time_gradient(sc, sim)
    assert time.perf_counter() - t0 < 1.0
