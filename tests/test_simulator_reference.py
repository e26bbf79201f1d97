"""Heap-ordered simulator against the O(N^2) reference loop.

``simulate`` orders exits by a heap on compensated cumulative distance;
``reference_simulator.simulate_reference`` is the argmin over remaining
distances it replaced.  Both must produce the same event sequence, and
their event times, travel times and accumulations may differ only by
rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import MfdCurve, SimResult, generate_synthetic, preset_spec, simulate

from conftest import make_scenario, small_random_scenario
from reference_simulator import simulate_reference
from test_acceptance import GRADIENT_CASES
from test_simulator import LAZY_FIELDS

RTOL = 1e-12


def assert_same_run(scenario, x):
    new = simulate(scenario, x)
    ref = simulate_reference(scenario, x)
    for name in ("kinds", "event_groups", "entry_index", "exit_index"):
        np.testing.assert_array_equal(getattr(new, name), getattr(ref, name), err_msg=name)
    for name in ("times", "car_times", "n_after"):
        np.testing.assert_allclose(
            getattr(new, name), getattr(ref, name), rtol=RTOL, atol=0.0, err_msg=name
        )
    return new


@pytest.mark.parametrize("seed,n", GRADIENT_CASES)
def test_c01_scenarios(seed, n):
    sc = small_random_scenario(seed, n_groups=n)
    assert_same_run(sc, np.random.default_rng(seed + 1000).uniform(0.2, 0.9, n))


def test_an_oracle_result_keeps_the_arrays_it_was_given():
    # the oracle builds the whole record itself and passes it in: SimResult
    # stores each array as given and rebuilds none of them from the times
    sc = generate_synthetic(0, preset_spec("small"))
    x = np.random.default_rng(3).uniform(0.0, 1.0, sc.n)
    ref = simulate_reference(sc, x)
    assert set(LAZY_FIELDS) <= set(vars(ref))
    given = {name: getattr(ref, name).copy() for name in LAZY_FIELDS}
    given["durations"][:] = -1.0  # no difference of the times
    sim = SimResult(sc, x, ref.times, given["kinds"], given["event_groups"], ref.n_after,
                    given["v_after"], given["durations"], ref.entry_index, ref.exit_index)
    for name in LAZY_FIELDS:
        assert getattr(sim, name) is given[name], name
    # and the record simulate builds on read agrees with the oracle's
    new = simulate(sc, x)
    for name in ("kinds", "event_groups"):
        np.testing.assert_array_equal(getattr(new, name), getattr(ref, name), err_msg=name)
    for name in ("v_after", "durations"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name), rtol=RTOL,
                                   atol=1e-9, err_msg=name)


@pytest.fixture(scope="module", params=["small", "congested"])
def preset(request):
    return generate_synthetic(0, preset_spec(request.param))


@pytest.mark.parametrize("shares", ["random0", "random1", "random2", "zeros", "ones"])
def test_presets(preset, shares):
    if shares == "zeros":
        x = np.zeros(preset.n)
    elif shares == "ones":
        x = np.ones(preset.n)
    else:
        x = np.random.default_rng(int(shares[-1])).uniform(0.0, 1.0, preset.n)
    assert_same_run(preset, x)


class TestTies:
    def test_equal_departure_and_trip_length(self):
        # groups 1 and 2 run the same trip side by side: id breaks the tie
        sc = make_scenario(
            [(40.0, 0.0, 3000.0, 500.0), (30.0, 60.0, 2000.0, 400.0),
             (50.0, 60.0, 2000.0, 400.0)]
        )
        sim = assert_same_run(sc, np.array([0.7, 0.6, 0.9]))
        assert sim.times[sim.exit_index[1]] == sim.times[sim.exit_index[2]]
        assert sim.exit_index[2] == sim.exit_index[1] + 1

    def test_equal_targets_from_different_entries(self):
        # group 1 enters first with the longer trip; at t = 50 both have 400 m
        # left, so both exit at t = 100 and the lower id goes first
        sc = make_scenario(
            [(10.0, 50.0, 400.0, 100.0), (10.0, 0.0, 800.0, 100.0)],
            mfd=MfdCurve.constant(8.0),
        )
        sim = assert_same_run(sc, np.array([1.0, 1.0]))
        assert sim.kinds.tolist() == [0, 0, 1, 1]
        assert sim.event_groups.tolist() == [1, 0, 0, 1]

    def test_exit_coincides_with_entry(self):
        sc = make_scenario(
            [(10.0, 0.0, 800.0, 100.0), (10.0, 100.0, 500.0, 100.0),
             (10.0, 100.0, 300.0, 100.0)],
            mfd=MfdCurve.constant(8.0),
        )
        sim = assert_same_run(sc, np.array([1.0, 0.5, 1.0]))
        assert sim.times[1] == 100.0 and sim.kinds[1] == 1

    def test_zero_share_groups(self):
        sc = small_random_scenario(3, n_groups=9)
        x = np.random.default_rng(4).uniform(0.0, 1.0, sc.n)
        x[::2] = 0.0
        sim = assert_same_run(sc, x)
        assert np.all(sim.n_after >= 0.0)
        assert sim.n_after[-1] == 0.0

    def test_trip_lengths_closer_than_ulp_of_distance(self):
        # a long first trip drives the cumulative distance to 2.4e5 m, where
        # its ulp (2.9e-11 m) exceeds the 9e-13 m between the trip lengths
        # of groups 1 and 2; the shorter trip (group 2) must still exit first
        short = 1000.0
        long_ = short + 8 * np.spacing(short)
        sc = make_scenario(
            [(10.0, 0.0, 2.0e5, 100.0), (10.0, 30000.0, long_, 100.0),
             (10.0, 30000.0, short, 100.0)],
            mfd=MfdCurve.constant(8.0),
        )
        sim = assert_same_run(sc, np.ones(3))
        assert sim.event_groups.tolist() == [0, 0, 1, 2, 2, 1]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 14),
    xseed=st.integers(0, 10_000),
    zeros=st.booleans(),
)
def test_matches_reference_property(seed, n, xseed, zeros):
    sc = small_random_scenario(seed, n_groups=n)
    x = np.random.default_rng(xseed).uniform(0.0, 1.0, sc.n)
    if zeros:
        x[xseed % n] = 0.0
    assert_same_run(sc, x)
