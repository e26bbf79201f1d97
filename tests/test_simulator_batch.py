"""Lockstep batch simulation against one ``simulate`` call per share vector.

``simulate_car_times(scenario, xs)`` steps every row of ``xs`` through its
own event sequence at once.  Each row must equal
``simulate(scenario, xs[s]).car_times`` bit for bit, not to a tolerance:
the uniqueness dot products are built from these times and must not move.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcsmfd.analysis
from tcsmfd import MfdCurve, generate_synthetic, preset_spec, simulate, uniqueness_check
from tcsmfd.simulator import HorizonError, simulate_car_times

from conftest import make_scenario, small_random_scenario


def assert_rows_match(scenario, xs):
    times = simulate_car_times(scenario, xs)
    assert times.shape == (len(xs), scenario.n)
    for s, x in enumerate(xs):
        want = simulate(scenario, x).car_times
        assert times[s].tobytes() == want.tobytes(), f"row {s}"
    return times


def with_edge_rows(xs):
    """``xs`` plus an all-zero row, an all-one row and a copy of row 0."""
    n = xs.shape[1]
    return np.vstack([xs, np.zeros(n), np.ones(n), xs[0]])


# citywide has up to 133 trips on the road at once: the slot table doubles
# from 8 to 256 while the batch runs
@pytest.mark.parametrize("name,n_samples", [("small", 200), ("congested", 200), ("citywide", 20)])
def test_preset_lhs_samples(name, n_samples):
    # the uniqueness check's own samples, plus the corners and a duplicate
    sc = generate_synthetic(0, preset_spec(name))
    xs = tcsmfd.analysis._latin_hypercube(sc.n, n_samples, 0)
    times = assert_rows_match(sc, with_edge_rows(xs))
    assert times[-1].tobytes() == times[0].tobytes()


def _floor_tabulated(scenario):
    # a cubic curve that falls below the 2 m/s floor at half the peak load
    n_peak = float(simulate(scenario, np.ones(scenario.n)).n_after.max())
    return MfdCurve.tabulated(
        [(0.0, 12.0), (0.25 * n_peak, 9.0), (0.5 * n_peak, 2.0), (n_peak, 0.5)],
        v_floor=2.0,
    )


@pytest.mark.parametrize("form", ["greenshields", "piecewise", "tabulated", "constant"])
def test_mfd_forms(form):
    sc = small_random_scenario(5, n_groups=12)
    mfd = {
        "greenshields": MfdCurve.greenshields(12.0, 1500.0, v_floor=1.5),
        "piecewise": MfdCurve.piecewise_linear(
            [(0.0, 13.0), (300.0, 9.0), (900.0, 3.0)], v_floor=2.0),
        "tabulated": _floor_tabulated(sc),
        "constant": MfdCurve.constant(7.0),
    }[form]
    sc = replace(sc, mfd=mfd)
    xs = np.random.default_rng(11).uniform(0.0, 1.0, size=(16, sc.n))
    assert_rows_match(sc, with_edge_rows(xs))
    if form == "tabulated":
        # the floor rules part of the full-share run, not all of it
        v = simulate(sc, np.ones(sc.n)).v_after
        assert np.any(v == 2.0) and np.any(v > 2.0)


TIES = {
    # groups 1 and 2 run the same trip side by side: id breaks the tie
    "equal_departure_and_trip_length": (
        [(40.0, 0.0, 3000.0, 500.0), (30.0, 60.0, 2000.0, 400.0),
         (50.0, 60.0, 2000.0, 400.0)],
        None, [0.7, 0.6, 0.9],
    ),
    # equal targets reached from different entries; the lower id exits first
    "equal_targets_from_different_entries": (
        [(10.0, 50.0, 400.0, 100.0), (10.0, 0.0, 800.0, 100.0)],
        MfdCurve.constant(8.0), [1.0, 1.0],
    ),
    # an exit and an entry at t = 100: the exit goes first
    "exit_coincides_with_entry": (
        [(10.0, 0.0, 800.0, 100.0), (10.0, 100.0, 500.0, 100.0),
         (10.0, 100.0, 300.0, 100.0)],
        MfdCurve.constant(8.0), [1.0, 0.5, 1.0],
    ),
    # groups 0 and 1 share a trip among other traffic; the exit time
    # computed for the second of them falls behind the clock and is clamped
    "side_by_side_exit_behind_the_clock": (
        [(56.0, 74.6, 1452.7855309076958, 100.0), (35.0, 74.6, 1452.7855309076958, 100.0),
         (57.0, 522.2, 923.4896575213479, 100.0), (44.0, 74.6, 2322.029580118913, 100.0),
         (15.0, 484.9, 1459.3008718958588, 100.0), (27.0, 74.6, 2091.9460961882387, 100.0)],
        MfdCurve.greenshields(10.0, 200.0, v_floor=0.5),
        [0.5261680305016215, 0.4643754078940663, 0.2225333387721835,
         0.7564671103596112, 0.11710640805159289, 0.24734122040485584],
    ),
    # group 0 frees its slot before the pair 2, 3 enters: group 2 takes
    # that slot and group 3 a lower one, and their targets tie in hi and lo,
    # so id decides; after the first exit the speed changes and the last
    # ulp of the second car time shows which of the two left first
    "equal_targets_lower_id_in_reused_slot": (
        [(14.0, 0.0, 462.0484255965521, 100.0), (29.0, 0.0, 2870.536144061083, 100.0),
         (35.0, 82.6, 800.9929223750403, 100.0), (26.0, 82.6, 800.9929223750403, 100.0)],
        MfdCurve.greenshields(10.0, 200.0, v_floor=0.5), [1.0, 1.0, 1.0, 1.0],
    ),
    # the pair 1, 2 enters at D = 3e5 m, where trip lengths 64 ulp apart
    # round to one target hi; lo decides, and at the 1 m/s that group 3
    # imposes the shorter trip (group 2) exits about 2 ulp of t earlier
    "target_lo_decides": (
        [(10.0, 0.0, 2.0e5, 100.0), (1.0, 30000.0, 1000.0 + 64 * np.spacing(1000.0), 100.0),
         (1.0, 30000.0, 1000.0, 100.0), (100.0, 29990.0, 5000.0, 100.0)],
        MfdCurve.piecewise_linear([(0.0, 10.0), (50.0, 10.0), (60.0, 1.0)]),
        [1.0, 1.0, 1.0, 1.0],
    ),
}


@pytest.mark.parametrize("case", sorted(TIES))
def test_ties(case):
    groups, mfd, x = TIES[case]
    sc = make_scenario(groups, mfd=mfd)
    sim = simulate(sc, np.array(x))
    if case == "equal_targets_from_different_entries":
        assert sim.event_groups.tolist() == [1, 0, 0, 1]
    elif case == "exit_coincides_with_entry":
        assert sim.times[1] == 100.0 and sim.kinds[1] == 1
    elif case == "equal_targets_lower_id_in_reused_slot":
        assert sim.event_groups.tolist() == [0, 1, 0, 2, 3, 2, 3, 1]
    elif case == "target_lo_decides":
        assert sim.event_groups.tolist() == [0, 0, 3, 1, 2, 2, 1, 3]
        assert sim.times[sim.exit_index[2]] < sim.times[sim.exit_index[1]]
    elif case == "side_by_side_exit_behind_the_clock":
        assert sim.exit_index[1] == sim.exit_index[0] + 1
        assert sim.durations[sim.exit_index[1]] == 0.0
    else:
        assert sim.exit_index[2] == sim.exit_index[1] + 1
    # tied rows next to untied ones, so the tie is resolved per row
    xs = np.array([x, np.full(sc.n, 0.3), x, np.zeros(sc.n)])
    assert_rows_match(sc, xs)


def test_uniqueness_check_simulates_in_one_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("uniqueness_check called simulate")

    monkeypatch.setattr(tcsmfd.analysis, "simulate", refuse)
    assert uniqueness_check(small_random_scenario(2, n_groups=6), n_samples=8).n_pairs == 28


def test_horizon_overrun_in_any_row_raises(monkeypatch):
    sc = small_random_scenario(1, n_groups=6)
    n_slow = 0.5 * float(simulate(sc, np.ones(sc.n)).n_after.max())
    real = MfdCurve._speed

    def crawl(self, n):
        # near-standstill above n_slow: only the full-share row gets there
        v = real(self, np.asarray(n))
        slow = np.asarray(n) > n_slow
        return np.where(slow, 1e-9, v) if np.ndim(v) else (1e-9 if slow else float(v))

    # the batch evaluates the speed law unchecked, and speed through it
    monkeypatch.setattr(MfdCurve, "_speed", crawl)
    # simulate binds the curve's scalar path once per run
    monkeypatch.setattr(MfdCurve, "_scalar_speed",
                        property(lambda self: lambda n: crawl(self, n)))
    xs = np.array([np.zeros(sc.n), np.ones(sc.n), np.full(sc.n, 0.1)])
    with pytest.raises(HorizonError, match="sanity horizon"):
        simulate(sc, xs[1])
    assert_rows_match(sc, xs[[0, 2]])
    with pytest.raises(HorizonError, match="sanity horizon"):
        simulate_car_times(sc, xs)


@pytest.mark.parametrize("bad", ["nan", "negative", "above_one", "one_d", "width", "empty"])
def test_bad_shares_raise(bad):
    sc = small_random_scenario(0, n_groups=4)
    xs = np.full((3, sc.n), 0.5)
    if bad == "nan":
        xs[1, 2] = np.nan
    elif bad == "negative":
        xs[2, 0] = -1e-9
    elif bad == "above_one":
        xs[0, 3] = 1.0 + 1e-12
    elif bad == "one_d":
        xs = xs[0]
    elif bad == "width":
        xs = xs[:, :-1]
    else:
        xs = xs[:0]
    with pytest.raises(ValueError):
        simulate_car_times(sc, xs)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 14),
    n_rows=st.integers(1, 6),
    xseed=st.integers(0, 10_000),
    zeros=st.booleans(),
)
def test_matches_simulate_property(seed, n, n_rows, xseed, zeros):
    sc = small_random_scenario(seed, n_groups=n)
    rng = np.random.default_rng(xseed)
    xs = rng.uniform(0.0, 1.0, size=(n_rows, sc.n))
    if zeros:
        xs[rng.uniform(size=xs.shape) < 0.3] = 0.0
        xs[-1] = xs[0]
    assert_rows_match(sc, xs)
