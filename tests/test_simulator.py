"""Event-driven simulator against an exact rational-arithmetic oracle.

The oracle re-walks the event sequence with Fraction arithmetic and a
deliberately different bookkeeping style (no incremental state beyond
remaining distances, everything recomputed per step), so agreement is
evidence rather than tautology.
"""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import MfdCurve, generate_synthetic, preset_spec, simulate

from conftest import make_scenario, small_random_scenario, three_group_scenario

# frozen from the Fraction oracle on three_group_scenario with
# x = (0.5, 0.8, 0.75): T0 = 800/11, T1 = 86400/1507, T2 = 2059152/55759
T_EXPECTED = (72.72727272727273, 57.332448573324484, 36.92950017037608)
X3 = np.array([0.5, 0.8, 0.75])


def fraction_oracle(scenario, x_shares):
    groups = [
        (Fraction(gamma), Fraction(depart), Fraction(trip_len))
        for gamma, depart, trip_len in zip(scenario.gammas.tolist(), scenario.departs.tolist(),
                                           scenario.trip_lens.tolist())
    ]
    x = [Fraction(v) for v in x_shares]
    n_total = len(groups)

    def speed(n_acc):
        return Fraction(10) * (1 - n_acc / 100)

    t = Fraction(0)
    remaining = {}
    entered, exited = set(), set()
    events = []
    while len(exited) < n_total:
        active = [i for i in entered if i not in exited]
        v = speed(sum(groups[i][0] * x[i] for i in active))
        cands = []
        for i in range(n_total):
            if i not in entered and groups[i][1] >= t:
                cands.append((groups[i][1], 1, i))   # entries lose ties
        for i in active:
            cands.append((t + remaining[i] / v, 0, i))
        t_next, kind, who = min(cands)
        dt = t_next - t
        for i in active:
            remaining[i] -= dt * v
        if kind == 1:
            entered.add(who)
            remaining[who] = groups[who][2]
        else:
            exited.add(who)
        t = t_next
        events.append((t, "entry" if kind else "exit", who))
    return events


class TestThreeGroupOracle:
    def test_times_match_fraction_walk(self):
        sc = three_group_scenario()
        sim = simulate(sc, X3)
        oracle = fraction_oracle(sc, X3)
        assert len(sim.times) == 6
        for e, (t_exact, kind, who) in enumerate(oracle):
            assert sim.kinds[e] == (0 if kind == "entry" else 1)
            assert sim.event_groups[e] == who
            assert sim.times[e] == pytest.approx(float(t_exact), abs=1e-12)

    def test_frozen_travel_times(self):
        sim = simulate(three_group_scenario(), X3)
        np.testing.assert_allclose(sim.car_times, T_EXPECTED, rtol=0, atol=1e-12)

    def test_frozen_speeds(self):
        sim = simulate(three_group_scenario(), X3)
        np.testing.assert_allclose(
            sim.v_after, [9.0, 6.6, 7.6, 6.85, 9.25, 10.0], rtol=0, atol=1e-12
        )

    def test_decomposition_matches_event_sums(self):
        # T_i must equal the sum of inter-event durations from the event
        # after entry through the exit, by the same arithmetic
        sim = simulate(three_group_scenario(), X3)
        for i in range(3):
            s = float(np.sum(sim.durations[sim.entry_index[i] + 1 : sim.exit_index[i] + 1]))
            assert sim.car_times[i] == s


class TestConstantMfd:
    def test_travel_time_is_length_over_speed(self):
        sc = make_scenario(
            [(50.0, 0.0, 1200.0, 700.0), (80.0, 100.0, 2500.0, 900.0),
             (20.0, 350.0, 800.0, 400.0)],
            mfd=MfdCurve.constant(8.0),
        )
        sim = simulate(sc, np.array([0.9, 0.4, 0.7]))
        for i, trip_len in enumerate(sc.trip_lens):
            assert abs(sim.car_times[i] - trip_len / 8.0) < 1e-9

    def test_random_scenario_exactness(self):
        sc = small_random_scenario(11, n_groups=12)
        sc = dataclasses.replace(sc, mfd=MfdCurve.constant(12.0))
        x = np.random.default_rng(5).uniform(0.1, 1.0, sc.n)
        sim = simulate(sc, x)
        want = sc.trip_lens / 12.0
        assert np.max(np.abs(sim.car_times - want)) < 1e-9


def per_trip_distance(sim, i):
    # event e closes a period of durations[e] at the speed v_after[e - 1]
    e = np.arange(sim.entry_index[i] + 1, sim.exit_index[i] + 1)
    return float(np.sum(sim.durations[e] * sim.v_after[e - 1]))


class TestInvariants:
    def test_distance_closure(self):
        sc = small_random_scenario(2, n_groups=10)
        x = np.random.default_rng(3).uniform(0.05, 1.0, sc.n)
        sim = simulate(sc, x)
        for i in range(sc.n):
            assert abs(per_trip_distance(sim, i) - sc.trip_lens[i]) < 1e-6

    def test_edie_length_closure(self):
        # total vehicle-meters, accumulation x duration x speed summed over
        # the periods, equals the sum of the car trips completed
        sc = make_scenario(
            [(20.0, 0.0, 600.0, 300.0), (30.0, 50.0, 400.0, 500.0)],
            mfd=MfdCurve.greenshields(10.0, 100.0),
        )
        x = np.array([0.6, 0.9])
        sim = simulate(sc, x)
        veh_m = float(np.sum(sim.n_after[:-1] * sim.durations[1:] * sim.v_after[:-1]))
        want = 20.0 * 0.6 * 600.0 + 30.0 * 0.9 * 400.0
        assert veh_m == pytest.approx(want, rel=1e-9)

    def test_event_count_and_order(self):
        sc = small_random_scenario(4, n_groups=9)
        sim = simulate(sc, np.full(sc.n, 0.5))
        assert len(sim.times) == 2 * sc.n
        assert np.all(np.diff(sim.times) >= 0)
        assert sorted(sim.event_groups[sim.kinds == 0].tolist()) == list(range(sc.n))
        assert sorted(sim.event_groups[sim.kinds == 1].tolist()) == list(range(sc.n))

    def test_accumulation_consistency(self):
        sc = small_random_scenario(6, n_groups=7)
        x = np.random.default_rng(1).uniform(0.0, 1.0, sc.n)
        sim = simulate(sc, x)
        for e in range(2 * sc.n):
            # n_after counts groups on the road once event e has happened,
            # which is exactly the active set of the following period
            mask = (sim.entry_index <= e) & (e < sim.exit_index)
            assert sim.n_after[e] == pytest.approx(float(sc.gammas[mask] @ x[mask]), abs=1e-12)

    def test_zero_shares_ride_free_flow(self):
        sc = small_random_scenario(8, n_groups=6)
        sim = simulate(sc, np.zeros(sc.n))
        v_free = sc.mfd.speed(0.0)
        np.testing.assert_allclose(sim.car_times, sc.trip_lens / v_free, rtol=1e-12)

    def test_exit_wins_tie_with_entry(self):
        # second trip departs exactly when the first finishes
        sc = make_scenario(
            [(10.0, 0.0, 800.0, 100.0), (10.0, 100.0, 500.0, 100.0)],
            mfd=MfdCurve.constant(8.0),
        )
        sim = simulate(sc, np.array([1.0, 1.0]))
        assert sim.times[1] == sim.times[2] == 100.0
        assert sim.kinds[1] == 1 and sim.event_groups[1] == 0
        assert sim.kinds[2] == 0 and sim.event_groups[2] == 1

    def test_rejects_bad_shares(self):
        sc = three_group_scenario()
        with pytest.raises(ValueError):
            simulate(sc, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            simulate(sc, np.array([0.5, 1.5, 0.2]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 9),
    xseed=st.integers(0, 10_000),
)
def test_simulation_properties(seed, n, xseed):
    sc = small_random_scenario(seed, n_groups=n)
    x = np.random.default_rng(xseed).uniform(0.0, 1.0, sc.n)
    sim = simulate(sc, x)
    assert len(sim.times) == 2 * n
    assert np.all(np.diff(sim.times) >= 0)
    assert np.all(sim.car_times > 0)
    for i in range(n):
        assert sim.times[sim.entry_index[i]] == sc.departs[i]
        assert abs(per_trip_distance(sim, i) - sc.trip_lens[i]) < 1e-6


@pytest.mark.parametrize("preset", ["small", "congested"])
def test_car_times_match_per_trip_sum(preset):
    sc = generate_synthetic(0, preset_spec(preset))
    for x in (np.random.default_rng(5).uniform(0.0, 1.0, sc.n), np.zeros(sc.n), np.ones(sc.n)):
        sim = simulate(sc, x)
        want = np.array([
            float(np.sum(sim.durations[sim.entry_index[i] + 1 : sim.exit_index[i] + 1]))
            for i in range(sc.n)
        ])
        assert sim.car_times.tobytes() == want.tobytes()


# sha256 over the dtype and bytes of every SimResult array, in SIM_FIELDS
# order, at generator seed 0; a change to the event loop that moves any bit
# of any array breaks these
SIM_FIELDS = ("times", "kinds", "event_groups", "n_after", "v_after", "durations",
              "entry_index", "exit_index", "car_times")
SIM_DIGESTS = {
    ("small", "random"): "e4c6b86f9be4b9e5faa9af86b2b49f5731596416660b40c96aa2ff4a24c76da4",
    ("small", "zeros"): "93f039fe4a4636c611f931c17b71c537cc583719911e8235a6afdc1a7893bf78",
    ("small", "ones"): "0b0fe75aa71652a309e66eba77928c15f70829baedad77c9b1060e4fc009e4cd",
    ("congested", "random"): "24c81bd7e478dde04c4df61d7a6ec3e3b3f030178be2a1727b8e4b6e58696d3d",
    ("congested", "zeros"): "8e9df204d775aa78acc4ecaf5cae29aa8ddef239e2283b4198826e72f6381f25",
    ("congested", "ones"): "a26ac5c1b7cc07d68ece7a1af923360bd581df5042c6081964e12633f5c7ff8c",
    ("citywide", "random"): "173cc6684d4e02443fa65f533e4144e4287a473c2758f826ee6fecb1f1d4c0db",
    ("citywide", "zeros"): "f970f3cc7adda4637c67bf31887fefc8da56bcf411b5ac99946ef8d9461a1cd2",
    ("citywide", "ones"): "116178827938dd89c320b47b10f8d5258901a5fec27d46fd77a97a2908395e38",
}


@pytest.mark.parametrize("preset", ["small", "congested", "citywide"])
def test_simulate_bits_pinned(preset):
    sc = generate_synthetic(0, preset_spec(preset))
    xs = {"random": np.random.default_rng(0).random(sc.n),
          "zeros": np.zeros(sc.n), "ones": np.ones(sc.n)}
    for name, x in xs.items():
        sim = simulate(sc, x)
        h = hashlib.sha256()
        for field in SIM_FIELDS:
            a = getattr(sim, field)
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
        assert h.hexdigest() == SIM_DIGESTS[preset, name], name
