"""Event-driven simulator against an exact rational-arithmetic oracle.

The oracle re-walks the event sequence with Fraction arithmetic and a
deliberately different bookkeeping style (no incremental state beyond
remaining distances, everything recomputed per step), so agreement is
evidence rather than tautology.
"""

import copy
import dataclasses
import hashlib
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import HorizonError, MfdCurve, Scenario, generate_synthetic, preset_spec, simulate

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
        # T_i, exit minus entry, equals the sum of inter-event durations from
        # the event after entry through the exit: on these three trips no
        # float sum of them rounds away from the telescoped difference
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


def preset_runs(preset):
    sc = generate_synthetic(0, preset_spec(preset))
    for x in (np.random.default_rng(5).uniform(0.0, 1.0, sc.n), np.zeros(sc.n), np.ones(sc.n)):
        yield simulate(sc, x)


@pytest.mark.parametrize("preset", ["small", "congested", "citywide"])
def test_car_times_are_exit_minus_entry(preset):
    for sim in preset_runs(preset):
        want = sim.times[sim.exit_index] - sim.times[sim.entry_index]
        assert sim.car_times.tobytes() == want.tobytes()


@pytest.mark.parametrize("preset", ["small", "congested", "citywide"])
def test_car_times_within_one_ulp_of_per_trip_sum(preset):
    # the pairwise sum of a trip's durations rounds more than once
    for sim in preset_runs(preset):
        sums = np.array([float(np.sum(sim.durations[a + 1 : b + 1]))
                         for a, b in zip(sim.entry_index, sim.exit_index)])
        assert np.all(np.abs(sim.car_times - sums) <= np.spacing(sim.car_times))


@pytest.mark.parametrize("preset", ["small", "congested"])
def test_car_times_are_exact_telescoped_sums(preset):
    # where every duration of a trip is its event times' exact difference,
    # the durations telescope and the car time is their rounded exact sum
    for sim in preset_runs(preset):
        t = [Fraction(v) for v in sim.times.tolist()]
        exact = [e > 0 and Fraction(d) == t[e] - t[e - 1]
                 for e, d in enumerate(sim.durations.tolist())]
        checked = 0
        for i in range(sim.scenario.n):
            a, b = int(sim.entry_index[i]) + 1, int(sim.exit_index[i]) + 1
            if all(exact[a:b]):
                want = float(sum(Fraction(d) for d in sim.durations[a:b].tolist()))
                assert sim.car_times[i] == want, i
                checked += 1
        assert checked >= 0.9 * sim.scenario.n


# sha256 over the dtype and bytes of every SimResult array, in SIM_FIELDS
# order, at generator seed 0; a change to the event loop that moves any bit
# of any array breaks these.  car_times, exit minus entry, is pinned on its
# own, so a change to how it is rounded shows apart from the event loop's
# arrays
SIM_FIELDS = ("times", "kinds", "event_groups", "n_after", "v_after", "durations",
              "entry_index", "exit_index")
# the SimResult arrays simulate leaves to be built on first read
LAZY_FIELDS = ("kinds", "event_groups", "v_after", "durations")
SIM_DIGESTS = {
    ("small", "random"): "4acc7ff9c531f206920d7f088d259fe0593915935580cf09bb0b92740615b960",
    ("small", "zeros"): "790d825c2fe058d2b56727159ef20d67be96fc603bd01e05af22b9716628fb49",
    ("small", "ones"): "f7369f96bef25c78ac99bfc7486aca389a6bdbad67593d66186b0635d546a27c",
    ("congested", "random"): "fa18cc746f6831643d7626cb5f72a489b1b9761639dde619489ca65600741477",
    ("congested", "zeros"): "bacb22da300983f0159f0980a41722c6a88691e004cfb6478984ec209e88c64d",
    ("congested", "ones"): "fa6a4fbf0e0fbe555fb106707309d205ad744b24ec0a8ac3c3a8c560125e4e38",
    ("citywide", "random"): "e1172a02eb75579cc534faee3d3f17210db93e7b81478f5d1c655c0cddfac412",
    ("citywide", "zeros"): "d48507aa08194f0ee34a5894297bc2b0f6e178abfee623e5f0d559928ee14034",
    ("citywide", "ones"): "00b349aa864258a6299982885d69d50c5458df36b2325d16ee54e44a9b1fa833",
    ("congested-piecewise", "random"):
        "70665edd71794029c482aa323b9a3d2760a1a67a16281236d168ae38e22b05a6",
    ("congested-piecewise", "zeros"):
        "bacb22da300983f0159f0980a41722c6a88691e004cfb6478984ec209e88c64d",
    ("congested-piecewise", "ones"):
        "de29feba653867b28e9ae529ab359798b9c8286fa64244df3582c9eb8fcbbddd",
    ("congested-constant", "random"):
        "4589fd4c8a6c6b411a65e3d78e955f9fb6edcf5f0ff4301647451b2269969b5d",
    ("congested-constant", "zeros"):
        "06741c3db3f8c4d6b3da5f9490a257f38bcbdb6c950613326351d5bbb9e7e8f5",
    ("congested-constant", "ones"):
        "de27b21c4b11071fa5b72abeeebc19243fe2143957f4bd8346710d332551920f",
}
CAR_TIME_DIGESTS = {
    ("small", "random"): "444da80b2b08547bd7cf0e335aa6c47f5d62853a0ddfc0c22c7162f9e5b8d220",
    ("small", "zeros"): "73aca5be547bec4817699d9b58ea6b6072dd9fad9b4e297cf19b90b3801465c1",
    ("small", "ones"): "7f906309ac9d2c55f17949b86bd4d1b470cb8fa7de56851a2f2e08a4bd3ee00e",
    ("congested", "random"): "65c0349a414acad65d8d67384e9634dd7c5a2b11d3f250a554ac7e996ebaf81a",
    ("congested", "zeros"): "8cbd45c78f348ffdc923a123b9a665336862107120d57720471bb9ea23159420",
    ("congested", "ones"): "169dc6cffb1737e82580c53928e503ca098fb48d54ff36bc9f4c07d81bd8256d",
    ("citywide", "random"): "c6cd8d530623fc3a0697b231e86de916979d70568c32495713584f05bc0d9627",
    ("citywide", "zeros"): "249cf6861cf1c5f48637198b03dbee921278d6307bca4e1956d1928bf405a01b",
    ("citywide", "ones"): "4c7e21eefc0ff64092a012f1da12f5f6c4180b10669f808253ecb3d1fd5f3e88",
    ("congested-piecewise", "random"):
        "558d5b024d7b1528122853cb4e17c4dda3d93e48bd8b30da0b35bd1c3b42f09f",
    ("congested-piecewise", "zeros"):
        "8cbd45c78f348ffdc923a123b9a665336862107120d57720471bb9ea23159420",
    ("congested-piecewise", "ones"):
        "b622d4f48bdc8929145e7eb28c35f9e2dda7cf94bb03106b9e438fae5e0c2e71",
    ("congested-constant", "random"):
        "72916f85e1bfda714e89f6e6089d4ccc50410995dc66ecefbc1039c539d818b1",
    ("congested-constant", "zeros"):
        "72916f85e1bfda714e89f6e6089d4ccc50410995dc66ecefbc1039c539d818b1",
    ("congested-constant", "ones"):
        "72916f85e1bfda714e89f6e6089d4ccc50410995dc66ecefbc1039c539d818b1",
}


def digest(sim, fields):
    h = hashlib.sha256()
    for field in fields:
        a = getattr(sim, field)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# curves no preset uses, each swapped into the congested preset (digests
# recorded before the event loop inlined its compensated sums): all-one
# shares drive the piecewise curve past its last breakpoint, where it holds
# 1.5 m/s, and the flat curve gives every period the same speed
CURVES = {
    "congested-piecewise": MfdCurve.piecewise_linear(
        [(0.0, 15.0), (1000.0, 11.0), (3000.0, 4.0), (6000.0, 1.5)]),
    "congested-constant": MfdCurve.constant(9.0),
}


@pytest.mark.parametrize("preset", ["small", "congested", "citywide", *CURVES])
def test_simulate_bits_pinned(preset):
    sc = generate_synthetic(0, preset_spec(preset.split("-")[0]))
    if preset in CURVES:
        sc = dataclasses.replace(sc, mfd=CURVES[preset])
    xs = {"random": np.random.default_rng(0).random(sc.n),
          "zeros": np.zeros(sc.n), "ones": np.ones(sc.n)}
    for name, x in xs.items():
        sim = simulate(sc, x)
        assert digest(sim, ("car_times",)) == CAR_TIME_DIGESTS[preset, name], name
        # the event record past the times, the accumulations and the
        # indices is built on first read, and then holds the pinned bits
        assert not set(LAZY_FIELDS) & set(vars(sim)), name
        assert digest(sim, SIM_FIELDS) == SIM_DIGESTS[preset, name], name
        assert set(LAZY_FIELDS) <= set(vars(sim)), name


def test_scenario_copies_do_not_reuse_a_stale_entry_plan(monkeypatch):
    # simulate binds the entry order, trip lengths and horizon once per
    # scenario; every way of deriving a scenario must simulate as one built
    # from scratch
    sc = generate_synthetic(0, preset_spec("small"))
    x = np.random.default_rng(1).random(sc.n)
    simulate(sc, x)
    curve = MfdCurve.piecewise_linear([(0.0, 12.0), (500.0, 4.0)], v_floor=0.5)

    def fresh(mfd):
        return Scenario(sc.gammas.copy(), sc.departs.copy(), sc.trip_lens.copy(),
                        sc.pt_times.copy(), mfd, dict(sc.meta))

    fields = (*SIM_FIELDS, "car_times")
    for got, want in [(dataclasses.replace(sc, mfd=curve), fresh(curve)),
                      (copy.deepcopy(sc), fresh(sc.mfd)),
                      (pickle.loads(pickle.dumps(sc)), fresh(sc.mfd))]:
        assert digest(simulate(got, x), fields) == digest(simulate(want, x), fields)

    # a crawling curve overruns any horizon; the message names the horizon of
    # the scenario simulated, which a smaller floor widens
    monkeypatch.setattr(MfdCurve, "_scalar_speed", property(lambda self: lambda n: 1e-6))
    slower = dataclasses.replace(sc, mfd=curve)
    for scenario in (sc, slower):
        horizon = scenario.departs.max() + 10.0 * scenario.trip_lens.max() / scenario.mfd.v_floor
        with pytest.raises(HorizonError, match=rf"sanity horizon {horizon:.1f}s"):
            simulate(scenario, x)
    assert slower.mfd.v_floor < sc.mfd.v_floor
