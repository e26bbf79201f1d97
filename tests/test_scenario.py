import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import (
    GeneratorSpec,
    Group,
    MfdCurve,
    Scenario,
    ScenarioError,
    TcsParams,
    generate_synthetic,
    load_scenario,
    preset_spec,
    save_scenario,
)
from tcsmfd.scenario import PRESETS, _partition_travelers, scenario_to_text


class TestMfdCurve:
    def test_greenshields_values(self):
        # v = 15 (1 - n/1000): hand values
        mfd = MfdCurve.greenshields(15.0, 1000.0)
        assert mfd.speed(0.0) == 15.0
        assert mfd.speed(100.0) == pytest.approx(13.5)
        assert mfd.dspeed(100.0) == pytest.approx(-0.015)

    def test_floor_clamps_speed_and_kills_slope(self):
        mfd = MfdCurve.greenshields(15.0, 1000.0, v_floor=2.0)
        assert mfd.speed(5000.0) == 2.0
        assert mfd.dspeed(5000.0) == 0.0

    def test_piecewise_interpolation(self):
        mfd = MfdCurve.piecewise_linear([(0.0, 12.0), (100.0, 8.0), (300.0, 2.0)])
        assert mfd.speed(0.0) == 12.0
        assert mfd.speed(50.0) == pytest.approx(10.0)
        assert mfd.speed(200.0) == pytest.approx(5.0)
        assert mfd.dspeed(50.0) == pytest.approx(-0.04)
        assert mfd.dspeed(200.0) == pytest.approx(-0.03)
        # beyond the last breakpoint the curve is flat
        assert mfd.speed(1000.0) == 2.0
        assert mfd.dspeed(1000.0) == 0.0

    def test_piecewise_needs_monotone_input(self):
        with pytest.raises(ScenarioError):
            MfdCurve.piecewise_linear([(0.0, 5.0), (10.0, 9.0)])
        with pytest.raises(ScenarioError):
            MfdCurve.piecewise_linear([(5.0, 9.0), (10.0, 5.0)])

    def test_constant_curve(self):
        mfd = MfdCurve.constant(7.5)
        for n in (0.0, 10.0, 1e6):
            assert mfd.speed(n) == 7.5
            assert mfd.dspeed(n) == 0.0

    def test_tabulated_monotone(self):
        samples = [(0.0, 14.0), (200.0, 11.0), (500.0, 6.0), (900.0, 1.5)]
        mfd = MfdCurve.tabulated(samples)
        ns = np.linspace(0, 900, 200)
        vs = np.array([mfd.speed(n) for n in ns])
        assert np.all(np.diff(vs) <= 1e-12)
        for n, v in samples:
            assert mfd.speed(n) == pytest.approx(v)

    def test_dict_round_trip(self):
        curves = [
            MfdCurve.greenshields(15.0, 800.0),
            MfdCurve.piecewise_linear([(0.0, 10.0), (50.0, 4.0)]),
            MfdCurve.tabulated([(0.0, 9.0), (30.0, 7.0), (90.0, 2.0)]),
            MfdCurve.constant(6.0),
        ]
        for c in curves:
            c2 = MfdCurve.from_dict(c.to_dict())
            for n in (0.0, 20.0, 45.0):
                assert c2.speed(n) == pytest.approx(c.speed(n), abs=1e-12)


# Each curve is sampled inside and past its range: the floor of 2 m/s is
# active past n = 1733 (greenshields), 675 (piecewise) and 678 (tabulated),
# and the last two curves are held flat beyond n = 800 and 900.
SCALAR_CURVES = {
    "greenshields": MfdCurve.greenshields(15.0, 2000.0, v_floor=2.0),
    "piecewise": MfdCurve.piecewise_linear(
        [(0.0, 12.0), (100.0, 8.0), (300.0, 5.0), (800.0, 1.0)], v_floor=2.0
    ),
    "tabulated": MfdCurve.tabulated(
        [(0.0, 14.0), (200.0, 11.0), (500.0, 3.0), (900.0, 1.5)], v_floor=2.0
    ),
}
SCALAR_POINTS = np.concatenate(
    [[0.0, -0.0, 1e-300, 100.0, 300.0, 800.0, 900.0, 5e4, 1e9],
     np.random.default_rng(0).uniform(0.0, 2500.0, 200)]
)


class TestMfdScalarPath:
    @pytest.mark.parametrize("name", sorted(SCALAR_CURVES))
    @pytest.mark.parametrize("method", ["speed", "dspeed"])
    def test_scalar_equals_array_bitwise(self, name, method):
        fn = getattr(SCALAR_CURVES[name], method)
        array = fn(SCALAR_POINTS)
        for k, n in enumerate(SCALAR_POINTS.tolist()):
            got = fn(n)
            assert type(got) is float
            assert np.float64(got).tobytes() == array[k].tobytes(), (n, got, array[k])
            assert np.float64(fn(np.float64(n))).tobytes() == array[k].tobytes()
            if method == "speed":  # simulate's unchecked loop path
                got = SCALAR_CURVES[name]._scalar_speed(n)
                assert np.float64(got).tobytes() == array[k].tobytes(), (n, got, array[k])

    @pytest.mark.parametrize("name", sorted(SCALAR_CURVES))
    def test_points_cover_floor_and_flat_tail(self, name):
        mfd = SCALAR_CURVES[name]
        floored = mfd.speed(SCALAR_POINTS) == mfd.v_floor
        assert floored.any() and (~floored).any()
        assert mfd.dspeed(1e9) == 0.0

    @pytest.mark.parametrize("name", sorted(SCALAR_CURVES))
    @pytest.mark.parametrize("method", ["speed", "dspeed"])
    @pytest.mark.parametrize("bad", [-1e-12, -5.0, float("nan"), float("inf")])
    def test_scalar_rejects_bad_accumulation(self, name, method, bad):
        with pytest.raises(ValueError):
            getattr(SCALAR_CURVES[name], method)(bad)


class TestParams:
    def test_defaults_valid(self):
        p = TcsParams()
        assert p.kappa <= p.tau
        assert p.alpha_eur_per_h == pytest.approx(10.8)

    def test_kappa_above_tau_rejected(self):
        with pytest.raises(ValueError):
            TcsParams(kappa=300.0, tau=200.0)

    def test_kappa_equal_tau_allowed(self):
        p = TcsParams(kappa=200.0, tau=200.0)
        assert p.kappa == p.tau

    def test_negative_rejected(self):
        for field, bad in [("alpha", -1.0), ("theta", -0.5), ("eta", -2.0), ("kappa", -1.0)]:
            with pytest.raises(ValueError):
                TcsParams(**{field: bad})

    @pytest.mark.parametrize("field", ["p0", "gamma_emission", "p_carbon"])
    @pytest.mark.parametrize("bad", [float("nan"), -1e-3])
    def test_prices_must_be_non_negative(self, field, bad):
        # a NaN price fails every comparison, so `< 0` alone would let it in
        with pytest.raises(ScenarioError, match=f"^{field} must be >= 0$"):
            TcsParams(**{field: bad})

    @pytest.mark.parametrize("field", ["alpha", "theta", "eta", "j_goal", "kappa", "tau",
                                       "p0", "gamma_emission", "p_carbon"])
    def test_infinite_values_rejected(self, field):
        # +inf passes every sign check; theta = inf would stall the solver
        kw = {field: float("inf")}
        if field == "kappa":
            kw["tau"] = float("inf")   # keep kappa <= tau, so kappa is named first
        with pytest.raises(ScenarioError, match=f"^{field} must be finite$"):
            TcsParams(**kw)

    def test_eps_schedule(self):
        p = TcsParams()
        assert p.eps_value(1) == 1.0
        assert p.eps_value(4) == 0.25
        pc = TcsParams(eps_schedule="const:0.2")
        assert pc.eps_value(1) == pc.eps_value(9) == 0.2
        with pytest.raises(ValueError):
            TcsParams(eps_schedule="linear")


class TestScenarioValidation:
    def test_ids_must_be_contiguous(self):
        mfd = MfdCurve.constant(8.0)
        g = lambda i: Group(id=i, gamma=10.0, depart=0.0, trip_len=500.0, pt_time=100.0)
        with pytest.raises(ScenarioError):
            Scenario(groups=(g(0), g(2)), mfd=mfd, meta={})
        with pytest.raises(ScenarioError):
            Scenario(groups=(g(0), g(0)), mfd=mfd, meta={})

    def test_sorts_groups_by_id(self):
        mfd = MfdCurve.constant(8.0)
        groups = tuple(
            Group(id=i, gamma=float(10 + i), depart=float(i), trip_len=500.0, pt_time=100.0)
            for i in (2, 0, 1)
        )
        sc = Scenario(groups=groups, mfd=mfd, meta={})
        np.testing.assert_array_equal(sc.gammas, [10.0, 11.0, 12.0])

    def test_bad_group_values(self):
        # group checks run when the scenario is assembled
        mfd = MfdCurve.constant(8.0)
        for kw in ({"gamma": -5.0}, {"trip_len": -500.0}, {"pt_time": 0.0},
                   {"depart": -1.0}, {"gamma": float("nan")}):
            fields = dict(id=0, gamma=5.0, depart=0.0, trip_len=500.0, pt_time=100.0)
            fields.update(kw)
            with pytest.raises(ScenarioError):
                Scenario(groups=(Group(**fields),), mfd=mfd, meta={})


class TestIo:
    def test_round_trip(self, tmp_path):
        sc = generate_synthetic(7, preset_spec("small"))
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        sc2 = load_scenario(path)
        np.testing.assert_array_equal(sc.gammas, sc2.gammas)
        np.testing.assert_array_equal(sc.departs, sc2.departs)
        np.testing.assert_array_equal(sc.trip_lens, sc2.trip_lens)
        np.testing.assert_array_equal(sc.pt_times, sc2.pt_times)
        for n in (0.0, 100.0, 900.0):
            assert sc2.mfd.speed(n) == sc.mfd.speed(n)
        assert scenario_to_text(sc) == scenario_to_text(sc2)

    def test_missing_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"groups": []}))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_group_errors_name_the_index(self, tmp_path):
        sc = generate_synthetic(0, preset_spec("small"))
        doc = json.loads(scenario_to_text(sc))
        del doc["groups"][3]["trip_len_m"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="3"):
            load_scenario(path)
        doc = json.loads(scenario_to_text(sc))
        doc["groups"][5]["speed"] = 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="5"):
            load_scenario(path)


def scenario_doc(**changes):
    """A valid one-group scenario document with ``changes`` applied."""
    doc = {
        "mfd": {"form": "greenshields", "v_free_ms": 15.0, "n_jam_veh": 5000.0,
                "v_floor_ms": 1.0},
        "groups": [{"id": 0, "gamma": 10.0, "depart_s": 0.0, "trip_len_m": 1000.0,
                    "pt_time_s": 300.0}],
        "meta": {},
    }
    doc.update(changes)
    return doc


class TestMalformedFiles:
    """Each malformed file raises a ScenarioError that names the key."""

    @pytest.mark.parametrize("doc, key", [
        (scenario_doc(groups=5), "groups"),
        (scenario_doc(mfd=[1, 2]), "mfd"),
        (scenario_doc(mfd={"form": "piecewise_linear", "breakpoints_n_v": 3}),
         "breakpoints_n_v"),
        (scenario_doc(mfd={"form": "piecewise_linear", "breakpoints_n_v": [1, 2]}),
         "breakpoints_n_v"),
        (scenario_doc(mfd={"form": "tabulated", "samples_n_v": 3}), "samples_n_v"),
        (scenario_doc(mfd={"form": "greenshields", "v_free_ms": None, "n_jam_veh": 5.0}),
         "v_free_ms"),
        (scenario_doc(mfd={"form": "greenshields", "v_free_ms": 15.0, "n_jam_veh": 5.0,
                           "v_floor_ms": "slow"}), "v_floor_ms"),
    ])
    def test_names_the_key(self, tmp_path, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=key):
            load_scenario(path)

    @pytest.mark.parametrize("ident", [0.5, "0"])
    def test_non_integral_id_rejected(self, tmp_path, ident):
        doc = scenario_doc()
        doc["groups"][0]["id"] = ident
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"groups\[0\]: id must be an integer"):
            load_scenario(path)

    def test_integral_float_id_accepted(self, tmp_path):
        doc = scenario_doc()
        doc["groups"][0]["id"] = 0.0
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(path).groups[0].id == 0

    def test_infinite_id_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario_doc()).replace('"id": 0', '"id": Infinity'))
        with pytest.raises(ScenarioError, match=r"groups\[0\]"):
            load_scenario(path)


class TestGenerator:
    def test_deterministic(self):
        a = scenario_to_text(generate_synthetic(42, preset_spec("small")))
        b = scenario_to_text(generate_synthetic(42, preset_spec("small")))
        assert a == b
        c = scenario_to_text(generate_synthetic(43, preset_spec("small")))
        assert a != c

    def test_population_exact(self):
        for name in ("small", "congested"):
            spec = preset_spec(name)
            sc = generate_synthetic(1, spec)
            assert sc.n == spec.n_groups
            assert float(sc.gammas.sum()) == spec.total_travelers
            assert sc.gammas.max() <= spec.max_group_size
            assert sc.gammas.min() >= 1

    def test_departs_within_window(self):
        spec = preset_spec("congested")
        sc = generate_synthetic(3, spec)
        assert sc.departs.min() >= spec.depart_window[0]
        assert sc.departs.max() <= spec.depart_window[1]

    def test_boundary_pt_times_exact(self):
        spec = preset_spec("congested")
        sc = generate_synthetic(9, spec)
        ratio = sc.pt_times / sc.trip_lens
        boundary = np.isclose(ratio, 1.0 / spec.pt_speed_boundary, rtol=0, atol=0)
        assert boundary.sum() > 0
        # boundary groups sit in the upper half of the trip length range
        lo, hi = spec.trip_len_range
        assert sc.trip_lens[boundary].min() >= (lo + hi) / 2.0

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="small"):
            preset_spec("enormous")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n_groups=0, total_travelers=10, max_group_size=5,
                          depart_window=(0, 100), n_subwindows=2,
                          trip_len_range=(100, 200))
        with pytest.raises(ValueError):
            GeneratorSpec(n_groups=4, total_travelers=10, max_group_size=1,
                          depart_window=(0, 100), n_subwindows=2,
                          trip_len_range=(100, 200))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),
    total=st.integers(1, 5000),
    seed=st.integers(0, 2**31),
)
def test_partition_exact_total(n, total, seed):
    if total < n:
        return
    cap = max(1, (2 * total) // n)
    sizes = _partition_travelers(total, n, cap, np.random.default_rng(seed))
    assert sizes.sum() == total
    assert len(sizes) == n
    assert sizes.min() >= 1
    assert sizes.max() <= cap


def test_presets_all_instantiate():
    for name in PRESETS:
        spec = preset_spec(name)
        assert spec.n_groups >= 1
    sc = generate_synthetic(0, dataclasses.replace(preset_spec("small"), n_groups=5,
                                                   total_travelers=500))
    assert sc.n == 5
