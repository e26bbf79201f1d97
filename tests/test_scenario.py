import copy
import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import (
    GeneratorSpec,
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

    @pytest.mark.parametrize("make, message", [
        (lambda: MfdCurve.piecewise_linear([]), r"at least one \(n, v\) point"),
        (lambda: MfdCurve.piecewise_linear([(0.0, 9.0), (0.0, 5.0)]),
         "accumulation grid must be strictly increasing"),
        (lambda: MfdCurve("cubic", ()), "unknown MFD form 'cubic'"),
        (lambda: MfdCurve.greenshields(15.0, 100.0, 0.0), "v_floor must be finite and > 0"),
        (lambda: MfdCurve.greenshields(15.0, 100.0, math.nan), "v_floor must be finite"),
        (lambda: MfdCurve.tabulated([(0.0, 9.0)]), "tabulated form needs at least two samples"),
    ])
    def test_malformed_curve_names_the_rule(self, make, message):
        with pytest.raises(ScenarioError, match=message):
            make()

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

    @pytest.mark.parametrize("make", [
        lambda: MfdCurve.piecewise_linear([(0.0, 10.0), (100.0, math.nan)]),
        lambda: MfdCurve.piecewise_linear([(0.0, math.inf), (100.0, 5.0)]),
        lambda: MfdCurve.tabulated([(0.0, 10.0), (50.0, math.nan), (100.0, 2.0)]),
        lambda: MfdCurve.greenshields(math.inf, 100.0),
        lambda: MfdCurve.greenshields(15.0, math.inf),
        lambda: MfdCurve.greenshields(math.nan, 100.0),
        lambda: MfdCurve("tabulated", ((0.0, 10.0), (50.0, math.nan), (100.0, 2.0))),
    ])
    def test_non_finite_parameters_rejected(self, make):
        # a tabulated NaN sample once failed only at the first speed call
        with pytest.raises(ScenarioError, match="finite"):
            make()

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

    def test_kappa_above_tau_rejected(self):
        with pytest.raises(ValueError):
            TcsParams(kappa=300.0, tau=200.0)

    @pytest.mark.parametrize("changes, message", [
        # kappa = 0 <= tau passes the allowance check, so tau is named
        ({"tau": 0.0, "kappa": 0.0}, "^tau must be > 0$"),
        ({"max_iters": 0}, "^max_iters must be >= 1$"),
        ({"cap_constraint": "flat"}, "^cap_constraint must be 'gamma-weighted' or 'printed'$"),
    ])
    def test_out_of_range_values_name_the_field(self, changes, message):
        with pytest.raises(ScenarioError, match=message):
            TcsParams(**changes)

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


GROUP = {"id": 0, "gamma": 10.0, "depart_s": 0.0, "trip_len_m": 1000.0, "pt_time_s": 300.0}


def scenario_doc(**changes):
    """A valid one-group scenario document with ``changes`` applied."""
    doc = {
        "mfd": {"form": "greenshields", "v_free_ms": 15.0, "n_jam_veh": 5000.0,
                "v_floor_ms": 1.0},
        "groups": [dict(GROUP)],
        "meta": {},
    }
    doc.update(changes)
    return doc


def columns(n=1, **changes):
    """Valid keyword arrays of an n-group Scenario, ``changes`` applied."""
    cols = dict(gammas=[10.0] * n, departs=[0.0] * n, trip_lens=[500.0] * n,
                pt_times=[100.0] * n)
    cols.update(changes)
    return cols


class TestScenarioValidation:
    def test_bad_group_values(self):
        # the first bad group is named, with its first bad value in the
        # order gamma, trip_len, pt_time, depart
        mfd = MfdCurve.constant(8.0)
        for changes, message in [
            ({"gammas": [-5.0]}, "group 0: gamma must be finite and > 0"),
            ({"trip_lens": [-500.0]}, "group 0: trip_len must be finite and > 0"),
            ({"pt_times": [0.0]}, "group 0: pt_time must be finite and > 0"),
            ({"departs": [-1.0]}, "group 0: depart must be finite and >= 0"),
            ({"departs": [np.inf]}, "group 0: depart must be finite and >= 0"),
            ({"gammas": [np.nan]}, "group 0: gamma must be finite and > 0"),
            ({"gammas": [5.0, 5.0, -1.0], "departs": [0.0, -1.0, 0.0],
              "trip_lens": [1.0, 1.0, 0.0], "pt_times": [1.0, 1.0, 1.0]},
             "group 1: depart must be finite and >= 0"),
            ({"gammas": [5.0, 5.0], "departs": [0.0, -1.0], "trip_lens": [1.0, 0.0],
              "pt_times": [1.0, 0.0]}, "group 1: trip_len must be finite and > 0"),
        ]:
            with pytest.raises(ScenarioError, match=f"^{message}$"):
                Scenario(**columns(**changes), mfd=mfd)

    def test_ids_must_be_contiguous(self, tmp_path):
        path = tmp_path / "bad.json"
        for ids in ([0, 2], [0, 0], [1, 2]):
            doc = scenario_doc(groups=[dict(GROUP, id=i) for i in ids])
            path.write_text(json.dumps(doc))
            with pytest.raises(ScenarioError, match="unique and contiguous from 0"):
                load_scenario(path)

    def test_sorts_groups_by_id(self, tmp_path):
        # group i is the record of id i, whatever the records' order
        doc = scenario_doc(groups=[dict(GROUP, id=i, gamma=float(10 + i), depart_s=float(i))
                                   for i in (2, 0, 1)])
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        np.testing.assert_array_equal(sc.gammas, [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(sc.departs, [0.0, 1.0, 2.0])
        assert [g["id"] for g in json.loads(scenario_to_text(sc))["groups"]] == [0, 1, 2]

    def test_no_groups(self):
        with pytest.raises(ScenarioError, match="^scenario has no groups$"):
            Scenario(**columns(0), mfd=MfdCurve.constant(8.0))

    @pytest.mark.parametrize("changes", [
        {"pt_times": [100.0, 100.0, 100.0]},
        {"gammas": [10.0]},
        {"departs": [[0.0, 0.0]]},
        {"gammas": 10.0, "departs": 0.0, "trip_lens": 500.0, "pt_times": 100.0},
    ])
    def test_arrays_must_be_one_dimensional_of_equal_length(self, changes):
        with pytest.raises(ScenarioError, match="one-dimensional and of equal length"):
            Scenario(**columns(2, **changes), mfd=MfdCurve.constant(8.0))

    def test_arrays_are_read_only_copies(self):
        source = {k: np.array(v) for k, v in columns(3).items()}
        sc = Scenario(**source, mfd=MfdCurve.constant(8.0))
        swapped = dataclasses.replace(sc, mfd=MfdCurve.constant(6.0))
        for attr, col in source.items():
            for scenario in (sc, swapped):
                arr = getattr(scenario, attr)
                assert arr.dtype == float and not arr.flags.writeable
                assert not np.shares_memory(arr, col)
                with pytest.raises(ValueError):
                    arr[0] = 1.0
            col[0] = 7.0
            assert getattr(sc, attr)[0] != 7.0
        text = scenario_to_text(sc)
        with pytest.raises(ValueError):
            sc.gammas *= 3
        assert scenario_to_text(sc) == text

    def test_meta_is_a_read_only_copy(self, tmp_path):
        labels = {"preset": "small", "generator_seed": 0}
        sc = Scenario(**columns(3), mfd=MfdCurve.constant(8.0), meta=labels)
        text = scenario_to_text(sc)
        save_scenario(sc, tmp_path / "before.json")
        labels["generator_seed"] = 99
        labels["extra"] = 1
        assert dict(sc.meta) == {"preset": "small", "generator_seed": 0}
        assert scenario_to_text(sc) == text
        save_scenario(sc, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
        with pytest.raises(TypeError):
            sc.meta["generator_seed"] = 99
        swapped = dataclasses.replace(sc, mfd=MfdCurve.constant(6.0))
        assert dict(swapped.meta) == dict(sc.meta)
        with pytest.raises(TypeError):
            swapped.meta["extra"] = 1

    @pytest.mark.parametrize("how", ["deepcopy", "copy", "pickle"])
    def test_copy_and_pickle_keep_the_rules(self, how):
        sc = generate_synthetic(0, preset_spec("small"))
        clone = {"deepcopy": copy.deepcopy, "copy": copy.copy,
                 "pickle": lambda s: pickle.loads(pickle.dumps(s))}[how](sc)
        assert isinstance(clone, Scenario) and clone is not sc
        for attr in ("gammas", "departs", "trip_lens", "pt_times"):
            arr = getattr(clone, attr)
            assert not arr.flags.writeable
            assert arr.tobytes() == getattr(sc, attr).tobytes()
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(TypeError):
            clone.meta["generator_seed"] = 99
        assert scenario_to_text(clone) == scenario_to_text(sc)


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
        # non-finite values, which once loaded and gave NaN car times
        pytest.param(scenario_doc(mfd={"form": "piecewise_linear",
                                       "breakpoints_n_v": [[0, 10], [100, math.nan]]}),
                     r"mfd 'breakpoints_n_v'\[1\] must be a finite number", id="nan-breakpoint"),
        pytest.param(scenario_doc(mfd={"form": "piecewise_linear",
                                       "breakpoints_n_v": [[0, 10], [math.inf, 5]]}),
                     r"mfd 'breakpoints_n_v'\[1\] must be a finite number", id="inf-breakpoint"),
        pytest.param(scenario_doc(mfd={"form": "tabulated",
                                       "samples_n_v": [[0, 10], [50, 6], [100, math.nan]]}),
                     r"mfd 'samples_n_v'\[2\] must be a finite number", id="nan-sample"),
        pytest.param(scenario_doc(mfd={"form": "greenshields", "v_free_ms": math.inf,
                                       "n_jam_veh": 5.0}),
                     "mfd 'v_free_ms' must be a finite number", id="inf-v_free"),
        pytest.param(scenario_doc(mfd={"form": "greenshields", "v_free_ms": 15.0,
                                       "n_jam_veh": math.inf}),
                     "mfd 'n_jam_veh' must be a finite number", id="inf-n_jam"),
        pytest.param(scenario_doc(mfd={"form": "greenshields", "v_free_ms": 15.0,
                                       "n_jam_veh": 5.0, "v_floor_ms": -math.inf}),
                     "mfd 'v_floor_ms' must be a finite number", id="inf-v_floor"),
        # JSON booleans and strings, which once read as numbers
        pytest.param(scenario_doc(groups=[dict(GROUP, id=True)]),
                     r"groups\[0\]: id must be an integer, got True", id="bool-id"),
        pytest.param(scenario_doc(groups=[dict(GROUP, gamma="7")]),
                     r"groups\[0\]: gamma must be a finite number, got '7'", id="str-gamma"),
        pytest.param(scenario_doc(groups=[dict(GROUP, pt_time_s=False)]),
                     r"groups\[0\]: pt_time_s must be a finite number", id="bool-pt_time"),
        pytest.param(scenario_doc(mfd={"form": "greenshields", "v_free_ms": "15",
                                       "n_jam_veh": 5.0}),
                     "mfd 'v_free_ms' must be a finite number, got '15'", id="str-v_free"),
        pytest.param(scenario_doc(mfd={"form": "greenshields", "v_free_ms": 15.0,
                                       "n_jam_veh": 5.0, "v_floor_ms": True}),
                     "mfd 'v_floor_ms' must be a finite number, got True", id="bool-v_floor"),
        pytest.param(scenario_doc(mfd={"form": "piecewise_linear",
                                       "breakpoints_n_v": [[0, 10], ["100", 5]]}),
                     r"mfd 'breakpoints_n_v'\[1\] must be a finite number", id="str-breakpoint"),
        # a document, a group record or a block of the wrong kind, and an mfd
        # block without its form tag or the form's parameters
        pytest.param([scenario_doc()], "scenario document must be a JSON object",
                     id="list-document"),
        pytest.param(scenario_doc(groups=[5]), r"groups\[0\] is not an object", id="int-group"),
        pytest.param(scenario_doc(meta=["label"]), "meta must be an object", id="list-meta"),
        pytest.param(scenario_doc(mfd={"v_free_ms": 15.0, "n_jam_veh": 5.0}),
                     "mfd block is missing the 'form' tag", id="no-form"),
        pytest.param(scenario_doc(mfd={"form": "greenshields", "v_free_ms": 15.0}),
                     "greenshields mfd is missing 'n_jam_veh'", id="no-n_jam"),
        pytest.param(scenario_doc(mfd={"form": "cubic"}), "unknown MFD form 'cubic'",
                     id="unknown-form"),
        pytest.param(scenario_doc(mfd={"form": "tabulated"}), "tabulated mfd needs 'samples_n_v'",
                     id="no-samples"),
    ])
    def test_names_the_key(self, tmp_path, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=key):
            load_scenario(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mfd": {"form": "greenshields",')
        with pytest.raises(ScenarioError, match="^scenario file is not valid JSON: "):
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
        assert load_scenario(path).gammas.tolist() == [GROUP["gamma"]]

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

    @pytest.mark.parametrize("preset, digest", [
        ("small", "ac62b204f022efae44482893a6a2d1243f1a8520dde6f4093ed971a66b89b8b2"),
        ("congested", "f7c53e7cf2de7e6c163f35b0a6eaa74e4ee1e98e9d158252a16acd78ef9af4c7"),
        ("citywide", "956850b759924547f543875c0830a5f32ef672ef67f9df5a7cf03c213d45a970"),
    ])
    def test_pinned_text(self, preset, digest):
        # the saved bytes of each preset, and with them every manifest's hash
        text = scenario_to_text(generate_synthetic(0, preset_spec(preset)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

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


SPEC = dict(n_groups=4, total_travelers=10, max_group_size=5, depart_window=(0.0, 100.0),
            n_subwindows=2, trip_len_range=(100.0, 200.0))


@pytest.mark.parametrize("changes, message", [
    ({"depart_window": (100.0, 100.0)}, "^depart_window is empty$"),
    ({"trip_len_range": (0.0, 200.0)}, "^trip_len_range is empty or non-positive$"),
    ({"n_subwindows": 0}, "^n_subwindows and n_od_classes must be >= 1$"),
    ({"n_od_classes": 0}, "^n_subwindows and n_od_classes must be >= 1$"),
    ({"frac_boundary": 1.5}, r"^frac_boundary must be in \[0, 1\]$"),
    ({"pt_speed_boundary": 0.0}, "^pt_speed_boundary must be > 0$"),
    ({"pt_ratio_range": (1.6, 0.8)}, "^pt_ratio_range is empty or non-positive$"),
])
def test_spec_ranges_name_the_field(changes, message):
    GeneratorSpec(**SPEC)
    with pytest.raises(ScenarioError, match=message):
        GeneratorSpec(**{**SPEC, **changes})


def test_partition_that_cannot_fit_raises():
    # more travelers than the groups hold: every size sits at the bound
    with pytest.raises(ScenarioError, match="^could not partition travelers under "
                                            "max_group_size$"):
        _partition_travelers(100, 2, 10, np.random.default_rng(0))


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
