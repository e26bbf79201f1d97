"""Array-speed travel-time gradient against the frozen per-event loop.

``travel_time_gradient`` keeps gamma on the groups on the road in one
running vector, reads dV/dn from one array ``dspeed`` call and runs the
recursion in reused buffers; ``reference_gradient.travel_time_gradient_reference``
is the per-event loop it replaced.  The rewrite reorders no floating-point
operation, so ``dT`` and both per-event blocks must agree bit for bit.  The
blocks are built on first read; the solver's paths never read them.
"""

import dataclasses
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import (
    MfdCurve,
    TcsParams,
    equilibrium_solve,
    generate_synthetic,
    preset_spec,
    simulate,
    stability_check,
    travel_time_gradient,
)
from tcsmfd import gradients

from conftest import make_scenario, small_random_scenario, three_group_scenario
from reference_gradient import grad_speed, travel_time_gradient_reference
from test_acceptance import GRADIENT_CASES

FIELDS = ("dT", "event_time_grads", "event_speed_grads")


def assert_same_gradient(scenario, x):
    sim = simulate(scenario, x)
    new = travel_time_gradient(scenario, sim)
    ref = travel_time_gradient_reference(scenario, sim)
    for name in FIELDS:
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
    assert new.near_ties == ref.near_ties
    return sim, new


def test_three_group_case():
    sim, _ = assert_same_gradient(three_group_scenario(), np.array([0.5, 0.8, 0.75]))
    assert sim.kinds.tolist() == [0, 0, 1, 0, 1, 1]


@pytest.mark.parametrize("seed,n", GRADIENT_CASES)
def test_c01_scenarios(seed, n):
    sc = small_random_scenario(seed, n_groups=n)
    assert_same_gradient(sc, np.random.default_rng(seed + 1000).uniform(0.2, 0.9, n))


@pytest.fixture(scope="module", params=["small", "congested"])
def preset(request):
    return generate_synthetic(0, preset_spec(request.param))


def share_vector(scenario, shares):
    if shares == "zeros":
        return np.zeros(scenario.n)
    if shares == "ones":
        return np.ones(scenario.n)
    return np.random.default_rng(int(shares[-1])).uniform(0.0, 1.0, scenario.n)


@pytest.mark.parametrize("shares", ["random0", "random1", "random2", "zeros", "ones"])
def test_presets(preset, shares):
    assert_same_gradient(preset, share_vector(preset, shares))


@pytest.mark.parametrize("shares", ["random0", "zeros", "ones"])
def test_speed_rows_match_grad_speed(preset, shares):
    # the production rows against the public per-event definition, without
    # the oracle in between
    sim = simulate(preset, share_vector(preset, shares))
    gm = travel_time_gradient(preset, sim)
    for e in range(sim.n_events):
        assert gm.event_speed_grads[e].tobytes() == grad_speed(preset, sim, e).tobytes(), e


# breakpoints in units of the peak accumulation m under the default curve;
# the 2 m/s floor binds above roughly 0.6 m, so some periods run on the clamp
MFD_FORMS = {
    "greenshields": lambda m: MfdCurve.greenshields(12.0, 0.8 * m, v_floor=2.0),
    "piecewise": lambda m: MfdCurve.piecewise_linear(
        [(0.0, 12.0), (0.2 * m, 8.0), (0.5 * m, 3.0), (0.9 * m, 1.0)], v_floor=2.0
    ),
    "tabulated": lambda m: MfdCurve.tabulated(
        [(0.0, 14.0), (0.3 * m, 10.0), (0.6 * m, 2.5), (m, 1.0)], v_floor=2.0
    ),
    "constant": lambda m: MfdCurve.constant(9.0),
}


@pytest.mark.parametrize("form", sorted(MFD_FORMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shares", ["random0", "zeros", "ones"])
def test_mfd_forms_with_floor(form, seed, shares):
    base = small_random_scenario(seed, n_groups=12)
    x = share_vector(base, shares)
    peak = max(float(simulate(base, x).n_after.max()), 1.0)
    sc = dataclasses.replace(base, mfd=MFD_FORMS[form](peak))
    sim, gm = assert_same_gradient(sc, x)
    if form == "constant":
        assert not np.any(gm.event_speed_grads)
    elif shares != "zeros":
        floored = sc.mfd.speed(sim.n_after) == sc.mfd.v_floor
        assert floored.any() and (~floored).any()


class TestNearTies:
    def test_equal_departures(self):
        sc = make_scenario([(20.0, 0.0, 500.0, 200.0), (15.0, 0.0, 600.0, 250.0)])
        _, gm = assert_same_gradient(sc, np.array([0.7, 0.6]))
        assert gm.near_ties

    def test_equal_departure_and_trip_length(self):
        sc = make_scenario(
            [(40.0, 0.0, 3000.0, 500.0), (30.0, 60.0, 2000.0, 400.0),
             (50.0, 60.0, 2000.0, 400.0)]
        )
        _, gm = assert_same_gradient(sc, np.array([0.7, 0.6, 0.9]))
        assert gm.near_ties

    def test_exit_coincides_with_entries(self):
        # group 0 exits at t = 100 exactly when groups 1 and 2 enter: two
        # zero-length periods in a row, one entry after an exit
        sc = make_scenario(
            [(10.0, 0.0, 800.0, 100.0), (10.0, 100.0, 500.0, 100.0),
             (10.0, 100.0, 300.0, 100.0)],
            mfd=MfdCurve.constant(8.0),
        )
        sim, gm = assert_same_gradient(sc, np.array([1.0, 0.5, 1.0]))
        assert sim.kinds.tolist()[:4] == [0, 1, 0, 0]
        assert gm.near_ties

    def test_zero_length_periods_on_a_sloped_curve(self):
        # ties on a greenshields curve: T_e = 0 against a negative dV/dn
        sc = make_scenario(
            [(30.0, 0.0, 900.0, 400.0), (25.0, 0.0, 900.0, 300.0),
             (10.0, 0.0, 1200.0, 500.0), (15.0, 120.0, 400.0, 200.0)]
        )
        _, gm = assert_same_gradient(sc, np.array([0.4, 0.9, 0.0, 1.0]))
        assert gm.near_ties


@pytest.mark.parametrize("scenario", ["congested", "mid"])
def test_peak_memory_bound(scenario):
    # the call and the blocks' first read may hold their results (dT in its
    # storage of row blocks, whose rows also hold the trips' entry
    # snapshots, and the two blocks) and at most 2 MB more: no 2N x N temporary and
    # no second N x (N+1) array fits (an active mask over all events is
    # 2 MB of bools at N = 1000)
    sc, sim = memory_case(scenario)
    tracemalloc.start()
    try:
        gm = travel_time_gradient(sc, sim)
        returned = gm.storage.nbytes + gm.event_time_grads.nbytes + gm.event_speed_grads.nbytes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= returned + 2 * 2**20


def memory_case(scenario):
    if scenario == "congested":
        sc = generate_synthetic(0, preset_spec("congested"))
    else:
        sc = small_random_scenario(4, n_groups=1000)
    sim = simulate(sc, np.random.default_rng(0).uniform(0.2, 0.9, sc.n))
    return sc, sim


@pytest.mark.parametrize("scenario", ["congested", "mid"])
def test_peak_memory_without_blocks(scenario):
    # the call may hold dT's storage of row blocks, whose rows also hold the
    # trips' entry snapshots, and at most 2 MB more: neither 2N x N
    # per-event block fits
    sc, sim = memory_case(scenario)
    tracemalloc.start()
    try:
        gm = travel_time_gradient(sc, sim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= gm.storage.nbytes + 2 * 2**20


def test_solver_paths_never_build_the_blocks(monkeypatch):
    def refuse(scenario, sim):
        raise AssertionError("per-event blocks built")

    monkeypatch.setattr(gradients, "_per_event_blocks", refuse)
    sc = generate_synthetic(0, preset_spec("small"))
    params = TcsParams()
    assert equilibrium_solve(sc, params, tcs=False).converged
    rep = equilibrium_solve(sc, params)
    assert rep.converged and rep.state.p > 0
    assert stability_check(sc, params, rep.state).eig_converged
    gm = travel_time_gradient(sc, rep.sim)
    with pytest.raises(AssertionError, match="per-event blocks built"):
        gm.event_time_grads


def test_tracer_counts_the_returned_arrays(monkeypatch):
    # perfbench's tracer reads the per-event blocks through the properties;
    # its gradient counts are dT plus the two full 2N x N blocks
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    sc = generate_synthetic(0, preset_spec("small"))
    sim = simulate(sc, np.random.default_rng(0).uniform(0.2, 0.9, sc.n))
    gm = travel_time_gradient(sc, sim)
    counts = tracer._gradient_counts(gm)
    assert counts == {"bytes_computed": gm.dT.nbytes + gm.event_time_grads.nbytes
                      + gm.event_speed_grads.nbytes}
    assert counts["bytes_computed"] == (sc.n + 2 * sim.n_events) * sc.n * 8


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
    assert_same_gradient(sc, x)
