"""The linearization in event order against the dense id-ordered one.

``travel_time_gradient`` writes its array in event order (rows by exit,
the price column first, shares by entry), where each row is exactly zero
past its extent, and the solver keeps that order through the logit
Jacobian, G and the QP.  An id-ordered dense ``grad_psi`` is the identity
layout with full extents, the order the solver takes once ``dT`` has been
read.  Both must give the same QP up to the permutation and the same
solves up to the order of summation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcsmfd.equilibrium
from tcsmfd import (
    TcsParams,
    build_qp,
    equilibrium_solve,
    generate_synthetic,
    logit_choice,
    logit_gradient,
    preset_spec,
    simulate,
    travel_time_gradient,
)
from tcsmfd.equilibrium import _logit_in_place

from conftest import make_scenario, small_random_scenario
from test_gradient_reference import MFD_FORMS


def own_columns(layout):
    """The column of each row's own share."""
    column = np.empty(len(layout.cols), dtype=np.intp)
    column[layout.cols] = np.arange(len(layout.cols))
    return column[layout.rows]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 14),
    xseed=st.integers(0, 10_000),
    form=st.sampled_from(["default", "constant", "greenshields", "piecewise"]),
    ties=st.booleans(),
)
def test_rows_are_zero_past_their_extents(seed, n, xseed, form, ties):
    sc = small_random_scenario(seed, n_groups=n)
    if ties:  # departures on a coarse grid: equal instants, zero-length periods
        sc = make_scenario([(g.gamma, 600.0 * round(g.depart / 600.0), g.trip_len, g.pt_time)
                            for g in sc.groups], mfd=sc.mfd)
    rng = np.random.default_rng(xseed)
    x = rng.uniform(0.0, 1.0, n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = 1.0
    if form != "default":
        peak = max(float(simulate(sc, x).n_after.max()), 1.0)
        sc = make_scenario([(g.gamma, g.depart, g.trip_len, g.pt_time) for g in sc.groups],
                           mfd=MFD_FORMS[form](peak))
    sim = simulate(sc, x)
    gm = travel_time_gradient(sc, sim)
    layout, storage = gm.layout, gm.storage

    assert layout.price_first and layout.cols[0] == n
    assert sorted(layout.rows.tolist()) == sorted(layout.cols[1:].tolist()) == list(range(n))
    assert np.all(np.diff(layout.extents) >= 0) and layout.extents[-1] == n + 1
    past = np.arange(n + 1)[None, :] >= layout.extents[:, None]
    assert np.all(storage[past] == 0.0) and not np.any(np.signbit(storage[past]))
    # the -1 of G = grad_psi - I lands inside its row's extent
    assert np.all(own_columns(layout) < layout.extents)
    # the price column is left for the logit Jacobian
    assert not np.any(storage[:, 0])


@pytest.fixture(scope="module")
def congested():
    return generate_synthetic(0, preset_spec("congested"))


def linearizations(scenario, x, p, params, tcs):
    """The QP of one point built in event order and from a dense id-ordered
    ``grad_psi``."""
    sim = simulate(scenario, x)
    psi = logit_choice(sim.car_times, scenario.pt_times, p, params)
    gm = travel_time_gradient(scenario, sim)
    layout = gm.layout
    grad = _logit_in_place(psi, gm.storage, layout, params)
    event = build_qp(x, p, psi, grad, scenario.gammas, params, 2, tcs=tcs, layout=layout)
    dense = logit_gradient(psi, travel_time_gradient(scenario, sim).dT, params)
    ids = build_qp(x, p, psi, dense, scenario.gammas, params, 2, tcs=tcs)
    return event, ids


def assert_close(a, b, rtol=1e-13):
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("tcs", [True, False])
def test_build_qp_is_the_dense_assembly_permuted(congested, tcs):
    params = TcsParams()
    n = congested.n
    x = np.random.default_rng(7).uniform(0.2, 0.6, n)
    event, ids = linearizations(congested, x, 0.006, params, tcs)
    coords = event.coords
    m = n + 1 if tcs else n
    assert sorted(coords.tolist()) == list(range(m))
    assert ids.coords.tolist() == list(range(m))
    assert_close(event.q, ids.q[coords])
    # the bounds and the cap row are the same numbers, moved
    assert event.lower.tobytes() == ids.lower[coords].tobytes()
    assert event.upper.tobytes() == ids.upper[coords].tobytes()
    if tcs:
        assert event.cap_coeffs.tobytes() == ids.cap_coeffs[coords].tobytes()
        assert event.cap_rhs == ids.cap_rhs
    else:
        assert event.cap_coeffs is None and ids.cap_coeffs is None
    assert_close(event.P.diagonal(), ids.P.diagonal()[coords])
    rng = np.random.default_rng(3)
    for v in list(np.eye(m)[::11]) + list(rng.normal(size=(4, m))):
        assert_close(event.P @ v, (ids.P @ event.step(v))[coords])
    z = rng.normal(size=m)
    assert event.step(z)[coords].tobytes() == z.tobytes()


def dense_path(monkeypatch):
    """Make the solver take the identity layout: its gradient has had dT
    read, as a caller that reads it leaves it."""
    gradient = tcsmfd.equilibrium.travel_time_gradient

    def read_dT(scenario, sim):
        gm = gradient(scenario, sim)
        gm.dT
        return gm

    monkeypatch.setattr(tcsmfd.equilibrium, "travel_time_gradient", read_dT)


@pytest.mark.parametrize("preset", ["congested", "citywide"])
def test_solve_matches_the_dense_path(preset, monkeypatch):
    scenario = generate_synthetic(0, preset_spec(preset))
    params = TcsParams()
    event = equilibrium_solve(scenario, params)
    dense_path(monkeypatch)
    dense = equilibrium_solve(scenario, params)
    assert event.converged and dense.converged
    assert event.iterations == dense.iterations
    assert event.qp_iterations == dense.qp_iterations
    assert event.cg_iterations == dense.cg_iterations
    assert np.max(np.abs(event.state.x - dense.state.x)) <= 1e-12
    assert abs(event.state.p - dense.state.p) <= 1e-12


def test_solver_calls_the_module_names_once_per_step(monkeypatch):
    # perfbench's tracer replaces these names in tcsmfd.equilibrium: the
    # solver must call them there, once per outer iteration that steps
    calls = {}
    for name in ("travel_time_gradient", "build_qp", "solve_qp"):
        fn = getattr(tcsmfd.equilibrium, name)
        assert fn is getattr(tcsmfd, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(tcsmfd.equilibrium, name, counted)
    scenario = generate_synthetic(0, preset_spec("small"))
    rep = equilibrium_solve(scenario, TcsParams())
    steps = len(rep.qp_iterations)
    assert rep.converged and steps >= 2
    assert calls == {"travel_time_gradient": steps, "build_qp": steps, "solve_qp": steps}
