"""The linearization in event order against the dense id-ordered one.

``travel_time_gradient`` writes its linearization in event order (rows by
exit, the price column first, shares by entry), where each row is exactly
zero past its extent, and stores it as blocks of rows each cut at its
widest extent.  The solver keeps that order and those blocks through the
logit Jacobian, G and the QP.  An id-ordered dense ``grad_psi``, its
price column moved first, takes the identity layout with full extents
(``reference_formulas``), whose blocks are row slices of it.
Both must give the same QP up to the permutation and the same solves up
to the order of summation.
"""

import dataclasses

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
    preset_spec,
    simulate,
    travel_time_gradient,
)
from tcsmfd import gradients
from tcsmfd.gradients import _GROW, _ROWS_PER_BLOCK

from conftest import FALLBACK_TAU, hypercongested_scenario, small_random_scenario
from reference_formulas import identity_layout, logit_gradient, price_column_first
from reference_gradient import travel_time_gradient_reference
from test_gradient_reference import MFD_FORMS, memory_case


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
    rows_per_block=st.sampled_from([1, 4, _ROWS_PER_BLOCK]),
    grow=st.sampled_from([1, 3, _GROW]),
)
def test_rows_are_zero_past_their_extents(seed, n, xseed, form, ties, rows_per_block, grow):
    # small blocks and a small growth step put several blocks, and rounded
    # widths short of every column, into a handful of groups
    sc = small_random_scenario(seed, n_groups=n)
    if ties:  # departures on a coarse grid: equal instants, zero-length periods
        sc = dataclasses.replace(sc, departs=600.0 * np.round(sc.departs / 600.0))
    rng = np.random.default_rng(xseed)
    x = rng.uniform(0.0, 1.0, n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = 1.0
    if form != "default":
        peak = max(float(simulate(sc, x).n_after.max()), 1.0)
        sc = dataclasses.replace(sc, mfd=MFD_FORMS[form](peak))
    sim = simulate(sc, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradients, "_ROWS_PER_BLOCK", rows_per_block)
        mp.setattr(gradients, "_GROW", grow)
        gm = travel_time_gradient(sc, sim)
    layout = gm.layout
    assert gm.dT.tobytes() == travel_time_gradient_reference(sc, sim).dT.tobytes()

    assert layout.cols[0] == n
    assert sorted(layout.rows.tolist()) == sorted(layout.cols[1:].tolist()) == list(range(n))
    assert np.all(np.diff(layout.extents) >= 0) and layout.extents[-1] == n + 1
    # the -1 of G = grad_psi - I lands inside its row's extent
    assert np.all(own_columns(layout) < layout.extents)
    # each block is stored at its widest extent, its share columns rounded
    # up to the recursion's step, and the blocks tile the buffer
    assert gm.storage.shape == (layout.size,)
    assert [(a, b) for a, b, _ in layout.blocks] == [
        (a, min(a + rows_per_block, n)) for a in range(0, n, rows_per_block)]
    for a, b, width in layout.blocks:
        widest = layout.extents[b - 1]
        assert widest <= width <= n + 1 and (width == n + 1 or (width - 1) % grow == 0)
        assert width - widest < grow
    assert layout.size == sum((b - a) * width for a, b, width in layout.blocks)
    blocks = layout.views(gm.storage)
    assert all(np.shares_memory(block, gm.storage) for block in blocks)
    # within its block, every entry past a row's extent is +0.0, and the
    # price column is left for the logit Jacobian
    for (a, b, width), block in zip(layout.blocks, blocks):
        assert block.shape == (b - a, width)
        past = np.arange(width)[None, :] >= layout.extents[a:b, None]
        assert np.all(block[past] == 0.0) and not np.any(np.signbit(block[past]))
        assert not np.any(block[:, 0])


@pytest.mark.parametrize("cols", [[0, 1, 2], [1, 0, 2], [1, 2, 0]])
def test_layout_needs_the_price_in_column_0(cols):
    # N = 2: coordinate 2 is the price.  A price anywhere but column 0
    # would put the market border on a share coordinate, so it is refused
    with pytest.raises(ValueError, match="column 0 must be the price coordinate 2"):
        gradients.Layout(rows=np.arange(2), cols=np.array(cols), extents=np.full(2, 3))
    gradients.Layout(rows=np.arange(2), cols=np.array([2, 0, 1]), extents=np.full(2, 3))


@pytest.mark.parametrize("scenario", ["congested", "mid"])
def test_reading_dT_leaves_the_storage_as_it_is(scenario):
    # dT is a fresh scatter into id order; the solver's event-ordered blocks,
    # and any tracer that reads dT between the gradient and the QP, see the
    # storage and the layout as the recursion left them
    sc, sim = memory_case(scenario)
    gm = travel_time_gradient(sc, sim)
    layout = gm.layout
    before = [a.tobytes() for a in (gm.storage, layout.rows, layout.cols, layout.extents)]
    dT = gm.dT
    assert not np.shares_memory(dT, gm.storage)
    assert gm.layout is layout
    assert [a.tobytes() for a in (gm.storage, layout.rows, layout.cols, layout.extents)] == before
    assert gm.dT.tobytes() == dT.tobytes()


@pytest.fixture(scope="module")
def congested():
    return generate_synthetic(0, preset_spec("congested"))


@pytest.fixture(scope="module")
def mid():
    # N = 1 000: its linearization takes two row blocks, the first cut
    # short of the last columns
    return small_random_scenario(4, n_groups=1000)


def linearizations(scenario, x, p, params, tcs):
    """The QP of one point built in event order and from a dense id-ordered
    ``grad_psi``."""
    sim = simulate(scenario, x)
    psi = logit_choice(sim.car_times, scenario.pt_times, p, params)
    grad, layout, _ = tcsmfd.equilibrium._linearize(scenario, params, sim, psi)
    event = build_qp(x, p, psi, grad, scenario.gammas, params, 2, tcs=tcs, layout=layout)
    dense = price_column_first(logit_gradient(psi, travel_time_gradient(scenario, sim).dT, params))
    ids = build_qp(x, p, psi, dense, scenario.gammas, params, 2, tcs=tcs,
                   layout=identity_layout(dense))
    return event, ids


def assert_close(a, b, rtol=1e-13):
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("tcs", [True, False])
def test_build_qp_is_the_dense_assembly_permuted(congested, mid, tcs):
    params = TcsParams()
    for sc in (congested, mid):
        n = sc.n
        x = np.random.default_rng(7).uniform(0.2, 0.6, n)
        # congested is one block of every column, mid two, the first short
        blocks = travel_time_gradient(sc, simulate(sc, x)).layout.blocks
        if sc is mid:
            assert len(blocks) == 2 and blocks[0][2] < n + 1
        else:
            assert blocks == [(0, n, n + 1)]
        event, ids = linearizations(sc, x, 0.006, params, tcs)
        coords = event.coords
        m = n + 1 if tcs else n
        assert sorted(coords.tolist()) == list(range(m))
        assert ids.coords.tolist() == ([n] if tcs else []) + list(range(n))

        def moved(z):  # a vector of the id-ordered QP in the event QP's order
            return ids.step(z)[coords]

        assert_close(event.q, moved(ids.q))
        # the bounds and the cap row are the same numbers, moved
        assert event.lower.tobytes() == moved(ids.lower).tobytes()
        assert event.upper.tobytes() == moved(ids.upper).tobytes()
        if tcs:
            assert event.cap_coeffs.tobytes() == moved(ids.cap_coeffs).tobytes()
            assert event.cap_rhs == ids.cap_rhs
        else:
            assert event.cap_coeffs is None and ids.cap_coeffs is None
        assert_close(event.P.diagonal(), moved(ids.P.diagonal()))
        rng = np.random.default_rng(3)
        for v in list(np.eye(m)[::11]) + list(rng.normal(size=(4, m))):
            assert_close(event.P @ v, moved(ids.P @ event.step(v)[ids.coords]))
        z = rng.normal(size=m)
        assert event.step(z)[coords].tobytes() == z.tobytes()


def dense_path(monkeypatch):
    """Make the solver take the identity layout: its gradient stored as dT
    in id order, in an N x (N+1) array with the price column first."""
    gradient = tcsmfd.equilibrium.travel_time_gradient

    def dense(scenario, sim):
        gm = gradient(scenario, sim)
        n = scenario.n
        storage = np.zeros((n, n + 1))
        gm.layout.scatter(gm.storage, storage[:, 1:], price=False)
        return dataclasses.replace(gm, storage=storage, layout=identity_layout(storage))

    monkeypatch.setattr(tcsmfd.equilibrium, "travel_time_gradient", dense)


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
    # solver must call them there, once per QP step (and two hypercongested
    # groups fall back to QP steps)
    calls = {}
    for name in ("travel_time_gradient", "build_qp", "solve_qp"):
        fn = getattr(tcsmfd.equilibrium, name)
        assert fn is getattr(tcsmfd, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(tcsmfd.equilibrium, name, counted)
    rep = equilibrium_solve(hypercongested_scenario(), TcsParams(tau=FALLBACK_TAU))
    steps = len(rep.qp_iterations)
    assert rep.converged and steps >= 2
    assert calls == {"travel_time_gradient": steps, "build_qp": steps, "solve_qp": steps}
