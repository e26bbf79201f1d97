"""Analytic gradients of car travel times with respect to modal shares.

The realized event order of a simulation is held fixed and the chain of
inter-event periods is differentiated event by event, in time order.  Three
cases arise for the marginal duration of the period ending at event e:

* entry after entry: the period sits between two fixed departure instants,
  so its duration does not react to shares at all;
* entry after an exit: the period end is fixed but its start moves with the
  accumulated shift of all earlier periods;
* exit of group i: the period must close i's trip length, which couples its
  duration to every speed perturbation since i entered.

The speed gradient of period e is gamma_j * dV/dn(n_{e-1}) for every group
j on the road during it, else 0.  So nothing moves an event but the groups
that entered before it: a group's travel time is exactly independent of the
share of every group that enters after it exits.  The recursion keeps its
running vectors over the groups entered so far, indexed by entry rank, and
writes the result in event order (``Layout``): row r is the r-th group to
exit, column 0 the price (left for the logit Jacobian) and share column
1 + k the k-th group to enter.  Row r is then exactly zero past its first
1 + m_r columns, m_r the number of groups entered before that exit.  The
recursion writes a row no further than its extent rounded up to a multiple
of ``_GROW`` share columns, +0.0 past the extent, and the zeros past a
block of rows' widest extent are never stored.

Each event costs O(1) numpy calls on O(m) data, with gamma on the groups on
the road in one running vector and dV/dn from one array ``dspeed`` call
over the event accumulations.  Each trip's entry snapshot is kept in its
own row of the result, so the full gradient needs no per-event 2N x N
array.  Nor is it stored as an N x (N+1) rectangle: the rows are kept in
blocks of ``_ROWS_PER_BLOCK`` in event order, each block as wide as its
widest extent rounded up to ``_GROW`` share columns, one block after the
other in one flat buffer (``Layout.views``).  On the citywide preset that
staircase holds 71% of the rectangle.  ``Layout.scatter`` writes it
into id order, as ``GradientMatrix.dT`` and the stability Jacobian; the
per-event blocks of period-duration and speed gradients are built only
when asked for, by the same recursion writing one row per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scenario import Scenario
from .simulator import ENTRY, SimResult

__all__ = [
    "GradientMatrix",
    "Layout",
    "travel_time_gradient",
]

# consecutive events closer than this are flagged: the realized order is
# then numerically fragile and one-sided derivatives may disagree
TIE_GAP_S = 1e-9

_PERMUTE_ROWS = 64  # rows per gather when the per-event blocks go to id order
# columns the recursion's working vectors grow by.  Slicing them at every
# entry cost more than the zeros a step carries: on 2 CPUs a congested
# gradient took 3.84 ms so and 3.63 ms with this step (medians of 400
# interleaved calls)
_GROW = 32
# rows per block of a linearization: each block is stored and applied over
# its widest extent, so a block of event-ordered rows skips most of its
# causal zeros while each QP product stays a few large gemvs.  Median per
# product on the citywide preset (N = 2 163, 2 CPUs, two OpenBLAS threads,
# 40 interleaved products each): 2.8, 2.7, 2.2, 2.2, 2.1 and 2.4 ms at 128,
# 256, 384, 512, 768 and 1 024 rows, and 3.1 ms for one block over every
# column.  At N <= 768 there is one block
_ROWS_PER_BLOCK = 768


class Layout:
    """Where the entries of a linearization sit, and how they are stored.

    Row r holds the row of group ``rows[r]``, and column j the derivative
    with respect to coordinate ``cols[j]``: the price for N, which is always
    column 0, or else the share of that group.  Row r is exactly zero past
    its first ``extents[r]`` columns, which include the row's own share
    column.  The extents never fall from one row to the next, and the last
    one spans every column.  A first column other than the price raises
    ``ValueError``.

    The rows are stored in blocks of ``_ROWS_PER_BLOCK``, one after the
    other in one flat buffer of ``size`` floats.  ``blocks`` holds each
    block's first row, end row and width: its widest extent with the share
    columns past the first rounded up to a multiple of ``_GROW``, as the
    recursion writes them, and at most every column.  Where every extent
    spans every column, the buffer is a C-ordered rectangle.
    """

    __slots__ = ("rows", "cols", "extents", "blocks", "size")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, extents: np.ndarray):
        n = len(rows)
        if cols[0] != n:
            raise ValueError(f"column 0 must be the price coordinate {n}, not {cols[0]}")
        self.rows = rows
        self.cols = cols
        self.extents = extents
        self.blocks = []
        for a in range(0, n, _ROWS_PER_BLOCK):
            b = min(a + _ROWS_PER_BLOCK, n)
            widest = int(extents[b - 1])
            self.blocks.append((a, b, min(widest + (1 - widest) % _GROW, len(cols))))
        self.size = sum((b - a) * width for a, b, width in self.blocks)

    def columns(self, price: bool) -> tuple[slice, np.ndarray, np.ndarray]:
        """The array's columns with the price column or without it: their
        slice, the coordinate each holds and each row's extent within them."""
        if price:
            return slice(None), self.cols, self.extents
        return slice(1, None), self.cols[1:], self.extents - 1

    def views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Each block of ``buffer``, a flat buffer of ``size`` floats or a
        C-ordered array of as many, as a 2-D view, in row order."""
        flat = buffer.reshape(-1)
        out = []
        start = 0
        for a, b, width in self.blocks:
            stop = start + (b - a) * width
            out.append(flat[start:stop].reshape(b - a, width))
            start = stop
        return out

    def spans(self, buffer: np.ndarray, price: bool) -> list[tuple[slice, np.ndarray]]:
        """(rows, their entries) per block of ``buffer``: the block's
        columns with the price column or without it, up to the block's
        widest extent within them."""
        cols, _, extents = self.columns(price)
        return [(slice(a, b), block[:, cols][:, :extents[b - 1]])
                for (a, b, _), block in zip(self.blocks, self.views(buffer))]

    def scatter(self, buffer: np.ndarray, out: np.ndarray, price: bool) -> np.ndarray:
        """``buffer``'s entries written into ``out`` in id order, row i of
        ``out`` the row of group i and column j that of coordinate j (the
        price is N), over the columns of ``spans``: each block up to its
        widest extent, with the price column or without it.  The entries of
        ``out`` past them are left as they are."""
        _, coords, _ = self.columns(price)
        for rows, entries in self.spans(buffer, price):
            out[np.ix_(self.rows[rows], coords[:entries.shape[1]])] = entries
        return out


@dataclass
class GradientMatrix:
    """dT[i][j] = d(car travel time of group i) / d(share of group j).

    ``near_ties`` warns that two events were closer than TIE_GAP_S so the
    fixed-order derivative may sit on a kink.  ``storage`` is the flat
    buffer of ``layout``'s row blocks: in event order, with column 0 left
    for the price, so the logit Jacobian can be written over it in place
    and a linearization holds one Jacobian-sized array.  ``dT`` scatters it
    into a fresh N x N array in id order and leaves it as it is.
    ``event_time_grads`` and ``event_speed_grads`` are the per-event
    building blocks, one N-vector per event: the gradients of the period
    durations T_e and of the period speeds V_e.  They are 2N x N each, so
    they are built on first read, by the recursion that computed ``dT``
    rerun on the held scenario and simulation, and the solver never reads
    them.
    """

    storage: np.ndarray = field(repr=False)
    layout: Layout = field(repr=False)
    near_ties: bool
    scenario: Scenario = field(repr=False)
    sim: SimResult = field(repr=False)

    @property
    def dT(self) -> np.ndarray:
        n = self.scenario.n
        return self.layout.scatter(self.storage, np.zeros((n, n)), price=False)

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return _per_event_blocks(self.scenario, self.sim)

    @property
    def event_time_grads(self) -> np.ndarray:
        return self._blocks[0]

    @property
    def event_speed_grads(self) -> np.ndarray:
        return self._blocks[1]


def _event_layout(sim: SimResult) -> Layout:
    """Rows in exit order, the price first, then the shares in entry order.

    The r-th exit is event e_r, after e_r - r entries; its row spans the
    price column and those entrants' columns."""
    exits = np.flatnonzero(sim.kinds != ENTRY)
    n = len(exits)
    return Layout(
        rows=sim.event_groups[exits],
        cols=np.concatenate(([n], sim.event_groups[sim.kinds == ENTRY])),
        extents=1 + exits - np.arange(n),
    )


def _recursion(scenario: Scenario, sim: SimResult, layout: Layout, blocks=None):
    """dT in ``layout``'s event order, or the per-event blocks.

    One pass over the events in time order.  The running vectors are
    indexed by entry rank and span the first w ranks, w the number m of
    groups entered so far rounded up to a multiple of ``_GROW``; they are
    re-sliced only at the entries that push m past w.  ``grad_t`` is the
    gradient of the current event time and ``flow`` the running sum of
    dT_g * V_g + T_g * dV_g over the periods so far.  ``on_road`` holds
    gamma on the groups traveling and +0.0 elsewhere, so the period's speed
    term is (on_road * dV/dn(n_{e-1})) * T_e.  Off the road that term is
    0 * dV/dn * T_e, -0.0 on a falling curve; adding it leaves ``flow`` and
    the trip windows bit for bit, since neither is ever -0.0 (flow starts
    at +0.0 and x - x is +0.0).  So on the ranks past m every running value
    and every row entry written stays +0.0, as a zeroed row holds it.  Each
    entry writes ``flow`` into the group's own row, which nothing else
    touches while the trip lasts; the group's exit closes its trip length
    against that snapshot and then overwrites the row with ``grad_t`` plus
    the exit's d_te.  ``grad_t`` is exactly zero at every entry, a fixed
    departure instant, so at the exit that sum is the group's row of dT,
    and it stays ``grad_t`` until the next entry.  At an entry after an
    exit, d_te = -grad_t takes the event time back to zero, and
    ``flow - grad_t * v`` is bitwise ``flow + d_te * v``.

    Without ``blocks`` the result is a fresh zeroed buffer of ``layout``'s
    row blocks, which is returned: each row is written over its first w
    share columns only, which its block holds, and column 0 is left for the
    price.  ``blocks`` is a pair of zeroed 2N x N arrays that receive each
    event's d_te and its speed row instead, in entry-rank columns; an
    exit's snapshot then lives in its d_te row, which the exit overwrites.
    Past the entrants an exit's or a following entry's d_te is -0.0, as the
    full-width arithmetic gives it.  A speed row is written only on the
    groups on the road (every gamma is > 0, so they are ``on_road > 0``),
    as the per-event definition gamma_j * dV/dn writes it: elsewhere the
    running product is 0 * dV/dn, which is -0.0 on a falling curve.
    """
    n = scenario.n
    entrants = layout.cols[1:]
    gammas = scenario.gammas[entrants].tolist()  # by entry rank
    rank = np.empty(n, dtype=np.intp)
    rank[entrants] = np.arange(n)
    rank = rank.tolist()
    kinds = sim.kinds.tolist()
    groups = sim.event_groups.tolist()
    durations = sim.durations.tolist()
    v_after = sim.v_after.tolist()
    dv = scenario.mfd.dspeed(sim.n_after[:-1]).tolist()  # period e reads dv[e-1]
    # each group's snapshot row, as 1-D views
    snapshot = [None] * n
    if blocks is None:
        storage = np.zeros(layout.size)
        rows = [row for block in layout.views(storage) for row in block[:, 1:]]
        for r, g in enumerate(layout.rows.tolist()):
            snapshot[g] = rows[r]
    else:
        storage = None
        time_rows, speed_rows = list(blocks[0]), list(blocks[1])
        for e, g in enumerate(groups):
            if kinds[e] != ENTRY:
                snapshot[g] = time_rows[e]
    # the working set on top of the rows is a few N-vectors
    flow_n, on_road_n, dist_n, d_te_n, grad_n = np.zeros((5, n))

    # event 0 is the first entry: nothing moves yet
    on_road_n[0] = gammas[0]
    m = 1
    w = min(_GROW, n)
    flow, on_road, dist, d_te = flow_n[:w], on_road_n[:w], dist_n[:w], d_te_n[:w]
    grad_t = 0.0  # from an entry to the next exit
    for e in range(1, len(kinds)):
        gid = groups[e]
        v_e = v_after[e - 1]
        np.multiply(on_road, dv[e - 1], out=dist)
        if blocks is not None:
            np.multiply(on_road, dv[e - 1], out=speed_rows[e][:w], where=on_road > 0.0)
        dist *= durations[e]
        if kinds[e] == ENTRY:
            if kinds[e - 1] != ENTRY:
                if blocks is not None:
                    np.negative(grad_t, out=time_rows[e][:w])
                    time_rows[e][w:] = -0.0  # -(+0.0) past the entrants
                flow -= np.multiply(grad_t, v_e, out=d_te)
                grad_t = 0.0
            # after an entry both period ends are fixed departures: d_te = 0,
            # and adding its +0.0 shift is exact (flow is never -0.0)
            flow += dist
            snapshot[gid][:w] = flow
            on_road_n[m] = gammas[m]
            m += 1
            if m > w:
                w = min(w + _GROW, n)
                flow = flow_n[:w]
                on_road = on_road_n[:w]
                dist = dist_n[:w]
                d_te = d_te_n[:w]
        else:
            window = snapshot[gid][:w]  # flow at the entry, overwritten below
            np.subtract(flow, window, out=window)  # flow since the entry
            np.add(dist, window, out=d_te)
            np.divide(d_te, -v_e, out=d_te)  # the bits of -(...) / v_e
            if blocks is None:
                grad_t = np.add(grad_t, d_te, out=window)
            else:
                grad_t = np.add(grad_t, d_te, out=grad_n[:w])
                window[:] = d_te
                time_rows[e][w:] = -0.0  # (+0.0 + +0.0) / -v_e past the entrants
            flow += np.multiply(d_te, v_e, out=d_te)
            flow += dist
            on_road_n[rank[gid]] = 0.0
    return storage


def _per_event_blocks(scenario: Scenario, sim: SimResult):
    """The 2N x N blocks (d T_e, d V_e), one row per event, row 0 all zero."""
    layout = _event_layout(sim)
    shape = (sim.n_events, scenario.n)
    blocks = (np.zeros(shape), np.zeros(shape))
    _recursion(scenario, sim, layout, blocks)
    rank = np.empty(scenario.n, dtype=np.intp)
    rank[layout.cols[1:]] = np.arange(scenario.n)
    for block in blocks:  # entry-rank columns to id columns
        for start in range(0, len(block), _PERMUTE_ROWS):
            part = block[start:start + _PERMUTE_ROWS]
            part[:] = part[:, rank]
    return blocks


def travel_time_gradient(scenario: Scenario, sim: SimResult) -> GradientMatrix:
    """Full N x N travel-time gradient for the realized event order."""
    layout = _event_layout(sim)
    storage = _recursion(scenario, sim, layout)
    near_ties = bool(np.any(np.diff(sim.times) < TIE_GAP_S))
    return GradientMatrix(storage=storage, layout=layout, near_ties=near_ties,
                          scenario=scenario, sim=sim)
