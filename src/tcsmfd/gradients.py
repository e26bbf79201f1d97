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
j on the road during it, else 0.  The recursion keeps gamma on the groups on
the road in one running N-vector, set at each entry and cleared at each
exit, and reads dV/dn from one array ``dspeed`` call over the event
accumulations.  It walks the events with running sums kept in reused
buffers and each trip's entry snapshot kept in its own row of the result,
so each event costs O(1) numpy calls on O(N) data, and the full N x N
gradient matrix costs O(N^2) time and one N x (N+1) array: no per-event
2N x N array is formed.  The per-event blocks of period-duration and speed
gradients are built only when ``GradientMatrix`` is asked for them, by the
same recursion writing one row per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scenario import Scenario
from .simulator import ENTRY, SimResult

__all__ = [
    "GradientMatrix",
    "grad_speed",
    "travel_time_gradient",
]

# consecutive events closer than this are flagged: the realized order is
# then numerically fragile and one-sided derivatives may disagree
TIE_GAP_S = 1e-9


@dataclass
class GradientMatrix:
    """dT[i][j] = d(car travel time of group i) / d(share of group j).

    ``near_ties`` warns that two events were closer than TIE_GAP_S so the
    fixed-order derivative may sit on a kink.  ``dT`` is the first N
    columns of ``storage``, one N x (N+1) array: the logit Jacobian, which
    has one more column for the price, can be written over it in place
    (``logit_gradient(..., out=storage)``), so a linearization holds one
    Jacobian-sized array.  ``event_time_grads`` and ``event_speed_grads``
    are the per-event building blocks, one N-vector per event: the
    gradients of the period durations T_e and of the period speeds V_e.
    They are 2N x N each, so they are built on first read, by the recursion
    that computed ``dT`` rerun on the held scenario and simulation, and the
    solver never reads them.
    """

    dT: np.ndarray
    near_ties: bool
    scenario: Scenario = field(repr=False)
    sim: SimResult = field(repr=False)
    storage: np.ndarray = field(repr=False)

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return _per_event_blocks(self.scenario, self.sim)

    @property
    def event_time_grads(self) -> np.ndarray:
        return self._blocks[0]

    @property
    def event_speed_grads(self) -> np.ndarray:
        return self._blocks[1]


def grad_speed(scenario: Scenario, sim: SimResult, e: int) -> np.ndarray:
    """Gradient of the speed of the period ending at event e wrt shares.

    Component j is gamma_j * dV/dn at the period's accumulation when group j
    was traveling during that period, else 0.  This is the per-event
    definition of row e of ``GradientMatrix.event_speed_grads``.
    """
    n = scenario.n
    out = np.zeros(n)
    if e <= 0:
        return out
    mask = sim.active_mask(e)
    if mask.any():
        dv = scenario.mfd.dspeed(sim.n_after[e - 1])
        out[mask] = scenario.gammas[mask] * dv
    return out


def _recursion(scenario: Scenario, sim: SimResult, blocks=None) -> np.ndarray:
    """dT for the realized event order; fills ``blocks`` when it is given.

    One pass over the events in time order.  ``grad_t`` is the gradient of
    the current event time and ``flow`` the running sum of
    dT_g * V_g + T_g * dV_g over the periods so far, both updated in place.
    ``on_road`` holds gamma on the groups traveling and +0.0 elsewhere, so
    the period's speed term is (on_road * dV/dn(n_{e-1})) * T_e.  Off the
    road that term is 0 * dV/dn * T_e, -0.0 on a falling curve; adding it
    leaves ``flow`` and the trip windows bit for bit, since neither is ever
    -0.0 (flow starts at +0.0 and x - x is +0.0).  Each entry writes
    ``flow`` into the group's own row of dT, which nothing else touches
    while the trip lasts; the group's exit closes its trip length against
    that snapshot and then overwrites the row with ``grad_t``.  ``grad_t``
    is exactly zero at every entry, a fixed departure instant, so at the
    exit it is the group's row of dT.

    dT is the first N columns of a fresh N x (N+1) array, which is
    returned; its last column is left unset.

    ``blocks`` is a pair of zeroed 2N x N arrays that receive each event's
    d_te and its speed row.  A speed row is written only on the groups on
    the road (every gamma is > 0, so they are ``on_road > 0``), as in
    ``grad_speed``: elsewhere the running product is 0 * dV/dn, which is
    -0.0 on a falling curve.
    """
    n = scenario.n
    gammas = scenario.gammas.tolist()
    kinds = sim.kinds.tolist()
    groups = sim.event_groups.tolist()
    durations = sim.durations.tolist()
    v_after = sim.v_after.tolist()
    dv = scenario.mfd.dspeed(sim.n_after[:-1]).tolist()  # period e reads dv[e-1]
    # the entry snapshots live in the rows of the result, so the working
    # set on top of it is a few N-vectors
    storage = np.empty((n, n + 1))
    dT = storage[:, :n]
    grad_t = np.zeros(n)
    flow = np.zeros(n)
    on_road = np.zeros(n)
    d_te = np.empty(n)
    dist = np.empty(n)  # T_e * dV_e
    shift = np.empty(n)  # dT_e * V_e
    # event 0 is the first entry: nothing moves yet
    g0 = groups[0]
    on_road[g0] = gammas[g0]
    dT[g0] = 0.0
    for e in range(1, len(kinds)):
        gid = groups[e]
        v_e = v_after[e - 1]
        np.multiply(on_road, dv[e - 1], out=dist)
        if blocks is not None:
            np.multiply(on_road, dv[e - 1], out=blocks[1][e], where=on_road > 0.0)
        dist *= durations[e]
        if kinds[e] == ENTRY:
            if kinds[e - 1] != ENTRY:
                # d_te = -grad_t takes the event time back to zero, exactly
                np.negative(grad_t, out=d_te)
                if blocks is not None:
                    blocks[0][e] = d_te
                flow += np.multiply(d_te, v_e, out=shift)
                grad_t.fill(0.0)
            # after an entry both period ends are fixed departures: d_te = 0,
            # and adding its +0.0 shift is exact (flow is never -0.0)
            flow += dist
            dT[gid] = flow
            on_road[gid] = gammas[gid]
        else:
            window = dT[gid]  # flow at the entry, overwritten below
            np.subtract(flow, window, out=window)  # flow since the entry
            np.add(dist, window, out=d_te)
            np.divide(d_te, -v_e, out=d_te)  # the bits of -(...) / v_e
            if blocks is not None:
                blocks[0][e] = d_te
            flow += np.multiply(d_te, v_e, out=shift)
            flow += dist
            grad_t += d_te
            dT[gid] = grad_t
            on_road[gid] = 0.0
    return storage


def _per_event_blocks(scenario: Scenario, sim: SimResult):
    """The 2N x N blocks (d T_e, d V_e), one row per event, row 0 all zero."""
    shape = (sim.n_events, scenario.n)
    blocks = (np.zeros(shape), np.zeros(shape))
    _recursion(scenario, sim, blocks)
    return blocks


def travel_time_gradient(scenario: Scenario, sim: SimResult) -> GradientMatrix:
    """Full N x N travel-time gradient for the realized event order."""
    storage = _recursion(scenario, sim)
    near_ties = bool(np.any(np.diff(sim.times) < TIE_GAP_S))
    return GradientMatrix(dT=storage[:, :scenario.n], near_ties=near_ties,
                          scenario=scenario, sim=sim, storage=storage)
