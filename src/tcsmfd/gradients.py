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
j on the road during it, else 0.  All of these rows come from one array
``dspeed`` call over the event accumulations, written into the 2N x N block
one group at a time through its entry/exit index window.  The recursion
then walks the events with running sums kept in reused buffers, so each
event costs O(1) numpy calls on O(N) data and the full N x N gradient
matrix costs O(N^2).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``event_time_grads`` and ``event_speed_grads`` keep the per-event
    building blocks, one N-vector per event: the gradients of the period
    durations T_e and of the period speeds V_e.  The speed rows are filled
    from one array ``dspeed`` call and the groups' entry/exit windows, and
    the recursion spends O(1) numpy calls on O(N) data per event.
    ``near_ties`` warns that two events were closer than TIE_GAP_S so the
    fixed-order derivative may sit on a kink.
    """

    dT: np.ndarray
    event_time_grads: np.ndarray
    event_speed_grads: np.ndarray
    near_ties: bool


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


def _speed_grads(scenario: Scenario, sim: SimResult) -> np.ndarray:
    """All rows grad_speed(e), e = 0 .. 2N-1, as one 2N x N array.

    Row e is gamma * dV/dn(n_after[e-1]) on the groups with
    entry_index < e <= exit_index and +0.0 elsewhere (row 0 is all zero),
    so column j is gamma_j times the slice of dV/dn over j's trip window.
    Writing the windows touches only the entries of trips on the road and
    needs no 2N x N mask.
    """
    out = np.zeros((sim.n_events, scenario.n))
    dv = scenario.mfd.dspeed(sim.n_after[:-1])
    windows = zip(sim.entry_index.tolist(), sim.exit_index.tolist(),
                  scenario.gammas.tolist())
    for j, (entry, exit_, gamma) in enumerate(windows):
        np.multiply(gamma, dv[entry:exit_], out=out[entry + 1 : exit_ + 1, j])
    return out


def travel_time_gradient(scenario: Scenario, sim: SimResult) -> GradientMatrix:
    """Full N x N travel-time gradient for the realized event order.

    One pass over the events in time order.  ``grad_t`` is the gradient of
    the current event time and ``flow`` the running sum of
    dT_g * V_g + T_g * dV_g over the periods so far, both updated in place.
    Each entry stores a copy of ``flow``; the group's exit closes its trip
    length against it.  ``grad_t`` is exactly zero at every entry, a fixed
    departure instant, so at the exit it is the group's row of dT.
    """
    n = scenario.n
    n_events = sim.n_events
    # the results come first, so the per-entry flow copies are all the
    # working set on top of them
    dT = np.empty((n, n))
    d_te_all = np.zeros((n_events, n))
    d_ve_all = _speed_grads(scenario, sim)

    kinds = sim.kinds.tolist()
    groups = sim.event_groups.tolist()
    durations = sim.durations.tolist()
    v_after = sim.v_after.tolist()
    grad_t = np.zeros(n)
    flow = np.zeros(n)
    dist = np.empty(n)  # T_e * dV_e
    shift = np.empty(n)  # dT_e * V_e
    # event 0 is the first entry: nothing moves yet
    flow_at_entry = {groups[0]: np.zeros(n)}
    for e in range(1, n_events):
        gid = groups[e]
        d_te = d_te_all[e]
        v_e = v_after[e - 1]
        np.multiply(d_ve_all[e], durations[e], out=dist)
        if kinds[e] == ENTRY:
            if kinds[e - 1] != ENTRY:
                # d_te = -grad_t takes the event time back to zero, exactly
                np.negative(grad_t, out=d_te)
                flow += np.multiply(d_te, v_e, out=shift)
                grad_t.fill(0.0)
            # after an entry both period ends are fixed departures: d_te = 0,
            # and adding its +0.0 shift is exact (flow is never -0.0)
            flow += dist
            flow_at_entry[gid] = flow.copy()
        else:
            window = flow_at_entry.pop(gid)
            np.subtract(flow, window, out=window)  # flow since the entry
            np.add(dist, window, out=d_te)
            np.divide(d_te, -v_e, out=d_te)  # the bits of -(...) / v_e
            flow += np.multiply(d_te, v_e, out=shift)
            flow += dist
            grad_t += d_te
            dT[gid] = grad_t

    gaps = np.diff(sim.times)
    near_ties = bool(np.any(gaps < TIE_GAP_S))
    return GradientMatrix(
        dT=dT,
        event_time_grads=d_te_all,
        event_speed_grads=d_ve_all,
        near_ties=near_ties,
    )
