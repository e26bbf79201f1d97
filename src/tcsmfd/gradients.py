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

Each case costs O(N) per event thanks to running cumulative sums, so a full
N x N gradient matrix costs O(N^2).
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
    building blocks (one N-vector per event); ``near_ties`` warns that two
    events were closer than TIE_GAP_S so the fixed-order derivative may sit
    on a kink.
    """

    dT: np.ndarray
    event_time_grads: np.ndarray
    event_speed_grads: np.ndarray
    near_ties: bool


def grad_speed(scenario: Scenario, sim: SimResult, e: int) -> np.ndarray:
    """Gradient of the speed of the period ending at event e wrt shares.

    Component j is gamma_j * dV/dn at the period's accumulation when group j
    was traveling during that period, else 0.
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


def travel_time_gradient(scenario: Scenario, sim: SimResult) -> GradientMatrix:
    """Full N x N travel-time gradient for the realized event order.

    One pass over the events in time order.  ``grad_t`` is the gradient of
    the current event time and ``flow`` the running sum of
    dT_g * V_g + T_g * dV_g over the periods so far.  Each entry keeps a
    reference to ``flow`` (it is rebound, never updated in place); the
    group's exit closes its trip length against it.  ``grad_t`` is exactly
    zero at every entry, a fixed departure instant, so at the exit it is
    the group's row of dT.
    """
    n = scenario.n
    n_events = sim.n_events
    d_te_all = np.zeros((n_events, n))
    d_ve_all = np.empty((n_events, n))
    dT = np.empty((n, n))

    # event 0 is the first entry: nothing moves yet
    d_ve_all[0] = grad_speed(scenario, sim, 0)
    grad_t = np.zeros(n)
    flow = np.zeros(n)
    flow_at_entry = {int(sim.event_groups[0]): flow}
    for e in range(1, n_events):
        gid = int(sim.event_groups[e])
        d_ve = d_ve_all[e] = grad_speed(scenario, sim, e)
        t_e = sim.durations[e]
        v_e = sim.v_after[e - 1]
        if sim.kinds[e] == ENTRY:
            if sim.kinds[e - 1] == ENTRY:
                d_te = np.zeros(n)  # both period ends are fixed departures
            else:
                d_te = -grad_t  # back to zero, exactly
        else:
            window = flow - flow_at_entry.pop(gid)
            d_te = -(t_e * d_ve + window) / v_e
        d_te_all[e] = d_te
        flow = flow + d_te * v_e + t_e * d_ve
        grad_t = grad_t + d_te
        if sim.kinds[e] == ENTRY:
            flow_at_entry[gid] = flow
        else:
            dT[gid] = grad_t

    gaps = np.diff(sim.times)
    near_ties = bool(np.any(gaps < TIE_GAP_S))
    return GradientMatrix(
        dT=dT,
        event_time_grads=d_te_all,
        event_speed_grads=d_ve_all,
        near_ties=near_ties,
    )
