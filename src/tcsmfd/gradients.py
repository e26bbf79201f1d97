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
from .simulator import ENTRY, EXIT, SimResult

__all__ = [
    "GradientMatrix",
    "EventGradientRecursion",
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


class EventGradientRecursion:
    """Stateful, strictly time-ascending evaluation of the period gradients.

    ``step(e)`` must be called for e = 0, 1, 2, ... in order; each call
    returns the gradient of T_e (an N-vector) and updates the running sums
    the later cases rely on.
    """

    def __init__(self, scenario: Scenario, sim: SimResult):
        self.scenario = scenario
        self.sim = sim
        self.next_e = 0
        self._grad_t = np.zeros(scenario.n)  # gradient of the current event time
        self._flow_sum = np.zeros(scenario.n)  # running sum of dT_g*V_g + T_g*dV_g
        self._flow_at_entry: dict[int, np.ndarray] = {}

    def step(self, e: int, speed_grad=None) -> np.ndarray:
        if e != self.next_e:
            raise RuntimeError(
                f"events must be processed in order: expected {self.next_e}, got {e}"
            )
        sim = self.sim
        n = self.scenario.n
        gid = int(sim.event_groups[e])

        if e == 0:
            d_te = np.zeros(n)
            d_ve = np.zeros(n)
        else:
            d_ve = grad_speed(self.scenario, sim, e) if speed_grad is None else speed_grad
            t_e = sim.durations[e]
            if sim.kinds[e] == ENTRY:
                if sim.kinds[e - 1] == ENTRY:
                    d_te = np.zeros(n)  # both period ends are fixed departures
                else:
                    d_te = -self._grad_t
            else:
                v_e = sim.v_after[e - 1]
                window = self._flow_sum - self._flow_at_entry[gid]
                d_te = -(t_e * d_ve + window) / v_e

        if e == 0:
            v_e = 0.0
            t_e = 0.0
        else:
            v_e = sim.v_after[e - 1]
            t_e = sim.durations[e]
        self._flow_sum = self._flow_sum + d_te * v_e + t_e * d_ve
        self._grad_t = self._grad_t + d_te
        if sim.kinds[e] == ENTRY:
            self._flow_at_entry[gid] = self._flow_sum.copy()
        else:
            self._flow_at_entry.pop(gid, None)
        self.next_e += 1
        return d_te


def travel_time_gradient(scenario: Scenario, sim: SimResult) -> GradientMatrix:
    """Full N x N travel-time gradient for the realized event order."""
    n = scenario.n
    n_events = sim.n_events
    d_te_all = np.empty((n_events, n))
    d_ve_all = np.empty((n_events, n))

    rec = EventGradientRecursion(scenario, sim)
    for e in range(n_events):
        d_ve_all[e] = grad_speed(scenario, sim, e)
        d_te_all[e] = rec.step(e, speed_grad=d_ve_all[e])

    cum = np.vstack([np.zeros(n), np.cumsum(d_te_all, axis=0)])
    dT = np.empty((n, n))
    for i in range(n):
        dT[i] = cum[sim.exit_index[i] + 1] - cum[sim.entry_index[i] + 1]

    gaps = np.diff(sim.times)
    near_ties = bool(np.any(gaps < TIE_GAP_S))
    return GradientMatrix(
        dT=dT,
        event_time_grads=d_te_all,
        event_speed_grads=d_ve_all,
        near_ties=near_ties,
    )
