"""The per-event travel-time gradient loop the production recursion replaced.

Kept verbatim as a frozen oracle.  Every event builds its speed-gradient
row with ``grad_speed``, the per-event definition (a fresh O(N) active mask
and a scalar ``dspeed`` call), and every update allocates a new N-vector
(``flow`` is rebound, never written in place, so each entry can keep a
plain reference to it).
``tcsmfd.gradients.travel_time_gradient`` keeps gamma on the groups on
the road in one running vector, reads dV/dn from one array ``dspeed`` call
and updates its buffers in place; the two must agree bit for bit.  The
result is a plain namespace with ``GradientMatrix``'s attribute names,
because ``GradientMatrix`` builds its per-event blocks itself.
"""

from types import SimpleNamespace

import numpy as np

from tcsmfd.gradients import TIE_GAP_S
from tcsmfd.simulator import ENTRY

__all__ = ["grad_speed", "travel_time_gradient_reference"]


def grad_speed(scenario, sim, e: int) -> np.ndarray:
    """Gradient of the speed of the period ending at event e wrt shares.

    Component j is gamma_j * dV/dn at the period's accumulation when group j
    was traveling during that period, else 0.  This is the per-event
    definition of row e of ``GradientMatrix.event_speed_grads``.
    """
    n = scenario.n
    out = np.zeros(n)
    if e <= 0:
        return out
    mask = (sim.entry_index < e) & (e <= sim.exit_index)
    if mask.any():
        dv = scenario.mfd.dspeed(sim.n_after[e - 1])
        out[mask] = scenario.gammas[mask] * dv
    return out


def travel_time_gradient_reference(scenario, sim) -> SimpleNamespace:
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
    return SimpleNamespace(
        dT=dT,
        event_time_grads=d_te_all,
        event_speed_grads=d_ve_all,
        near_ties=near_ties,
    )
