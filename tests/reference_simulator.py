"""The O(N^2) event loop the production simulator replaced, kept as a reference.

Each event takes an argmin over the remaining distances of every trip on
the road, subtracts the period's distance from all of them and recomputes
the accumulation as a fresh dot product.  It shares no bookkeeping with
``tcsmfd.simulator.simulate`` (a heap on compensated cumulative distance),
so agreement of the two on event order and timing is evidence, not a
tautology.  Quadratic in the number of groups: fine for tests.
"""

import bisect

import numpy as np

from tcsmfd.simulator import ENTRY, EXIT, HorizonError, SimResult

__all__ = ["simulate_reference"]


def simulate_reference(scenario, x) -> SimResult:
    """Run the trip-based model at car shares x (one entry per group).

    Exact between events: speeds are constant over inter-event periods, exit
    instants solve remaining_distance / V in closed form.  Event ties order
    deterministically (time, exits first, then group id).
    """
    x = np.asarray(x, dtype=float)
    n = scenario.n
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},)")
    if np.any(~np.isfinite(x)) or np.any(x < 0) or np.any(x > 1):
        raise ValueError("shares must be finite and within [0, 1]")

    gammas = scenario.gammas
    departs = scenario.departs
    curve = scenario.mfd

    horizon = float(departs.max()) + 10.0 * float(
        scenario.trip_lens.max() / curve.v_floor
    )

    entry_order = sorted(range(n), key=lambda i: (departs[i], i))
    n_events = 2 * n

    times = np.empty(n_events)
    kinds = np.empty(n_events, dtype=np.int8)
    event_groups = np.empty(n_events, dtype=np.int64)
    n_after = np.empty(n_events)
    v_after = np.empty(n_events)
    durations = np.empty(n_events)
    entry_index = np.full(n, -1, dtype=np.int64)
    exit_index = np.full(n, -1, dtype=np.int64)

    remaining = scenario.trip_lens.copy()
    active: list[int] = []  # kept sorted by group id
    t = float(departs[entry_order[0]])
    next_entry = 0
    n_cur = 0.0
    v_period = curve.speed(n_cur)  # speed of the period ending at event e

    for e in range(n_events):
        # candidate exit: smallest remaining distance wins, id breaks ties
        exit_gid = -1
        if active:
            act = np.asarray(active)
            rem = remaining[act]
            j = int(np.argmin(rem))  # argmin returns the first minimum: id order
            exit_gid = int(act[j])
            t_exit = t + rem[j] / v_period
        if next_entry < n:
            entry_gid = entry_order[next_entry]
            t_entry = float(departs[entry_gid])
        else:
            entry_gid = -1

        # pick the next event; exits precede entries on exact time ties
        if exit_gid >= 0 and (entry_gid < 0 or t_exit <= t_entry):
            t_ev, kind, gid = t_exit, EXIT, exit_gid
        else:
            t_ev, kind, gid = t_entry, ENTRY, entry_gid

        if t_ev > horizon:
            raise HorizonError(
                f"event time {t_ev:.1f}s exceeds sanity horizon {horizon:.1f}s"
            )

        dt = t_ev - t
        if dt < 0:
            dt = 0.0  # guards float noise; entries are processed in order
            t_ev = t
        if active and dt > 0:
            act = np.asarray(active)
            remaining[act] -= dt * v_period

        if kind == EXIT:
            remaining[gid] = 0.0
            active.remove(gid)
            exit_index[gid] = e
        else:
            bisect.insort(active, gid)  # keep id order
            entry_index[gid] = e
            next_entry += 1

        n_cur = float(gammas[active] @ x[active]) if active else 0.0

        times[e] = t_ev
        kinds[e] = kind
        event_groups[e] = gid
        n_after[e] = n_cur
        v_after[e] = curve.speed(n_cur)
        durations[e] = dt if e > 0 else 0.0
        t = t_ev
        v_period = v_after[e]

    return SimResult(
        scenario, x, times, kinds, event_groups, n_after, v_after,
        durations, entry_index, exit_index,
    )
