"""Event-driven simulation of the trip-based bathtub model.

Network speed is a function of the instantaneous accumulation
n = sum(gamma_i * x_i) over groups currently traveling, so speed is constant
between events and every trip produces exactly two events (entry, exit).
A group's exit fires once the integral of speed over its trip covers its
trip length.  Groups with x_i = 0 still trace their trajectory (entry and
exit events at zero accumulation weight), which keeps travel times and their
gradients defined on the boundary of the share box.
"""

from __future__ import annotations

import bisect

import numpy as np

from .scenario import Scenario

__all__ = ["SimResult", "HorizonError", "simulate", "event_trace_rows"]

ENTRY = 0
EXIT = 1

_KIND_NAMES = ("entry", "exit")


class HorizonError(RuntimeError):
    """Simulation ran past the sanity horizon (stuck trips)."""


class SimResult:
    """Columnar record of one simulation run.

    Arrays are indexed by event e = 0 .. 2N-1 in chronological order:

    * ``times``      event instants t_e (s)
    * ``kinds``      ENTRY / EXIT
    * ``event_groups`` group id of the event
    * ``n_after``    accumulation just after the event (veh)
    * ``v_after``    speed V(n_after) ruling until the next event (m/s)
    * ``durations``  T_e = t_e - t_{e-1}; 0 for the first event
    * ``distances``  l_e = T_e * V_e, V_e the speed of the preceding period

    ``entry_index`` / ``exit_index`` map each group to its two events and
    ``car_times`` holds the realized car travel times (sum of the T_e of each
    group's trip).
    """

    def __init__(self, scenario, x, times, kinds, event_groups, n_after, v_after,
                 durations, distances, entry_index, exit_index):
        self.scenario = scenario
        self.x = x
        self.times = times
        self.kinds = kinds
        self.event_groups = event_groups
        self.n_after = n_after
        self.v_after = v_after
        self.durations = durations
        self.distances = distances
        self.entry_index = entry_index
        self.exit_index = exit_index
        # same arithmetic path as the per-trip decomposition checks
        self.car_times = np.array(
            [
                float(np.sum(durations[entry_index[i] + 1 : exit_index[i] + 1]))
                for i in range(scenario.n)
            ]
        )

    @property
    def n_events(self) -> int:
        return len(self.times)

    def active_mask(self, e: int) -> np.ndarray:
        """Groups traveling during the period that ends at event e."""
        return (self.entry_index < e) & (e <= self.exit_index)


def simulate(scenario: Scenario, x) -> SimResult:
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
    distances = np.empty(n_events)
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
        distances[e] = (dt * v_period) if e > 0 else 0.0
        t = t_ev
        v_period = v_after[e]

    return SimResult(
        scenario, x, times, kinds, event_groups, n_after, v_after,
        durations, distances, entry_index, exit_index,
    )


def event_trace_rows(sim: SimResult):
    """Rows for the event-trace export: one per event, header with units."""
    yield ("e", "t_s", "kind", "group", "n_after_veh", "v_after_ms", "T_e_s", "l_e_m")
    for e in range(sim.n_events):
        yield (
            e,
            repr(float(sim.times[e])),
            _KIND_NAMES[sim.kinds[e]],
            int(sim.event_groups[e]),
            repr(float(sim.n_after[e])),
            repr(float(sim.v_after[e])),
            repr(float(sim.durations[e])),
            repr(float(sim.distances[e])),
        )
