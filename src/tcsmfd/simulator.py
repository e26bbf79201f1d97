"""Event-driven simulation of the trip-based bathtub model.

Network speed is a function of the instantaneous accumulation
n = sum(gamma_i * x_i) over groups currently traveling, so speed is constant
between events and every trip produces exactly two events (entry, exit).
A group's exit fires once the integral of speed over its trip covers its
trip length.  Groups with x_i = 0 still trace their trajectory (entry and
exit events at zero accumulation weight), which keeps travel times and their
gradients defined on the boundary of the share box.

The event loop follows the virtual-distance form of the trip-based model
(Mariotte, Leclercq & Laval 2017): the network's cumulative distance D is
the one running total, a trip exits when D reaches its value at entry plus
the trip length, and trips on the road wait in a heap keyed on that target,
so each event costs O(log N).  D, the targets and the accumulation are kept
as compensated (hi, lo) float pairs, which holds every remaining distance
and accumulation to rounding level however large D grows.
"""

from __future__ import annotations

import heapq

import numpy as np

from .scenario import Scenario

__all__ = ["SimResult", "HorizonError", "simulate"]

ENTRY = 0
EXIT = 1


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
        # same bits as np.sum per trip (the decomposition checks' path),
        # without np.sum's dispatch
        self.car_times = np.array(
            [
                np.add.reduce(durations[entry_index[i] + 1 : exit_index[i] + 1])
                for i in range(scenario.n)
            ]
        )

    @property
    def n_events(self) -> int:
        return len(self.times)

    def active_mask(self, e: int) -> np.ndarray:
        """Groups traveling during the period that ends at event e."""
        return (self.entry_index < e) & (e <= self.exit_index)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as an unevaluated pair (s, err) with s = fl(a + b), exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def simulate(scenario: Scenario, x) -> SimResult:
    """Run the trip-based model at car shares x (one entry per group).

    Exact between events: speeds are constant over inter-event periods, exit
    instants solve remaining_distance / V in closed form.  Event ties order
    deterministically (time, exits first, then smallest remaining distance,
    then group id).  The heap is keyed on (target, group id); its top is the
    next exit, with target - D of distance left.  A plain float D would round
    at ulp(D) and jitter the remaining distance of every trip as D grows.
    """
    x = np.asarray(x, dtype=float)
    n = scenario.n
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},)")
    if np.any(~np.isfinite(x)) or np.any(x < 0) or np.any(x > 1):
        raise ValueError("shares must be finite and within [0, 1]")

    departs = scenario.departs.tolist()
    trip_lens = scenario.trip_lens.tolist()
    weights = (scenario.gammas * x).tolist()  # gamma_i * x_i
    speed = scenario.mfd.speed

    horizon = max(departs) + 10.0 * float(
        scenario.trip_lens.max() / scenario.mfd.v_floor
    )

    entry_order = sorted(range(n), key=lambda i: (departs[i], i))
    n_events = 2 * n

    times = [0.0] * n_events
    kinds = [ENTRY] * n_events
    event_groups = [0] * n_events
    n_after = [0.0] * n_events
    v_after = [0.0] * n_events
    durations = [0.0] * n_events
    distances = [0.0] * n_events
    entry_index = [-1] * n
    exit_index = [-1] * n

    road: list[tuple[float, float, int]] = []  # heap of (target hi, lo, gid)
    d_hi = d_lo = 0.0  # cumulative distance D
    n_hi = n_lo = 0.0  # accumulation
    t = departs[entry_order[0]]
    next_entry = 0
    v_period = speed(0.0)  # speed of the period ending at event e

    for e in range(n_events):
        # candidate exit: smallest target wins, id breaks ties
        if road:
            tgt_hi, tgt_lo, exit_gid = road[0]
            t_exit = t + ((tgt_hi - d_hi) + (tgt_lo - d_lo)) / v_period
        else:
            exit_gid = -1
        if next_entry < n:
            entry_gid = entry_order[next_entry]
            t_entry = departs[entry_gid]
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
        dist = dt * v_period
        d_hi, err = _two_sum(d_hi, dist)
        d_lo += err

        if kind == EXIT:
            heapq.heappop(road)
            exit_index[gid] = e
            w = -weights[gid]
        else:
            # target D + L, renormalized so that the tuples order as the sums
            tgt_hi, err = _two_sum(d_hi, trip_lens[gid])
            tgt_hi, tgt_lo = _two_sum(tgt_hi, err + d_lo)
            heapq.heappush(road, (tgt_hi, tgt_lo, gid))
            entry_index[gid] = e
            next_entry += 1
            w = weights[gid]

        if road:
            n_hi, err = _two_sum(n_hi, w)
            n_lo += err
            n_cur = max(n_hi + n_lo, 0.0)
        else:
            n_hi = n_lo = n_cur = 0.0

        times[e] = t_ev
        kinds[e] = kind
        event_groups[e] = gid
        n_after[e] = n_cur
        v_after[e] = v_period = speed(n_cur)
        durations[e] = dt  # 0 for the first event, which starts the clock
        distances[e] = dist
        t = t_ev

    return SimResult(
        scenario, x, np.array(times), np.array(kinds, dtype=np.int8),
        np.array(event_groups, dtype=np.int64), np.array(n_after),
        np.array(v_after), np.array(durations), np.array(distances),
        np.array(entry_index, dtype=np.int64), np.array(exit_index, dtype=np.int64),
    )
