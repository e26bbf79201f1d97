"""Event-driven simulation of the trip-based bathtub model.

Network speed is a function of the instantaneous accumulation
n = sum(gamma_i * x_i) over groups currently traveling, so speed is constant
between events and every trip produces exactly two events (entry, exit).
A group's exit fires once the integral of speed over its trip covers its
trip length, and its travel time is its exit instant minus its entry
instant.  Groups with x_i = 0 still trace their trajectory (entry and
exit events at zero accumulation weight), which keeps travel times and their
gradients defined on the boundary of the share box.

The event loop follows the virtual-distance form of the trip-based model
(Mariotte, Leclercq & Laval 2017): the network's cumulative distance D is
the one running total, a trip exits when D reaches its value at entry plus
the trip length, and trips on the road wait in a heap keyed on that target,
so each event costs O(log N).  D, the targets and the accumulation are kept
as compensated (hi, lo) float pairs, which holds every remaining distance
and accumulation to rounding level however large D grows.  Each pair is
updated by the error-free TwoSum (Ogita, Rump & Oishi 2005), ``_two_sum``,
whose three operations the scalar loop writes out inline in the same order.
What the loops read of the scenario, the entry order, the departures, the
trip lengths and the sanity horizon, is bound once per scenario
(``Scenario._entry_plan``).  The loop records the event times and
accumulations; ``simulate`` returns them with the entry and exit indices
and the car times, and the rest of the event record (``kinds``,
``event_groups``, ``v_after``, ``durations``) is built from those on first
read (``SimResult``), so a substitution step, which reads only the car
times, never builds it.

``simulate_car_times`` runs the same loop for many share vectors in
lockstep: the samples share departures, trip lengths and the entry order,
and each keeps its own clock, D, accumulation, entry pointer and speed in
vectors of one entry per sample.  Every step advances each sample by one
event with the operations of the scalar loop applied elementwise
(``_two_sum`` on arrays, D and the accumulation stacked into one (2, S)
pair, the same comparisons, one unchecked array speed evaluation,
``MfdCurve._speed``, whose values are ``_scalar_speed``'s bits), so each
sample's event times, and the exit-minus-entry differences taken of them,
are bitwise those of ``simulate``.  As in the heap, only the trips on the
road hold a target: each sample has a row of slots (target hi, target lo,
group) and a stack of its free slots, an entry takes the slot on top and an
exit puts its slot back, and every row doubles in width when one fills.
The width W, 8 at first, ends as the next power of two above the most trips
any sample had on the road: 32 on the 216-group ``congested`` preset, 256 on
the 2 163-group ``citywide``.  The next exit is the slot of least hi; where a
second slot holds the same hi, (lo, group id) decide, the heap's order,
since slot order is not id order.  A step scans the (S, W) table twice,
O(S W) where the heap pays O(S log W), and makes a fixed number of numpy
calls for all samples, so the batch wins once S is large enough to pay
for the calls: 200 samples take about 0.03 s in one batch against 0.07 s
in 200 ``simulate`` calls on ``congested``, and about 0.34 s against
0.74 s on ``citywide``; 50 samples take about as long either way (2 CPUs).
"""

from __future__ import annotations

import heapq
from functools import cached_property

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

    ``entry_index`` / ``exit_index`` map each group to its two events and
    ``car_times`` holds the realized car travel times, exit instant minus
    entry instant.  Where consecutive event times lie within a factor 2 of
    each other, each T_e is an exact difference (Sterbenz), the T_e of a
    trip telescope, and its car time is their correctly rounded sum.

    ``kinds``, ``event_groups``, ``v_after`` and ``durations`` may be given
    as None, as ``simulate`` gives them: each is then built from ``times``,
    ``n_after`` and the two indices on its first read and kept, so a caller
    that reads only ``car_times``, as a substitution step does, never pays
    for them.  ``v_after`` is then ``scenario.mfd._speed(n_after)``, whose
    values are the event loop's speeds bit for bit.
    """

    def __init__(self, scenario, x, times, kinds, event_groups, n_after, v_after,
                 durations, entry_index, exit_index):
        self.scenario = scenario
        self.x = x
        self.times = times
        self.n_after = n_after
        self.entry_index = entry_index
        self.exit_index = exit_index
        self.car_times = times[exit_index] - times[entry_index]
        given = {"kinds": kinds, "event_groups": event_groups, "v_after": v_after,
                 "durations": durations}
        # a given array shadows the cached property of its name
        vars(self).update((k, v) for k, v in given.items() if v is not None)

    @property
    def n_events(self) -> int:
        return len(self.times)

    @cached_property
    def kinds(self) -> np.ndarray:
        kinds = np.full(self.n_events, ENTRY, dtype=np.int8)
        kinds[self.exit_index] = EXIT
        return kinds

    @cached_property
    def event_groups(self) -> np.ndarray:
        groups = np.empty(self.n_events, dtype=np.int64)
        groups[self.entry_index] = groups[self.exit_index] = np.arange(len(self.entry_index))
        return groups

    @cached_property
    def v_after(self) -> np.ndarray:
        return self.scenario.mfd._speed(self.n_after)

    @cached_property
    def durations(self) -> np.ndarray:
        # each period's dt is the difference of consecutive recorded times;
        # 0 for the first event, which starts the clock
        return np.diff(self.times, prepend=self.times[0])


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as an unevaluated pair (s, err) with s = fl(a + b), exactly.

    ``simulate`` writes these operations out inline, in this order."""
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
    if not np.all((x >= 0) & (x <= 1)):  # NaN and +-inf fail both tests
        raise ValueError("shares must be finite and within [0, 1]")

    entry_gids, entry_times, trip_lens, horizon = scenario._entry_plan
    weights = (scenario.gammas * x).tolist()  # gamma_i * x_i
    # unchecked: the accumulation below is clamped >= 0 and a finite sum
    speed = scenario.mfd._scalar_speed
    heappush = heapq.heappush
    heappop = heapq.heappop
    n_events = 2 * n

    times = [0.0] * n_events
    n_after = [0.0] * n_events
    entry_index = [-1] * n
    exit_index = [-1] * n

    # each (s, lo) below is _two_sum(a, b) written out, with bb = s - a and
    # lo = (a - (s - bb)) + (b - bb), in the same operations and order
    road: list[tuple[float, float, int]] = []  # heap of (target hi, lo, gid)
    d_hi = d_lo = 0.0  # cumulative distance D
    n_hi = n_lo = 0.0  # accumulation
    t = t_entry = entry_times[0]  # t_entry: next entry's departure, inf after the last
    next_entry = 0
    v_period = speed(0.0)  # speed of the period ending at event e

    for e in range(n_events):
        # candidate exit: smallest target wins, id breaks ties; exits precede
        # entries on exact time ties
        if road:
            tgt_hi, tgt_lo, gid = road[0]
            t_ev = t + ((tgt_hi - d_hi) + (tgt_lo - d_lo)) / v_period
            is_exit = t_ev <= t_entry
        else:
            is_exit = False

        if is_exit:
            if t_ev > horizon:
                raise HorizonError(
                    f"event time {t_ev:.1f}s exceeds sanity horizon {horizon:.1f}s"
                )
            dt = t_ev - t
            if dt < 0:
                dt = 0.0  # guards float noise; entries are processed in order
                t_ev = t
            b = dt * v_period
            s = d_hi + b
            bb = s - d_hi
            d_lo += (d_hi - (s - bb)) + (b - bb)
            d_hi = s
            heappop(road)
            exit_index[gid] = e
            if road:
                b = -weights[gid]
                s = n_hi + b
                bb = s - n_hi
                n_lo += (n_hi - (s - bb)) + (b - bb)
                n_hi = s
                n_cur = n_hi + n_lo
                if n_cur < 0.0:
                    n_cur = 0.0
            else:
                n_hi = n_lo = n_cur = 0.0
        else:
            # a departure: never past the horizon nor before the clock
            gid = entry_gids[next_entry]
            t_ev = t_entry
            next_entry += 1
            t_entry = entry_times[next_entry]
            b = (t_ev - t) * v_period
            s = d_hi + b
            bb = s - d_hi
            d_lo += (d_hi - (s - bb)) + (b - bb)
            d_hi = s
            # target D + L, renormalized so that the tuples order as the sums
            b = trip_lens[gid]
            s = d_hi + b
            bb = s - d_hi
            b = (d_hi - (s - bb)) + (b - bb) + d_lo
            tgt_hi = s + b
            bb = tgt_hi - s
            heappush(road, (tgt_hi, (s - (tgt_hi - bb)) + (b - bb), gid))
            entry_index[gid] = e
            b = weights[gid]
            s = n_hi + b
            bb = s - n_hi
            n_lo += (n_hi - (s - bb)) + (b - bb)
            n_hi = s
            n_cur = n_hi + n_lo
            if n_cur < 0.0:
                n_cur = 0.0

        times[e] = t_ev
        n_after[e] = n_cur
        v_period = speed(n_cur)
        t = t_ev

    # kinds, event_groups, v_after and durations are built on first read
    return SimResult(
        scenario, x, np.fromiter(times, float, n_events), None, None,
        np.fromiter(n_after, float, n_events), None, None,
        np.fromiter(entry_index, np.int64, n), np.fromiter(exit_index, np.int64, n),
    )


def simulate_car_times(scenario: Scenario, xs) -> np.ndarray:
    """Car travel times of ``simulate`` for each row of ``xs``, shape (S, N).

    Row s is bitwise ``simulate(scenario, xs[s]).car_times``: one event loop
    steps every sample at once, each through its own event sequence (module
    docstring).  Each of the 2N steps scans the (S, W) table of the trips on
    the road twice, W the next power of two above the most any sample had on
    it, and makes a fixed number of numpy calls on length-S vectors: O(S W)
    work and O(1) calls per event, where S ``simulate`` calls pay
    O(S log W) work and O(S) interpreted steps.  Raises ``HorizonError`` if
    any sample overruns the horizon.
    """
    xs = np.asarray(xs, dtype=float)
    n = scenario.n
    if xs.ndim != 2 or xs.shape[1] != n or len(xs) == 0:
        raise ValueError(f"xs must have shape (S, {n}) with S >= 1")
    if np.any(~np.isfinite(xs)) or np.any(xs < 0) or np.any(xs > 1):
        raise ValueError("shares must be finite and within [0, 1]")

    order, departs, _, horizon = scenario._entry_plan
    # one past the last entry: group 0 at t = inf, never picked
    entry_gid = np.array((*order, 0))
    entry_t = np.array(departs)
    entry_len = scenario.trip_lens[entry_gid]
    # unchecked: the accumulation below is clamped >= 0 and a finite sum
    speed = scenario.mfd._speed

    s_count = len(xs)
    row_n = np.arange(0, s_count * n, n)  # flat (sample, group) index s * n + i
    weights = (xs * scenario.gammas).reshape(-1)  # gamma_i * x_i
    # entry instants, each overwritten at its trip's exit by exit minus entry
    car = np.zeros(s_count * n)

    # the road: per sample a row of slots, each holding an on-road trip's
    # exit target (hi, lo) and its flat (sample, group) index, hi = +inf on a
    # free slot, and a stack of the free slots' flat indices, width - on_road
    # deep; every row doubles once one is full
    width = 8
    hi = np.full((s_count, width), np.inf)
    lo = np.zeros((s_count, width))
    trips = np.zeros((s_count, width), dtype=np.int64)
    free = np.arange(s_count * width).reshape(s_count, width)
    hi_flat, lo_flat, trips_flat, free_flat = (
        a.reshape(-1) for a in (hi, lo, trips, free))
    row_w = np.arange(0, s_count * width, width)
    top = row_w + (width - 1)  # the stack's top when the road is empty
    on_road = np.zeros(s_count, dtype=np.int64)

    t = np.full(s_count, entry_t[0])
    # (D, accumulation) as compensated pairs, both summed by one _two_sum
    acc_hi = np.zeros((2, s_count))
    acc_lo = np.zeros((2, s_count))
    step = np.empty((2, s_count))  # an event's increments of the two
    next_entry = np.zeros(s_count, dtype=np.int64)
    v_period = np.full(s_count, speed(0.0))

    for _ in range(2 * n):
        # candidate exit: the smallest target hi; where a second slot holds
        # the same hi, the heap's (lo, id) order decides, as slot order is
        # not id order
        cell = row_w + hi.argmin(axis=1)
        exit_hi = hi_flat[cell]
        hi_flat[cell] = np.inf
        tied = np.flatnonzero(hi_flat[row_w + hi.argmin(axis=1)] == exit_hi)
        hi_flat[cell] = exit_hi
        if tied.size:
            tied = tied[exit_hi[tied] < np.inf]  # not an empty road
            same = hi[tied] == exit_hi[tied, None]
            lo_same = np.where(same, lo[tied], np.inf)
            same &= lo_same == lo_same.min(axis=1)[:, None]
            cell[tied] = row_w[tied] + np.where(same, trips[tied], weights.size).argmin(axis=1)
        t_exit = t + ((exit_hi - acc_hi[0]) + (lo_flat[cell] - acc_lo[0])) / v_period
        t_entry = entry_t[next_entry]  # inf once every group has entered

        # exits precede entries on exact time ties
        is_exit = t_exit <= t_entry
        is_entry = ~is_exit
        # the earlier of the two, clamped to the clock against float noise,
        # as simulate
        t_ev = np.maximum(np.minimum(t_exit, t_entry), t)
        step[0] = (t_ev - t) * v_period
        t = t_ev
        trip = np.where(is_exit, trips_flat[cell], row_n + entry_gid[next_entry])
        w = weights[trip]
        step[1] = np.where(is_exit, -w, w)
        acc_hi, err = _two_sum(acc_hi, step)
        acc_lo += err
        car[trip] = t - car[trip]  # car[trip] is 0 until the entry

        # an entry's target D + L, renormalized so that the pairs order as
        # the sums, takes the slot on top of the free stack; an exit pushes
        # its slot there
        tgt_hi, err = _two_sum(acc_hi[0], entry_len[next_entry])
        tgt_hi, tgt_lo = _two_sum(tgt_hi, err + acc_lo[0])
        stack = top - on_road + is_exit
        cell = np.where(is_exit, cell, free_flat[stack])
        free_flat[stack] = cell
        hi_flat[cell] = np.where(is_exit, np.inf, tgt_hi)
        lo_flat[cell] = tgt_lo  # read only while hi is finite
        trips_flat[cell] = trip
        on_road += is_entry
        on_road -= is_exit
        next_entry += is_entry

        if on_road.min() == 0:  # an empty road: n = 0 exactly, as simulate
            off = on_road == 0
            np.copyto(acc_hi[1], 0.0, where=off)
            np.copyto(acc_lo[1], 0.0, where=off)
        v_period = speed(np.maximum(acc_hi[1] + acc_lo[1], 0.0))

        if on_road.max() == width:
            # a full row: every row doubles, its new slots at the bottom of
            # its free stack, and a free slot's flat index s * width + k
            # becomes s * 2 width + k
            hi = np.hstack([hi, np.full_like(hi, np.inf)])
            lo = np.hstack([lo, np.zeros_like(lo)])
            trips = np.hstack([trips, np.zeros_like(trips)])
            free = np.hstack([2 * row_w[:, None] + np.arange(width, 2 * width),
                              free + free // width * width])
            width *= 2
            hi_flat, lo_flat, trips_flat, free_flat = (
                a.reshape(-1) for a in (hi, lo, trips, free))
            row_w = 2 * row_w
            top = row_w + (width - 1)

    if t.max() > horizon:  # a row's clock ends at its last event
        raise HorizonError(
            f"event time {t.max():.1f}s exceeds sanity horizon {horizon:.1f}s"
        )
    return car.reshape(s_count, n)
