"""System objectives and credit-charge optimization.

Total travel time, CO2 accounting on the simulated speed profile with one
fleet-average intensity curve, the search for the optimal charge, charge
sweeps, and the per-group welfare decomposition.  The search brackets the
sign change of the objective's derivative on integer charges, as the
paper's dichotomy does, but probes Illinois chord zeros once both ends of
the bracket are known, held to the dichotomy's solve bound
(``_charge_search``).  It steers by one private estimate,
``_charge_derivatives``, of the TTT and CO2 derivatives with respect to the
credit charge, read off network aggregates of a solved equilibrium.
Sweeps and searches solve each charge once, in one cache per call
(``_SolvedCharges``) that predicts warm starts (``_predicted_start``) with
the solver's logit, bracket and Anderson steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .equilibrium import (
    _SHIFT_LIMIT,
    EquilibriumReport,
    ModalState,
    _anderson_step,
    _bracket_step,
    _logit_exps,
    _onto_cap,
    equilibrium_solve,
)
from .scenario import Scenario, TcsParams, _require_count
# not called here: perfbench/tracer.py rebinds objectives.simulate and
# refuses to install without it
from .simulator import SimResult, simulate  # noqa: F401

__all__ = [
    "total_travel_time",
    "emission_per_distance",
    "emission_per_distance_dv",
    "total_emission",
    "OptimizeStep",
    "OptimizeResult",
    "optimize_charge",
    "SweepRow",
    "sweep_charges",
    "GroupGains",
    "group_gains",
]

MS_TO_KMH = 3.6
M_TO_KM = 1e-3
G_TO_TONNE = 1e-6
S_TO_H = 1.0 / 3600.0


# The CO2-per-distance curve of an average passenger car, in g/km at a
# steady speed v in km/h: a quartic in v obtained by folding a stop-and-go
# speed oscillation of amplitude c0 into a fuel-rate curve.  The
# coefficients c0, ..., c5 are the standard average-fleet ones.
_EMISSION_COEFFS = (12.5, 1.304e-5, -0.003269, 0.3103, -13.52, 371.4)


def _folded_quartic(c0, c1, c2, c3, c4, c5) -> np.ndarray:
    """The curve's quartic coefficients, highest power first (for np.polyval)."""
    return np.array([c1, c2, c3 + 2.0 * c1 * c0 ** 2, c4 + c2 * c0 ** 2,
                     c5 + (c3 / 3.0) * c0 ** 2 + (c1 / 5.0) * c0 ** 4])


_RATE = _folded_quartic(*_EMISSION_COEFFS)
_RATE_DV = np.polyder(_RATE)


def _polyval(coeffs, v_kmh):
    # the polynomial ``coeffs`` at speeds in km/h, which must be > 0
    v = np.asarray(v_kmh, dtype=float)
    if np.any(v <= 0):
        raise ValueError("speed must be > 0")
    out = np.polyval(coeffs, v)
    return float(out) if out.ndim == 0 else out


def emission_per_distance(v_kmh):
    """CO2 intensity E_dist(v) in g/km at speed v in km/h (scalar or array)."""
    return _polyval(_RATE, v_kmh)


def emission_per_distance_dv(v_kmh):
    """d E_dist / dv in (g/km)/(km/h)."""
    return _polyval(_RATE_DV, v_kmh)


def total_travel_time(scenario: Scenario, state: ModalState, sim: SimResult) -> float:
    """TTT in hours: gamma-weighted car times plus PT times of the rest."""
    t = sim.car_times
    ttt_s = float(
        scenario.gammas @ (state.x * t + (1.0 - state.x) * scenario.pt_times)
    )
    return ttt_s * S_TO_H


def total_emission(sim: SimResult) -> float:
    """Total CO2 in tonnes over the simulated horizon.

    The traveled distance between consecutive events is n_e * T_e * V_e
    (accumulation x duration x speed), weighted by the intensity curve at
    that period's speed.
    """
    n_prev = sim.n_after[:-1]
    v_prev = sim.v_after[:-1]
    t_e = sim.durations[1:]
    mask = (t_e > 0) & (n_prev > 0)
    if not np.any(mask):
        return 0.0
    dist_km = n_prev[mask] * t_e[mask] * v_prev[mask] * M_TO_KM
    rate = emission_per_distance(v_prev[mask] * MS_TO_KMH)
    return float(dist_km @ rate) * G_TO_TONNE


def _charge_derivatives(
    scenario: Scenario,
    rep: EquilibriumReport,
    p_tau: TcsParams,
) -> tuple[float, float]:
    """Estimated (d TTT / d tau in person-seconds, d E / d tau in tonnes) per
    credit at the equilibrium ``rep`` solved at ``p_tau``, cap binding.

    Raising the charge expels Delta N = sum(gamma) kappa / tau^2 car users
    per credit.  Each departure speeds up the remaining cars through the MFD
    slope at the implied steady accumulation n_bar, and swaps a car time for
    a PT time among the marginal travelers, weighted by the logit switching
    weights w_i = theta * psi_i * (1 - psi_i) of the report's logit shares
    ``rep.psis``.  For CO2, the expelled users
    stop emitting and the remaining flow speeds up into a cleaner regime;
    both terms are non-positive under a decreasing intensity curve.
    Lengths are in meters, times in seconds and speeds in m/s.
    """
    g = scenario.gammas
    x = rep.state.x
    t_car = rep.sim.car_times
    t_pt = scenario.pt_times
    lens = scenario.trip_lens

    psi = rep.psis
    w = p_tau.theta * psi * (1.0 - psi)

    car_weight = float(g @ x)
    if car_weight <= 0:
        raise ValueError("no car users: charge derivatives undefined")
    w_weight = float(g @ w)
    if w_weight <= 0:
        raise ValueError("all logit weights saturated: charge derivatives undefined")
    t_dept = float(scenario.departs.max() - scenario.departs.min())
    if t_dept <= 0:
        raise ValueError("degenerate departure window")

    tt_car_mean = float(g @ (x * t_car)) / car_weight
    len_total = float(g @ (x * lens))
    len_mean = len_total / car_weight
    n_car_cap = float(g.sum()) * p_tau.kappa / p_tau.tau
    n_bar = n_car_cap * tt_car_mean / t_dept
    v_bar = len_mean / tt_car_mean
    speed_drop = max(-float(scenario.mfd.dspeed(n_bar)), 0.0)   # -dV/dn at n_bar

    speed_term = -len_mean * speed_drop * n_bar / v_bar ** 2
    tt_car_w = float(g @ (w * t_car)) / w_weight
    tt_pt_w = float(g @ (w * t_pt)) / w_weight
    d_ttt = (speed_term + (-tt_car_w + tt_pt_w)) * (n_car_cap / p_tau.tau)

    v_bar_kmh = v_bar * MS_TO_KMH
    rate = emission_per_distance(v_bar_kmh)
    drate = emission_per_distance_dv(v_bar_kmh)
    len_w = float(g @ (w * lens)) / w_weight
    expelled = -(len_w * M_TO_KM) * rate * n_car_cap / p_tau.tau
    speedup = (len_total * M_TO_KM) * drate * (speed_drop * MS_TO_KMH) * n_bar
    return d_ttt, (expelled + speedup) / p_tau.tau * G_TO_TONNE


# ---------------------------------------------------------------------------
# Charge optimization and sweeps


@dataclass
class OptimizeStep:
    tau: float
    lo: float
    hi: float
    derivative: float
    flat_cap: bool
    ttt_h: float
    emission_t: float
    objective: float
    converged: bool
    iterations: int         # outer iterations of its equilibrium
    qp_unconverged: int     # outer iterations of its equilibrium whose inner QP stopped unconverged
    near_ties: int          # outer iterations of its equilibrium whose gradient saw near ties


@dataclass
class OptimizeResult:
    tau_star: float
    objective: str
    steps: list
    n_solves: int
    report: EquilibriumReport   # equilibrium at tau_star

    @property
    def final_objective(self) -> float:
        return self.steps[-1].objective if self.steps else float("nan")


def _objective_value(objective: str, ttt_h: float, emission_t: float,
                     params: TcsParams) -> float:
    ttt_cost = params.alpha * ttt_h * 3600.0
    if objective == "ttt":
        return ttt_cost
    return ttt_cost + params.gamma_emission * params.p_carbon * emission_t


def _objective_derivative(scenario: Scenario, objective: str, p_tau: TcsParams,
                          rep: EquilibriumReport) -> float:
    """The estimated derivative of ``objective`` in EUR per credit at the
    equilibrium ``rep`` solved at ``p_tau``, from ``_charge_derivatives``;
    -inf where the cap is slack (a zero price): the objective is locally
    flat in the charge and the scheme has no bite yet, so a search pushes
    the charge up."""
    if rep.state.p <= 1e-9:
        return -math.inf
    d_ttt, d_em = _charge_derivatives(scenario, rep, p_tau)
    d = p_tau.alpha * d_ttt
    if objective == "mixed":
        d += p_tau.gamma_emission * p_tau.p_carbon * d_em
    return d


# The warm-start predictor combines the map values of at most this many of
# the nearest solved charges
_NODES = 4

# a node's clearing price is accepted once c'psi lies within this fraction
# of the supply, or after this many trials: the prediction is a start, not
# an answer
_NODE_TOL = 1e-6
_NODE_TRIALS = 50

# equilibrium_solve's default x_tol, which every solve here uses
_X_TOL = 1e-4


class _Solved(NamedTuple):
    """What the predictor keeps of one solved charge tau_j: its state, the
    exponentials of its logit response psi_j at its own charge and price
    (the solver's ``_logit_exps``), from which ``_node_maps`` evaluates its
    substitution map at any other charge, and c'psi_j and
    c'psi_j(1 - psi_j), the market and its slope there."""

    state: ModalState
    exps: np.ndarray
    used: float
    spread: float


def _solved(scenario: Scenario, p_tau: TcsParams, rep: EquilibriumReport) -> _Solved:
    """The predictor's record of the equilibrium ``rep`` solved at ``p_tau``."""
    exps = _logit_exps(rep.sim.car_times, scenario.pt_times, rep.state.p, p_tau)
    psi = 1.0 / (1.0 + exps)
    c = p_tau.cap_weights(scenario.gammas)
    used = float(psi @ c)
    return _Solved(rep.state, exps, used, used - float(psi * psi @ c))


def _node_maps(records, base, c, p_tau: TcsParams):
    """The substitution map of each solved charge in ``records``, evaluated
    at the charge ``p_tau.tau`` on its own travel times: (the clearing
    prices q, the car shares psi, one row per node).

    The charge and the price enter node j's exponentials only through the
    term tau * p of the cost gap, so its shares at price q are
    1 / (1 + exps_j * z) with the one scalar z = exp(theta * tau *
    (q - base_j)), its exponent held within ``_SHIFT_LIMIT`` so that no
    0 * inf makes a NaN; at ``base_j`` z = 1 and the market is the record's
    own.  Each node's price is 0 where the cap is slack there, and otherwise
    found from ``base_j`` by the clearing search's step (``_bracket_step``):
    Newton on c'psi = kappa * sum(c) / tau, doubling or bisecting where it
    leaves the bracket, to within ``_NODE_TOL`` of the supply.  The nodes
    take their trials together, one (nodes x N) array each, and no
    simulation is made."""
    supply = p_tau.kappa * float(c.sum()) / p_tau.tau
    slope = p_tau.theta * p_tau.tau
    exps = np.array([r.exps for r in records])
    m = len(records)
    q = list(base)
    f = [r.used - supply for r in records]
    d = [-slope * r.spread for r in records]
    # per node: the highest price known to exceed the cap, the lowest known
    # to hold it, and whether its price is found
    lo, hi, done = [-math.inf] * m, [math.inf] * m, [False] * m
    psi = None
    for _ in range(_NODE_TRIALS):
        for j in range(m):
            if done[j]:
                continue
            if abs(f[j]) <= _NODE_TOL * supply or (q[j] == 0.0 and f[j] <= 0.0):
                done[j] = True
                continue
            if f[j] > 0.0:
                lo[j] = q[j]
            else:
                hi[j] = q[j]
            newton = q[j] - f[j] / d[j] if d[j] < 0.0 else math.nan
            step = _bracket_step(newton, lo[j], hi[j], slope)
            done[j] = step == q[j]   # no float left between the ends
            q[j] = step
        # a node found is one that did not move, so psi holds its shares
        if psi is not None and all(done):
            break
        z = np.array([math.exp(min(max(slope * (qj - bj), -_SHIFT_LIMIT), _SHIFT_LIMIT))
                      for qj, bj in zip(q, base)])
        psi = exps * z[:, None]
        psi += 1.0
        np.divide(1.0, psi, out=psi)
        used = psi @ c
        f = (used - supply).tolist()
        d = ((psi * psi @ c - used) * slope).tolist()   # -slope * c'psi(1 - psi)
    return np.array(q), psi


def _predicted_start(scenario: Scenario, p_tau: TcsParams, starts: dict):
    """Start (x, p) for the equilibrium at charge ``p_tau.tau`` from the
    solved charges ``starts`` (tau -> ``_Solved``); (None, None), a cold
    start, when there are none.

    The nodes are up to ``_NODES`` of the nearest solved charges (by
    distance, ties to the lower tau).  Each node's substitution map is
    evaluated at this charge on its known travel times (``_node_maps``),
    which needs no simulation, and the start is the Anderson combination of
    those map values (``_anderson_step``, the solver's secant step over more
    points): sum_j a_j psi_j and sum_j a_j q_j, with weights a that minimize
    the combined residual ||sum_j a_j (psi_j - x_j)||.  The shares are
    clipped to [0, 1] and scaled down onto this charge's cap
    tau * c'x <= kappa * sum(c) when they exceed it, and the price kept
    >= 0.  A node whose map value already lies within ``x_tol`` of its
    shares is the start itself, (x_j, q_j), scaled onto the cap should it
    exceed it: a slack cap's equilibrium does not move with tau.  The start depends only on the charges already solved,
    so reruns repeat it."""
    if not starts:
        return None, None
    tau = p_tau.tau
    nodes = sorted(starts, key=lambda t: (abs(t - tau), t))[:_NODES]
    records = [starts[t] for t in nodes]
    # the price at which a node's exponentials hold as they are
    base = [t * r.state.p / tau for t, r in zip(nodes, records)]
    c = p_tau.cap_weights(scenario.gammas)
    with np.errstate(over="ignore"):   # exps * z past DBL_MAX is a zero share
        qs, psis = _node_maps(records, base, c, p_tau)
    xs = np.array([r.state.x for r in records])
    met = np.flatnonzero(np.abs(psis - xs).max(axis=1) < _X_TOL)
    if len(met):
        j = met[0]
        return _onto_cap(records[j].state.x, c, p_tau), float(qs[j])
    return _anderson_step(xs, psis, qs, c, p_tau, True)


class _SolvedCharges(dict):
    """float(tau) -> (params at tau, equilibrium report, its TTT in h, its
    CO2 in t, the predictor's ``_Solved`` record) for the charges one call
    looks up, for ``scenario`` under ``params``.  Each is solved once, on
    its first lookup, from the prediction over the charges held then
    (``_predicted_start``; the first one cold).  The starts depend only on
    the charges looked up and their order, so a rerun repeats them."""

    def __init__(self, scenario: Scenario, params: TcsParams):
        super().__init__()
        self.scenario, self.params = scenario, params

    def __missing__(self, tau) -> tuple:
        sc, p_tau = self.scenario, replace(self.params, tau=float(tau))
        x, p = _predicted_start(sc, p_tau, {t: held[-1] for t, held in self.items()})
        rep = equilibrium_solve(sc, p_tau, x_init=x, p_init=p, x_tol=_X_TOL)
        held = self[p_tau.tau] = (p_tau, rep, total_travel_time(sc, rep.state, rep.sim),
                                  total_emission(rep.sim), _solved(sc, p_tau, rep))
        return held


def _widest(budget: int, end_solved: bool) -> int:
    """The widest bracket [a, a + width] that the integer dichotomy (probe
    (a + c) // 2) finishes within ``budget`` >= 0 solves, or -1 if none.
    The dichotomy takes n.bit_length() solves over the bracket's n = width
    + 1 candidate charges, less the upper end when ``end_solved``."""
    return 2 ** budget - 2 + end_solved


def _solve_bound(width: int) -> int:
    """The solves a search over [lo, lo + width] may take: ceil(log2(width))
    + 1, the bound the dichotomy is documented with, which is never below
    its worst case, (width + 1).bit_length(); one at width 0 and two at 1."""
    return (width - 1).bit_length() + 1 if width >= 2 else width + 1


def _probe(a: int, c: int, end_solved: bool, budget: int, target) -> int:
    """The charge to probe in the bracket [a, c], a < c, with ``budget``
    solves left: the integer nearest ``target`` (the midpoint (a + c) // 2
    when ``target`` is None or not finite), moved toward the midpoint only
    as far as needed for the dichotomy to finish either outcome, [a, probe]
    or [probe + 1, c], within the ``budget`` - 1 solves after it.  This is
    ITP's projection.  The midpoint qualifies whenever the dichotomy could
    finish [a, c] within ``budget``, so a search that starts within its
    budget ends within it."""
    mid = (a + c) // 2
    if target is None or not math.isfinite(target):
        return mid
    lowest = max(a, c - 1 - _widest(budget - 1, end_solved))
    highest = min(c - 1, a + _widest(budget - 1, True))
    return min(max(math.floor(target + 0.5), lowest), highest)


def _charge_search(derivative, lo: int, hi: int):
    """The first integer charge in [lo, hi] whose ``derivative`` is >= 0
    (``hi`` when there is none), if the derivative changes sign once there:
    (tau*, probes), each probe a (tau, a, c, d) of the charge, the bracket
    after it and its derivative.

    The bracket [a, c] keeps d(a - 1) < 0 <= d(c) and closes at a == c,
    where tau* = a.  A probe with d < 0 (-inf for a slack cap) moves a above
    it and any other moves c onto it.  While an end of the bracket is
    unprobed or flat, the probe is the midpoint, as in a dichotomy; once
    both ends have a finite derivative, it is the integer nearest the zero
    of the chord between them, the Illinois modified regula falsi (Dowell
    and Jarratt 1971): an end kept through two probes in a row has its
    derivative halved for the chord.  Each probe is held by ``_probe`` to
    the dichotomy's solve bound (Oliveira and Takahashi 2020, ITP), so the
    search, its final solve at tau* included, takes at most
    ``_solve_bound(hi - lo)`` solves."""
    budget = _solve_bound(hi - lo)
    a, c = lo, hi
    below = above = None   # (tau, chord derivative) at a - 1 and at c
    kept = None            # the end the last probe kept
    probes = []
    while a < c:
        target = None
        if below is not None and above is not None and math.isfinite(below[1]):
            (t0, d0), (t1, d1) = below, above
            target = t0 - d0 * (t1 - t0) / (d1 - d0)
        tau = _probe(a, c, above is not None, budget - len(probes), target)
        d = derivative(tau)
        if d < 0:
            a = tau + 1
            if kept == "above" and above is not None:
                above = (above[0], above[1] / 2.0)
            below, kept = (tau, d), "above"
        else:
            c = tau
            if kept == "below" and below is not None:
                below = (below[0], below[1] / 2.0)
            above, kept = (tau, d), "below"
        probes.append((tau, a, c, d))
    return a, probes


def optimize_charge(
    scenario: Scenario,
    params: TcsParams,
    objective: str = "mixed",
    lo: int = 100,
    hi: int = 500,
) -> OptimizeResult:
    """The integer charge in [lo, hi] where the estimated objective
    derivative turns non-negative, by a safeguarded secant search on its
    sign (``_charge_search``).

    Integer charges only: ``lo`` and ``hi`` must be integers, and any other
    bound raises ``ValueError`` rather than being truncated.  A negative
    derivative (or a slack cap, where the scheme has no bite yet) moves the
    lower bound up; a non-negative one moves the upper bound down; the
    search stops when the bounds meet.  The probes start at midpoints and go
    to Illinois chord zeros once both bounds have a finite derivative, each
    moved toward the midpoint as far as the dichotomy's bound needs, so a
    search takes at most ceil(log2(hi - lo)) + 1 equilibrium solves (one
    when hi == lo, two when hi - lo == 1).  Each charge is solved once, in
    the search's ``_SolvedCharges`` (``n_solves`` counts them), warm-started
    from the nearest ones already solved, so its numbers agree with cold
    solves to the solver's ``x_tol`` and a rerun repeats them exactly.
    """
    if objective not in ("ttt", "mixed"):
        raise ValueError("objective must be 'ttt' or 'mixed'")
    _require_count(lo, "lo")
    _require_count(hi, "hi")
    lo, hi = int(lo), int(hi)  # a numpy integer as a Python int
    if not (params.kappa <= lo <= hi):
        raise ValueError("need kappa <= lo <= hi")

    charges = _SolvedCharges(scenario, params)

    def derivative(tau: int) -> float:
        p_tau, rep, *_ = charges[tau]
        return _objective_derivative(scenario, objective, p_tau, rep)

    def step(tau: int, a: int, c: int, d: float):
        _, rep, ttt_h, em_t, _ = charges[tau]
        return OptimizeStep(
            tau=tau, lo=a, hi=c, derivative=d, flat_cap=d == -math.inf,
            ttt_h=ttt_h, emission_t=em_t,
            objective=_objective_value(objective, ttt_h, em_t, params),
            converged=rep.converged,
            iterations=rep.iterations,
            qp_unconverged=rep.qp_unconverged,
            near_ties=rep.near_ties,
        )

    tau_star, probes = _charge_search(derivative, lo, hi)
    steps = [step(*probe) for probe in probes]
    if not steps or steps[-1].tau != tau_star:
        steps.append(step(tau_star, tau_star, tau_star, float("nan")))
    return OptimizeResult(
        tau_star=float(tau_star),
        objective=objective,
        steps=steps,
        n_solves=len(charges),
        report=charges[tau_star][1],
    )


@dataclass
class SweepRow:
    tau: float
    price: float
    toll_equivalent: float   # p * (tau - kappa), what a car trip pays net
    car_users: float         # sum(gamma x)
    car_share: float
    ttt_h: float
    emission_t: float
    emission_g_per_km: float
    cap_slack: float
    converged: bool
    iterations: int
    qp_unconverged: int      # outer iterations whose inner QP stopped unconverged
    near_ties: int           # outer iterations whose gradient saw near ties


def sweep_charges(
    scenario: Scenario,
    params: TcsParams,
    taus,
) -> list[SweepRow]:
    """Equilibrium solves over a list of charges, in the order given.

    Each distinct charge is solved once, in the call's ``_SolvedCharges``,
    warm-started from the nearest ones solved before it (the first cold), so
    a row agrees with a cold solve to the solver's ``x_tol`` and a rerun
    repeats it exactly, given the same order of ``taus``.  Rows keep that
    order, a repeated charge repeating its row; a non-converged solve is
    flagged in its row and the sweep continues.
    """
    taus = [float(t) for t in taus]
    for t in taus:
        if t < params.kappa:
            raise ValueError(f"tau={t} is below kappa={params.kappa}")
    charges = _SolvedCharges(scenario, params)
    return [_sweep_row(scenario, charges[tau]) for tau in taus]


def _sweep_row(scenario: Scenario, held: tuple) -> SweepRow:
    """The sweep row of ``held``, a charge of ``_SolvedCharges``."""
    p_tau, rep, ttt_h, em_t, _ = held
    g = scenario.gammas
    car_users = float(g @ rep.state.x)
    len_total_km = float(g @ (rep.state.x * scenario.trip_lens)) * M_TO_KM
    return SweepRow(
        tau=p_tau.tau,
        price=rep.state.p,
        toll_equivalent=rep.state.p * (p_tau.tau - p_tau.kappa),
        car_users=car_users,
        car_share=car_users / float(g.sum()),
        ttt_h=ttt_h,
        emission_t=em_t,
        emission_g_per_km=(em_t / G_TO_TONNE / len_total_km) if len_total_km > 0 else 0.0,
        cap_slack=rep.cap_slack,
        converged=rep.converged,
        iterations=rep.iterations,
        qp_unconverged=rep.qp_unconverged,
        near_ties=rep.near_ties,
    )


# ---------------------------------------------------------------------------
# Per-group welfare decomposition


@dataclass
class GroupGains:
    """Per-traveler gains of the scheme, by group.

    ``trade_eur`` is the credit-market transfer p (kappa - x tau): positive
    for net sellers.  ``time_gain_s`` is the expected travel-time saving
    against the reference state; ``net_eur`` folds both with the value of
    time."""

    trade_eur: np.ndarray
    time_gain_s: np.ndarray
    net_eur: np.ndarray

    def weighted_trade_total(self, gammas) -> float:
        return float(np.asarray(gammas) @ self.trade_eur)


def group_gains(
    ref: EquilibriumReport,
    tcs: EquilibriumReport,
    scenario: Scenario,
    params: TcsParams,
) -> GroupGains:
    """Gains of the scheme's equilibrium ``tcs`` against the reference
    ``ref``, read from the car times of each report's ``sim``."""
    if ref.sim is None or tcs.sim is None:
        raise ValueError("group_gains needs reports that hold their simulation")
    x_ref, x_tcs = ref.state.x, tcs.state.x
    t_pt = scenario.pt_times
    exp_ref = x_ref * ref.sim.car_times + (1.0 - x_ref) * t_pt
    exp_tcs = x_tcs * tcs.sim.car_times + (1.0 - x_tcs) * t_pt
    trade = tcs.state.p * (params.kappa - x_tcs * params.tau)
    time_gain = exp_ref - exp_tcs
    return GroupGains(
        trade_eur=trade,
        time_gain_s=time_gain,
        net_eur=trade + params.alpha * time_gain,
    )
