"""System objectives and credit-charge optimization.

Total travel time, fuel-consumption-curve CO2 accounting on the simulated
speed profile, analytic estimates of the objective derivatives with respect
to the credit charge, the dichotomy search for the optimal charge, charge
sweeps, and the per-group welfare decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import EquilibriumReport, ModalState, equilibrium_solve, logit_choice
from .scenario import Scenario, TcsParams
# not called here: perfbench/tracer.py rebinds objectives.simulate and
# refuses to install without it
from .simulator import SimResult, simulate  # noqa: F401

__all__ = [
    "EmissionModel",
    "Aggregates",
    "CapInactiveError",
    "total_travel_time",
    "emission_per_distance",
    "emission_per_distance_dv",
    "total_emission",
    "compute_aggregates",
    "ttt_charge_gradient",
    "emission_charge_gradient",
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


@dataclass(frozen=True)
class EmissionModel:
    """CO2-per-distance curve for an average passenger car.

    ``rate(v)`` gives grams per km at a steady speed v in km/h; the shape is
    a quartic polynomial in speed obtained by folding a stop-and-go speed
    oscillation of amplitude c0 into a fuel-rate curve.  Defaults are the
    standard average-fleet coefficients.
    """

    c0: float = 12.5
    c1: float = 1.304e-5
    c2: float = -0.003269
    c3: float = 0.3103
    c4: float = -13.52
    c5: float = 371.4

    def poly_coeffs(self) -> np.ndarray:
        """Quartic coefficients, highest power first (for np.polyval)."""
        c0, c1, c2, c3, c4, c5 = (self.c0, self.c1, self.c2, self.c3, self.c4, self.c5)
        return np.array(
            [
                c1,
                c2,
                c3 + 2.0 * c1 * c0 ** 2,
                c4 + c2 * c0 ** 2,
                c5 + (c3 / 3.0) * c0 ** 2 + (c1 / 5.0) * c0 ** 4,
            ]
        )


def emission_per_distance(v_kmh, model: EmissionModel = EmissionModel()):
    """CO2 intensity E_dist(v) in g/km at speed v in km/h (scalar or array)."""
    v = np.asarray(v_kmh, dtype=float)
    if np.any(v <= 0):
        raise ValueError("speed must be > 0")
    out = np.polyval(model.poly_coeffs(), v)
    return float(out) if out.ndim == 0 else out


def emission_per_distance_dv(v_kmh, model: EmissionModel = EmissionModel()):
    """d E_dist / dv in (g/km)/(km/h)."""
    v = np.asarray(v_kmh, dtype=float)
    if np.any(v <= 0):
        raise ValueError("speed must be > 0")
    out = np.polyval(np.polyder(model.poly_coeffs()), v)
    return float(out) if out.ndim == 0 else out


def total_travel_time(scenario: Scenario, state: ModalState, sim: SimResult) -> float:
    """TTT in hours: gamma-weighted car times plus PT times of the rest."""
    t = sim.car_times
    ttt_s = float(
        scenario.gammas @ (state.x * t + (1.0 - state.x) * scenario.pt_times)
    )
    return ttt_s * S_TO_H


def total_emission(sim: SimResult, model: EmissionModel = EmissionModel()) -> float:
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
    rate = emission_per_distance(v_prev[mask] * MS_TO_KMH, model)
    return float(dist_km @ rate) * G_TO_TONNE


@dataclass
class Aggregates:
    """Network-level aggregates feeding the charge-derivative estimates.

    Lengths in meters, times in seconds, speeds in m/s; ``n_car_cap`` is the
    cap-implied car-user count sum(gamma) * kappa / tau and ``n_bar`` the
    implied steady accumulation.  The ``_w`` aggregates are weighted by the
    logit switching weights w_i = theta * psi_i * (1 - psi_i) (the marginal
    travelers), the others by the traveling populations.
    """

    ttt_h: float
    emission_t: float
    n_car_cap: float
    tt_car_mean: float
    tt_car_w: float
    tt_pt_w: float
    len_mean: float
    len_w: float
    len_total: float
    n_bar: float
    v_bar: float
    speed_drop: float     # -dV/dn at n_bar, clipped at 0
    t_dept: float

    def edie_length_total(self, sim: SimResult) -> float:
        n_prev = sim.n_after[:-1]
        t_e = sim.durations[1:]
        v_prev = sim.v_after[:-1]
        return float(np.sum(n_prev * t_e * v_prev))


def compute_aggregates(
    scenario: Scenario,
    state: ModalState,
    sim: SimResult,
    params: TcsParams,
    model: EmissionModel = EmissionModel(),
) -> Aggregates:
    g = scenario.gammas
    x = state.x
    t_car = sim.car_times
    t_pt = scenario.pt_times
    lens = scenario.trip_lens

    psi = logit_choice(t_car, t_pt, state.p, params)
    w = params.theta * psi * (1.0 - psi)

    car_weight = float(g @ x)
    if car_weight <= 0:
        raise ValueError("no car users: aggregates undefined")
    w_weight = float(g @ w)
    if w_weight <= 0:
        raise ValueError("all logit weights saturated: aggregates undefined")

    t_dept = float(scenario.departs.max() - scenario.departs.min())
    if t_dept <= 0:
        raise ValueError("degenerate departure window")

    tt_car_mean = float(g @ (x * t_car)) / car_weight
    len_mean = float(g @ (x * lens)) / car_weight
    n_car_cap = float(g.sum()) * params.kappa / params.tau
    n_bar = n_car_cap * tt_car_mean / t_dept
    v_bar = len_mean / tt_car_mean
    slope = -float(scenario.mfd.dspeed(n_bar))

    return Aggregates(
        ttt_h=total_travel_time(scenario, state, sim),
        emission_t=total_emission(sim, model),
        n_car_cap=n_car_cap,
        tt_car_mean=tt_car_mean,
        tt_car_w=float(g @ (w * t_car)) / w_weight,
        tt_pt_w=float(g @ (w * t_pt)) / w_weight,
        len_mean=len_mean,
        len_w=float(g @ (w * lens)) / w_weight,
        len_total=float(g @ (x * lens)),
        n_bar=n_bar,
        v_bar=v_bar,
        speed_drop=max(slope, 0.0),
        t_dept=t_dept,
    )


class CapInactiveError(RuntimeError):
    """Charge derivatives are undefined off the cap (flat region)."""


def _require_cap_active(state: ModalState, p_tol: float = 1e-9):
    if state.p <= p_tol:
        raise CapInactiveError(
            "credit price is zero: the cap is slack and the objective is "
            "locally flat in the charge"
        )


def ttt_charge_gradient(agg: Aggregates, state: ModalState, params: TcsParams) -> float:
    """Estimated d(TTT)/d(tau) in person-seconds per credit, cap binding.

    Raising the charge expels Delta N = sum(gamma) kappa / tau^2 car users
    per credit; each departure speeds up the remaining cars through the MFD
    slope and swaps a car time for a PT time among the marginal travelers.
    """
    _require_cap_active(state)
    speed_term = -agg.len_mean * agg.speed_drop * agg.n_bar / agg.v_bar ** 2
    swap_term = -agg.tt_car_w + agg.tt_pt_w
    users_per_credit = agg.n_car_cap / params.tau
    return (speed_term + swap_term) * users_per_credit


def emission_charge_gradient(
    agg: Aggregates,
    state: ModalState,
    params: TcsParams,
    model: EmissionModel = EmissionModel(),
) -> float:
    """Estimated d(E)/d(tau) in tonnes per credit, cap binding.

    Two effects, both non-positive under a decreasing intensity curve:
    expelled car users stop emitting altogether, and the remaining flow
    speeds up into a cleaner regime.
    """
    _require_cap_active(state)
    v_bar_kmh = agg.v_bar * MS_TO_KMH
    rate = emission_per_distance(v_bar_kmh, model)
    drate = emission_per_distance_dv(v_bar_kmh, model)
    slope_kmh = agg.speed_drop * MS_TO_KMH
    expelled = -(agg.len_w * M_TO_KM) * rate * agg.n_car_cap / params.tau
    speedup = (agg.len_total * M_TO_KM) * drate * slope_kmh * agg.n_bar
    return (expelled + speedup) / params.tau * G_TO_TONNE


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


def _predicted_start(scenario: Scenario, p_tau: TcsParams, starts: dict):
    """Start (x, p) for the equilibrium at charge ``p_tau.tau`` from the
    solved states ``starts`` (tau -> ModalState); (None, None), a cold start,
    when there are none.

    The Lagrange polynomial in tau through up to three of the nearest solved
    charges (by distance, ties to the lower tau), taken only from the nearest
    one's cap branch: all binding (p > 0) or all slack, since a slack state
    does not move with tau.  One solved charge gives its own state.  The
    shares are clipped to [0, 1], the price to >= 0, and the shares then
    scaled down onto this charge's cap tau * c'x <= kappa * sum(c) when they
    exceed it.  The start depends only on the charges already solved, so
    reruns repeat it.
    """
    if not starts:
        return None, None
    tau = p_tau.tau
    order = sorted(starts, key=lambda t: (abs(t - tau), t))
    binding = starts[order[0]].p > 0
    nodes = [t for t in order if (starts[t].p > 0) == binding][:3]
    x = np.zeros(scenario.n)
    p = 0.0
    for tj in nodes:
        w = math.prod((tau - tm) / (tj - tm) for tm in nodes if tm != tj)
        x += w * starts[tj].x
        p += w * starts[tj].p
    x = np.clip(x, 0.0, 1.0)
    c = p_tau.cap_weights(scenario.gammas)
    supply = p_tau.kappa * float(c.sum())
    used = tau * float(c @ x)
    return (x * (supply / used) if used > supply else x), max(p, 0.0)


def _warm_solve(scenario: Scenario, p_tau: TcsParams, starts: dict) -> EquilibriumReport:
    """Equilibrium at charge ``p_tau.tau``, started on the polynomial through
    the nearest charges in ``starts`` (``_predicted_start``), or cold when
    ``starts`` is empty; the solved state is added to ``starts``."""
    x, p = _predicted_start(scenario, p_tau, starts)
    rep = equilibrium_solve(scenario, p_tau, x_init=x, p_init=p)
    starts[p_tau.tau] = rep.state
    return rep


def _solve_at(scenario: Scenario, params: TcsParams, tau: float,
              model: EmissionModel, starts: dict):
    """Equilibrium at charge tau, warm-started by ``_warm_solve``: (params at
    tau, report, TTT in h, CO2 in t), both totals read off the report's own
    simulation."""
    p_tau = replace(params, tau=float(tau))
    rep = _warm_solve(scenario, p_tau, starts)
    ttt_h = total_travel_time(scenario, rep.state, rep.sim)
    return p_tau, rep, ttt_h, total_emission(rep.sim, model)


def optimize_charge(
    scenario: Scenario,
    params: TcsParams,
    objective: str = "mixed",
    lo: int = 100,
    hi: int = 500,
    model: EmissionModel = EmissionModel(),
) -> OptimizeResult:
    """Dichotomy on the sign of the estimated objective derivative.

    Integer charges only.  A negative derivative (or a slack cap, where the
    scheme has no bite yet) moves the lower bound up; a positive one moves
    the upper bound down; the search stops when the bounds meet, after at
    most ceil(log2(hi - lo)) + 1 equilibrium solves.  Each solve starts on
    the polynomial through the nearest charges the search has already solved
    (``_warm_solve``), so its numbers agree with cold solves to the solver's
    ``x_tol`` and a rerun repeats them exactly.
    """
    if objective not in ("ttt", "mixed"):
        raise ValueError("objective must be 'ttt' or 'mixed'")
    lo = int(lo)
    hi = int(hi)
    if not (params.kappa <= lo <= hi):
        raise ValueError("need kappa <= lo <= hi")

    solved: dict = {}   # tau -> _solve_at(tau)
    starts: dict = {}   # float(tau) -> its equilibrium state

    def solve_at(tau: int):
        if tau not in solved:
            solved[tau] = _solve_at(scenario, params, tau, model, starts)
        return solved[tau]

    def derivative_at(tau: int) -> tuple[float, bool]:
        """(d objective / d tau, cap slack) at tau."""
        p_tau, rep, _, _ = solve_at(tau)
        try:
            _require_cap_active(rep.state)   # skip aggregates when slack
        except CapInactiveError:
            # slack cap: the scheme is not binding yet, push the charge up
            return -math.inf, True
        agg = compute_aggregates(scenario, rep.state, rep.sim, p_tau, model)
        d = params.alpha * ttt_charge_gradient(agg, rep.state, p_tau)
        if objective == "mixed":
            d += (
                params.gamma_emission
                * params.p_carbon
                * emission_charge_gradient(agg, rep.state, p_tau, model)
            )
        return d, False

    def step(tau: int, a: int, c: int, derivative: float, flat_cap: bool):
        _, rep, ttt_h, em_t = solve_at(tau)
        return OptimizeStep(
            tau=tau, lo=a, hi=c, derivative=derivative, flat_cap=flat_cap,
            ttt_h=ttt_h, emission_t=em_t,
            objective=_objective_value(objective, ttt_h, em_t, params),
            converged=rep.converged,
            iterations=rep.iterations,
            qp_unconverged=rep.qp_unconverged,
            near_ties=rep.near_ties,
        )

    steps: list[OptimizeStep] = []
    a, c = lo, hi
    while a < c:
        mid = (a + c) // 2
        d, flat = derivative_at(mid)
        if d < 0:
            a = mid + 1
        else:
            c = mid
        steps.append(step(mid, a, c, d, flat))
    tau_star = a
    if not steps or steps[-1].tau != tau_star:
        steps.append(step(tau_star, a, c, float("nan"), False))
    return OptimizeResult(
        tau_star=float(tau_star),
        objective=objective,
        steps=steps,
        n_solves=len(solved),
        report=solve_at(tau_star)[1],
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
    model: EmissionModel = EmissionModel(),
) -> list[SweepRow]:
    """Equilibrium solves over a list of charges, in the order given.

    Each solve starts on the polynomial through the nearest charges solved
    before it in this call (``_warm_solve``; the first one cold), so a row
    agrees with a cold solve at its charge to the solver's ``x_tol`` and a
    rerun repeats it exactly, given the same order of ``taus``.
    Rows keep the order of ``taus``; a non-converged solve is flagged in its
    row and the sweep continues.
    """
    taus = [float(t) for t in taus]
    for t in taus:
        if t < params.kappa:
            raise ValueError(f"tau={t} is below kappa={params.kappa}")
    starts: dict = {}   # tau -> its equilibrium state, for the later starts
    return [_sweep_row(scenario, params, t, model, starts) for t in taus]


def _sweep_row(scenario: Scenario, params: TcsParams, tau: float,
               model: EmissionModel, starts: dict) -> SweepRow:
    _, rep, ttt_h, em_t = _solve_at(scenario, params, tau, model, starts)
    g = scenario.gammas
    car_users = float(g @ rep.state.x)
    len_total_km = float(g @ (rep.state.x * scenario.trip_lens)) * M_TO_KM
    return SweepRow(
        tau=tau,
        price=rep.state.p,
        toll_equivalent=rep.state.p * (tau - params.kappa),
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
