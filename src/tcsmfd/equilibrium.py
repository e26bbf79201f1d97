"""Modal equilibrium of the credit scheme: logit demand, linearized
quadratic subproblems, the fixed-point loop, and the MSA benchmark.

At shares x and credit price p the generalized costs per traveler are

    car:  alpha * T_i(x) + (tau - kappa) * p
    PT:   alpha * T_pt_i - kappa * p

(a car trip burns tau credits out of the kappa allowance; a PT traveler
sells the allowance).  Demand follows a binary logit with sensitivity theta.
An equilibrium is a fixed point x = psi(x, p) together with market clearing:
the cap tau*sum(c x) <= kappa*sum(c) holds, p >= 0, and
p * sum(c (kappa - tau x)) = 0.  The cap weights c are the travelers per
group, or ones under the "printed" variant (``TcsParams.cap_weights``).

The solver linearizes psi around the current iterate and minimizes

    J = 0.5 * || (grad_psi - I_x) dz + psi0 - x0 ||^2
        + eta * p * mean_c(kappa - tau * x)

over a trust box (plus the cap row), which is a QP in dz = (dx, dp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gradients import travel_time_gradient
from .qp import solve_qp
from .scenario import Scenario, TcsParams
from .simulator import SimResult, simulate

__all__ = [
    "ModalState",
    "QpProblem",
    "EquilibriumReport",
    "MsaReport",
    "logit_choice",
    "logit_costs",
    "logit_gradient",
    "build_qp",
    "j_value",
    "equilibrium_solve",
    "msa_solve",
]


@dataclass
class ModalState:
    """Car shares per group plus the credit price."""

    x: np.ndarray
    p: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if np.any(self.x < 0) or np.any(self.x > 1) or not np.all(np.isfinite(self.x)):
            raise ValueError("shares must be finite and within [0, 1]")
        if not (self.p >= 0):
            raise ValueError("price must be >= 0")


def logit_choice(t_car, t_pt, p, params: TcsParams):
    """Car probability psi of the binary logit at the given travel times.

    Accepts scalars or arrays.  Uses the logistic form of the two-alternative
    logit, psi = 1 / (1 + exp(theta * gap)) with gap = C_car - C_pt, which is
    stable for any cost magnitudes.

    The values are bit for bit those of ``scipy.special.expit(-theta * gap)``,
    which computes the same formula with the C library's ``exp``.  ``math.exp``
    is that ``exp``; it is used because importing scipy.special takes longer
    than every logit evaluation of a policy study together.  ``np.exp`` is
    not: its SIMD path differs from libm's by one ulp on some inputs.
    """
    t_car = np.asarray(t_car, dtype=float)
    t_pt = np.asarray(t_pt, dtype=float)
    cost_gap = params.alpha * (t_car - t_pt) + params.tau * p  # C_car - C_pt
    w = params.theta * cost_gap  # exactly -(-theta * gap), expit's exp argument
    args = w.ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, args), float, count=w.size)
    except OverflowError:
        e = np.fromiter(map(_exp, args), float, count=w.size)
    out = 1.0 / (1.0 + e.reshape(w.shape))
    return float(out) if out.ndim == 0 else out


def _exp(v: float) -> float:
    """``math.exp`` with C's ``inf`` past the overflow edge, where Python
    raises: expit gives 0.0 for a gap above log(DBL_MAX) / theta."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def logit_costs(t_car, t_pt, p, params: TcsParams):
    """Generalized costs (car, PT) per traveler in EUR."""
    c_car = params.alpha * np.asarray(t_car, dtype=float) + (params.tau - params.kappa) * p
    c_pt = params.alpha * np.asarray(t_pt, dtype=float) - params.kappa * p
    return c_car, c_pt


def logit_gradient(psi0, dT, params: TcsParams, out=None) -> np.ndarray:
    """Jacobian of psi wrt (x_1..x_N, p), shape (N, N+1).

    Share columns: psi0_i (psi0_i - 1) * theta * alpha * dT[i][j].
    Price column:  psi0_i (psi0_i - 1) * theta * tau.
    Saturated probabilities (exactly 0 or 1) produce an exactly zero row.

    The result is written into ``out``, an N x (N+1) array, when it is
    given, else into a new one.  ``out[:, :N]`` may be ``dT`` itself (as
    ``GradientMatrix.storage`` holds it): the overlap is exact, so each
    entry is scaled in place and the values are those of a fresh array.
    """
    psi0 = np.asarray(psi0, dtype=float)
    n = len(psi0)
    w = psi0 * (psi0 - 1.0) * params.theta
    if out is None:
        out = np.empty((n, n + 1))
    np.multiply((w * params.alpha)[:, None], dT, out=out[:, :n])
    out[:, n] = w * params.tau
    return out


class GaussNewtonMatrix:
    """The QP matrix P = G'G + border, applied as G'(G v) and never formed.

    ``border`` is the market term's coupling of the shares with the price,
    the last coordinate: P[:N, N] and P[N, :N] (None without the scheme).
    It has no diagonal entry, so diag(P) is the squared column norms of G,
    which are finite exactly when G is (up to overflow, which P would
    share).  A non-finite G or border raises ``ValueError``.
    """

    def __init__(self, G, border=None):
        self.G = G
        self.border = border
        self.shape = (G.shape[1], G.shape[1])
        self._diag = np.einsum("ij,ij->j", G, G)
        if not (np.all(np.isfinite(self._diag))
                and (border is None or np.all(np.isfinite(border)))):
            raise ValueError("P must be finite")

    def diagonal(self) -> np.ndarray:
        return self._diag

    def __matmul__(self, v):
        out = self.G.T @ (self.G @ v)
        if self.border is not None:
            n = len(self.border)
            out[:n] += self.border * v[n]
            out[n] += self.border @ v[:n]
        return out


@dataclass
class QpProblem:
    """One linearized subproblem in the step variable dz = (dx_1..dx_N, dp),
    or dx alone without the scheme.  ``P`` is applied through the Jacobian,
    never formed."""

    P: GaussNewtonMatrix
    q: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cap_coeffs: np.ndarray | None
    cap_rhs: float | None


def build_qp(x0, p0, psi0, grad_psi, gammas, params: TcsParams, k: int,
             tcs: bool = True) -> QpProblem:
    """Assemble the QP of iteration k around (x0, p0).

    G = grad_psi - I_x  with I_x = [I, 0], formed in place: ``grad_psi`` is
    consumed, and G is the whole array with the scheme and the view of its
    first N columns without it.  Then

        P = G'G + eta * I_p,   q = G'(psi0 - x0) + eta * i_p

    where the I_p / i_p blocks come from expanding the market-clearing term
    eta * p * mean_c(kappa - tau x) in the step variable, with market
    weights w = c / sum(c) and c = ``params.cap_weights(gammas)``.  P is
    never formed: it is applied as G'(G v) plus the border eta * I_p v, and
    its diagonal is the squared column norms of G.  A non-finite
    ``grad_psi`` entry in the QP's columns raises ``ValueError``.  Trust
    bounds are intersected with the feasibility box, and the cap row is
    tau * c'dx <= kappa * sum(c) - tau * c'x0.  With ``tcs=False`` there is
    no price coordinate: the QP has N coordinates, built from the share
    columns of ``grad_psi``, with neither market term nor cap row (plain
    congestion-pricing / SUE mode).
    """
    x0 = np.asarray(x0, dtype=float)
    psi0 = np.asarray(psi0, dtype=float)
    n = len(x0)
    if k < 1:
        raise ValueError("iteration index starts at 1")
    m = n + 1 if tcs else n

    G = grad_psi[:, :m]
    G[np.diag_indices(n)] -= 1.0
    q = G.T @ (psi0 - x0)

    eps = params.eps_value(k)
    lower = np.empty(m)
    upper = np.empty(m)
    lower[:n] = np.maximum(-x0, -eps)
    upper[:n] = np.minimum(1.0 - x0, eps)
    if not tcs:
        return QpProblem(P=GaussNewtonMatrix(G), q=q, lower=lower, upper=upper,
                         cap_coeffs=None, cap_rhs=None)

    # market-term weights must match the cap, else the QP model is
    # stationary where the objective is not
    c = params.cap_weights(gammas)
    w = c / float(c.sum())
    q[:n] += params.eta * (-w * params.tau * p0)
    q[n] += params.eta * float(w @ (params.kappa - params.tau * x0))
    P = GaussNewtonMatrix(G, params.eta * (-w * params.tau))
    lower[n] = max(-p0, -eps)
    upper[n] = eps

    cap_coeffs = np.zeros(n + 1)
    cap_coeffs[:n] = params.tau * c
    cap_rhs = _credit_slack(x0, c, params)
    if cap_rhs < -_cap_tolerance(c, params):
        raise ValueError(
            "starting point violates the credit cap: zero step infeasible"
        )
    return QpProblem(
        P=P, q=q, lower=lower, upper=upper,
        cap_coeffs=cap_coeffs, cap_rhs=max(cap_rhs, 0.0),
    )


def _credit_slack(x, c, params: TcsParams) -> float:
    # unused credits kappa * sum(c) - tau * c'x; >= 0 when the cap holds
    return params.kappa * float(c.sum()) - params.tau * float(c @ x)


def _onto_cap(x, c, params: TcsParams) -> np.ndarray:
    # x scaled down onto the cap tau * c'x <= kappa * sum(c) when it uses
    # more credits than that; x itself otherwise
    supply = params.kappa * float(c.sum())
    used = params.tau * float(c @ x)
    return x * (supply / used) if used > supply else x


def _cap_tolerance(c, params: TcsParams) -> float:
    # rounding allowance, in credits, before a start counts as infeasible
    return 1e-9 * max(1.0, params.kappa * float(c.sum()))


def _mean_slack(x, c, params: TcsParams) -> float:
    # credit slack per unit of cap weight
    return float(c @ (params.kappa - params.tau * x)) / float(c.sum())


def j_value(x, p, psi, gammas, params: TcsParams, tcs: bool = True) -> float:
    """Objective J at a point, zero step: equilibrium gap plus the
    market-clearing product (per unit of cap weight)."""
    gap = float(0.5 * np.sum((psi - x) ** 2))
    if not tcs:
        return gap
    return gap + params.eta * p * _mean_slack(x, params.cap_weights(gammas), params)


@dataclass
class EquilibriumReport:
    """Solution plus convergence diagnostics of one equilibrium run."""

    state: ModalState
    converged: bool
    iterations: int
    j_trace: list = field(default_factory=list)
    residual_trace: list = field(default_factory=list)
    mcc_trace: list = field(default_factory=list)
    cap_slack: float = float("nan")   # credits, >= 0 when the cap holds
    sim: SimResult | None = None      # simulation of ``state.x``
    psis: np.ndarray | None = None
    cost_car: np.ndarray | None = None
    cost_pt: np.ndarray | None = None
    cap_constraint: str = "gamma-weighted"
    tcs: bool = True
    message: str = ""
    qp_unconverged: int = 0   # outer iterations whose inner QP stopped unconverged
    near_ties: int = 0        # outer iterations whose gradient saw near ties
    # per outer iteration that took a step: the QP's iterations and its CG
    # products (``QpSolution.iterations`` and ``cg_iterations``)
    qp_iterations: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)

    @property
    def j_final(self) -> float:
        return self.j_trace[-1] if self.j_trace else float("nan")

    @property
    def residual_final(self) -> float:
        return self.residual_trace[-1] if self.residual_trace else float("nan")


def equilibrium_solve(
    scenario: Scenario,
    params: TcsParams,
    x_init=None,
    p_init=None,
    tcs: bool = True,
    x_tol: float = 1e-4,
    qp_tol: float = 1e-10,
) -> EquilibriumReport:
    """Fixed-point loop: simulate, linearize, step by the QP solution.

    Stops once J < j_goal and the fixed-point residual ||x - psi||_inf is
    below ``x_tol`` (J alone leaves the residual too loose), or after
    ``max_iters`` iterations, in which case the best-J iterate is returned
    and flagged.  With ``tcs=False`` the price is held at ``p_init`` and the
    cap/market-clearing machinery is disabled (plain logit SUE under a fixed
    price), which the same loop solves.

    Without ``x_init`` the loop starts at the centre of the share box,
    x = 1/2 for every group, scaled down onto the cap when the centre uses
    more credits than the allowance supplies: x = min(1/2, kappa/tau) under
    either cap variant, and 1/2 with ``tcs=False``.  The price starts at
    ``p_init``, or ``params.p0`` (0 with ``tcs=False``).
    """
    n = scenario.n
    gammas = scenario.gammas
    c = params.cap_weights(gammas)
    if x_init is None:
        x = np.full(n, 0.5)
        if tcs:
            x = _onto_cap(x, c, params)
    else:
        x = np.asarray(x_init, dtype=float).copy()
    if x.shape != (n,) or np.any(x < 0) or np.any(x > 1):
        raise ValueError("x_init must be N shares within [0, 1]")
    if p_init is None:
        p = params.p0 if tcs else 0.0
    else:
        p = float(p_init)
    if p < 0:
        raise ValueError("p_init must be >= 0")
    if tcs and _credit_slack(x, c, params) < -_cap_tolerance(c, params):
        raise ValueError("x_init violates the credit cap")

    j_trace: list[float] = []
    res_trace: list[float] = []
    mcc_trace: list[float] = []
    best = None  # (j, x, p, psi, sim)
    converged = False
    qp_unconverged = 0
    near_ties = 0
    qp_iterations: list[int] = []
    cg_iterations: list[int] = []
    k = 0
    psi = np.zeros(n)

    for k in range(1, params.max_iters + 1):
        sim = simulate(scenario, x)
        psi = logit_choice(sim.car_times, scenario.pt_times, p, params)
        j = j_value(x, p, psi, gammas, params, tcs=tcs)
        res = float(np.max(np.abs(psi - x)))
        j_trace.append(j)
        res_trace.append(res)
        mcc_trace.append(abs(p * _mean_slack(x, c, params)) if tcs else 0.0)
        if best is None or j < best[0]:
            best = (j, x.copy(), float(p), psi.copy(), sim)
        if j < params.j_goal and res < x_tol:
            converged = True
            break
        if k == params.max_iters:
            break  # a step from here would never be simulated

        # one N x (N+1) array carries the linearization: dT fills its first
        # N columns (the per-event blocks are never built here), the logit
        # Jacobian is written over them with the price column beside, and
        # build_qp turns that into G in place.  G lives in prob.P through
        # the QP (P itself is never formed); every name on the array is
        # dropped before the next gradient allocates its own
        gm = travel_time_gradient(scenario, sim)
        near_ties += gm.near_ties
        grad_psi = logit_gradient(psi, gm.dT, params, out=gm.storage)
        del gm
        prob = build_qp(x, p, psi, grad_psi, gammas, params, k, tcs=tcs)
        del grad_psi
        sol = solve_qp(prob.P, prob.q, prob.lower, prob.upper,
                       a=prob.cap_coeffs, b=prob.cap_rhs, tol=qp_tol)
        del prob
        qp_unconverged += not sol.converged
        qp_iterations.append(sol.iterations)
        cg_iterations.append(sol.cg_iterations)
        x = np.clip(x + sol.z[:n], 0.0, 1.0)
        if tcs:
            p = max(p + float(sol.z[n]), 0.0)

    if not converged and best is not None:
        _, x, p, psi, sim = best

    c_car, c_pt = logit_costs(sim.car_times, scenario.pt_times, p, params)
    return EquilibriumReport(
        state=ModalState(x=x, p=p),
        converged=converged,
        iterations=k,
        j_trace=j_trace,
        residual_trace=res_trace,
        mcc_trace=mcc_trace,
        cap_slack=_credit_slack(x, c, params),
        sim=sim,
        psis=psi,
        cost_car=c_car,
        cost_pt=c_pt,
        cap_constraint=params.cap_constraint,
        tcs=tcs,
        message="" if converged else "hit max_iters; returning best-J iterate",
        qp_unconverged=qp_unconverged,
        near_ties=near_ties,
        qp_iterations=qp_iterations,
        cg_iterations=cg_iterations,
    )


@dataclass
class MsaReport:
    """Method-of-successive-averages run at a fixed price."""

    x: np.ndarray
    p: float
    iterations: int
    residual_trace: list
    cap_violated: bool
    car_credits: float     # tau * c'x, c the cap weights
    credit_supply: float   # kappa * sum(c)

    @property
    def residual_final(self) -> float:
        return self.residual_trace[-1] if self.residual_trace else float("nan")


def msa_solve(scenario: Scenario, params: TcsParams, p_fixed: float,
              iters: int = 50, x_init=None) -> MsaReport:
    """Averaging fixed-point iteration x <- x + (psi(x, p) - x) / k.

    The price is an input, not an unknown: MSA cannot discover the market
    price.  The cap is not enforced either; the report flags a violated cap
    instead of preventing it.
    """
    n = scenario.n
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if p_fixed < 0:
        raise ValueError("price must be >= 0")
    x = np.zeros(n) if x_init is None else np.asarray(x_init, dtype=float).copy()
    if x.shape != (n,) or np.any(x < 0) or np.any(x > 1):
        raise ValueError("x_init must be N shares within [0, 1]")
    residuals = []
    for k in range(1, iters + 1):
        sim = simulate(scenario, x)
        psi = logit_choice(sim.car_times, scenario.pt_times, p_fixed, params)
        residuals.append(float(np.max(np.abs(psi - x))))
        x = x + (psi - x) / k
    c = params.cap_weights(scenario.gammas)
    used = params.tau * float(c @ x)
    supply = params.kappa * float(c.sum())
    # 1% dead band: a binding-cap equilibrium lands on the cap up to MSA
    # rounding, which must not read as a violation.
    return MsaReport(
        x=x,
        p=float(p_fixed),
        iterations=iters,
        residual_trace=residuals,
        cap_violated=bool(used > supply * 1.01),
        car_credits=used,
        credit_supply=supply,
    )
