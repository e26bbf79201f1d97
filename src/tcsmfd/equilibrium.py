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

Every solve starts with substitution steps.  After simulating x the loop
evaluates the substitution map at the simulated travel times: with the
scheme on it finds the price p_hat that clears the market there,
c'psi(T(x), p_hat) = kappa * sum(c) / tau, or 0 where the cap is slack at
p = 0 (``_clearing_price``, which starts from the iterate's own price and
logit response); without it p_hat is the fixed price.  The logit's price
dependence is the one term tau * p of the cost gap, so the search tries
prices on the iterate's exponentials times one scalar exp
(``_shifted_shares``) and evaluates the logit exactly only at the price it
returns: an iteration pays for one libm exp per group at its iterate and
one more at p_hat, and psi_hat is ``logit_choice``'s value there bit for
bit.  The map's value is psi_hat = psi(T(x), p_hat), and the plain step
goes to (x + omega * (psi_hat - x), p_hat), exactly psi_hat at omega = 1.
With the
price eliminated this way the map x -> psi(T(x), p_hat(T(x))) has the
Jacobian P * Psi_x of the stability check's reduced system where the cap
binds, and Psi_x where the cap is slack or the scheme is off, so it
contracts wherever that matrix is small.  A step is accepted while it cuts
the substitution residual ||psi_hat - x||_inf to (1 - omega / 2) times its
value at the last accepted point (a halving at omega = 1).  At omega = 1,
once two points have been accepted, the step is a secant step through the
two, their Anderson combination (``_anderson_step``, the rule the warm
starts of ``objectives`` use too), the last accepted point first, so that
a tie in the weights' fallback goes to it; a rejected secant point is
followed by the plain step from the last accepted point, still at
omega = 1.  Any other rejected step is retaken from the last accepted
point, with its stored psi_hat and p_hat, at omega cut by ``_STEP_CUT``:
the relaxation of a fixed-point map (Kelley 1995, "Iterative Methods for
Linear and Nonlinear Equations", ch. 4), with no secant step after it.
Once omega falls below ``_STEP_FLOOR`` the loop takes QP steps for the rest
of the run, the first of them from the last accepted point.

A QP step linearizes psi around the current iterate and minimizes

    J = 0.5 * || (grad_psi - I_x) dz + psi0 - x0 ||^2
        + eta * p * mean_c(kappa - tau * x)

over a trust box (plus the cap row), which is a QP in dz = (dx, dp).  The
linearization lives in the travel-time gradient's buffer: its rows in exit
order, stored as blocks each cut at its widest extent (``gradients.Layout``).
``_linearize`` writes the logit Jacobian over it in place, for the loop
here and for the stability check (``analysis``); the loop then forms
G = grad_psi - I_x over it too, and the QP applies G block by block, so a
QP step holds one such staircase and never an N x (N+1) rectangle; a
substitution step builds no linearization at all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .gradients import Layout, travel_time_gradient
from .qp import solve_qp
from .scenario import Scenario, TcsParams, _require_count
from .simulator import SimResult, simulate

__all__ = [
    "ModalState",
    "QpProblem",
    "EquilibriumReport",
    "MsaReport",
    "logit_choice",
    "build_qp",
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
        if not (0.0 <= self.p < math.inf):  # NaN fails both tests
            raise ValueError("price must be finite and >= 0")


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
    out = 1.0 / (1.0 + _logit_exps(t_car, t_pt, p, params))
    return float(out) if out.ndim == 0 else out


def _logit_exps(t_car, t_pt, p, params: TcsParams) -> np.ndarray:
    """The exponentials exp(theta * gap) of ``logit_choice``, one libm
    ``exp`` per entry, as an array of the broadcast shape: 1 / (1 + e) is
    its value bit for bit."""
    t_car = np.asarray(t_car, dtype=float)
    t_pt = np.asarray(t_pt, dtype=float)
    cost_gap = params.alpha * (t_car - t_pt) + params.tau * p  # C_car - C_pt
    w = params.theta * cost_gap  # exactly -(-theta * gap), expit's exp argument
    args = w.ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, args), float, count=w.size)
    except OverflowError:
        e = np.fromiter(map(_exp, args), float, count=w.size)
    return e.reshape(w.shape)


def _shifted_shares(exps, base: float, p: float, params: TcsParams) -> np.ndarray:
    """The car shares at price p from ``exps``, the ``_logit_exps`` of the
    same travel times at price ``base``: the price enters the exponent as
    theta * tau * p alone, so exp(theta * gap(p)) = exps * z with the one
    scalar z = exp(theta * tau * (p - base)).

    Where every entry of ``exps`` and z are normal floats, each share is
    ``logit_choice``'s to rounding (``_clearing_price`` takes these trials
    only there), and an overflowing product gives 0.0, expit's limit."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + exps * _exp(params.theta * params.tau * (p - base)))


def _exp(v: float) -> float:
    """``math.exp`` with C's ``inf`` past the overflow edge, where Python
    raises: expit gives 0.0 for a gap above log(DBL_MAX) / theta."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _logit_costs(t_car, t_pt, p, params: TcsParams):
    """Generalized costs (car, PT) per traveler in EUR."""
    c_car = params.alpha * np.asarray(t_car, dtype=float) + (params.tau - params.kappa) * p
    c_pt = params.alpha * np.asarray(t_pt, dtype=float) - params.kappa * p
    return c_car, c_pt


def _linearize(scenario: Scenario, params: TcsParams, sim: SimResult,
               psi) -> tuple[np.ndarray, Layout, bool]:
    """The logit Jacobian at the state that gave ``sim`` and ``psi``, written
    over the travel-time gradient's storage: (that buffer, its ``Layout``,
    the gradient's near-tie flag).

    Row i is d psi_i / d(x, p), with w_i = psi_i (psi_i - 1) * theta:
    w_i * alpha * dT[i][j] in share column j and w_i * tau in the price
    column, so a saturated probability (exactly 0 or 1) gives an exactly
    zero row.  It is written row block by row block over the block's
    widest extent; the zeros past the widest extent are never touched, and
    the gradient's per-event blocks are never built."""
    gm = travel_time_gradient(scenario, sim)
    layout = gm.layout
    w = (psi * (psi - 1.0) * params.theta)[layout.rows]
    share = w * params.alpha
    for (rows, shares), block in zip(layout.spans(gm.storage, price=False),
                                     layout.views(gm.storage)):
        shares *= share[rows, None]
        block[:, 0] = w[rows] * params.tau
    return gm.storage, layout, gm.near_ties


class GaussNewtonMatrix:
    """The QP matrix P = G'G + border, applied as G'(G v) and never formed.

    G is given as its row blocks, ``(rows, G[rows])`` each with the
    block's columns up to its widest extent: row i of G is exactly zero
    past the columns its block holds, and the last block spans every
    column.  Each product is two gemvs per block.  ``border`` is the market
    term's coupling of the shares with the price, the first coordinate:
    P[shares, price] and P[price, shares] (None without the scheme).  It
    has no diagonal entry, so diag(P) is the squared column norms of G,
    which are finite exactly when G is (up to overflow, which P would
    share).  A non-finite G or border raises ``ValueError``.
    """

    def __init__(self, blocks, border=None):
        self.border = border
        # the widest block first: it spans every column
        *rest, last = blocks
        self._blocks = [(g, g.T, rows) for rows, g in [last, *rest]]
        m = last[1].shape[1]
        self.shape = (m, m)
        self._diag = self._summed(lambda g, gt, rows: np.einsum("ij,ij->j", g, g))
        if not (np.all(np.isfinite(self._diag))
                and (border is None or np.all(np.isfinite(border)))):
            raise ValueError("P must be finite")

    def _summed(self, part):
        # the sum over the row blocks of part(block, its transpose, its
        # rows), each within the block's columns
        first, *rest = self._blocks
        out = part(*first)
        for block in rest:
            out[:block[0].shape[1]] += part(*block)
        return out

    def diagonal(self) -> np.ndarray:
        return self._diag

    def transpose_product(self, u) -> np.ndarray:
        """G'u."""
        return self._summed(lambda g, gt, rows: gt @ u[rows])

    def __matmul__(self, v):
        blocks = self._blocks
        g, gt, _ = blocks[0]
        out = gt @ (g @ v)
        for i in range(1, len(blocks)):
            g, gt, _ = blocks[i]
            width = g.shape[1]
            out[:width] += gt @ (g @ v[:width])
        if self.border is not None:
            out[1:] += self.border * v[0]
            out[0] += self.border @ v[1:]
        return out


@dataclass
class QpProblem:
    """One linearized subproblem in the step variable dz = (dx_1..dx_N, dp),
    or dx alone without the scheme, with its coordinates in the order of
    the Jacobian's columns: QP coordinate j is coordinate ``coords[j]`` of
    dz.  ``P`` is applied through the Jacobian, never formed."""

    P: GaussNewtonMatrix
    q: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cap_coeffs: np.ndarray | None
    cap_rhs: float | None
    coords: np.ndarray

    def step(self, z) -> np.ndarray:
        """A QP point as dz, in coordinate order."""
        dz = np.empty_like(z)
        dz[self.coords] = z
        return dz


def build_qp(x0, p0, psi0, grad_psi, gammas, params: TcsParams, k: int,
             tcs: bool = True, *, layout: Layout) -> QpProblem:
    """Assemble the QP of iteration k around (x0, p0).

    ``grad_psi`` is the logit Jacobian stored as ``layout`` says, as
    ``_linearize`` returns the two: a ``GradientMatrix``'s buffer of
    event-ordered row blocks, the price column first.  The QP's
    coordinates follow its columns, and q, the bounds, the cap row and the
    border are mapped onto them.  G = grad_psi - I_x with I_x = [I, 0],
    formed in place: ``grad_psi`` is consumed, and G is the views of its
    row blocks (``Layout.spans``), over the price column with the scheme
    and over the share columns alone without it.  Then

        P = G'G + eta * I_p,   q = G'(psi0 - x0) + eta * i_p

    where the I_p / i_p blocks come from expanding the market-clearing term
    eta * p * mean_c(kappa - tau x) in the step variable, with market
    weights w = c / sum(c) and c = ``params.cap_weights(gammas)``.  P is
    never formed: it is applied as G'(G v) plus the border eta * I_p v, and
    its diagonal is the squared column norms of G.  A non-finite
    ``grad_psi`` entry in the QP's columns raises ``ValueError``.  The
    trust box |dz| <= 1/k is intersected with the feasibility box, and the
    cap row is tau * c'dx <= kappa * sum(c) - tau * c'x0.  With
    ``tcs=False`` there is no price coordinate: the QP has N coordinates,
    built from the share columns of ``grad_psi``, with neither market term
    nor cap row (plain congestion-pricing / SUE mode).
    """
    x0 = np.asarray(x0, dtype=float)
    psi0 = np.asarray(psi0, dtype=float)
    n = len(x0)
    if k < 1:
        raise ValueError("iteration index starts at 1")
    _, coords, _ = layout.columns(price=tcs)
    m = len(coords)

    G = layout.spans(grad_psi, price=tcs)
    column = np.empty(m, dtype=np.intp)  # QP coordinate of each dz coordinate
    column[coords] = np.arange(m)
    own = column[layout.rows]
    for rows, g in G:
        g[np.arange(len(g)), own[rows]] -= 1.0

    eps = 1.0 / k
    lower = np.empty(m)
    upper = np.empty(m)
    lower[:n] = np.maximum(-x0, -eps)
    upper[:n] = np.minimum(1.0 - x0, eps)
    residual = (psi0 - x0)[layout.rows]
    if not tcs:
        P = GaussNewtonMatrix(G)
        return QpProblem(P=P, q=P.transpose_product(residual), lower=lower[coords],
                         upper=upper[coords], cap_coeffs=None, cap_rhs=None,
                         coords=coords)

    # market-term weights must match the cap, else the QP model is
    # stationary where the objective is not
    c = params.cap_weights(gammas)
    w = c / float(c.sum())
    border = (params.eta * (-w * params.tau))[coords[1:]]
    P = GaussNewtonMatrix(G, border)
    market = np.empty(m)
    market[:n] = params.eta * (-w * params.tau * p0)
    market[n] = params.eta * float(w @ (params.kappa - params.tau * x0))
    q = P.transpose_product(residual)
    q += market[coords]
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
        P=P, q=q, lower=lower[coords], upper=upper[coords],
        cap_coeffs=cap_coeffs[coords], cap_rhs=max(cap_rhs, 0.0), coords=coords,
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


# A rejected substitution step is retaken at omega cut by this factor, and
# once omega falls below the floor (after three cuts: omega 1, 0.8, 0.64,
# 0.512) the solve takes QP steps instead: a map that contracts this slowly
# is better served by the QP's Newton-like steps
_STEP_CUT = 0.8
_STEP_FLOOR = 0.5

# the clearing price is accepted once c'psi lies at most this fraction below
# kappa * sum(c) / tau, and not above it
_CLEARING_TOL = 1e-12

# a trial's scalar factor exp(theta * tau * (p - base)) is taken only within
# this exponent, where it is a normal float with room to spare
_SHIFT_LIMIT = 700.0

# the ridge of the Anderson weights' normal equations, relative to their
# largest diagonal entry
_RIDGE = 1e-6


def _bracket_step(newton: float, lo: float, hi: float, slope: float) -> float:
    """The next price of a clearing search on the bracket (lo, hi): the
    Newton point where it lies inside (a NaN never does), else a doubling
    from lo (from 1 / ``slope`` at lo <= 0) while there is no upper end, and
    a bisection once there is one; never below 0."""
    if lo < newton < hi:
        return max(newton, 0.0)
    if hi == math.inf:
        return 2.0 * lo if lo > 0.0 else 1.0 / slope
    return max(0.5 * (lo + hi), 0.0)


def _clearing_price(t_car, t_pt, c, params: TcsParams, hint: float = 0.0,
                    psi=None, exps=None) -> tuple[float, np.ndarray]:
    """The price p_hat that clears the credit market at fixed travel times,
    and the car shares psi(T, p_hat), bit for bit ``logit_choice``'s.

    c'psi(T, p) falls strictly with p, so it meets the supply per car trip,
    s = kappa * sum(c) / tau, at most once.  Where c'psi(T, 0) <= s the cap
    is slack and p_hat = 0.  Otherwise a safeguarded Newton iteration on a
    bracket returns a p_hat with s * (1 - _CLEARING_TOL) <= c'psi(T, p_hat)
    <= s, or the upper end of a bracket with no float strictly inside it,
    where the cap holds too.  Newton aims at the middle of that band; a
    Newton step that leaves the bracket, or is longer than half the step
    before the last, is replaced by a bisection (the safeguard of Numerical
    Recipes' rtsafe), or by a doubling while the bracket has no upper end.

    The search starts from ``hint``, never from ``p_init`` or ``params.p0``,
    and evaluates it unless ``psi``, its logit response, is given with
    ``exps``, that response's ``_logit_exps``.  A start in the band, or at 0
    with the cap slack, is returned as it is.  From a start where the cap is
    exceeded the bracket is [hint, inf), and its doubling runs from
    1 / (theta tau) at hint 0.  From a start below the band it is [0, hint],
    and p = 0 is evaluated only where a step aims at or below it; a slack
    cap there returns (0, psi(T, 0)).

    Every other price the search tries is a trial (``_shifted_shares``): one
    scalar exp times the exponentials of the last exact evaluation, where
    those are all normal floats and the shift's exponent is within
    ``_SHIFT_LIMIT``, and an exact evaluation, whose exponentials the next
    trials use, elsewhere and at p = 0.  The search ends only at an exact
    evaluation: where a trial meets an end test, its price is evaluated
    exactly and tested again, and should that test fail, the search starts
    over from there on exact evaluations alone.  So a warm search costs one
    exact evaluation, at the price it returns, and none from a start in the
    band.
    """
    supply = params.kappa * float(c.sum()) / params.tau
    band = _CLEARING_TOL * supply
    goal = supply - 0.5 * band
    slope = params.theta * params.tau

    p = base = hint
    if psi is None:
        exps = _logit_exps(t_car, t_pt, p, params)
        psi = 1.0 / (1.0 + exps)
    f = float(c @ psi) - supply
    exact = True   # psi is logit_choice's at p, not a trial's
    trials = True  # until a trial's end is overturned by its exact shares
    kept = None    # whether the exponentials at base give trials, once asked
    # lo: the highest price known to exceed the cap, -inf while none is
    # known and p = 0 may be slack; hi: the lowest known to hold it
    lo, hi = -math.inf, math.inf
    last = before = math.inf
    while True:
        if f > 0.0:
            lo = p
            end = False
        else:
            hi, psi_hi, exact_hi = p, psi, exact
            end = f >= -band or p == 0.0
        if not end:
            # Newton on c'psi = goal from the current point
            d = -slope * float(c @ (psi * (1.0 - psi)))
            newton = p - (f + supply - goal) / d if d < 0.0 else math.nan
            short = abs(newton - p) <= 0.5 * before
            step = _bracket_step(newton if short else math.nan, lo, hi, slope)
            # only a bisection ends the search: a doubling that overflows
            # to inf would end it before any price holding the cap is known
            end = hi < math.inf and not (lo < step < hi)
        if end:
            if exact_hi:
                return hi, psi_hi
            # a trial ended the search: its price is tested again on exact
            # shares, and should that test fail, the search goes on from
            # there as an exact one, its bracket drawn anew
            p, lo, hi, trials = hi, -math.inf, math.inf, False
        else:
            last, before = abs(step - p), last
            p = step
        if trials and kept is None:
            kept = (exps is not None and exps.min() >= sys.float_info.min
                    and exps.max() < math.inf)
        if trials and kept and p != 0.0 and abs(slope * (p - base)) <= _SHIFT_LIMIT:
            psi = _shifted_shares(exps, base, p, params)
            exact = False
        else:
            exps = _logit_exps(t_car, t_pt, p, params)
            psi = 1.0 / (1.0 + exps)
            base, exact, kept = p, True, None
        f = float(c @ psi) - supply


def _anderson_weights(res: np.ndarray) -> np.ndarray:
    """Weights a, summing to 1, that minimize ||sum_j a_j res_j|| over the
    rows of ``res`` (type-II Anderson mixing, Walker & Ni 2011), from the
    ridge-regularized normal equations; the best row alone, the first of
    equals, where they give no finite weights."""
    gram = res @ res.T
    norms = gram.diagonal().copy()
    gram.flat[::len(res) + 1] += _RIDGE * norms.max()
    try:
        w = np.linalg.solve(gram, np.ones(len(res)))
        a = w / w.sum()
    except np.linalg.LinAlgError:
        a = np.full(len(res), math.nan)
    if not np.all(np.isfinite(a)):
        a = np.zeros(len(res))
        a[np.argmin(norms)] = 1.0
    return a


def _anderson_step(xs, psis, prices, c, params: TcsParams, tcs: bool):
    """The Anderson combination (x, p) of points with shares ``xs``, map
    values ``psis`` (one row each) and map prices ``prices``: with weights
    a from ``_anderson_weights`` on the residuals psis - xs, x = a'psis
    clipped to the box and, with the scheme, scaled onto the cap, and
    p = a'prices kept >= 0.  Without the scheme every price is the fixed
    one, which is returned bit for bit (a sums to 1 only to rounding)."""
    a = _anderson_weights(psis - xs)
    x = np.clip(a @ psis, 0.0, 1.0)
    if not tcs:
        return x, float(prices[0])
    return _onto_cap(x, c, params), max(float(a @ prices), 0.0)


def _j_value(x, p, psi, slack: float, params: TcsParams) -> float:
    """Objective J at a point, zero step: equilibrium gap plus the
    market-clearing product, with ``slack`` the credit slack per unit of cap
    weight (``_mean_slack``; 0 without the scheme, which leaves the gap)."""
    return float(0.5 * np.sum((psi - x) ** 2)) + params.eta * p * slack


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
    substitution_steps: int = 0   # market-clearing substitution steps taken
    accelerated_steps: int = 0    # of those, secant steps
    qp_unconverged: int = 0   # QP steps whose inner QP stopped unconverged
    near_ties: int = 0        # QP steps whose gradient saw near ties
    # per QP step: the QP's iterations and its CG products
    # (``QpSolution.iterations`` and ``cg_iterations``)
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
) -> EquilibriumReport:
    """Fixed-point loop: simulate, then step by market-clearing
    substitution or by the linearized QP's solution.

    Each step is a substitution step (see the module docstring), damped by
    omega: it starts at 1, and every step that fails to cut the substitution
    residual ||psi_hat - x||_inf to (1 - omega / 2) times its value at the
    last accepted point is retaken from that point with omega cut by
    ``_STEP_CUT``.  While omega is 1, a step from the second accepted point
    on is a secant step through the last two (``_anderson_step``); a rejected
    secant point is retaken as the plain step to the last accepted point's
    psi_hat, with omega left at 1 and the older point dropped, so the next
    secant step waits for the next accepted point.  ``accelerated_steps``
    counts the secant steps among ``substitution_steps``.  The clearing
    price search of the first iteration starts from p = 0, never from
    ``p_init`` or ``p0``, and evaluates the logit there itself; every later
    one starts from the iterate's own price, logit response and its
    exponentials, evaluated already: the last accepted p_hat after a plain
    or damped step, the secant price after a secant step.
    The first
    time omega falls below ``_STEP_FLOOR``, this step and every later one is
    a QP step, and the first QP step is taken from the last accepted point.
    The k-th QP step has the trust radius 1/k (``build_qp``), k counting QP
    steps only.  This holds with the scheme or without it, and whether the
    cap binds or is slack (where p_hat = 0).

    Stops once J < j_goal and the fixed-point residual ||x - psi||_inf is
    below ``x_tol`` (J alone leaves the residual too loose), or after
    ``max_iters`` iterations, in which case the best-J iterate is returned
    and flagged.  With ``tcs=False`` the price is held at ``p_init`` and the
    cap/market-clearing machinery is disabled (plain logit SUE under a fixed
    price), which the same loop solves.

    Without ``x_init`` the loop starts at the centre of the share box,
    x = 1/2 for every group, scaled down onto the cap when the centre uses
    more credits than the allowance supplies: x = min(1/2, kappa/tau) under
    either cap variant, and 1/2 with ``tcs=False``.  Where the centre fills
    the cap (2 kappa <= tau) the scheme's start is instead the market
    cleared on the free-flow car times L / V(0) (``_clearing_price``, no
    simulation), if the cap binds there: its shares use no more credits
    than the centre, given to the groups with the most to gain at free
    flow.  The price starts at ``p_init``, or ``params.p0`` (0 with
    ``tcs=False``), whatever the shares.
    """
    n = scenario.n
    gammas = scenario.gammas
    c = params.cap_weights(gammas)
    if x_init is None:
        x = np.full(n, 0.5)
        if tcs:
            x = _onto_cap(x, c, params)
            if 2.0 * params.kappa <= params.tau:
                # the centre fills the cap: where the cap binds at free-flow
                # car times, the market cleared there spends the same credits
                # on the groups with the most to gain
                t_free = scenario.trip_lens / scenario.mfd.speed(0.0)
                p_free, psi_free = _clearing_price(t_free, scenario.pt_times, c, params)
                if p_free > 0.0:
                    x = psi_free
    else:
        x = np.asarray(x_init, dtype=float).copy()
    if x.shape != (n,) or not np.all((x >= 0) & (x <= 1)):  # NaN fails both
        raise ValueError("x_init must be N shares within [0, 1]")
    if p_init is None:
        p = params.p0 if tcs else 0.0
    else:
        p = float(p_init)
    if not (p >= 0):
        raise ValueError("p_init must be >= 0")
    if math.isinf(p):
        raise ValueError("p_init must be finite")
    if not (0 < x_tol < math.inf):  # NaN fails too
        raise ValueError("x_tol must be finite and > 0")
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
    substituting = True
    substitution_steps = 0
    accelerated_steps = 0
    omega = 1.0
    # the last accepted point: its iterate (x, p, psi, sim), its substitution
    # map value (psi_hat, p_hat) and its substitution residual; the accepted
    # point before it, while a secant step may use the two; and whether the
    # iterate just simulated came from a secant step
    anchor = None
    previous = None
    secant = False
    k = 0
    psi = np.zeros(n)

    for k in range(1, params.max_iters + 1):
        sim = simulate(scenario, x)
        exps = _logit_exps(sim.car_times, scenario.pt_times, p, params)
        psi = 1.0 / (1.0 + exps)
        slack = _mean_slack(x, c, params) if tcs else 0.0
        j = _j_value(x, p, psi, slack, params)
        res = float(np.max(np.abs(psi - x)))
        j_trace.append(j)
        res_trace.append(res)
        mcc_trace.append(abs(p * slack))
        if best is None or j < best[0]:
            best = (j, x.copy(), float(p), psi.copy(), sim)
        if j < params.j_goal and res < x_tol:
            converged = True
            break
        if k == params.max_iters:
            break  # a step from here would never be simulated

        if substituting:
            if tcs:
                # the first search evaluates p = 0 itself, every later one
                # starts from the iterate's price, response and exponentials
                hint, at_hint, kept = (0.0, None, None) if anchor is None else (p, psi, exps)
                p_hat, psi_hat = _clearing_price(sim.car_times, scenario.pt_times, c, params,
                                                 hint=hint, psi=at_hint, exps=kept)
                del exps, kept  # dropped before the next simulate
            else:
                p_hat, psi_hat = p, psi
            moved = float(np.max(np.abs(psi_hat - x)))
            if anchor is None or moved <= (1.0 - 0.5 * omega) * anchor[-1]:
                previous, anchor = anchor, (x, p, psi, sim, psi_hat, p_hat, moved)
            elif secant:
                previous = None  # retake the plain step from the anchor
            else:
                omega *= _STEP_CUT
            if omega >= _STEP_FLOOR:
                x_a, _, _, _, psi_hat, p, _ = anchor
                secant = omega == 1.0 and previous is not None
                if secant:
                    x_b, _, _, _, psi_hat_b, p_b, _ = previous
                    x, p = _anderson_step(np.array([x_a, x_b]), np.array([psi_hat, psi_hat_b]),
                                          np.array([p, p_b]), c, params, tcs)
                    accelerated_steps += 1
                else:
                    x = psi_hat if omega == 1.0 else x_a + omega * (psi_hat - x_a)
                substitution_steps += 1
                continue
            substituting = False
            # the QP steps start from the last accepted point, not from a
            # rejected one: a rejected step can hold a lower J at a larger
            # residual, and QP steps from there cycled on hypercongested draws
            x, p, psi, sim = anchor[:4]

        # one buffer carries the linearization, as the gradient's event-
        # ordered row blocks holding the logit Jacobian, and build_qp turns
        # it into G in place and orders the QP's coordinates as G's
        # columns.  G lives in prob.P through the QP (P itself is never
        # formed); every name on the buffer is dropped before the next
        # gradient allocates its own
        grad_psi, layout, ties = _linearize(scenario, params, sim, psi)
        near_ties += ties
        prob = build_qp(x, p, psi, grad_psi, gammas, params, len(qp_iterations) + 1,
                        tcs=tcs, layout=layout)
        del grad_psi
        sol = solve_qp(prob.P, prob.q, prob.lower, prob.upper,
                       a=prob.cap_coeffs, b=prob.cap_rhs)
        dz = prob.step(sol.z)
        del prob
        qp_unconverged += not sol.converged
        qp_iterations.append(sol.iterations)
        cg_iterations.append(sol.cg_iterations)
        x = np.clip(x + dz[:n], 0.0, 1.0)
        if tcs:
            p = max(p + float(dz[n]), 0.0)

    if not converged and best is not None:
        _, x, p, psi, sim = best

    c_car, c_pt = _logit_costs(sim.car_times, scenario.pt_times, p, params)
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
        substitution_steps=substitution_steps,
        accelerated_steps=accelerated_steps,
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
              iters: int = 50) -> MsaReport:
    """Averaging fixed-point iteration x <- x + (psi(x, p) - x) / k, from
    x = 0.

    The price is an input, not an unknown: MSA cannot discover the market
    price.  The cap is not enforced either; the report flags a violated cap
    instead of preventing it.
    """
    _require_count(iters, "iters")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not (p_fixed >= 0):
        raise ValueError("p_fixed must be >= 0")
    if math.isinf(p_fixed):
        raise ValueError("p_fixed must be finite")
    x = np.zeros(scenario.n)
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
