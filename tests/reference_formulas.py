"""Dense reference forms of what the library computes in place.

The solver keeps its linearization in event order, as row blocks cut at
their widest extents, and writes the logit Jacobian, G and the stability
Jacobian over them.  The tests check it against the textbook forms here:
the logit Jacobian of an id-ordered N x N dT, with the price column last,
and the stability Jacobian assembled from it.  ``build_qp`` reads such an
N x (N+1) array as ``price_column_first`` copies it, under
``identity_layout``.  ``project_box_halfspace`` is the QP solver's
projection with its inputs checked, for the tests that build their own
projections and KKT residuals.  ``dichotomy_charge`` is the plain integer
dichotomy the charge search started as, on the library's own warm solves
and objective derivative, for the tests that hold the search to its answer
and its solve count.
"""

import numpy as np

from tcsmfd import analysis, objectives, qp
from tcsmfd.gradients import Layout

__all__ = [
    "dichotomy",
    "dichotomy_charge",
    "identity_layout",
    "logit_gradient",
    "price_column_first",
    "project_box_halfspace",
    "stability_jacobian",
]


def logit_gradient(psi0, dT, params) -> np.ndarray:
    """Jacobian of psi wrt (x_1..x_N, p), shape (N, N+1).

    Share columns: psi0_i (psi0_i - 1) * theta * alpha * dT[i][j].
    Price column:  psi0_i (psi0_i - 1) * theta * tau.
    Saturated probabilities (exactly 0 or 1) produce an exactly zero row.
    """
    psi0 = np.asarray(psi0, dtype=float)
    n = len(psi0)
    w = psi0 * (psi0 - 1.0) * params.theta
    out = np.empty((n, n + 1))
    np.multiply((w * params.alpha)[:, None], dT, out=out[:, :n])
    out[:, n] = w * params.tau
    return out


def price_column_first(grad_psi) -> np.ndarray:
    """A C-ordered copy of an N x (N+1) ``grad_psi`` (price column last) with
    the price column moved first, the share columns in id order after it."""
    return np.concatenate((grad_psi[:, -1:], grad_psi[:, :-1]), axis=1)


def identity_layout(grad_psi) -> Layout:
    """The layout of a C-ordered N x (N+1) ``grad_psi`` in id order, the
    price column first (as ``price_column_first`` gives it) and every row
    spanning every column: its row blocks are row slices of it."""
    n, width = grad_psi.shape
    return Layout(rows=np.arange(n), cols=np.roll(np.arange(width), 1), extents=np.full(n, width))


def stability_jacobian(grad_psi, gammas, tau) -> np.ndarray:
    """Jacobian of the day-to-day dynamics at an equilibrium.

    State (x, p) with dx_i/dt = psi_i - x_i and
    dp/dt = sum(c_i (tau psi_i - kappa)), c = ``gammas`` the cap weights:
    the rows of the logit Jacobian ``grad_psi`` (shape N x (N+1)) copied
    into an (N+1) x (N+1) array and completed by the library's
    ``analysis._closed``."""
    n = grad_psi.shape[0]
    a = np.empty((n + 1, n + 1))
    a[:n, :] = grad_psi
    return analysis._closed(a, gammas, tau)


def project_box_halfspace(y, lower, upper, a=None, b=None):
    """Euclidean projection onto {lower <= z <= upper, a'z <= b}.

    ``a`` must be componentwise non-negative.  Raises ``ValueError`` on a
    non-finite input and when the box and the half-space do not intersect
    (``a @ lower > b``).
    """
    qp._require_finite(y=y, lower=lower, upper=upper, a=a, b=b)
    if a is not None and a @ lower > b:
        raise ValueError("box and half-space do not intersect")
    return qp._project(y, lower, upper, a, b)[0]


def dichotomy(derivative, lo, hi):
    """(tau*, probes) of the plain integer dichotomy over [lo, hi]: probe
    (a + c) // 2, move a above it where ``derivative`` is < 0 and c onto it
    otherwise, until a == c; tau* = a.  ``probes`` lists the probed charges
    in order."""
    a, c, probes = lo, hi, []
    while a < c:
        mid = (a + c) // 2
        probes.append(mid)
        if derivative(mid) < 0:
            a = mid + 1
        else:
            c = mid
    return a, probes


def dichotomy_charge(scenario, params, objective, lo, hi):
    """tau* of ``dichotomy`` on the objective derivative of
    ``optimize_charge``, each solve warm-started from the ones before it in
    one ``_SolvedCharges``, as ``optimize_charge`` does."""
    charges = objectives._SolvedCharges(scenario, params)

    def derivative(tau):
        p_tau, rep, *_ = charges[tau]
        return objectives._objective_derivative(scenario, objective, p_tau, rep)

    return dichotomy(derivative, lo, hi)[0]
