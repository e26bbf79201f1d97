"""Quadratic programming over a box intersected with one half-space.

minimize    0.5 z'Pz + q'z
subject to  lower <= z <= upper,  a'z <= b   (a >= 0 componentwise)

P is a symmetric array, or a symmetric operator with ``P @ v``,
``P.diagonal()`` and ``shape`` that checks its own entries finite (the
equilibrium's Gauss-Newton matrix, never formed).  It need not be definite.
Every input must be finite.
This is exactly the shape of the per-iteration subproblem of the equilibrium
solver: per-coordinate trust bounds plus the aggregate credit-cap row.  The
solver is a primal-dual active-set method, i.e. semismooth Newton
(Hintermüller, Ito & Kunisch 2002, SIAM J. Optim. 13(3)), globalized by a
projected search (Moré & Toraldo 1991, SIAM J. Optim. 1(1)), in the Jacobi
scaling y = s z, s_i = sqrt(|P_ii|) clipped below, that gives the matrix a
unit diagonal.  The solver reads P only through its diagonal and products
P @ v.

- Step.  The multiplier test with c = 1 guesses the active set: a bound,
  or the cap row, is active where the projection of y - grad f(y) puts the
  point on it (the cap's multiplier is that projection's dual).  Conjugate
  gradients (Hestenes & Stiefel 1952) minimize the quadratic on that face:
  the fixed coordinates sit at their bounds, every residual is masked to
  the free coordinates and, when the cap row is active, projected onto its
  null space, from a start on the row.  The solve stops at a relative
  residual of 1e-14.
- Curvature.  P is minimized as it is.  A conjugate direction of
  non-positive curvature (Steihaug 1983, SIAM J. Numer. Anal. 20(3)) ends
  the face solve: the step goes downhill along it to the first bound.
- Safeguard.  The projected Newton point is accepted only if it lowers the
  objective by a sufficient decrease, and the next guess is made at the
  Newton point.  Otherwise a projected search backtracks along the Newton
  path.  Where that path does not descend, the search tries instead the
  point where the way to the Newton point meets its first bound, if the
  iterate lies on the guessed face (f falls up to there), or else runs
  along the projected-gradient path; the next guess is the face it
  reaches.  As every accepted point lowers the objective, a repeated active
  set is never accepted twice.
- Convergence.  ``converged`` means that the KKT residual in original
  coordinates, ||proj(z - (Pz + q)) - z||_inf, is at most
  tol * max(1, ||z||_inf).  For an indefinite P that is a KKT point, not
  necessarily the global minimizer.

The returned point is exactly feasible: it comes out of projection
arithmetic (clipping, plus an exact 1-D dual solve for the cap row).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = ["QpSolution", "solve_qp"]


@dataclass
class QpSolution:
    z: np.ndarray
    objective: float            # 0.5 z'Pz + q'z
    iterations: int
    converged: bool
    residual: float             # KKT residual in original coordinates
    cg_iterations: int          # CG products, summed over the face solves


def _project(y, lower, upper, a, b):
    """Projection onto {lower <= z <= upper, a'z <= b} and the cap row's
    dual: the smallest lam >= 0 with a' clip(y - lam a) <= b."""
    z = np.clip(y, lower, upper)
    if a is None or a @ z <= b:
        return z, 0.0
    # the map lam -> a' clip(y - lam a) is piecewise linear and
    # non-increasing because a >= 0: find the segment between breakpoints
    # where it crosses b
    pos = a > 0
    ap = a[pos]
    yp = y[pos]
    brk = np.concatenate([(yp - upper[pos]) / ap, (yp - lower[pos]) / ap])
    brk = np.unique(brk[brk > 0.0])

    def g(lam):
        return float(a @ np.clip(y - lam * a, lower, upper))

    i = bisect_left(brk, True, key=lambda lam: g(lam) <= b)
    if i == len(brk):
        # all positive-a coordinates clamped at lower and still above b:
        # only possible within rounding noise of an intersecting b
        lam = brk[-1] if len(brk) else 0.0
    else:
        left = brk[i - 1] if i > 0 else 0.0
        right = brk[i]
        lam_mid = 0.5 * (left + right)
        inside = (y - lam_mid * a > lower) & (y - lam_mid * a < upper) & pos
        s2 = float(a[inside] @ a[inside])
        if s2 <= 0.0:
            lam = right
        else:
            lam = min(max(lam_mid + (g(lam_mid) - b) / s2, left), right)
    z = np.clip(y - lam * a, lower, upper)
    # nudge lam upward until the half-space holds exactly in floating point.
    # The first bump is the correction for the rounding excess, so that a
    # steep row (large a) moves the point by no more than that excess; the
    # bump doubles so even a near-flat final segment terminates quickly
    bump = max((float(a @ z) - b) / float(a @ a), float(np.spacing(lam)))
    for _ in range(301):
        if a @ z <= b:
            return z, lam
        lam += bump
        bump *= 2.0
        z = np.clip(y - lam * a, lower, upper)
    raise RuntimeError("cap projection failed to reach feasibility")


def _require_finite(**arrays):
    for name, v in arrays.items():
        if v is not None and not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")


def _newton_point(hv, q, at_lo, at_hi, cap_on, lower, upper, a, b):
    """Minimizer of the quadratic with the guessed active set as equalities:
    fixed coordinates at their bounds and, with ``cap_on``, a'y = b; or, on
    non-positive curvature, the first bound downhill.  ``hv`` is the product
    with the matrix.  Returns the point and its number of CG iterations."""
    y = np.where(at_hi, upper, np.where(at_lo, lower, 0.0))
    free = ~(at_lo | at_hi)
    if not free.any():
        return y, 0
    row = a * free if cap_on and np.any(a[free] > 0.0) else None
    if row is not None:
        y += (b - a @ y) / (row @ row) * row

    def project(r):
        r = r * free
        return r if row is None else r - (row @ r) / (row @ row) * row

    # conjugate gradients on the face, updating the projected gradient g
    # itself: at the face's minimizer the full gradient is the cap's
    # multiplier times the row, and projecting it afresh leaves that much
    # rounding in g.  Rounding can delay the end past the face's dimension
    # (2.7 times it on the test instances); the bound guards stagnation
    g = project(hv(y) + q)
    gg = gg0 = float(g @ g)
    d = -g
    limit = 5 * int(free.sum())
    for it in range(limit):
        if gg <= 1e-28 * gg0:
            return y, it
        Hd = hv(d)
        curv = float(d @ Hd)
        if curv <= 0.0:
            # f falls without bound along d: stretched across the widest
            # side of the box, d reaches a bound (on the cap row, along it)
            far = d * (float(np.max(upper - lower)) / float(np.max(np.abs(d))))
            step = _to_first_bound(y, far, lower, upper, a if row is None else None, b)
            return y + step, it + 1
        alpha = gg / curv
        y += alpha * d
        g = project(g + alpha * Hd)
        gg_prev, gg = gg, float(g @ g)
        d = gg / gg_prev * d - g
    return y, limit


def _projected_search(hv, q, y, Hy, direction, lower, upper, a, b):
    """Moré-Toraldo projected search along y(t) = proj(y + t direction).

    Takes the first t = 1, ... at which f falls with the sufficient decrease
    f(y(t)) - f(y) <= 1e-4 g'(y(t) - y), g the gradient at y; each
    backtrack minimizes the quadratic along the chord to y(t), kept within
    [t/10, t/2].  Returns (point, hv(point), cap dual of its projection, t),
    or None when the path does not descend from y."""
    g = Hy + q
    t = 1.0
    for _ in range(60):
        yt, lam = _project(y + t * direction, lower, upper, a, b)
        d = yt - y
        gd = float(g @ d)
        Hyt = hv(yt)
        # the objective change, in a form exact up to rounding in the step
        change = gd + 0.5 * float(d @ (Hyt - Hy))
        if change < 0.0 and change <= 1e-4 * gd:
            return yt, Hyt, lam, t
        if gd >= 0.0:
            return None
        t *= min(0.5, max(0.1, -gd / (2.0 * (change - gd))))
    return None


def _to_first_bound(y, d, lower, upper, a, b):
    """The longest part t d of d, 0 <= t <= 1, along which y + t d stays
    feasible (t = 0 where y is already past a bound in d's direction)."""
    room = np.divide(np.where(d > 0.0, upper - y, lower - y), d,
                     out=np.ones_like(d), where=d != 0.0)
    t = max(float(np.min(room, initial=1.0)), 0.0)
    if a is not None and a @ d > 0.0:
        t = min(t, max(float(b - a @ y), 0.0) / float(a @ d))
    return t * d


def _face(w, lam, lower, upper):
    """Active set (at lower, at upper, cap on) of a projected point ``w``
    whose projection had cap dual ``lam``."""
    at_lo = w <= lower
    return at_lo, (w >= upper) & ~at_lo, lam > 0.0


def solve_qp(P, q, lower, upper, a=None, b=None, tol=1e-10, max_iter=500) -> QpSolution:
    """Solve the box + half-space QP.  Starts at 0, which must be feasible.

    The returned objective never exceeds the objective at the zero step and
    the returned point is exactly feasible.  Stopping after ``max_iter``
    iterations, or where no step lowers the objective before the KKT
    residual meets ``tol``, returns the last iterate, flagged.
    """
    # an operator is read as it is; it checked its own entries
    operator = hasattr(P, "diagonal") and not isinstance(P, np.ndarray)
    if not operator:
        P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(q)
    _require_finite(P=None if operator else P, q=q, lower=lower, upper=upper, a=a, b=b)
    if np.any(lower > 0.0) or np.any(upper < 0.0):
        raise ValueError("zero step must be inside the box")
    if a is not None:
        a = np.asarray(a, dtype=float)
        if np.any(a < 0.0):
            raise ValueError("cap row must have non-negative coefficients")
        if b < 0.0:
            raise ValueError("zero step must satisfy the cap row")

    d = np.abs(P.diagonal())
    dmax = float(d.max()) if n else 0.0
    s = np.sqrt(np.maximum(d, 1e-12 * dmax)) if dmax > 0.0 else np.ones(n)

    def hv(v):
        # the product with the Jacobi-scaled matrix, P never copied
        return (P @ (v / s)) / s

    qy = q / s
    lo = lower * s
    up = upper * s
    ay = a / s if a is not None else None

    def kkt(y, Hy):
        # the iterate in original coordinates, its KKT residual, converged
        z = _project(y / s, lower, upper, a, b)[0]
        dz = _project(z - (Hy + qy) * s, lower, upper, a, b)[0] - z
        res = float(np.max(np.abs(dz), initial=0.0))
        return z, res, res <= tol * max(1.0, float(np.max(np.abs(z), initial=0.0)))

    y, Hy = np.zeros(n), np.zeros(n)
    face = _face(*_project(-qy, lo, up, ay, b), lo, up)   # the multiplier test at 0
    on_face = False
    it = cg_iterations = 0
    for it in range(1, max_iter + 1):
        z, res, converged = kkt(y, Hy)
        if converged:
            break
        yn, cg = _newton_point(hv, qy, *face, lo, up, ay, b)
        cg_iterations += cg
        step = _projected_search(hv, qy, y, Hy, yn - y, lo, up, ay, b)
        if step is not None and step[3] == 1.0:
            # the projected Newton point: guess the next active set by the
            # multiplier test at the Newton point
            y, Hy = step[:2]
            face = _face(*_project(yn - (hv(yn) + qy), lo, up, ay, b), lo, up)
            on_face = False
            continue
        if step is None and on_face:
            # y lies on the guessed face, so f falls towards the Newton point
            # up to the first bound on the way (the projected path can climb)
            step = _projected_search(hv, qy, y, Hy, _to_first_bound(y, yn - y, lo, up, ay, b),
                                     lo, up, ay, b)
        if step is None:
            # the Newton path does not descend from y
            step = _projected_search(hv, qy, y, Hy, -(Hy + qy), lo, up, ay, b)
            if step is None:
                break
        # the next guess is the face the search reached
        y, Hy, lam, _ = step
        face = _face(y, lam, lo, up)
        on_face = True
    else:
        z, res, converged = kkt(y, Hy)

    return QpSolution(
        z=z,
        objective=float(0.5 * z @ (P @ z) + q @ z),
        iterations=it,
        converged=converged,
        residual=res,
        cg_iterations=cg_iterations,
    )
