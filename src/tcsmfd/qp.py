"""Dense quadratic programming over a box intersected with one half-space.

minimize    0.5 z'Pz + q'z
subject to  lower <= z <= upper,  a'z <= b   (a >= 0 componentwise)

This is exactly the shape of the per-iteration subproblem of the equilibrium
solver: per-coordinate trust bounds plus the aggregate credit-cap row.  The
solver is projected gradient with exact line search, accelerated by an
active-set refinement pass (an equality-constrained solve on the free
coordinates) once the active face stabilizes.  An indefinite P is convexified
by shifting its spectrum up by max(0, -lambda_min + delta) with
delta = 1e-8 * ||P||; the shift magnitude is reported.  Feasibility of the
returned point is exact because every iterate is produced by projection
arithmetic (clipping, plus an exact 1-D dual solve for the cap row).

The refinement candidates are memoized per active partition for the length
of one ``solve_qp`` call, because the active face usually stays put across
many refinements and each miss costs two dense solves on the free block.
The memo is exact, not an approximation: inside one call the candidates are
a pure function of (at lower bound, at upper bound, cap near tight), since

- the free block of the matrix depends only on the free mask;
- the reduced right-hand sides read the iterate only at fixed coordinates,
  which are set exactly to the constant ``lower`` or ``upper``;
- the free solve overwrites every other coordinate;
- the final projection is deterministic.

A memo hit therefore returns the very vector a fresh solve would.  ``P @ y``
is likewise computed once per iterate and shared by the objective and the
next gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpSolution", "solve_qp", "project_box_halfspace"]


@dataclass
class QpSolution:
    z: np.ndarray
    objective: float            # value of the original (unshifted) objective
    iterations: int
    converged: bool
    spectral_shift: float
    residual: float             # projected-gradient stationarity residual


def _project_halfspace_dual(y, lower, upper, a, b):
    # smallest lam >= 0 with a' clip(y - lam a) = b; the map is piecewise
    # linear and non-increasing in lam because a >= 0
    pos = a > 0
    ap = a[pos]
    yp = y[pos]
    brk = np.concatenate([(yp - upper[pos]) / ap, (yp - lower[pos]) / ap])
    brk = np.unique(brk[brk > 0.0])

    def g(lam):
        return float(a @ np.clip(y - lam * a, lower, upper))

    # locate the segment [left, right] that brackets g = b
    lo_i, hi_i = 0, len(brk) - 1
    left = 0.0
    right = brk[-1] if len(brk) else 0.0
    if len(brk) == 0 or g(right) > b:
        # all positive-a coordinates clamped at lower and still above b:
        # only possible within rounding noise of an (assumed feasible) b
        lam = right
    else:
        while lo_i <= hi_i:
            mid = (lo_i + hi_i) // 2
            if g(brk[mid]) <= b:
                hi_i = mid - 1
            else:
                lo_i = mid + 1
        # brk[lo_i] is the first breakpoint with g <= b
        left = brk[lo_i - 1] if lo_i > 0 else 0.0
        right = brk[lo_i]
        lam_mid = 0.5 * (left + right)
        inside = (y - lam_mid * a > lower) & (y - lam_mid * a < upper) & pos
        s2 = float(a[inside] @ a[inside])
        if s2 <= 0.0:
            lam = right
        else:
            lam = lam_mid + (g(lam_mid) - b) / s2
            lam = min(max(lam, left), right)
    z = np.clip(y - lam * a, lower, upper)
    # nudge lam upward until the half-space holds exactly in floating point;
    # the bump doubles so even a near-flat final segment terminates quickly
    bump = max(float(np.spacing(max(lam, 1.0))), 5e-324)
    guard = 0
    while a @ z > b:
        lam += bump
        bump *= 2.0
        z = np.clip(y - lam * a, lower, upper)
        guard += 1
        if guard > 300:
            raise AssertionError("cap projection failed to reach feasibility")
    return z


def project_box_halfspace(y, lower, upper, a=None, b=None):
    """Euclidean projection onto {lower <= z <= upper, a'z <= b}.

    ``a`` must be componentwise non-negative and the intersection non-empty
    (guaranteed by construction for cap rows built from a feasible point).
    """
    z = np.clip(y, lower, upper)
    if a is None:
        return z
    if a @ z <= b:
        return z
    return _project_halfspace_dual(y, lower, upper, a, b)


def _convexify(P):
    Ps = P + P.T
    Ps *= 0.5
    eigs = np.linalg.eigvalsh(Ps)
    lam_min = float(eigs[0])
    norm = float(max(abs(eigs[0]), abs(eigs[-1])))
    delta = 1e-8 * norm if norm > 0 else 1e-12
    shift = max(0.0, -lam_min + delta)
    if shift > 0.0:
        Ps[np.diag_indices_from(Ps)] += shift
    return Ps, shift


def _quadratic(P, q, y):
    """(P @ y, 0.5 y'Py + q'y); the caller reuses the product as the
    gradient's first term instead of computing it a second time."""
    Py = P @ y
    return Py, float(0.5 * y @ Py + q @ y)


def _active_set_refine(Pc, q, z, lower, upper, a, b, atol, memo):
    """Equality-constrained solves on the currently free coordinates.

    Fixes coordinates sitting on their bounds and solves the reduced system,
    once treating the cap row as inactive and (if it is anywhere near tight)
    once as an equality; every candidate is projected back to the feasible
    set.  Returns the list of (candidate, Pc @ candidate, objective) triples.

    The candidates depend on ``z`` only through the active partition
    (``at_lo``, ``at_hi``, ``cap_near``): the free block and the reduced
    right-hand sides read ``z`` only at fixed coordinates, which ``base``
    sets exactly to the constant bounds, and the solve overwrites the rest.
    So the list is cached in ``memo`` under that partition and a repeat
    visit costs no solve.  Every hit shares the same arrays, so they are
    returned read-only."""
    at_lo = z - lower <= atol
    at_hi = upper - z <= atol
    cap_near = a is not None and bool((b - a @ z) <= 1e-7 * (1.0 + abs(b)))
    key = (at_lo.tobytes(), at_hi.tobytes(), cap_near)
    if key not in memo:
        entries = []
        for c in _partition_candidates(Pc, q, at_lo, at_hi, cap_near,
                                       lower, upper, a, b):
            Pc_c, obj = _quadratic(Pc, q, c)
            c.flags.writeable = Pc_c.flags.writeable = False
            entries.append((c, Pc_c, obj))
        memo[key] = entries
    return memo[key]


def _partition_candidates(Pc, q, at_lo, at_hi, cap_near, lower, upper, a, b):
    """The projected refinement candidates of one active partition."""
    fixed = at_lo | at_hi
    free = ~fixed
    base = np.where(at_hi, upper, np.where(at_lo, lower, 0.0))
    if not free.any():
        return [project_box_halfspace(base, lower, upper, a, b)]
    Pff = Pc[np.ix_(free, free)]
    rhs = -(q[free] + Pc[np.ix_(free, fixed)] @ base[fixed])
    candidates = []

    # numpy's own LAPACK on purpose: scipy.linalg loads a second OpenBLAS
    # beside numpy's, and on 2 CPUs their two thread pools contend (a cached
    # scipy LU factor was just as exact, but took the congested_policy
    # benchmark from 14 s to 23 s, and its import adds about 60 ms)
    zf = base.copy()
    try:
        zf[free] = np.linalg.solve(Pff, rhs)
    except np.linalg.LinAlgError:
        zf[free] = np.linalg.lstsq(Pff, rhs, rcond=None)[0]
    candidates.append(zf)
    if cap_near and np.any(a[free] != 0.0):
        af = a[free]
        k = Pff.shape[0]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = Pff
        kkt[:k, k] = af
        kkt[k, :k] = af
        zf = base.copy()
        try:
            sol = np.linalg.solve(kkt, np.concatenate([rhs, [b - a[fixed] @ base[fixed]]]))
            zf[free] = sol[:k]
            candidates.append(zf)
        except np.linalg.LinAlgError:
            pass
    return [project_box_halfspace(c, lower, upper, a, b) for c in candidates]


def solve_qp(P, q, lower, upper, a=None, b=None, tol=1e-10, max_iter=500) -> QpSolution:
    """Solve the box + half-space QP.  Starts at 0, which must be feasible.

    Internally the problem is Jacobi-preconditioned (each variable divided
    by the square root of its diagonal curvature) so that wildly different
    variable scales, e.g. a price column orders of magnitude steeper than
    the share columns, do not stall the gradient iteration.  The returned
    objective never exceeds the objective at the zero step and the returned
    point is exactly feasible.  Non-convergence within ``max_iter`` returns
    the best iterate found, flagged.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(q)
    if np.any(lower > 0.0) or np.any(upper < 0.0):
        raise ValueError("zero step must be inside the box")
    if a is not None:
        a = np.asarray(a, dtype=float)
        if np.any(a < 0.0):
            raise ValueError("cap row must have non-negative coefficients")
        if b < 0.0:
            raise ValueError("zero step must satisfy the cap row")

    Pc, shift = _convexify(P)

    diag = np.diag(Pc).copy()
    dmax = float(diag.max()) if n else 1.0
    if dmax <= 0.0:
        s = np.ones(n)
    else:
        s = np.sqrt(np.clip(diag, dmax * 1e-12, None))
    Py = Pc / np.outer(s, s)
    qy = q / s
    low_y = lower * s
    up_y = upper * s
    a_y = a / s if a is not None else None
    eig_y = np.linalg.eigvalsh(Py)
    lips = max(float(eig_y[-1]), 1e-12)

    def orig_obj(z):
        return float(0.5 * z @ (P @ z) + q @ z)

    y = np.zeros(n)
    Pyy, obj = _quadratic(Py, qy, y)
    best_y = y.copy()
    best_obj = obj
    refined = {}  # active partition -> refinement candidates, this call only
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = Pyy + qy
        scale = max(1.0, float(np.max(np.abs(y))))
        res = float(np.max(np.abs(
            project_box_halfspace(y - g, low_y, up_y, a_y, b) - y)))
        if res <= tol * scale:
            converged = True
            break
        yt = project_box_halfspace(y - g / lips, low_y, up_y, a_y, b)
        d = yt - y
        dPd = float(d @ (Py @ d))
        if dPd > 0.0:
            t = min(max(-float(g @ d) / dPd, 0.0), 1.0)
        else:
            t = 1.0
        y = y + t * d
        Pyy, obj = _quadratic(Py, qy, y)
        if it % 5 == 0 or res <= 100.0 * tol * scale:
            for cand, Pyc, obj_c in _active_set_refine(
                Py, qy, y, low_y, up_y, a_y, b,
                atol=1e-10 * (1.0 + float(np.max(up_y - low_y))),
                memo=refined,
            ):
                if obj_c <= obj:
                    y, Pyy, obj = cand, Pyc, obj_c
        if obj < best_obj:
            best_obj = obj
            best_y = y.copy()

    if not converged and obj > best_obj:
        y = best_y

    # back to original coordinates; the final projection restores exact
    # feasibility lost to the rescale rounding (moves the point by ulps)
    z = project_box_halfspace(y / s, lower, upper, a, b)
    g = Pc @ z + q
    res = float(np.max(np.abs(project_box_halfspace(z - g, lower, upper, a, b) - z)))

    return QpSolution(
        z=z,
        objective=orig_obj(z),
        iterations=it,
        converged=converged,
        spectral_shift=shift,
        residual=res,
    )
