"""The QP's active-set refinement: one face solve per guessed partition,
no state carried between calls, and exact answers on singular blocks.

Each pass of the active-set solver minimizes the quadratic once on the face
(partition, active set) it guesses, by conjugate gradients through products
with P, so the tests count those solves, check that no dense linear algebra
runs, check that a solve is a function of its inputs alone, and keep the
instances: a binding cap, an interior optimum and an indefinite P,
ill-conditioned so the solver has to change faces.
"""

import numpy as np
import pytest

from tcsmfd import qp, solve_qp

from kkt_oracle import enumerate_qp
from test_qp_active_set import kkt_residual


def instance(rng, n, kind):
    """Box QP in [-1, 1]^n; ``kind`` picks a binding cap, an interior
    optimum or an indefinite P.  The PSD kinds are ill-conditioned so the
    solver takes several steps and changes partitions."""
    m = rng.normal(size=(n, n))
    lower, upper = -np.ones(n), np.ones(n)
    a = b = None
    if kind == "indefinite":
        P = m + m.T
        q = rng.normal(size=n)
        return P, q, lower, upper, a, b
    u, _ = np.linalg.qr(m)
    P = (u * np.logspace(-3, 1, n)) @ u.T
    if kind == "interior":
        q = -P @ rng.uniform(-0.5, 0.5, size=n)
    else:
        q = -np.abs(rng.normal(scale=2.0, size=n))    # pushes into the cap
        a = rng.uniform(0.5, 2.0, size=n)
        b = 0.05 * float(a @ upper)
    return P, q, lower, upper, a, b


CASES = [(kind, seed, 30) for kind in ("cap", "interior", "indefinite") for seed in range(3)]
# visits one bound partition both with the cap slack and with it near tight
CASES.append(("cap", 12, 10))


def recording_linalg(monkeypatch):
    """Wrap every function of ``np.linalg``; return the list of the names
    called."""
    calls = []
    for name in np.linalg.__all__:
        orig = getattr(np.linalg, name)
        if isinstance(orig, type) or not callable(orig):
            continue

        def wrapped(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


def recording_partitions(monkeypatch):
    """Wrap ``_newton_point``; return the list of the partitions it was
    asked to solve, as (at lower, at upper, cap on)."""
    orig = qp._newton_point
    log = []

    def wrapped(hv, q, at_lo, at_hi, cap_on, lower, upper, a, b):
        log.append((at_lo, at_hi, cap_on))
        return orig(hv, q, at_lo, at_hi, cap_on, lower, upper, a, b)

    monkeypatch.setattr(qp, "_newton_point", wrapped)
    return log


@pytest.mark.parametrize("kind,seed,n", CASES)
def test_memo_is_bit_identical_to_fresh_refinement(kind, seed, n):
    # nothing survives a call and no input is written (P is scaled in a
    # copy): solving twice on the same arrays gives bit for bit what a
    # solve on fresh copies gives
    P, q, lower, upper, a, b = instance(np.random.default_rng(seed), n, kind)
    inputs = [x.copy() for x in (P, q, lower, upper) + ((a,) if a is not None else ())]
    first = solve_qp(P, q, lower, upper, a, b)
    again = solve_qp(P, q, lower, upper, a, b)
    fresh = solve_qp(P.copy(), q.copy(), lower.copy(), upper.copy(),
                     None if a is None else a.copy(), b)
    for x, x0 in zip((P, q, lower, upper, a), inputs):
        assert np.array_equal(x, x0)

    for sol in (again, fresh):
        assert np.array_equal(first.z, sol.z)
        assert first.objective == sol.objective
        assert first.iterations == sol.iterations
        assert first.converged == sol.converged
        assert first.residual == sol.residual


def test_cases_cover_their_kinds():
    for kind, seed, n in CASES:
        P, q, lower, upper, a, b = instance(np.random.default_rng(seed), n, kind)
        sol = solve_qp(P, q, lower, upper, a, b)
        assert sol.converged
        if kind == "cap":
            assert b - a @ sol.z <= 1e-9
        elif kind == "interior":
            assert np.all(np.abs(sol.z) < 1.0)
        else:
            # a KKT point of P itself: nothing convexifies the indefinite P
            assert kkt_residual(P, q, lower, upper, a, b, sol) <= 1e-10 * max(
                1.0, float(np.max(np.abs(sol.z))))
            assert np.linalg.eigvalsh(P)[0] < 0.0


@pytest.mark.parametrize("kind,seed,n", CASES)
def test_one_free_solve_per_distinct_partition(monkeypatch, kind, seed, n):
    # one face solve per partition guessed, at most one guess per
    # iteration, and P enters only through products: no np.linalg call,
    # so no factorization, eigenvalue or dense solve, whatever the kind
    P, q, lower, upper, a, b = instance(np.random.default_rng(seed), n, kind)
    log = recording_partitions(monkeypatch)
    calls = recording_linalg(monkeypatch)
    sol = solve_qp(P, q, lower, upper, a, b)

    assert sol.converged
    assert 0 < len(log) <= sol.iterations
    assert calls == []


def test_exactly_singular_block_uses_least_squares():
    # LAPACK rejects the block itself; conjugate gradients from zero stay
    # in the block's range and so reach its minimum-norm minimizer
    Pc = np.array([[1.0, 1.0], [1.0, 1.0]])
    q = np.array([-0.5, -0.5])
    lower, upper = -np.ones(2), np.ones(2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(Pc, -q)
    sol = solve_qp(Pc, q, lower, upper)
    assert sol.converged
    np.testing.assert_allclose(sol.z, [0.25, 0.25], atol=1e-8)
    _, obj_ref = enumerate_qp(Pc, q, lower, upper)
    assert abs(sol.objective - obj_ref) <= 1e-12
