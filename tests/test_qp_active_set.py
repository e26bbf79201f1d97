"""The active-set QP solver: optimality on an ill-conditioned box QP, a
bound on its iteration count, and what its ``converged`` flag promises.

Test instances come from the acceptance suite's C05 generator and from
``test_qp.random_instance``; the reference on the larger instance is
scipy's L-BFGS-B, which shares no code with the solver.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from tcsmfd import project_box_halfspace, solve_qp

from test_qp import random_instance


def c05_instances(seed, count):
    """The acceptance suite's C05 family: PD P up to 10 variables, half of
    them with a cap row."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 11))
        m = rng.normal(size=(n, n))
        P = m @ m.T + (0.05 + rng.uniform()) * np.eye(n)
        q = rng.normal(scale=2.0, size=n)
        half = rng.uniform(0.2, 2.0, size=n)
        lower, upper = -half, half * rng.uniform(0.5, 1.5, size=n)
        a = b = None
        if rng.random() < 0.5:
            a = np.where(rng.random(n) < 0.8, rng.uniform(0.0, 3.0, n), 0.0)
            b = float(rng.uniform(0.0, 1.0) * max(a @ upper, 1e-3))
        yield P, q, lower, upper, a, b


def test_ill_conditioned_box_qp_reaches_lbfgsb():
    # the optimum leaves bounds the zero step does not touch, with curvature
    # spread over four decades: the projected-gradient solver this one
    # replaced stopped here at 500 iterations, 76% above the optimum
    rng = np.random.default_rng(0)
    n = 30
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    P = (u * np.logspace(-3, 1, n)) @ u.T
    q = 1e-3 * rng.normal(scale=2.0, size=n)
    lower, upper = -np.ones(n), np.ones(n)
    sol = solve_qp(P, q, lower, upper)
    ref = minimize(lambda z: 0.5 * z @ P @ z + q @ z, np.zeros(n),
                   jac=lambda z: P @ z + q, method="L-BFGS-B",
                   bounds=list(zip(lower, upper)))
    assert sol.converged
    assert sol.objective <= ref.fun + 1e-9 * abs(ref.fun)
    assert np.all(sol.z >= lower) and np.all(sol.z <= upper)


def test_cap_on_zero_curvature_coordinate():
    # z2 has no curvature, so its Jacobi scale is clipped and it meets the
    # cap row with a scaled coefficient of 1e6: eliminating the cap row
    # from the nearly singular free block cancels every digit of z2
    P = np.diag([1.0, 0.0])
    q = np.array([1.0, -2.0])
    sol = solve_qp(P, q, -np.ones(2), np.ones(2), np.array([0.0, 1.0]), 0.5)
    assert sol.converged
    np.testing.assert_allclose(sol.z, [-1.0, 0.5], atol=1e-7)
    assert sol.z[1] <= 0.5


def test_projection_onto_steep_cap_row_is_exact():
    # the credit cap row has coefficients tau * gamma ~ 1e4..1e5 while its
    # right-hand side can be ~1e-9; the feasibility nudge after the dual
    # solve must not push the point off the row by more than rounding
    rng = np.random.default_rng(4)
    n = 200
    a = rng.uniform(1e4, 1e5, size=n)
    y = rng.uniform(-0.1, 0.1, size=n)
    b = 1e-9
    lower, upper = -np.ones(n), np.ones(n)
    z = project_box_halfspace(y, lower, upper, a, b)
    exact = y - (a @ y - b) / (a @ a) * a      # no bound is active here
    assert a @ z <= b
    np.testing.assert_allclose(z, exact, rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [123, 0, 1])
def test_iterations_bounded_on_c05_family(seed):
    # 2 000 instances of this family needed at most 8 iterations
    for P, q, lower, upper, a, b in c05_instances(seed, 100):
        sol = solve_qp(P, q, lower, upper, a, b)
        assert sol.converged
        assert sol.iterations <= 10


def kkt_residual(P, q, lower, upper, a, b, sol):
    """KKT residual of the problem as posed, with P itself."""
    g = P @ sol.z + q
    return float(np.max(np.abs(project_box_halfspace(sol.z - g, lower, upper, a, b) - sol.z)))


@pytest.mark.parametrize("with_cap", [False, True])
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_converged_means_small_original_residual(with_cap, tol):
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        P, q, lower, upper, a, b = random_instance(rng, n, with_cap=with_cap)
        sol = solve_qp(P, q, lower, upper, a, b, tol=tol)
        assert sol.converged
        res = kkt_residual(P, q, lower, upper, a, b, sol)
        scale = max(1.0, float(np.max(np.abs(sol.z))))
        assert res <= tol * scale
        # the residual the solver reports is that one, up to rounding
        assert sol.residual == pytest.approx(res, rel=1e-6, abs=1e-13 * scale)
