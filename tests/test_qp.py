"""QP solver versus brute-force KKT enumeration.

The production solver (globalized Newton active-set) and the
oracle (enumerate every bound/cap pattern, solve, screen by KKT signs)
share no code; agreement on seeded instances is the correctness evidence.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcsmfd import project_box_halfspace, qp, solve_qp

from kkt_oracle import enumerate_qp


def random_instance(rng, n, definite=True, with_cap=True):
    m = rng.normal(size=(n, n))
    P = m @ m.T
    if definite:
        P += (0.05 + rng.uniform(0, 1)) * np.eye(n)
    q = rng.normal(scale=2.0, size=n)
    half = rng.uniform(0.2, 2.0, size=n)
    lower, upper = -half, half * rng.uniform(0.5, 1.5, size=n)
    a = None
    b = None
    if with_cap:
        a = np.where(rng.random(n) < 0.8, rng.uniform(0.0, 3.0, size=n), 0.0)
        b = float(rng.uniform(0.0, 1.0) * max(a @ upper, 1e-3))
    return P, q, lower, upper, a, b


def check_exact_feasibility(z, lower, upper, a, b):
    assert np.all(z >= lower)
    assert np.all(z <= upper)
    if a is not None:
        assert a @ z <= b


class TestProjection:
    def test_plain_clip_when_cap_slack(self):
        y = np.array([3.0, -2.0, 0.1])
        lower = np.array([-1.0, -1.0, -1.0])
        upper = np.array([1.0, 1.0, 1.0])
        z = project_box_halfspace(y, lower, upper, np.ones(3), 10.0)
        np.testing.assert_array_equal(z, [1.0, -1.0, 0.1])

    def test_matches_enumerated_projection(self):
        # projection is the QP with P = I, q = -y
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            _, _, lower, upper, a, b = random_instance(rng, n)
            y = rng.normal(scale=1.5, size=n)
            z = project_box_halfspace(y, lower, upper, a, b)
            z_ref, _ = enumerate_qp(np.eye(n), -y, lower, upper, a, b)
            np.testing.assert_allclose(z, z_ref, atol=1e-8)
            check_exact_feasibility(z, lower, upper, a, b)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            _, _, lower, upper, a, b = random_instance(rng, n)
            y = rng.normal(scale=2.0, size=n)
            z = project_box_halfspace(y, lower, upper, a, b)
            z2 = project_box_halfspace(z, lower, upper, a, b)
            np.testing.assert_allclose(z, z2, atol=1e-12)

    def test_empty_intersection_raises_value_error(self):
        # a >= 0, so the half-space misses the box exactly when a'lower > b
        lower = np.array([0.5, -1.0, 0.2])
        upper = np.array([1.0, 1.0, 1.0])
        a = np.array([1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            project_box_halfspace(np.zeros(3), lower, upper, a, 0.8)
        # touching at the corner is not empty
        z = project_box_halfspace(np.zeros(3), lower, upper, a, 0.9)
        np.testing.assert_array_equal(z, [0.5, 0.0, 0.2])


class TestSolver:
    def test_matches_oracle_on_seeded_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            P, q, lower, upper, a, b = random_instance(
                rng, n, with_cap=bool(trial % 3)
            )
            sol = solve_qp(P, q, lower, upper, a, b)
            _, obj_ref = enumerate_qp(P, q, lower, upper, a, b)
            assert sol.objective <= obj_ref + 1e-6 * max(1.0, abs(obj_ref))
            check_exact_feasibility(sol.z, lower, upper, a, b)

    def test_badly_scaled_instance(self):
        # one variable with curvature orders of magnitude above the rest,
        # the regime the equilibrium price column produces
        rng = np.random.default_rng(11)
        n = 5
        P = np.diag([1.0, 1.0, 1.0, 1.0, 2.5e5])
        P[:4, 4] = P[4, :4] = rng.normal(scale=30.0, size=4)
        P += 1e-3 * np.eye(n)
        q = np.array([0.3, -0.4, 0.1, 0.2, -900.0])
        lower = -np.ones(n)
        upper = np.ones(n)
        a = np.array([1.0, 2.0, 0.5, 1.0, 0.0])
        b = 0.7
        sol = solve_qp(P, q, lower, upper, a, b)
        _, obj_ref = enumerate_qp(P, q, lower, upper, a, b)
        assert sol.converged
        assert sol.objective <= obj_ref + 1e-6 * max(1.0, abs(obj_ref))

    def test_zero_gradient_stays_at_zero(self):
        P = np.eye(3)
        sol = solve_qp(P, np.zeros(3), -np.ones(3), np.ones(3))
        np.testing.assert_allclose(sol.z, 0.0, atol=1e-12)
        assert sol.objective == 0.0

    def test_pure_linear_hits_corner(self):
        q = np.array([1.0, -2.0])
        lower = np.array([-0.5, -0.5])
        upper = np.array([0.5, 0.5])
        sol = solve_qp(np.zeros((2, 2)), q, lower, upper)
        np.testing.assert_allclose(sol.z, [-0.5, 0.5], atol=1e-9)

    def test_indefinite_is_shifted_and_objective_never_worse_than_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 4
            m = rng.normal(size=(n, n))
            P = m + m.T          # indefinite in general
            q = rng.normal(size=n)
            lower, upper = -np.ones(n), np.ones(n)
            sol = solve_qp(P, q, lower, upper)
            assert sol.objective <= 1e-12

    def test_rejects_infeasible_zero(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.zeros(2), np.array([0.5, -1.0]), np.ones(2))
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.zeros(2), -np.ones(2), np.ones(2),
                     np.ones(2), -1.0)

    def test_rejects_negative_cap_coeffs(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(2), np.zeros(2), -np.ones(2), np.ones(2),
                     np.array([1.0, -1.0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["P", "q", "y", "lower", "upper", "a", "b"])
    def test_rejects_non_finite_input(self, where, bad):
        # solve_qp takes P and q, the projection y, and both the rest
        args = {"P": np.eye(2), "q": np.array([1.0, -1.0]), "y": np.zeros(2),
                "lower": -np.ones(2), "upper": np.ones(2), "a": np.ones(2), "b": 1.0}
        args[where] = bad if where == "b" else np.where([True, False], bad, args[where])
        rest = [args[k] for k in ("lower", "upper", "a", "b")]
        if where != "y":
            with pytest.raises(ValueError, match=f"^{where} must be finite"):
                solve_qp(args["P"], args["q"], *rest)
        if where not in ("P", "q"):
            with pytest.raises(ValueError, match=f"^{where} must be finite"):
                project_box_halfspace(args["y"], *rest)

    def test_negative_curvature_steps_to_the_bound(self, monkeypatch):
        # the face of the multiplier test at zero is the whole box, and its
        # first conjugate direction, along z1, has curvature -1: the face
        # solve steps down to the bound z1 = -1, the global minimizer
        P = np.diag([-1.0, 1.0])
        q = np.array([0.5, 0.0])
        lower, upper = -np.ones(2), np.ones(2)
        newton_points = []
        orig = qp._newton_point

        def recording(*args):
            newton_points.append(orig(*args))
            return newton_points[-1]

        monkeypatch.setattr(qp, "_newton_point", recording)
        sol = solve_qp(P, q, lower, upper)
        np.testing.assert_array_equal(newton_points[0], [-1.0, 0.0])
        assert sol.converged
        np.testing.assert_array_equal(sol.z, [-1.0, 0.0])
        assert sol.objective == -1.0
        _, obj_ref = enumerate_qp(P, q, lower, upper)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_solver_never_beats_oracle_and_is_feasible(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    P, q, lower, upper, a, b = random_instance(rng, n)
    sol = solve_qp(P, q, lower, upper, a, b)
    z_ref, obj_ref = enumerate_qp(P, q, lower, upper, a, b)
    check_exact_feasibility(sol.z, lower, upper, a, b)
    scale = max(1.0, abs(obj_ref))
    # gap small in both directions: solver is neither worse nor
    # impossibly better than the enumerated optimum
    assert abs(sol.objective - obj_ref) <= 1e-6 * scale
