"""Eigenvalue routine against closed forms and the numpy reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsmfd import eig_values


def sort_complex(vals):
    vals = np.asarray(vals, dtype=complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def assert_spectra_close(got, want, atol):
    got = sort_complex(got)
    want = sort_complex(want)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=atol, rtol=0)


def companion(coeffs):
    """Companion matrix of a monic polynomial with the given roots' coeffs."""
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    m = np.zeros((n, n))
    m[0, :] = -c
    m[1:, :-1] = np.eye(n - 1)
    return m


def separated_roots(rng, n):
    # real parts at least 0.5 apart keeps the companion matrix benign
    re = np.cumsum(0.5 + rng.uniform(0.0, 1.0, size=n)) - n / 2.0
    roots = []
    i = 0
    while i < len(re):
        if i + 1 < len(re) and rng.uniform() < 0.4:
            im = rng.uniform(0.2, 2.0)
            roots += [complex(re[i], im), complex(re[i], -im)]
            i += 2
        else:
            roots.append(complex(re[i], 0.0))
            i += 1
    return np.array(roots[:n])


class TestClosedForms:
    def test_empty(self):
        res = eig_values(np.zeros((0, 0)))
        assert res.converged and res.values.size == 0

    def test_one_by_one(self):
        res = eig_values(np.array([[3.5]]))
        assert res.values[0] == 3.5

    def test_2x2_real_pair(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert_spectra_close(eig_values(a).values, [1.0, 3.0], atol=1e-14)

    def test_2x2_complex_pair(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])   # rotation: +/- i
        assert_spectra_close(eig_values(a).values, [1j, -1j], atol=1e-14)

    def test_diagonal(self):
        d = np.diag([5.0, -2.0, 0.0, 1.5])
        assert_spectra_close(eig_values(d).values, np.diag(d), atol=1e-14)

    def test_upper_triangular(self):
        a = np.triu(np.arange(16, dtype=float).reshape(4, 4) + 1.0)
        assert_spectra_close(eig_values(a).values, np.diag(a), atol=1e-12)

    def test_defective_jordan_block(self):
        # double eigenvalue with a single eigenvector: accuracy degrades to
        # sqrt(eps), which the tolerance must respect
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        res = eig_values(a)
        assert_spectra_close(res.values, [2.0, 2.0], atol=1e-7)

    def test_nilpotent(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 2] = 1.0
        res = eig_values(a)
        assert_spectra_close(res.values, [0.0, 0.0, 0.0], atol=1e-5)


class TestFailure:
    def test_nan_input_flagged_not_raised(self):
        res = eig_values(np.full((3, 3), np.nan))
        assert not res.converged
        assert res.values.shape == (3,)
        assert np.all(np.isnan(res.values))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_values(np.zeros((3, 4)))


class TestDenseRandom:
    def test_matches_numpy_many_sizes(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8, 13, 21, 34):
            for _ in range(3):
                a = rng.standard_normal((n, n))
                res = eig_values(a)
                assert res.converged
                want = np.linalg.eigvals(a)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert_spectra_close(res.values, want, atol=1e-10 * scale)

    def test_spectral_abscissa_stable_matrix(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((10, 10))
        a = -(q @ q.T) - 0.5 * np.eye(10)   # symmetric negative definite
        res = eig_values(a)
        assert res.converged
        assert float(np.max(res.values.real)) < 0.0


class TestCompanionOracle:
    def test_separated_roots_match(self):
        # the dual route: polynomial roots via the companion matrix
        rng = np.random.default_rng(11)
        for n in (3, 5, 8, 12):
            for _ in range(5):
                roots = separated_roots(rng, n)
                coeffs = np.real(np.poly(roots))[1:]
                res = eig_values(companion(coeffs))
                assert res.converged
                assert_spectra_close(res.values, roots, atol=1e-8)

    def test_wilkinson_style_row(self):
        # moderately clustered real roots 1..10: classic conditioning stress
        roots = np.arange(1.0, 11.0)
        coeffs = np.real(np.poly(roots))[1:]
        res = eig_values(companion(coeffs))
        want = np.roots(np.concatenate([[1.0], coeffs]))
        assert_spectra_close(res.values, want, atol=1e-4 * np.max(roots))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=10_000),
)
def test_real_spectrum_closed_under_conjugation(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    res = eig_values(a)
    assert res.values.shape == (n,)
    if res.converged:
        # real matrix: eigenvalues come in conjugate pairs, sum is the trace
        assert_spectra_close(res.values, np.conj(res.values), atol=1e-9)
        assert np.sum(res.values).real == pytest.approx(
            np.trace(a), abs=1e-9 * max(1.0, abs(np.trace(a)))
        )
        assert abs(np.sum(res.values).imag) < 1e-9
