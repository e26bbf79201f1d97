"""The QP's per-partition memo of active-set refinement candidates.

The memo must be invisible: a solve with it returns bit for bit what a solve
with a fresh refinement at every step returns, and the dense free-block
solves it saves are exactly the repeat visits to a partition.
"""

import numpy as np
import pytest

from tcsmfd import qp, solve_qp

from kkt_oracle import enumerate_qp


def instance(rng, n, kind):
    """Box QP in [-1, 1]^n; ``kind`` picks a binding cap, an interior
    optimum or an indefinite P.  The PSD kinds are ill-conditioned so the
    projected gradient takes many steps and revisits partitions."""
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
# visits one bound partition both with the cap slack and with it near tight,
# so a memo keyed on the bounds alone would drop the cap-row candidate
CASES.append(("cap", 12, 10))


def recording_refine(monkeypatch, fresh_memo=False):
    """Wrap ``_active_set_refine``; return the list of the memo each call
    saw.  ``fresh_memo`` hands every call an empty memo, which defeats the
    cache."""
    orig = qp._active_set_refine
    log = []

    def wrapped(*args, memo, **kwargs):
        if fresh_memo:
            memo = {}
        out = orig(*args, memo=memo, **kwargs)
        log.append(memo)
        return out

    monkeypatch.setattr(qp, "_active_set_refine", wrapped)
    return log


def counting(monkeypatch, name, fail=None):
    """Count calls of ``np.linalg.<name>``, recording whether each matrix
    was a KKT matrix (zero bottom-right corner; the free block's diagonal
    is positive after convexification).  ``fail`` raises LinAlgError for
    matrices it accepts, as LAPACK does for an exactly singular one."""
    orig = getattr(np.linalg, name)
    calls = []

    def wrapped(M, *args, **kwargs):
        calls.append("kkt" if M[-1, -1] == 0.0 else "free")
        if fail is not None and fail(M):
            raise np.linalg.LinAlgError("Singular matrix")
        return orig(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


@pytest.mark.parametrize("kind,seed,n", CASES)
def test_memo_is_bit_identical_to_fresh_refinement(monkeypatch, kind, seed, n):
    P, q, lower, upper, a, b = instance(np.random.default_rng(seed), n, kind)
    log = recording_refine(monkeypatch)
    memo_sol = solve_qp(P, q, lower, upper, a, b)
    memos = {id(m) for m in log}
    assert len(memos) == 1          # one memo, for this call only
    monkeypatch.undo()
    recording_refine(monkeypatch, fresh_memo=True)
    fresh_sol = solve_qp(P, q, lower, upper, a, b)

    assert np.array_equal(memo_sol.z, fresh_sol.z)
    assert memo_sol.objective == fresh_sol.objective
    assert memo_sol.iterations == fresh_sol.iterations
    assert memo_sol.converged == fresh_sol.converged
    assert memo_sol.spectral_shift == fresh_sol.spectral_shift
    assert memo_sol.residual == fresh_sol.residual


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
            assert sol.spectral_shift > 0.0


@pytest.mark.parametrize("kind,seed,n", CASES)
def test_one_free_solve_per_distinct_partition(monkeypatch, kind, seed, n):
    P, q, lower, upper, a, b = instance(np.random.default_rng(seed), n, kind)
    log = recording_refine(monkeypatch)
    solves = counting(monkeypatch, "solve")
    solve_qp(P, q, lower, upper, a, b)
    memo = log[-1]
    with_free = [
        key for key in memo
        if not np.all(np.frombuffer(key[0], bool) | np.frombuffer(key[1], bool))
    ]
    assert solves.count("free") == len(with_free)
    assert solves.count("kkt") <= len(with_free)


def test_memo_hits_on_revisited_partitions(monkeypatch):
    # the claim of the memo is only tested if partitions do repeat
    revisits = 0
    for kind, seed, n in CASES:
        P, q, lower, upper, a, b = instance(np.random.default_rng(seed), n, kind)
        log = recording_refine(monkeypatch)
        solve_qp(P, q, lower, upper, a, b)
        revisits += len(log) - len(log[-1])
        monkeypatch.undo()
    assert revisits >= 10


def test_memoized_candidates_are_read_only():
    P, q, lower, upper, a, b = instance(np.random.default_rng(0), 30, "cap")
    memo = {}
    entries = qp._active_set_refine(P, q, np.zeros(30), lower, upper, a, b,
                                    atol=1e-12, memo=memo)
    assert qp._active_set_refine(P, q, np.zeros(30), lower, upper, a, b,
                                 atol=1e-12, memo=memo) is entries
    for cand, P_cand, _ in entries:
        with pytest.raises(ValueError):
            cand += 1.0
        with pytest.raises(ValueError):
            P_cand += 1.0


def test_singular_free_block_takes_lstsq_fallback(monkeypatch):
    rng = np.random.default_rng(4)
    for trial in range(12):
        n = int(rng.integers(2, 7))
        P, q, lower, upper, a, b = instance(rng, n, ("cap", "interior")[trial % 2])
        fallbacks = counting(monkeypatch, "lstsq")
        counting(monkeypatch, "solve", fail=lambda M: M[-1, -1] != 0.0)
        sol = solve_qp(P, q, lower, upper, a, b)
        monkeypatch.undo()
        assert fallbacks, "no refinement reached the free solve"
        _, obj_ref = enumerate_qp(P, q, lower, upper, a, b)
        assert abs(sol.objective - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))
        assert np.all(sol.z >= lower) and np.all(sol.z <= upper)
        if a is not None:
            assert a @ sol.z <= b


def test_exactly_singular_block_uses_least_squares():
    # LAPACK itself rejects this block; the minimum-norm solution of the
    # consistent reduced system is the candidate
    Pc = np.array([[1.0, 1.0], [1.0, 1.0]])
    q = np.array([-0.5, -0.5])
    lower, upper = -np.ones(2), np.ones(2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(Pc, -q)
    memo = {}
    (cand, Pc_cand, obj), = qp._active_set_refine(
        Pc, q, np.zeros(2), lower, upper, None, None, atol=1e-12, memo=memo)
    np.testing.assert_allclose(cand, [0.25, 0.25], atol=1e-15)
    assert np.array_equal(Pc_cand, Pc @ cand)
    assert obj == float(0.5 * cand @ (Pc @ cand) + q @ cand)
    assert len(memo) == 1
