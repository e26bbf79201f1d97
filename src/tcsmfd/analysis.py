"""Equilibrium diagnostics: uniqueness sampling and local stability.

Uniqueness rests on a monotonicity condition: for any two distinct share
vectors the dot product (T(x1) - T(x2))' diag(gamma) (x1 - x2) should be
strictly positive.  It is checked empirically over Latin-hypercube samples
of the share box (``_latin_hypercube``, which draws scipy's
``qmc.LatinHypercube`` samples bit for bit without importing scipy), all
simulated by one lockstep event loop
(``simulator.simulate_car_times``): every sample advances one event per
step through the scalar loop's own operations applied elementwise, so the
travel times, and the dot products built from them, are bitwise those of
one ``simulate`` call per sample.  The pairs are scanned one sample at a
time against the samples after it, through slices; no two samples
coincide, since each lies in its own stratum of every coordinate
(``_latin_hypercube``).  Stability linearizes the day-to-day adjustment
(shares chase the logit response, the price reacts to excess credit
demand) at an equilibrium and asks every eigenvalue of the Jacobian
for a negative real part: the solver's own logit Jacobian
(``equilibrium._linearize``), with eigenvalues from LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import _linearize, logit_choice
from .gradients import travel_time_gradient  # noqa: F401  (traced here by perfbench)
from .scenario import Scenario, TcsParams, _require_count
from .simulator import simulate, simulate_car_times

__all__ = [
    "UniquenessReport",
    "uniqueness_check",
    "EigResult",
    "eig_values",
    "StabilityReport",
    "stability_check",
    "histogram_rows",
]

_BLOCK_ELEMENTS = 1 << 16  # pair differences per block in uniqueness_check


@dataclass
class UniquenessReport:
    n_samples: int
    n_pairs: int
    all_pairs: bool
    min_dot: float
    percentiles: dict
    dots: np.ndarray

    @property
    def positive(self) -> bool:
        return bool(self.min_dot > 0.0)


def uniqueness_check(
    scenario: Scenario,
    n_samples: int = 200,
    seed: int = 0,
    max_pairs: int = 1_000_000,
) -> UniquenessReport:
    """Sample share vectors, simulate them in one batch, and scan pair dot
    products.

    All pairs are used when their count stays within ``max_pairs``;
    otherwise a seeded random subset of exactly ``max_pairs`` pairs is drawn
    and the subset size reported (``all_pairs=False``).
    """
    _require_count(n_samples, "n_samples")
    _require_count(max_pairs, "max_pairs")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    xs = _latin_hypercube(scenario.n, n_samples, seed)
    # shares and car times side by side, so that one subtraction gives both
    # differences of a block of pairs
    xt = np.stack([xs, simulate_car_times(scenario, xs)])

    # the (pairs x N) differences are formed one block of pairs at a time:
    # all at once they take three such arrays for one number per pair
    g = scenario.gammas
    block = max(1, _BLOCK_ELEMENTS // scenario.n)
    dots = []
    n_all = n_samples * (n_samples - 1) // 2
    all_pairs = n_all <= max_pairs
    if all_pairs:
        # row i against the rows after it, row-major, through slices
        for i in range(n_samples - 1):
            for j in range(i + 1, n_samples, block):
                dx, dt = xt[:, i, None] - xt[:, j : j + block]
                dt *= dx
                dots.append(dt @ g)
    else:
        # max_pairs distinct ranks in the row-major order of the pairs i < j,
        # mapped back to (i, j) by where each row ends (row i holds
        # n_samples - 1 - i pairs)
        ranks = _distinct_ranks(np.random.default_rng(seed), n_all, max_pairs)
        row_end = np.cumsum(np.arange(n_samples - 1, 0, -1))
        i = np.searchsorted(row_end, ranks, side="right")
        j = ranks - row_end[i] + n_samples
        for start in range(0, max_pairs, block):
            a, b = i[start : start + block], j[start : start + block]
            dx, dt = xt[:, a] - xt[:, b]
            dt *= dx
            dots.append(dt @ g)
    dots = np.concatenate(dots)

    qs = (0.0, 1.0, 5.0, 25.0, 50.0, 100.0)
    return UniquenessReport(
        n_samples=n_samples,
        n_pairs=int(len(dots)),
        all_pairs=all_pairs,
        min_dot=float(dots.min()),
        percentiles=dict(zip(qs, np.percentile(dots, qs).tolist())),
        dots=dots,
    )


def _latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """n points of a random Latin hypercube in [0, 1)^d, shape (n, d).

    Bit for bit ``scipy.stats.qmc.LatinHypercube(d=d, seed=seed).random(n)``
    (its default design: scrambled, strength 1, no optimization), by the
    same draws from the same generator: a uniform offset per cell, then one
    shuffled row of strata per dimension, the rows shuffled in order.
    Written out here so that the package never imports scipy.stats, which
    takes longer to load than the whole diagnostics pass takes to run.

    Each column is a permutation of the strata 1, ..., n minus offsets in
    [0, 1), so two points lie in different strata of every column and do
    not coincide (short of a rounding tie at a stratum edge, which needs
    offsets within about n ulps of 0 and of 1 at once)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    rng.permuted(perms, axis=1, out=perms)
    return (perms.T - u) / n


def _distinct_ranks(rng, n: int, k: int) -> np.ndarray:
    """k distinct integers drawn uniformly from [0, n), sorted, in O(k) memory.

    ``rng.choice(n, k, replace=False)`` allocates all n candidates once k
    exceeds n / 50; n is the pair count here, which subsampling exists not
    to allocate."""
    if 2 * k > n:
        return np.sort(rng.permutation(n)[:k])  # n < 2k: the range itself is O(k)
    ranks = np.empty(0, dtype=np.int64)
    while len(ranks) < k:  # each fresh draw is new with probability >= 1/2
        fresh = rng.integers(0, n, size=k - len(ranks))
        ranks = np.sort(np.concatenate([ranks, fresh]))
        ranks = ranks[np.r_[True, ranks[1:] != ranks[:-1]]]
    return ranks


def _closed(a: np.ndarray, gammas: np.ndarray, tau: float) -> np.ndarray:
    """``a``, whose first N rows hold the logit Jacobian, completed in place
    into the stability Jacobian: the price row from those rows, then -1 on
    the share diagonal (no N x N identity alongside)."""
    n = len(a) - 1
    a[n, :] = tau * (gammas @ a[:n])
    a[np.diag_indices(n)] -= 1.0
    return a


@dataclass
class EigResult:
    values: np.ndarray       # complex, length n
    converged: bool


def eig_values(a: np.ndarray) -> EigResult:
    """All eigenvalues of a real square matrix (``np.linalg.eigvals``).  A
    LAPACK failure (non-finite input or no convergence) is a flagged result,
    all NaNs and unconverged, not an error."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    try:
        return EigResult(values=np.linalg.eigvals(a).astype(complex), converged=True)
    except np.linalg.LinAlgError:
        return EigResult(values=np.full(a.shape[0], np.nan, dtype=complex), converged=False)


@dataclass
class StabilityReport:
    stable: bool
    spectral_abscissa: float
    eigenvalues: np.ndarray
    eig_converged: bool


def stability_check(scenario: Scenario, params: TcsParams, state) -> StabilityReport:
    """Assemble the Jacobian at an equilibrium state and locate its spectrum.

    The price must be strictly positive (the price dynamics are only defined
    on the binding-cap branch).  The state is simulated here, unlike in
    ``_stability_at``, which reads an ``EquilibriumReport``'s."""
    if not (state.p > 0):
        raise ValueError("stability analysis needs a binding cap (p > 0)")
    sim = simulate(scenario, state.x)
    psi = logit_choice(sim.car_times, scenario.pt_times, state.p, params)
    return _stability_at(scenario, params, sim, psi)


def _stability_at(scenario: Scenario, params: TcsParams, sim, psi) -> StabilityReport:
    """``stability_check`` at the state simulated as ``sim``, with logit
    response ``psi``.  The Jacobian is dropped once its eigenvalues are
    known: a report holds no (N+1)^2 array."""
    res = eig_values(_jacobian(scenario, params, sim, psi))
    abscissa = float(np.max(res.values.real))
    return StabilityReport(
        stable=bool(abscissa < 0.0 and res.converged),
        spectral_abscissa=abscissa,
        eigenvalues=res.values,
        eig_converged=res.converged,
    )


def _jacobian(scenario: Scenario, params: TcsParams, sim, psi) -> np.ndarray:
    """The stability Jacobian at the state simulated as ``sim``, with logit
    response ``psi``.  The solver's linearization is scattered into the
    first N rows over share entries that each hold their row's zero as the
    logit scaling gives it, ``(psi (psi - 1) theta alpha)_i * 0.0`` (-0.0
    for psi_i in (0, 1)), so the rows have the bits of the dense logit
    Jacobian of the id-ordered dT; ``_closed`` then completes them."""
    n = scenario.n
    grad_psi, layout, _ = _linearize(scenario, params, sim, psi)
    jac = np.empty((n + 1, n + 1))
    jac[:n, :n] = (psi * (psi - 1.0) * params.theta * params.alpha)[:, None] * 0.0
    layout.scatter(grad_psi, jac[:n], price=True)
    return _closed(jac, params.cap_weights(scenario.gammas), params.tau)


def histogram_rows(values: np.ndarray, bins: int = 50):
    """Rows (bin_lo, bin_hi, count) for a histogram export."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    yield ("bin_lo", "bin_hi", "count")
    for i, c in enumerate(counts):
        yield (repr(float(edges[i])), repr(float(edges[i + 1])), int(c))
