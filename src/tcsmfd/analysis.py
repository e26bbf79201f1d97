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
one ``simulate`` call per sample.  Stability linearizes the day-to-day
adjustment (shares chase the logit response, the price reacts to excess
credit demand) at an equilibrium and asks every eigenvalue of the Jacobian
for a negative real part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import eig_values
from .equilibrium import logit_choice, logit_gradient
from .gradients import travel_time_gradient
from .scenario import Scenario, TcsParams
from .simulator import simulate, simulate_car_times

__all__ = [
    "UniquenessReport",
    "uniqueness_check",
    "stability_jacobian",
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
    if n_samples < 2:
        raise ValueError("need at least two samples")
    xs = _latin_hypercube(scenario.n, n_samples, seed)
    times = simulate_car_times(scenario, xs)

    n_all = n_samples * (n_samples - 1) // 2
    if n_all <= max_pairs:
        pairs = np.column_stack(np.triu_indices(n_samples, k=1))  # i < j, row-major
        all_pairs = True
    else:
        # max_pairs distinct ranks in the row-major order of the pairs i < j,
        # mapped back to (i, j) by where each row ends (row i holds
        # n_samples - 1 - i pairs)
        ranks = _distinct_ranks(np.random.default_rng(seed), n_all, max_pairs)
        row_end = np.cumsum(np.arange(n_samples - 1, 0, -1))
        i = np.searchsorted(row_end, ranks, side="right")
        j = ranks - row_end[i] + n_samples
        pairs = np.column_stack([i, j])
        all_pairs = False

    # the (pairs x N) differences are formed one block of pairs at a time:
    # all at once they take three such arrays for one number per pair
    g = scenario.gammas
    block = max(1, _BLOCK_ELEMENTS // scenario.n)
    dots = []
    for start in range(0, len(pairs), block):
        a, b = pairs[start : start + block].T
        dx = xs[a] - xs[b]
        dt = times[a] - times[b]
        distinct = np.any(dx != 0.0, axis=1)  # identical share vectors are excluded
        dt *= dx
        dots.append((dt @ g)[distinct])
    dots = np.concatenate(dots)

    qs = (0.0, 1.0, 5.0, 25.0, 50.0, 100.0)
    return UniquenessReport(
        n_samples=n_samples,
        n_pairs=int(len(dots)),
        all_pairs=all_pairs,
        min_dot=float(dots.min()),
        percentiles={q: float(np.percentile(dots, q)) for q in qs},
        dots=dots,
    )


def _latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """n points of a random Latin hypercube in [0, 1)^d, shape (n, d).

    Bit for bit ``scipy.stats.qmc.LatinHypercube(d=d, seed=seed).random(n)``
    (its default design: scrambled, strength 1, no optimization), by the
    same draws from the same generator: a uniform offset per cell, then one
    shuffled row of strata per dimension.  Written out here so that the
    package never imports scipy.stats, which takes longer to load than the
    whole diagnostics pass takes to run."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
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


def stability_jacobian(grad_psi: np.ndarray, gammas: np.ndarray, tau: float) -> np.ndarray:
    """Jacobian of the day-to-day dynamics at an equilibrium.

    State (x, p) with dx_i/dt = psi_i - x_i and
    dp/dt = sum(c_i (tau psi_i - kappa)), c = ``gammas`` the cap weights;
    rows are built directly from the logit Jacobian ``grad_psi`` (shape
    N x (N+1))."""
    n = grad_psi.shape[0]
    a = np.empty((n + 1, n + 1))
    a[:n, :] = grad_psi
    a[:n, :n] -= np.eye(n)
    a[n, :] = tau * (gammas @ grad_psi)
    return a


@dataclass
class StabilityReport:
    stable: bool
    spectral_abscissa: float
    eigenvalues: np.ndarray
    eig_converged: bool
    jacobian: np.ndarray


def stability_check(scenario: Scenario, params: TcsParams, state) -> StabilityReport:
    """Assemble the Jacobian at an equilibrium state and locate its spectrum.

    The price must be strictly positive (the price dynamics are only defined
    on the binding-cap branch)."""
    if not (state.p > 0):
        raise ValueError("stability analysis needs a binding cap (p > 0)")
    sim = simulate(scenario, state.x)
    psi = logit_choice(sim.car_times, scenario.pt_times, state.p, params)
    # the logit Jacobian is written over dT in the gradient's own storage;
    # the gradient's per-event blocks are never built
    gm = travel_time_gradient(scenario, sim)
    grad_psi = logit_gradient(psi, gm.dT, params, out=gm.storage)
    jac = stability_jacobian(grad_psi, params.cap_weights(scenario.gammas), params.tau)
    res = eig_values(jac)
    abscissa = float(np.max(res.values.real))
    return StabilityReport(
        stable=bool(abscissa < 0.0 and res.converged),
        spectral_abscissa=abscissa,
        eigenvalues=res.values,
        eig_converged=res.converged,
        jacobian=jac,
    )


def histogram_rows(values: np.ndarray, bins: int = 50):
    """Rows (bin_lo, bin_hi, count) for a histogram export."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    yield ("bin_lo", "bin_hi", "count")
    for i, c in enumerate(counts):
        yield (repr(float(edges[i])), repr(float(edges[i + 1])), int(c))
