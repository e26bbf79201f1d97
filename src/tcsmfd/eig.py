"""Dense real nonsymmetric eigenvalues via LAPACK (``np.linalg.eigvals``).

Only eigenvalues are needed: stability verdicts hinge on the spectral
abscissa.  A LAPACK failure (non-finite input or no convergence) is a
flagged result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EigResult", "eig_values"]


@dataclass
class EigResult:
    values: np.ndarray       # complex, length n
    converged: bool


def eig_values(a: np.ndarray) -> EigResult:
    """All eigenvalues of a real square matrix; NaNs flagged unconverged on failure."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    try:
        return EigResult(values=np.linalg.eigvals(a).astype(complex), converged=True)
    except np.linalg.LinAlgError:
        return EigResult(values=np.full(a.shape[0], np.nan, dtype=complex), converged=False)
