"""Dense symmetric eigendecomposition, generalized eigenproblems, SPD roots,
and the fixed row blocks that sums over observations are taken in.

All routines enforce a deterministic sign convention (the largest-magnitude
entry of every eigenvector is positive) so repeated runs and serialized
models are reproducible bit for bit. Row blocks have fixed boundaries for
the same reason: a sum over observations is always added up in the same
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

_SYM_TOL = 1e-12
_ROW_BLOCK = 2048  # rows per block of a sum over observations


@dataclass(frozen=True)
class SymEigResult:
    """Full spectrum of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue


@dataclass(frozen=True)
class GenEigResult:
    """Spectrum of the pencil (A, B): A v = lambda B v with v^T B v = I."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # B-orthonormal columns


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def _require_symmetric(a, name="matrix"):
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if np.abs(a - a.T).max(initial=0.0) > _SYM_TOL * scale:
        raise NumericalError(f"{name} is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def row_blocks(n_rows: int):
    """Consecutive slices of at most `_ROW_BLOCK` rows covering 0..n_rows."""
    for start in range(0, n_rows, _ROW_BLOCK):
        yield slice(start, min(start + _ROW_BLOCK, n_rows))


def _fix_column_signs(vectors):
    if not vectors.size:
        return vectors.copy()
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0.0, -vectors, vectors)


def sym_eig(a) -> SymEigResult:
    """Eigendecompose a symmetric matrix; descending eigenvalues.

    Exact ties keep their original index order (stable sort).
    """
    a = _require_symmetric(_as_square(a, "A"), "A")
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return SymEigResult(w[order], _fix_column_signs(v[:, order]))


def spd_inverse_sqrt(g, rel_floor=1e-12) -> np.ndarray:
    """Symmetric W with W G W = I for symmetric positive definite G."""
    g = _require_symmetric(_as_square(g, "G"), "G")
    w, v = np.linalg.eigh(g)
    if w[-1] <= 0.0 or w[0] <= rel_floor * w[-1]:
        raise NumericalError("matrix is not positive definite")
    return (v / np.sqrt(w)) @ v.T


def spd_sqrt(g, rel_floor=1e-12) -> np.ndarray:
    """Symmetric square root of an SPD matrix."""
    g = _require_symmetric(_as_square(g, "G"), "G")
    w, v = np.linalg.eigh(g)
    if w[-1] <= 0.0 or w[0] <= rel_floor * w[-1]:
        raise NumericalError("matrix is not positive definite")
    return (v * np.sqrt(w)) @ v.T


def gen_sym_eig(a, b) -> GenEigResult:
    """Solve A v = lambda B v for symmetric A and SPD B.

    Reduced to an ordinary symmetric problem by whitening with the inverse
    square root of B; the returned vectors satisfy v^T B v = I.
    """
    a = _require_symmetric(_as_square(a, "A"), "A")
    b = _as_square(b, "B")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    w_half = spd_inverse_sqrt(b)
    inner = sym_eig(w_half @ a @ w_half)
    vectors = _fix_column_signs(w_half @ inner.eigenvectors)
    return GenEigResult(inner.eigenvalues, vectors)

