"""Coverage tensors and the coverage-bound machinery.

The transferred coverage of a channel u is a quadratic form
F(u) = sum_jk,j'k' u_jk S_jk;j'k' u_j'k' over the flattened matrix u.
Four tensor kinds differ only in how each observation's contribution is
normalized:

  CHRISTOFFEL_PRODUCT           both sides normalized by their Christoffel
                                functions (full localized-state overlap),
  CHRISTOFFEL_PRODUCT_ADJUSTED  attribute side normalized by the adjusted
                                Christoffel function with label-matched
                                degrees of freedom,
  F_CHRISTOFFEL                 label side only ("partially normalized"),
  PLAIN_VALUE                   no normalization (fourth-order moments).

Tensors are built and stored in orthonormal coordinates; the Gram inverse
factors of the raw-coordinate formulas collapse to identity there. The
flattened index is row-major over (label index j, attribute index k).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericalError
from .hilbert import PreparedData, gram_matrix, label_matched_projection
from .linalg import row_bilinear, row_blocks, sym_eig


class TensorKind(str, Enum):
    CHRISTOFFEL_PRODUCT = "christoffel-product"
    CHRISTOFFEL_PRODUCT_ADJUSTED = "christoffel-product-adjusted"
    F_CHRISTOFFEL = "f-christoffel"
    PLAIN_VALUE = "plain-value"


@dataclass(frozen=True)
class CoverageTensor:
    """Symmetric (d*n) x (d*n) matrix making coverage quadratic in the channel."""

    kind: TensorKind
    d: int
    n: int
    matrix: np.ndarray

    def quadratic_form(self, u) -> float:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d, self.n):
            raise DimensionError(f"channel shape {u.shape} != ({self.d}, {self.n})")
        flat = u.reshape(-1)
        return float(flat @ self.matrix @ flat)

    def as_four_index(self) -> np.ndarray:
        return self.matrix.reshape(self.d, self.n, self.d, self.n)


@dataclass(frozen=True)
class ContributingSubspace:
    """Attribute-space directions carrying the achievable coverage.

    `vectors` holds raw coefficient columns, Gram-orthonormal; `coords` the
    same directions in orthonormal coordinates.
    """

    vectors: np.ndarray      # (n_raw, d)
    coords: np.ndarray       # (n_eff, d), orthonormal columns
    eigenvalues: np.ndarray  # (d,), descending
    variant: str             # "projective" | "coverage"


def _norms2(coords, side: str) -> np.ndarray:
    norms2 = np.einsum("ij,ij->i", coords, coords)
    bad = np.nonzero(norms2 <= 0.0)[0]
    if bad.size:
        raise NumericalError(f"observation {bad[0]} has zero {side} projection")
    return norms2


def _label_weights(data: PreparedData, attribute_norms=None) -> np.ndarray:
    """Observation weights under the label Christoffel normalization.

    The one weighting step of the label-normalized quantities: w / |f|^2,
    or w / (a |f|^2) with a per-observation attribute normalizer a.
    """
    label = _norms2(data.f_orth, "label")
    return data.weights / (label if attribute_norms is None else attribute_norms * label)


def _fourth_moments(data: PreparedData, eff_weights) -> np.ndarray:
    """sum_l w_l z_l z_l^T with z_l = f_l (x) x_l, one block of rows at a time.

    Each block's z is scaled in place by sqrt(w) and added as z^T z, so
    memory stays flat in the number of observations.
    """
    m = data.f_orth.shape[1]
    n = data.x_orth.shape[1]
    root = np.sqrt(eff_weights)
    matrix = np.zeros((m * n, m * n))
    for rows in row_blocks(data.size):
        z = np.multiply(data.f_orth[rows, :, None], data.x_orth[rows, None, :])
        z = z.reshape(-1, m * n)
        z *= root[rows, None]
        matrix += z.T @ z
    return 0.5 * (matrix + matrix.T)


def build_coverage_tensor(kind: TensorKind, data: PreparedData,
                          subspace: Optional[ContributingSubspace] = None) -> CoverageTensor:
    """Assemble the coverage tensor of the requested kind.

    With a contributing subspace the christoffel-product tensor is composed
    with the projections of the subspace directions onto the label basis,
    yielding the projective d x n problem. The christoffel-product tensor's
    four-index form is M[j, k, j', k'] = <x_k f_j | K_x K_f | x_k' f_j'>,
    the moments of the two Christoffel functions' product.
    """
    kind = TensorKind(kind)
    if kind is TensorKind.CHRISTOFFEL_PRODUCT:
        w = _label_weights(data, _norms2(data.x_orth, "attribute"))
    elif kind is TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED:
        adj = row_bilinear(data.x_orth, data.label_projection, data.x_orth)
        bad = np.nonzero(adj <= 0.0)[0]
        if bad.size:
            raise NumericalError(f"observation {bad[0]} has zero adjusted normalizer")
        w = _label_weights(data, adj)
    elif kind is TensorKind.F_CHRISTOFFEL:
        w = _label_weights(data)
    elif kind is TensorKind.PLAIN_VALUE:
        w = data.weights
    else:  # pragma: no cover
        raise DimensionError(f"unknown tensor kind {kind}")
    matrix = _fourth_moments(data, w)
    d = data.f_orth.shape[1]
    n = data.x_orth.shape[1]
    if subspace is not None:
        if kind is not TensorKind.CHRISTOFFEL_PRODUCT:
            raise DimensionError(
                "subspace composition is defined for the christoffel-product kind")
        embed = subspace_embedding(data, subspace)  # (m_eff, d_sub)
        four = matrix.reshape(d, n, d, n)
        four = np.einsum("js,jkql,qt->sktl", embed, four, embed)
        d = embed.shape[1]
        matrix = four.reshape(d * n, d * n)
        matrix = 0.5 * (matrix + matrix.T)
    return CoverageTensor(kind, d, n, matrix)


def subspace_embedding(data: PreparedData, subspace: ContributingSubspace) -> np.ndarray:
    """Projections of the subspace directions onto the label basis (m_eff x d)."""
    return data.cross_gram() @ subspace.coords


def label_christoffel_moments(data: PreparedData) -> np.ndarray:
    """<f_t | K_f | f_s> in orthonormal label coordinates."""
    return gram_matrix(data.f_orth, _label_weights(data))


def label_to_attribute_coverage(data: PreparedData) -> np.ndarray:
    """The label-coverage matrix pulled back to attribute coordinates.

    In orthonormal coordinates this is C^T M C with C the cross Gram and M
    the label-Christoffel moments; its spectrum decomposes the total
    transferable coverage.
    """
    cross = data.cross_gram()
    return cross.T @ label_christoffel_moments(data) @ cross


def ftot_upper_bound(data: PreparedData) -> float:
    """Total transferable coverage, computed by the trace route.

    Equals the eigenvalue sum of the pulled-back coverage matrix; no
    eigenproblem is needed for the bound itself.
    """
    return float(np.trace(label_to_attribute_coverage(data)))


def _coverage_matrix(data: PreparedData, variant: str) -> np.ndarray:
    """The attribute-side matrix a subspace variant diagonalizes (see contributing_subspace)."""
    if variant == "projective":
        return label_to_attribute_coverage(data)
    if variant == "coverage":
        return gram_matrix(data.x_orth, _label_weights(data))
    raise DimensionError(f"unknown subspace variant {variant!r}")


def contributing_subspace(data: PreparedData, d: int,
                          variant: str = "projective") -> ContributingSubspace:
    """Top-d attribute directions by transferable coverage.

    The projective variant diagonalizes the pulled-back label coverage (rank
    at most m); the coverage variant swaps in plain attribute moments under
    the label Christoffel function.
    """
    m_eff = data.f_orth.shape[1]
    n_eff = data.x_orth.shape[1]
    if not 1 <= d <= min(m_eff, n_eff):
        raise DimensionError(f"d={d} out of range 1..{min(m_eff, n_eff)}")
    eig = sym_eig(_coverage_matrix(data, variant))
    coords = eig.eigenvectors[:, :d]
    return ContributingSubspace(
        vectors=data.x_space.transform.T @ coords,
        coords=coords,
        eigenvalues=eig.eigenvalues[:d],
        variant=variant,
    )


def coverage_spectrum(data: PreparedData, variant: str = "projective") -> np.ndarray:
    """All eigenvalues of the chosen coverage matrix, descending."""
    return sym_eig(_coverage_matrix(data, variant)).eigenvalues


def adjusted_christoffel(data: PreparedData):
    """Adjusted-Christoffel apparatus: raw-coordinate matrix and evaluator.

    Returns (G_c, k_adj) where the raw matrix G_c satisfies
    k_adj(point) = 1 / (point^T G_c point) and matches the label degrees of
    freedom; k_adj >= the plain Christoffel function everywhere.
    """
    projection = label_matched_projection(data)
    t = data.x_space.transform
    g_c = t.T @ projection @ t

    def k_adj(point) -> float:
        point = np.asarray(point, dtype=float).reshape(-1)
        denom = float(point @ g_c @ point)
        if denom <= 0.0:
            raise NumericalError("point has zero adjusted normalizer")
        return 1.0 / denom

    return g_c, k_adj
