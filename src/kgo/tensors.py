"""Coverage tensors and the coverage-bound machinery.

The transferred coverage of a channel u is a quadratic form
F(u) = sum_jk,j'k' u_jk S_jk;j'k' u_j'k' over the flattened matrix u.
Four tensor kinds differ only in each observation's weight: its sample
weight w scaled by a localized-state normalization,

  CHRISTOFFEL_PRODUCT           w / (|x|^2 |f|^2): both sides normalized by
                                their Christoffel functions (full
                                localized-state overlap),
  CHRISTOFFEL_PRODUCT_ADJUSTED  w / (|K x|^2 |f|^2): the attribute side by
                                the adjusted Christoffel function with
                                label-matched degrees of freedom,
  F_CHRISTOFFEL                 w / |f|^2: label side only ("partially
                                normalized"),
  PLAIN_VALUE                   w: no normalization (fourth-order moments).

Tensors are built and stored in orthonormal coordinates; the Gram inverse
factors of the raw-coordinate formulas collapse to identity there. The
flattened index is row-major over (label index j, attribute index k).

Every kind is the same row-weighted sum S = sum_l w_l z_l z_l^T with
z_l = f_l (x) x_l; only the per-row weights w_l differ. A fit passes over
the rows four times (see `hilbert`): `hilbert.prepare` sums both Gram
matrices; the second and third build one record, `PreparedData.stats`:
the cross Gram, which the projective subspace, F_TOT and the least-squares
channel read, the per-row norms and the label-Christoffel moments of F_TOT.
`_row_weights` turns the per-row norms into the weights of every kind,
behind one zero gate and one range gate; the coverage subspace and F_JDG
read their weights from it too. The sum itself is the fourth, by one of
two routes over the same fixed row blocks:

  moment table  for data from `prepare` with Chebyshev specs on both sides.
                Per variable T_a T_b = (T_(a+b) + T_|a-b|) / 2, so one
                weighted table of doubled-order basis moments holds every
                product; S is gathered from it and whitened by T_f (x) T_x.
                `sample` sums, reads and sizes the table; its layout is
                known nowhere else.
                Taken when the two whitenings are well conditioned and the
                table needs less work per row than the syrk (many variables
                at low order do not).
  syrk          everything else: spec-less data (`prepare_points`),
                monomial specs (their doubled-order moments are badly
                conditioned) and the cases above. z is built per block from
                the block's coordinates (`PreparedData.blocks`) and added
                as z z^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericalError
from .hilbert import PreparedData, _coupled, _whitening_cut
from .linalg import sym_eig
from .sample import CHEBYSHEV, _moment_table, _product_moments, _table_shape


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
        """F(u) = <u, S u>, with S u formed first as the solvers form it."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d, self.n):
            raise DimensionError(f"channel shape {u.shape} != ({self.d}, {self.n})")
        flat = u.reshape(-1)
        return float(flat @ (self.matrix @ flat))

    def label_congruence(self, a: np.ndarray) -> CoverageTensor:
        """(a^T (x) I) S (a (x) I), symmetrized: the tensor of v, where u = a v with a
        (d x d') acting on the label index; F(a v) under this tensor is F(v) under the new one."""
        four = self.matrix.reshape(self.d, self.n, self.d, self.n)
        four = np.einsum("js,jkql,qt->sktl", a, four, a)
        d = a.shape[1]
        matrix = four.reshape(d * self.n, d * self.n)
        return CoverageTensor(self.kind, d, self.n, 0.5 * (matrix + matrix.T))


def _positive(values: np.ndarray, what: str) -> np.ndarray:
    """The zero gate of the weighting step: every row's norm must be positive."""
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        raise NumericalError(f"observation {bad[0]} has zero {what}")
    return values


def _row_weights(data: PreparedData, kind: TensorKind) -> np.ndarray:
    """Per-observation weights of a tensor kind, from the data's per-row norms.

    The one weighting step: w for plain values, otherwise w / |f|^2, or
    w / |f|^2 / a with the kind's attribute normalizer a: |x|^2 for the
    christoffel product, |K x|^2 for its adjusted variant. Dividing in turn
    keeps a |f|^2 from overflowing first. A singular coupling raises where
    the adjusted normalizer is read; so does a weight that leaves the
    floating-point range (sample weights too tiny or too large).
    """
    if kind is TensorKind.PLAIN_VALUE:
        return data.weights
    stats = data.stats
    with np.errstate(over="ignore"):  # an overflow raises below
        weights = data.weights / _positive(stats.label, "label projection")
        if kind is TensorKind.CHRISTOFFEL_PRODUCT:
            weights = weights / _positive(stats.attribute, "attribute projection")
        elif kind is TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED:
            weights = weights / _positive(_coupled(stats.adjusted), "adjusted normalizer")
    if not (weights.min() > 0.0 and weights.max() < np.inf):  # the fast test first
        bad = np.flatnonzero(~np.isfinite(weights) | ((weights == 0.0) & (data.weights > 0.0)))
        if bad.size:
            raise NumericalError(f"observation {bad[0]} has {kind.value} weight "
                                 f"{weights[bad[0]]:g}: rescale the sample weights")
    return weights


def _fourth_moments(data: PreparedData, eff_weights) -> np.ndarray:
    """sum_l w_l z_l z_l^T with z_l = f_l (x) x_l, one block of rows at a time.

    Each block's z is scaled in place by sqrt(w) and added as z z^T, so
    memory stays flat in the number of observations.
    """
    m, n = data.f_space.eff_dim, data.x_space.eff_dim
    root = np.sqrt(eff_weights)
    matrix = np.zeros((m * n, m * n))
    for rows, f, x in data.blocks():
        z = np.multiply(f[:, None], x[None]).reshape(m * n, -1)
        z *= root[rows]
        matrix += z @ z.T
    return 0.5 * (matrix + matrix.T)


# One elementwise multiply of a row block costs about as much as ten
# multiply-adds inside a matrix product (one-off timings on 5e4 rows).
_ELEMENTWISE_COST = 10
# Largest kappa_x * kappa_f of the two whitenings the moment route accepts, each
# kappa the top over the smallest kept Gram eigenvalue (`hilbert._whitening_cut`).
# Whitening raw moments amplifies their rounding by about that product, so
# its error stays near 1e-11 relative; the rows route only sees sqrt(kappa).
_MOMENT_CONDITION_MAX = 1e5


def _moment_route(data: PreparedData) -> bool:
    """Whether the moment table builds the tensor, rather than the syrk.

    It needs Chebyshev specs on both sides and well-conditioned
    whitenings (`_MOMENT_CONDITION_MAX`). Then the route with less work per
    row runs: for the moment table the gathers, the weighted left factor
    and one matrix product; for the syrk building z and z^T z.
    """
    if any(spec is None or spec.kind != CHEBYSHEV for spec in (data.f_spec, data.x_spec)):
        return False
    f_lead, f_last, f_gather = _table_shape(data.f_spec, data.f_rows)
    x_lead, x_last, x_gather = _table_shape(data.x_spec, data.x_rows)
    label = f_lead * f_last
    moment = (_ELEMENTWISE_COST * (f_gather + x_gather + 2 * label + label * x_lead)
              + label * x_lead * x_last)
    width = data.f_space.eff_dim * data.x_space.eff_dim
    syrk = _ELEMENTWISE_COST * width + width * (width + 1) // 2
    return moment < syrk and (_whitening_cut(data.x_space)[0] * _whitening_cut(data.f_space)[0]
                              >= 1.0 / _MOMENT_CONDITION_MAX)


def _chebyshev_moments(data: PreparedData, eff_weights) -> np.ndarray:
    """The tensor of `_fourth_moments` gathered from one moment table.

    The table Mom[p, q] = sum_l w_l T_p(f_l) T_q(x_l) holds every product
    of raw basis columns; they are read off it by the Chebyshev product
    rule and whitened by T_f (x) T_x: the attribute side first, for every
    label moment, and the label side last.
    """
    tx = data.x_space.transform
    tf = data.f_space.transform
    # The whitening rescales the table's raw sums only at the end. A
    # power-of-two prescale, undone exactly at the end, keeps the raw and the
    # whitened sums in range at any weight scale without changing a bit.
    exp = sum(np.frexp(a)[1] for a in (eff_weights.max(), np.abs(tx).max(), np.abs(tf).max()))
    mom = _moment_table(data.x_spec, data.x_rows, eff_weights, data.f_spec, data.f_rows, exp)
    x_white = tx @ _product_moments(mom, data.x_spec, data.x_rows) @ tx.T  # (label moments, n, n)
    f_raw = _product_moments(x_white, data.f_spec, data.f_rows, axis=0)   # (m_raw, m_raw, n, n)
    four = np.tensordot(tf, f_raw, axes=(1, 0))           # (m, m_raw, n, n)
    four = np.tensordot(four, tf, axes=(1, 1))            # (m, n, n, m)
    m, n = tf.shape[0], tx.shape[0]
    matrix = four.transpose(0, 1, 3, 2).reshape(m * n, m * n)
    return np.ldexp(0.5 * (matrix + matrix.T), exp)


def build_coverage_tensor(kind: TensorKind, data: PreparedData,
                          subspace: Optional[np.ndarray] = None) -> CoverageTensor:
    """Assemble the coverage tensor of the requested kind.

    With a contributing subspace (`contributing_subspace`'s columns) the
    christoffel-product tensor is composed with the projections of the
    subspace directions onto the label basis, yielding the projective d x n
    problem. The christoffel-product tensor's four-index form is
    M[j, k, j', k'] = <x_k f_j | K_x K_f | x_k' f_j'>, the moments of the
    two Christoffel functions' product.
    """
    kind = TensorKind(kind)
    route = _chebyshev_moments if _moment_route(data) else _fourth_moments
    tensor = CoverageTensor(kind, data.f_space.eff_dim, data.x_space.eff_dim,
                            route(data, _row_weights(data, kind)))
    if subspace is None:
        return tensor
    if kind is not TensorKind.CHRISTOFFEL_PRODUCT:
        raise DimensionError("subspace composition is defined for the christoffel-product kind")
    return tensor.label_congruence(subspace_embedding(data, subspace))


def subspace_embedding(data: PreparedData, subspace: np.ndarray) -> np.ndarray:
    """Projections of `contributing_subspace`'s columns onto the label basis (m_eff x d)."""
    return data.stats.cross @ subspace


def label_christoffel_moments(data: PreparedData) -> np.ndarray:
    """<f_t | K_f | f_s> in orthonormal label coordinates, read-only: the row-norm
    pass's sum over the unit label states, behind the tensor weights' zero gate
    and a range gate on |f|^2, whose overflow would drop the row from the sum."""
    label = _positive(data.stats.label, "label projection")
    bad = np.flatnonzero(~np.isfinite(label) & (data.weights > 0.0))
    if bad.size:
        raise NumericalError(f"observation {bad[0]} has label projection {label[bad[0]]:g}: "
                             "rescale the sample weights")
    return data.stats.label_moments


def label_to_attribute_coverage(data: PreparedData) -> np.ndarray:
    """The label-coverage matrix pulled back to attribute coordinates.

    In orthonormal coordinates this is C^T M C with C the cross Gram and M
    the label-Christoffel moments; its spectrum decomposes the total
    transferable coverage.
    """
    cross = data.stats.cross
    return cross.T @ label_christoffel_moments(data) @ cross


def ftot_upper_bound(data: PreparedData) -> float:
    """Total transferable coverage, computed by the trace route.

    Equals the eigenvalue sum of the pulled-back coverage matrix; no
    eigenproblem is needed for the bound itself.
    """
    return float(np.trace(label_to_attribute_coverage(data)))


def _coverage_matrix(data: PreparedData, variant: str) -> np.ndarray:
    """The attribute-side matrix a subspace variant diagonalizes: the pulled-back label
    coverage of the one variant, "projective"."""
    if variant != "projective":
        raise DimensionError(f"unknown subspace variant {variant!r}")
    return label_to_attribute_coverage(data)


def contributing_subspace(data: PreparedData, d: int,
                          variant: str = "projective") -> np.ndarray:
    """Top-d attribute directions by transferable coverage: (n_eff, d) orthonormal
    columns in orthonormal coordinates, column i of coverage `coverage_spectrum(data)[i]`.

    The projective variant, the only one, diagonalizes the pulled-back label
    coverage (rank at most m).
    """
    m_eff, n_eff = data.f_space.eff_dim, data.x_space.eff_dim
    if not 1 <= d <= min(m_eff, n_eff):
        raise DimensionError(f"d={d} out of range 1..{min(m_eff, n_eff)}")
    return sym_eig(_coverage_matrix(data, variant)).eigenvectors[:, :d]


def coverage_spectrum(data: PreparedData, variant: str = "projective") -> np.ndarray:
    """All eigenvalues of the chosen coverage matrix, descending."""
    return sym_eig(_coverage_matrix(data, variant)).eigenvalues
