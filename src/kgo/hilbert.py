"""Hilbert spaces over the sample measure: Gram matrices, whitening,
Christoffel functions, localized states, and the query kernel.

A SpaceBasis wraps one side (attributes or labels): the raw Gram matrix and
the whitening transform T whose rows are eigenvectors scaled by 1/sqrt(eig),
so that T G T^T = I. Everything downstream works in these orthonormalized
coordinates, where the Gram matrix and its inverse drop out of the formulas.

A PreparedData record holds both spaces and the rows they were built from,
not the basis-evaluated rows: sums over observations are taken in fixed
row blocks, each block's basis columns evaluated when the pass reaches it.
A fit of `prepare` data passes over the rows as follows:

  1. `prepare`: each side's Gram matrix (`_side_gram`, the one Gram path
     of `gram_matrix`, `build_space`, `space_from_sample`, `prepare` and
     `prepare_points`). A Chebyshev side's is read off its plain-weight
     doubled-order moment table, whose layout `sample` owns; any other
     side adds each block's weighted columns.
  2. `PreparedData.cross_moments`: sum_l w_l f_l x_l^T over whitened
     attribute rows, once with whitened label rows (the cross Gram) and
     once with raw label features (for the least-squares map), and |x|^2
     per observation from the same whitened rows. This is the one pass
     that whitens the attribute block.
  3. `PreparedData.row_norms`: per observation |f|^2, the overlap f^T C x
     with the cross Gram C and the adjusted normalizer |K x|^2; the raw
     attribute columns go through [C; K] T_x in one product. The same
     pass sums the label-Christoffel moments of F_TOT.
  4. the coverage tensor (see `tensors`).

`prepare_points` data sums its Gram matrices over the stored feature rows;
passes 2 and 3 run on it the same way. The row arrays `x_points`,
`x_orth`, `f_points` and `f_orth` are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericalError
from .linalg import row_blocks, sym_eig
from .sample import (CHEBYSHEV, BasisSpec, Sample, _basis_columns, _checked_dimension,
                     _moment_table, _product_moments, design_matrix)

DEFAULT_REL_THRESHOLD = 1e-12
_ZERO_PROJECTION_REL = 1e-14


# The query kernel. Every function below works on the last axis, so one
# feature vector (1-D) and a batch of feature rows (2-D) take the same code.

def _times(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """matrix @ v for every vector v along the last axis.

    Each vector is multiplied as its own 1 x k matrix, so a batch row gets
    exactly the floating-point result of the same vector alone.
    """
    return (vectors[..., None, :] @ matrix.T)[..., 0, :]


def _points(points, raw_dim: int) -> np.ndarray:
    """Float feature vectors along the last axis; DimensionError unless they have raw_dim entries."""
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != raw_dim:
        raise DimensionError(f"point dimension {points.shape[-1]} != raw dimension {raw_dim}")
    return points


def _require_positive(values: np.ndarray, subject: str, message: str):
    """Raise NumericalError unless every value is positive; a batch names the row."""
    bad = values <= 0.0
    if not bad.ndim:  # a single value is tested directly, without counting
        if bad:
            raise NumericalError(f"{subject} {message}")
    elif np.count_nonzero(bad):
        raise NumericalError(f"{subject} of row {int(np.flatnonzero(bad)[0])} {message}")


@dataclass(frozen=True)
class SpaceBasis:
    """One side's Hilbert space: raw Gram, whitening transform, constant."""

    raw_dim: int
    eff_dim: int
    transform: np.ndarray    # (eff_dim, raw_dim), rows v_i / sqrt(eig_i)
    gram_raw: np.ndarray     # (raw_dim, raw_dim)
    const_raw: np.ndarray    # raw coefficient vector of the constant function
    const_coords: np.ndarray  # transform @ gram_raw @ const_raw

    def project(self, points) -> np.ndarray:
        """Orthonormal coordinates of raw feature vectors along the last axis."""
        return _times(_points(points, self.raw_dim), self.transform)


@dataclass(frozen=True)
class LocalizedState:
    """Unit-norm state whose squared value concentrates the measure near a point."""

    coords: np.ndarray
    space: SpaceBasis


def gram_matrix(points, weights) -> np.ndarray:
    """Measure-weighted Gram matrix of feature rows: G_ab = <b_a b_b>.

    Summed one fixed block of rows at a time, so the only row-sized buffer
    is one block's weighted copy.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if points.shape[0] != weights.shape[0]:
        raise DimensionError("row/weight count mismatch")
    return _side_gram(None, points, weights)


def _side_gram(spec: Optional[BasisSpec], rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One side's raw Gram matrix, summed over the fixed row blocks of its rows.

    A Chebyshev side's is read off its plain-weight doubled-order moment
    table; any other side (a monomial spec, or feature rows and no spec)
    adds each block's weighted columns. Non-finite basis values raise.
    """
    dim = rows.shape[1] if spec is None else _checked_dimension(spec, rows)
    if spec is not None and spec.kind == CHEBYSHEV:
        return _product_moments(_moment_table(spec, rows, weights), spec, rows)[0]
    gram = np.zeros((dim, dim))
    for block in row_blocks(rows.shape[0]):
        right = np.ascontiguousarray(_basis_columns(spec, rows[block]).T)
        left = right.T * weights[block]
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise NumericalError("basis evaluation produced non-finite values")
        gram += left @ right
    return gram


def regularize(gram_raw, rel_threshold: float = DEFAULT_REL_THRESHOLD) -> np.ndarray:
    """Whitening transform of a PSD Gram matrix.

    Eigenpairs with eig > rel_threshold * max_eig are kept; the returned
    matrix T has one row per kept pair, scaled so T G T^T = I.
    """
    gram_raw = np.asarray(gram_raw, dtype=float)
    eig = sym_eig(gram_raw)
    top = eig.eigenvalues[0] if eig.eigenvalues.size else 0.0
    if top <= 0.0:
        raise NumericalError("Gram matrix has no positive spectrum")
    keep = eig.eigenvalues > rel_threshold * top
    values = eig.eigenvalues[keep]
    vectors = eig.eigenvectors[:, keep]
    return (vectors / np.sqrt(values)).T


def build_space(points, weights, const_direction=None,
                rel_threshold: float = DEFAULT_REL_THRESHOLD) -> SpaceBasis:
    """Assemble a SpaceBasis from feature rows and weights.

    `const_direction` is the raw coefficient vector representing the constant
    function (defaults to the first coordinate axis, matching producted bases
    whose constant component comes first).
    """
    return _space_from_gram(gram_matrix(points, weights), const_direction, rel_threshold)


def _space_from_gram(g, const_direction, rel_threshold: float) -> SpaceBasis:
    """The SpaceBasis of a raw Gram matrix; see `build_space`."""
    t = regularize(g, rel_threshold)
    raw_dim = g.shape[0]
    if const_direction is None:
        const_direction = np.zeros(raw_dim)
        const_direction[0] = 1.0
    const_direction = np.asarray(const_direction, dtype=float).reshape(-1)
    if const_direction.shape[0] != raw_dim:
        raise DimensionError("constant direction dimension mismatch")
    return SpaceBasis(
        raw_dim=raw_dim,
        eff_dim=t.shape[0],
        transform=t,
        gram_raw=g,
        const_raw=const_direction,
        const_coords=t @ g @ const_direction,
    )


def space_from_sample(sample: Sample, side: str, spec: BasisSpec,
                      rel_threshold: float = DEFAULT_REL_THRESHOLD) -> SpaceBasis:
    """One side ("x" or "f") of `prepare`; no array of basis-evaluated rows is built.

    The constant function is the spec's constant component.
    """
    gram = _side_gram(spec, sample.x_rows if side == "x" else sample.f_rows, sample.weights)
    const = np.zeros(gram.shape[0])
    const[spec.constant_index] = 1.0
    return _space_from_gram(gram, const, rel_threshold)


def _checked_projection(space: SpaceBasis, point) -> np.ndarray:
    point = np.asarray(point, dtype=float).reshape(-1)
    coords = space.project(point)
    norm2 = float(coords @ coords)
    point_scale = float(np.dot(point, point))
    if norm2 <= (_ZERO_PROJECTION_REL ** 2) * max(point_scale, 1e-300):
        raise NumericalError("point has zero projection on the measure's span")
    return coords


def christoffel(space: SpaceBasis, point) -> float:
    """Christoffel function K(point) = 1 / ||T point||^2.

    Measures how much of the sample lies near the point; raises on points in
    the null space of the measure.
    """
    coords = _checked_projection(space, point)
    return 1.0 / float(coords @ coords)


def localized_state(space: SpaceBasis, point) -> LocalizedState:
    """Unit-norm state localized at the given raw point."""
    coords = _checked_projection(space, point)
    return LocalizedState(coords / np.linalg.norm(coords), space)


def state_values(state: LocalizedState, points) -> np.ndarray:
    """Evaluate the state as a function on raw feature rows."""
    return state.space.project(np.atleast_2d(points)) @ state.coords


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class RowNorms:
    """The per-row quantities of the second and third passes, and the third's label moments."""

    label: np.ndarray      # |f_l|^2 in orthonormal label coordinates
    attribute: np.ndarray  # |x_l|^2 in orthonormal attribute coordinates
    overlap: np.ndarray    # f_l^T C x_l with C the cross Gram
    adjusted: Optional[np.ndarray]  # |K x_l|^2; None when the coupling is singular
    label_moments: np.ndarray  # sum_l w_l psi_l psi_l^T over unit label states f_l / |f_l|


@dataclass(frozen=True)
class PreparedData:
    """Both sides of a sample lifted into their Hilbert spaces.

    Holds the weights, the two SpaceBasis records and, per side, the rows
    the space was built from: raw rows with the basis spec that evaluates
    them (`prepare`), or feature rows and no spec (`prepare_points`). It is
    the common input of the baseline estimators and the coverage tensors,
    which sum over observations one row block at a time (`blocks`).
    """

    weights: np.ndarray
    x_space: SpaceBasis
    f_space: SpaceBasis
    x_rows: np.ndarray   # raw rows under x_spec; the feature rows when x_spec is None
    f_rows: np.ndarray
    x_spec: Optional[BasisSpec] = None
    f_spec: Optional[BasisSpec] = None

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def x_points(self) -> np.ndarray:
        """(M, n_raw) attribute feature rows, built on first read."""
        return self.x_rows if self.x_spec is None else design_matrix(self.x_spec, self.x_rows)

    @cached_property
    def f_points(self) -> np.ndarray:
        """(M, m_raw) label feature rows, built on first read."""
        return self.f_rows if self.f_spec is None else design_matrix(self.f_spec, self.f_rows)

    @cached_property
    def x_orth(self) -> np.ndarray:
        """(M, n_eff) orthonormal attribute coordinates, built on first read."""
        return self.x_points @ self.x_space.transform.T

    @cached_property
    def f_orth(self) -> np.ndarray:
        """(M, m_eff) orthonormal label coordinates, built on first read."""
        return self.f_points @ self.f_space.transform.T

    def blocks(self, sides: str = "fx"):
        """Orthonormal coordinates of each fixed row block.

        Yields (rows, ...) with one (eff_dim, block rows) array per side
        named in `sides` ("f" labels, "x" attributes), in that order.
        """
        parts = [(self.f_spec, self.f_rows, self.f_space.transform) if side == "f"
                 else (self.x_spec, self.x_rows, self.x_space.transform) for side in sides]
        for rows in row_blocks(self.size):
            yield (rows,) + tuple(transform @ _basis_columns(spec, side_rows[rows])
                                  for spec, side_rows, transform in parts)

    @cached_property
    def cross_moments(self) -> tuple:
        """(C, B, a): sum_l w_l f_l x_l^T over whitened attribute rows, and
        each row's |x_l|^2; read-only.

        C, (m_eff, n_eff), has the label side whitened too and is the cross
        Gram; B, (m_raw, n_eff), keeps the raw label features, and B T_x is
        the least-squares map. Both are summed in one pass, on first use,
        which also keeps the attribute norms a, (M,), of the whitened rows
        it holds (`row_norms.attribute`). Whitening each row before the sum,
        rather than the raw sum after it, keeps the rounding near
        sqrt(kappa_x) + sqrt(kappa_f) rather than their product. One block
        gives the bits of the whole-array expressions.
        """
        tf, tx = self.f_space.transform, self.x_space.transform
        cross = label_raw = 0.0
        attribute = np.empty(self.size)
        for rows in row_blocks(self.size):
            f = _basis_columns(self.f_spec, self.f_rows[rows]).T  # (block rows, m_raw)
            x = _basis_columns(self.x_spec, self.x_rows[rows]).T @ tx.T
            cross = cross + ((f @ tf.T).T * self.weights[rows]) @ x
            label_raw = label_raw + (f.T * self.weights[rows]) @ x
            np.einsum("ij,ij->i", x, x, out=attribute[rows])
        return _read_only(cross), _read_only(label_raw), _read_only(attribute)

    def cross_gram(self) -> np.ndarray:
        """Cross moments <f_j x_k> in orthonormal coordinates (m_eff x n_eff).

        A fresh copy of one cached matrix, so no pass over the rows is made
        after the first call.
        """
        return self.cross_moments[0].copy()

    @cached_property
    def label_coupling(self) -> tuple:
        """(C, C C^T, K) for the cross Gram C, with K = L^-1 C and C C^T = L L^T.

        `K^T K` equals `label_matched_projection`, so the adjusted normalizer
        of a row x is |K x|^2, which costs m_eff * n_eff per row instead of
        n_eff^2. A singular coupling raises on every access; nothing is
        cached then.
        """
        cross = self.cross_gram()
        coupling = cross @ cross.T
        eig = np.linalg.eigvalsh(coupling)
        if eig[0] <= 1e-12 * max(eig[-1], 1e-300):
            raise NumericalError("label/attribute coupling matrix is singular")
        return cross, coupling, np.linalg.solve(np.linalg.cholesky(coupling), cross)

    @cached_property
    def row_norms(self) -> RowNorms:
        """Per-observation norms and overlaps, from one pass over the row blocks.

        The attribute norms come from the cross-moment pass. This pass
        whitens only the label block: the raw attribute columns go straight
        through [C; K] T_x, one (2 m_eff x n_raw) product per block. With a
        singular coupling `adjusted` is None, and reading the adjusted
        normalizer raises through `label_coupling`. The label moments sum unit
        states, so they stay in range at any weight scale; a zero row adds
        nothing, nor does a row whose |f|^2 overflows (which
        `tensors.label_christoffel_moments` rejects).
        """
        cross = self.cross_gram()
        try:  # C and K stacked, so each block takes one product for both
            maps = np.vstack([cross, self.label_coupling[2]])
        except NumericalError:
            maps = cross
        maps = maps @ self.x_space.transform
        m = cross.shape[0]
        label, overlap = np.empty(self.size), np.empty(self.size)
        adjusted = np.empty(self.size) if maps.shape[0] > m else None
        moments = 0.0
        for rows, f in self.blocks("f"):
            np.einsum("ij,ij->j", f, f, out=label[rows])
            norm = np.sqrt(label[rows])
            unit = np.divide(f, norm, out=np.zeros_like(f), where=norm > 0.0)
            moments = moments + (unit * self.weights[rows]) @ unit.T
            mapped = maps @ _basis_columns(self.x_spec, self.x_rows[rows])
            np.einsum("ij,ij->j", f, mapped[:m], out=overlap[rows])
            if adjusted is not None:
                np.einsum("ij,ij->j", mapped[m:], mapped[m:], out=adjusted[rows])
        return RowNorms(*(None if a is None else _read_only(a)
                          for a in (label, self.cross_moments[2], overlap, adjusted, moments)))


def label_matched_projection(data: PreparedData) -> np.ndarray:
    """Projector onto the attribute subspace coupled to the labels.

    Orthonormal-coordinate form of the adjusted-Christoffel matrix: with C
    the cross Gram, this is C^T (C C^T)^{-1} C. Its quadratic form never
    exceeds the plain squared norm, so the adjusted Christoffel function
    dominates the original one pointwise.
    """
    cross, coupling, _ = data.label_coupling
    return cross.T @ np.linalg.solve(coupling, cross)


def prepare_points(x_points, f_points, weights, x_const=None, f_const=None,
                   rel_threshold: float = DEFAULT_REL_THRESHOLD) -> PreparedData:
    """Build both spaces directly from feature rows."""
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    f_points = np.atleast_2d(np.asarray(f_points, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    return PreparedData(
        weights=weights,
        x_space=build_space(x_points, weights, x_const, rel_threshold),
        f_space=build_space(f_points, weights, f_const, rel_threshold),
        x_rows=x_points,
        f_rows=f_points,
    )


def prepare(sample: Sample, x_spec: BasisSpec, f_spec: BasisSpec,
            rel_threshold: float = DEFAULT_REL_THRESHOLD) -> PreparedData:
    """Evaluate both bases on a sample and build the two spaces.

    Each side's Gram matrix is summed over the row blocks; no array of
    basis-evaluated rows is built.
    """
    return PreparedData(weights=sample.weights,
                        x_space=space_from_sample(sample, "x", x_spec, rel_threshold),
                        f_space=space_from_sample(sample, "f", f_spec, rel_threshold),
                        x_rows=sample.x_rows, f_rows=sample.f_rows,
                        x_spec=x_spec, f_spec=f_spec)
