"""Hilbert spaces over the sample measure: Gram matrices, whitening, Christoffel
functions, localized states, and the query kernel with its one zero-projection rule.

A SpaceBasis wraps one side (attributes or labels): the raw Gram matrix and
the whitening transform T whose rows are eigenvectors scaled by 1/sqrt(eig),
so that T G T^T = I. Everything downstream works in these orthonormalized
coordinates, where the Gram matrix and its inverse drop out of the formulas.

A PreparedData record holds both spaces and the rows they were built from,
not the basis-evaluated rows: sums over observations are taken in fixed
row blocks, each block's basis columns evaluated when the pass reaches it.
The first pass is the same for every pair of sides: `prepare`,
`prepare_points` and `space_from_sample` make it through `sample._raw_moments`,
which reads each block once for both sides. It reads a Chebyshev side's Gram
off the side's plain-weight doubled-order moment table, whose layout `sample`
owns, and sums any other side's over the block's weighted columns; a
Chebyshev pair also sums its raw cross moments sum_l w_l b_f(l) b_x(l)^T.

`PreparedData.stats` holds the cross Gram C = sum_l w_l f_l x_l^T, the
least-squares map between orthonormal coordinates, and the factor
K = L^-1 C of the coupling C C^T = L L^T; the label-matched projector is
K^T K. C is whitened from the raw cross moments wherever they were summed
and the two whitenings pass the condition gate (`_well_conditioned`), with
no pass; otherwise one pass sums it over whitened rows. The last pass, the
weighted pass, and its route rule are in `tensors`.

The row arrays `x_points`, `x_orth`, `f_points` and `f_orth` are built only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericalError
from .linalg import row_blocks, sym_eig
from .sample import BasisSpec, Sample, _basis_columns, _raw_moments, design_matrix

DEFAULT_REL_THRESHOLD = 1e-12
_ZERO_PROJECTION_REL = 1e-14
_SPAN = ("point", "has zero projection on the measure's span")
_INF = float("inf")


# The query kernel. Every function below works on the last axis, so one
# feature vector (1-D) and a batch of feature rows (2-D) take the same code;
# one row's scalars are Python floats, the same IEEE operations as numpy's.

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
    if not np.ndim(bad):  # a single value is tested directly, without counting
        if bad:
            raise NumericalError(f"{subject} {message}")
    elif np.count_nonzero(bad):
        raise NumericalError(f"{subject} of row {int(np.flatnonzero(bad)[0])} {message}")


def _projection(space: SpaceBasis, points, refusal: tuple) -> tuple:
    """(T p, |T p|^2) along the last axis; |T p|^2 of one row is a Python float. Refuses p
    unless `_nonzero` and |T p|^2 > 0 (a tiny p passes the scale-free rule on a side with a
    floor, and its |T p|^2 can still underflow to 0), by a NumericalError worded by
    `refusal` = (subject, message) that names the first refused row of a batch, and refuses
    a |T p|^2 past the float range (inf, or NaN from an overflowing T p) alike, without an
    overflow warning first: one row whose |p|^2 (from `np.vdot`, which tests no
    floating-point flags) is below `SpaceBasis.square_bound` cannot overflow and is tested
    by one comparison chain, and any other row, or a batch, is evaluated with overflow and
    invalid-value warnings off."""
    points = _points(points, space.raw_dim)
    if points.ndim == 1 and np.vdot(points, points) < space.square_bound:
        coords = _times(points, space.transform)
        norm2 = float(np.vecdot(coords, coords))
        if not space.zero_floor and 0.0 < norm2 < _INF:
            return coords, norm2
        margin = np.minimum(_nonzero(space, points), norm2) if space.zero_floor else norm2
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            coords = _times(points, space.transform)
            norm2 = np.vecdot(coords, coords)
            margin = np.minimum(_nonzero(space, points), norm2) if space.zero_floor else norm2
    _require_positive(margin, refusal[0], refusal[1])  # not *refusal: a star call costs more
    _require_positive(norm2 < _INF, refusal[0], "has |T p|^2 past the float range")
    return coords, norm2 if np.ndim(norm2) else float(norm2)


def _nonzero(space: SpaceBasis, points: np.ndarray) -> np.ndarray:
    """The one zero-projection rule: positive unless |T p|^2 <= eps^2 ||T||_2^2 |p|^2, the
    same at every weight scale; tested on p over its largest entry, so |p|^2 cannot overflow.
    Where the floor is 0 the rule reads |T p|^2 <= 0, and `_projection` tests |T p|^2 itself."""
    top = np.abs(points).max(axis=-1, keepdims=True)
    unit = np.divide(points, top, out=np.zeros_like(points), where=top > 0.0)
    unit_coords = _times(unit, space.transform)
    return np.vecdot(unit_coords, unit_coords) - space.zero_floor * np.vecdot(unit, unit)


@dataclass(frozen=True)
class SpaceBasis:
    """One side's Hilbert space: raw Gram, whitening transform, constant."""

    raw_dim: int
    eff_dim: int
    transform: np.ndarray    # (eff_dim, raw_dim), rows v_i / sqrt(eig_i)
    gram_raw: Optional[np.ndarray]  # (raw_dim, raw_dim); None on a fitted model's attribute side
    const_raw: np.ndarray    # raw coefficient vector of the constant function

    def project(self, points) -> np.ndarray:
        """Orthonormal coordinates of raw feature vectors along the last axis."""
        return _times(_points(points, self.raw_dim), self.transform)

    @cached_property
    def moment_map(self) -> np.ndarray:
        """Moments <b psi_i> of the raw features against each orthonormal function psi_i:
        G T^T, (raw_dim, eff_dim). Maps a transported state to its most probable outcome."""
        return self.gram_raw @ self.transform.T

    @cached_property
    def zero_floor(self) -> float:
        """eps^2 ||T||_2^2 of `_nonzero`: eps = _ZERO_PROJECTION_REL, ||T||_2 the largest norm
        of T's orthogonal rows. 0 where whitening kept every direction: T is invertible there,
        so only p = 0 projects to zero."""
        full = self.eff_dim == self.raw_dim
        return 0.0 if full else _ZERO_PROJECTION_REL ** 2 * (self.transform ** 2).sum(axis=1).max()

    @cached_property
    def square_bound(self) -> float:
        """2^1000 / ||T||_F^2: below it in |p|^2, neither T p nor |T p|^2 can overflow. Every
        partial sum of an entry of T p is at most ||T||_F |p| in size (Cauchy-Schwarz on a row
        of T), and |T p|^2 <= ||T||_F^2 |p|^2; 2^1000 leaves room for the rounding."""
        return 2.0 ** 1000 / float(np.vdot(self.transform, self.transform))


def _kept_ratio(space: SpaceBasis) -> float:
    """The smallest kept Gram eigenvalue over the top one, read off T's row norms
    1/sqrt(eig_i). T is scaled by a power of two first, which is exact and keeps the
    squared norms in range at any weight scale."""
    t = np.ldexp(space.transform, -np.frexp(np.abs(space.transform).max())[1])
    norms2 = np.einsum("ij,ij->i", t, t)
    return float(norms2.min() / norms2.max())


def _whitening_cut(space: SpaceBasis) -> tuple:
    """(`_kept_ratio`, largest dropped Gram eigenvalue over the top one): the second is
    0.0 unless whitening dropped a direction, and only then is the Gram spectrum computed."""
    if space.eff_dim == space.raw_dim:
        return _kept_ratio(space), 0.0
    eig = np.linalg.eigvalsh(space.gram_raw)
    return _kept_ratio(space), float(eig[-1 - space.eff_dim] / eig[-1])


@dataclass(frozen=True)
class LocalizedState:
    """Unit-norm state whose squared value concentrates the measure near a point."""

    coords: np.ndarray
    space: SpaceBasis


def regularize(gram_raw, rel_threshold: float = DEFAULT_REL_THRESHOLD) -> np.ndarray:
    """Whitening transform of a PSD Gram matrix.

    Eigenpairs with eig > rel_threshold * max_eig are kept; the returned
    matrix T has one row per kept pair, scaled so T G T^T = I.
    """
    eig = sym_eig(np.asarray(gram_raw, dtype=float))
    top = eig.eigenvalues[0] if eig.eigenvalues.size else 0.0
    if top <= 0.0:
        raise NumericalError("Gram matrix has no positive spectrum")
    keep = eig.eigenvalues > rel_threshold * top
    return (eig.eigenvectors[:, keep] / np.sqrt(eig.eigenvalues[keep])).T


def _space_from_gram(g, const_direction, rel_threshold: float) -> SpaceBasis:
    """The SpaceBasis of a raw Gram matrix.

    `const_direction` is the raw coefficient vector representing the constant
    function (defaults to the first coordinate axis, matching producted bases
    whose constant component comes first).
    """
    t = regularize(g, rel_threshold)
    const = np.eye(len(g))[0] if const_direction is None else const_direction
    const = np.asarray(const, dtype=float).reshape(-1)
    if const.shape[0] != len(g):
        raise DimensionError("constant direction dimension mismatch")
    return SpaceBasis(raw_dim=len(g), eff_dim=t.shape[0], transform=t, gram_raw=g, const_raw=const)


def space_from_sample(sample: Sample, side: str, spec: BasisSpec) -> SpaceBasis:
    """One side ("x" or "f") of `prepare`; no array of basis-evaluated rows is built.

    The constant function is the spec's constant component.
    """
    rows = sample.x_rows if side == "x" else sample.f_rows
    (gram,), _ = _raw_moments([(spec, rows)], sample.weights)
    return _spec_space(gram, spec)


def _spec_space(gram: np.ndarray, spec: BasisSpec) -> SpaceBasis:
    """The SpaceBasis of a spec's Gram matrix, its constant the spec's constant component
    (checked against the dimension by `_raw_moments`)."""
    return _space_from_gram(gram, np.eye(len(gram))[spec.constant_index], DEFAULT_REL_THRESHOLD)


def christoffel(space: SpaceBasis, point) -> float:
    """Christoffel function K(point) = 1 / ||T point||^2.

    Measures how much of the sample lies near the point. Raises where |T p|^2 <=
    eps^2 ||T||_2^2 |p|^2 (`_nonzero`): a floor of 0 where whitening kept every
    direction, since T is invertible there and only p = 0 projects to zero.
    """
    return 1.0 / float(_projection(space, np.reshape(point, -1), _SPAN)[1])


def localized_state(space: SpaceBasis, point) -> LocalizedState:
    """Unit-norm state localized at the given raw point."""
    coords, norm2 = _projection(space, np.reshape(point, -1), _SPAN)
    return LocalizedState(coords / np.sqrt(norm2), space)


def state_values(state: LocalizedState, points) -> np.ndarray:
    """Evaluate the state as a function on raw feature rows."""
    return state.space.project(np.atleast_2d(points)) @ state.coords


def _coupled(value: Optional[np.ndarray]) -> np.ndarray:
    """A quantity of the label/attribute coupling; raises where the coupling is singular."""
    if value is None:
        raise NumericalError("label/attribute coupling matrix is singular")
    return value


@dataclass(frozen=True)
class RowStats:
    """The label/attribute coupling (`PreparedData.stats`); both arrays are read-only."""

    cross: np.ndarray      # C = sum_l w_l f_l x_l^T, both sides whitened: the cross Gram
    factor: Optional[np.ndarray]  # K = L^-1 C, C C^T = L L^T; None when singular


@dataclass(frozen=True)
class PreparedData:
    """Both sides of a sample lifted into their Hilbert spaces.

    Holds the weights, the two SpaceBasis records and, per side, the rows
    the space was built from: raw rows with the basis spec that evaluates
    them (`prepare`), or feature rows and no spec (`prepare_points`). It is
    the common input of the baseline estimators and the coverage tensors,
    which sum over observations one row block at a time.
    """

    weights: np.ndarray
    x_space: SpaceBasis
    f_space: SpaceBasis
    x_rows: np.ndarray   # raw rows under x_spec; the feature rows when x_spec is None
    f_rows: np.ndarray
    x_spec: Optional[BasisSpec] = None
    f_spec: Optional[BasisSpec] = None
    cross_raw: Optional[np.ndarray] = None  # sum_l w_l b_f(l) b_x(l)^T of a Chebyshev pair

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

    @cached_property
    def stats(self) -> RowStats:
        """The cross Gram C and the factor K of the label/attribute coupling, on first read.

        Where `prepare` summed the raw cross moments C_raw (a Chebyshev pair) and the
        whitenings pass the condition gate (`_well_conditioned`), C is T_f C_raw T_x^T,
        with no pass over the rows; the gate keeps the rounding that whitening
        amplifies small. Otherwise one pass sums C over whitened rows, which keeps
        the rounding near sqrt(kappa_x) + sqrt(kappa_f) rather than their product.
        C C^T is singular (K None) when its smallest eigenvalue is at most 1e-12 of
        the largest. The per-row norms are the weighted pass's (`tensors`).
        """
        tf, tx = self.f_space.transform, self.x_space.transform
        if self.cross_raw is not None and _well_conditioned(self):
            cross = tf @ self.cross_raw @ tx.T
        else:
            cross = 0.0
            for rows in row_blocks(self.size):
                f = _basis_columns(self.f_spec, self.f_rows[rows]).T  # (block rows, m_raw)
                x = _basis_columns(self.x_spec, self.x_rows[rows]).T @ tx.T
                cross = cross + ((f @ tf.T).T * self.weights[rows]) @ x
        coupling = cross @ cross.T
        eig = np.linalg.eigvalsh(coupling)
        factor = None
        if eig[0] > 1e-12 * max(eig[-1], 1e-300):
            factor = np.linalg.solve(np.linalg.cholesky(coupling), cross)
            factor.setflags(write=False)
        cross.setflags(write=False)
        return RowStats(cross, factor)

    @cached_property
    def baseline_sums(self):
        """The kind-free sums of the weighted pass (`tensors`), on first read: the
        label-Christoffel moments behind F_TOT and the F_JDG sum, either one the
        NumericalError its gate recorded, raised where it is read. Every coverage
        bound and `joint_distribution_coverage` read them, so a PreparedData makes
        one such pass; a fit sums its own with its tensor."""
        from .tensors import _weighted_pass  # tensors imports this module
        return _weighted_pass(self)


# Largest kappa_x * kappa_f of the two whitenings whose raw moments are whitened,
# each kappa the top over the smallest kept Gram eigenvalue (`_kept_ratio`).
# Whitening raw moments amplifies their rounding by about that product, so
# its error stays near 1e-11 relative; a sum over whitened rows only sees
# sqrt(kappa).
_MOMENT_CONDITION_MAX = 1e5


def _well_conditioned(data: PreparedData) -> bool:
    """The condition gate: whether raw moments of this data may be whitened, C's in
    `PreparedData.stats` and the moment table's in `tensors`."""
    return _kept_ratio(data.x_space) * _kept_ratio(data.f_space) >= 1.0 / _MOMENT_CONDITION_MAX


def label_matched_projection(data: PreparedData) -> np.ndarray:
    """Projector onto the attribute subspace coupled to the labels.

    Orthonormal-coordinate form of the adjusted-Christoffel matrix: with C
    the cross Gram, this is C^T (C C^T)^{-1} C = K^T K with the row passes'
    K = L^-1 C. Its quadratic form never exceeds the plain squared norm, so
    the adjusted Christoffel function dominates the original one pointwise.
    """
    factor = _coupled(data.stats.factor)
    return factor.T @ factor


def prepare_points(x_points, f_points, weights, x_const=None, f_const=None,
                   rel_threshold: float = DEFAULT_REL_THRESHOLD) -> PreparedData:
    """Build both spaces directly from feature rows, checked as a `Sample` checks raw rows;
    `x_const` and `f_const` are each side's constant direction (`_space_from_gram`).
    One pass over the rows sums both Gram matrices (`sample._raw_moments`)."""
    rows = Sample(x_points, f_points, weights)
    (x_gram, f_gram), _ = _raw_moments([(None, rows.x_rows), (None, rows.f_rows)], rows.weights)
    return PreparedData(
        weights=rows.weights,
        x_space=_space_from_gram(x_gram, x_const, rel_threshold),
        f_space=_space_from_gram(f_gram, f_const, rel_threshold),
        x_rows=rows.x_rows,
        f_rows=rows.f_rows,
    )


def prepare(sample: Sample, x_spec: BasisSpec, f_spec: BasisSpec) -> PreparedData:
    """Evaluate both bases on a sample and build the two spaces.

    One pass over the row blocks (`sample._raw_moments`) sums both Gram
    matrices and, for a Chebyshev pair, the raw cross moments; no array of
    basis-evaluated rows is built.
    """
    (x_gram, f_gram), cross_raw = _raw_moments(
        [(x_spec, sample.x_rows), (f_spec, sample.f_rows)], sample.weights)
    return PreparedData(weights=sample.weights, x_space=_spec_space(x_gram, x_spec),
                        f_space=_spec_space(f_gram, f_spec), x_rows=sample.x_rows,
                        f_rows=sample.f_rows, x_spec=x_spec, f_spec=f_spec, cross_raw=cross_raw)
