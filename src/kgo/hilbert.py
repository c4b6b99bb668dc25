"""Hilbert spaces over the sample measure: Gram matrices, whitening,
Christoffel functions, and localized states.

A SpaceBasis wraps one side (attributes or labels): the raw Gram matrix and
the whitening transform T whose rows are eigenvectors scaled by 1/sqrt(eig),
so that T G T^T = I. Everything downstream works in these orthonormalized
coordinates, where the Gram matrix and its inverse drop out of the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericalError
from .linalg import row_blocks, sym_eig
from .sample import BasisSpec, Sample, design_matrix

DEFAULT_REL_THRESHOLD = 1e-12
_ZERO_PROJECTION_REL = 1e-14


@dataclass(frozen=True)
class SpaceBasis:
    """One side's Hilbert space: raw Gram, whitening transform, constant."""

    raw_dim: int
    eff_dim: int
    transform: np.ndarray    # (eff_dim, raw_dim), rows v_i / sqrt(eig_i)
    gram_raw: np.ndarray     # (raw_dim, raw_dim)
    const_raw: np.ndarray    # raw coefficient vector of the constant function
    const_coords: np.ndarray  # transform @ gram_raw @ const_raw

    def project(self, point) -> np.ndarray:
        """Orthonormal coordinates of a raw feature vector."""
        point = np.asarray(point, dtype=float).reshape(-1)
        if point.shape[0] != self.raw_dim:
            raise DimensionError(
                f"point dimension {point.shape[0]} != raw dimension {self.raw_dim}"
            )
        return self.transform @ point


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
    gram = np.zeros((points.shape[1], points.shape[1]))
    for rows in row_blocks(points.shape[0]):
        block = points[rows]
        gram += (block.T * weights[rows]) @ block
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
    points = np.atleast_2d(np.asarray(points, dtype=float))
    g = gram_matrix(points, weights)
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
    rows = sample.x_rows if side == "x" else sample.f_rows
    design = design_matrix(spec, rows)
    const_direction = np.zeros(design.shape[1])
    const_direction[spec.constant_index] = 1.0
    return build_space(design, sample.weights, const_direction, rel_threshold)


def _checked_projection(space: SpaceBasis, point) -> np.ndarray:
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
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return (state.space.transform @ points.T).T @ state.coords


def coverage_of_state(points, weights, space: SpaceBasis, state: LocalizedState) -> float:
    """Estimated number of observations covered by the state: <K psi^2>."""
    if state.space is not space and state.coords.shape[0] != space.eff_dim:
        raise DimensionError("state does not belong to the given space")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    coords = (space.transform @ points.T).T
    norms2 = np.einsum("ij,ij->i", coords, coords)
    if np.any(norms2 <= 0.0):
        raise NumericalError("sample point with zero projection")
    psi = coords @ state.coords
    return float(np.sum(weights * psi * psi / norms2))


@dataclass(frozen=True)
class PreparedData:
    """Both sides of a sample lifted into their Hilbert spaces.

    Holds the feature rows, the two SpaceBasis records, and the cached
    orthonormalized coordinates of every observation; this is the common
    input of the baseline estimators and the coverage tensors. Data built
    by `prepare` also keeps the two basis specs and the raw rows they were
    evaluated on; `prepare_points` leaves those empty.
    """

    x_points: np.ndarray   # (M, n_raw) feature rows, attribute side
    f_points: np.ndarray   # (M, m_raw) feature rows, label side
    weights: np.ndarray
    x_space: SpaceBasis
    f_space: SpaceBasis
    x_orth: np.ndarray     # (M, n_eff)
    f_orth: np.ndarray     # (M, m_eff)
    x_spec: Optional[BasisSpec] = None
    f_spec: Optional[BasisSpec] = None
    x_rows: Optional[np.ndarray] = None  # raw rows x_points was evaluated on
    f_rows: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.x_points.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def cross_gram(self) -> np.ndarray:
        """Cross moments <f_j x_k> in orthonormal coordinates (m_eff x n_eff)."""
        return (self.f_orth.T * self.weights) @ self.x_orth

    @cached_property
    def label_coupling(self) -> tuple:
        """(C, C C^T, K) for the cross Gram C, with K = L^-1 C and C C^T = L L^T.

        Computed on first use from one cross-Gram pass. `K^T K` equals
        `label_matched_projection`, so the adjusted normalizer of a row x is
        |K x|^2, which costs m_eff * n_eff per row instead of n_eff^2. A
        singular coupling raises on every access; nothing is cached then.
        """
        cross = self.cross_gram()
        coupling = cross @ cross.T
        eig = np.linalg.eigvalsh(coupling)
        if eig[0] <= 1e-12 * max(eig[-1], 1e-300):
            raise NumericalError("label/attribute coupling matrix is singular")
        return cross, coupling, np.linalg.solve(np.linalg.cholesky(coupling), cross)

    @cached_property
    def label_projection(self) -> np.ndarray:
        """`label_matched_projection` of this data, computed on first use.

        The fitted model's adjusted normalizer reads it; it shares the cross
        Gram of `label_coupling` with the adjusted tensor kind.
        """
        return label_matched_projection(self)


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
    x_space = build_space(x_points, weights, x_const, rel_threshold)
    f_space = build_space(f_points, weights, f_const, rel_threshold)
    return PreparedData(
        x_points=x_points,
        f_points=f_points,
        weights=weights,
        x_space=x_space,
        f_space=f_space,
        x_orth=x_points @ x_space.transform.T,
        f_orth=f_points @ f_space.transform.T,
    )


def prepare(sample: Sample, x_spec: BasisSpec, f_spec: BasisSpec,
            rel_threshold: float = DEFAULT_REL_THRESHOLD) -> PreparedData:
    """Evaluate both bases on a sample and build the two spaces."""
    x_points = design_matrix(x_spec, sample.x_rows)
    f_points = design_matrix(f_spec, sample.f_rows)
    x_const = np.zeros(x_points.shape[1])
    x_const[x_spec.constant_index] = 1.0
    f_const = np.zeros(f_points.shape[1])
    f_const[f_spec.constant_index] = 1.0
    data = prepare_points(x_points, f_points, sample.weights, x_const, f_const,
                          rel_threshold)
    return replace(data, x_spec=x_spec, f_spec=f_spec,
                   x_rows=sample.x_rows, f_rows=sample.f_rows)
