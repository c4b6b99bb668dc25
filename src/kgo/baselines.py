"""Reference estimators: least squares, Radon-Nikodym and joint-distribution
coverage.

These are the comparison points for the partially unitary channel. They all
consume a PreparedData record so the two Hilbert spaces are built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .hilbert import PreparedData, SpaceBasis, _points, _require_positive, _times
from .sample import _basis_columns
from .solver import constraint_residual
from .tensors import TensorKind, _row_weights


@dataclass(frozen=True)
class LeastSquaresMap:
    """Linear expansion of each label component over the attribute basis."""

    beta: np.ndarray  # (m_raw, n_raw)


@dataclass(frozen=True)
class RadonNikodymModel:
    """Third moments <x_q x_s f_j> in orthonormal attribute coordinates."""

    third_moments: np.ndarray  # (m_labels, n_eff, n_eff), each slice symmetric
    space: SpaceBasis          # attribute space, kept for evaluation


def fit_least_squares(data: PreparedData) -> LeastSquaresMap:
    """Least-squares expansion of the label features over the attribute basis.

    Solved in regularized coordinates, where the normal equations reduce to a
    plain cross-moment contraction: beta = <f (T_x x)^T> T_x, read off the
    data's cached cross moments, so no pass over the rows is made here.
    """
    return LeastSquaresMap(beta=data.cross_moments[1] @ data.x_space.transform)


def eval_least_squares(lsq: LeastSquaresMap, x_points) -> np.ndarray:
    """Label features predicted for attribute feature vectors along the last axis."""
    return _times(_points(x_points, lsq.beta.shape[1]), lsq.beta)


def lsq_channel(data: PreparedData) -> np.ndarray:
    """The least-squares map between orthonormal coordinates (the cross Gram)."""
    return data.cross_gram()


def partial_unitarity_residual(data: PreparedData, channel=None) -> float:
    """Frobenius residual of the Gram-invariance condition for a channel.

    Defaults to the least-squares channel; zero exactly when the label space
    is a subspace of the attribute space.
    """
    return constraint_residual(data.cross_gram() if channel is None else channel)


def fit_radon_nikodym(data: PreparedData, labels=None) -> RadonNikodymModel:
    """Per-label third-moment matrices over the attribute space.

    `labels` defaults to the label feature rows; pass raw label columns to
    interpolate them directly. Summed one row block at a time, so no array
    of basis-evaluated rows is built or cached on the data.
    """
    spec, label_rows = data.f_spec, data.f_rows
    if labels is not None:
        spec, label_rows = None, np.atleast_2d(np.asarray(labels, float))
        if label_rows.shape[0] != data.size:
            raise DimensionError("row/label count mismatch")
    moments = 0.0
    for rows, x in data.blocks("x"):
        weights = data.weights[rows] * _basis_columns(spec, label_rows[rows])  # (labels, block rows)
        moments = moments + (x * weights[:, None]) @ x.T  # one (x w_j) x^T per label
    return RadonNikodymModel(third_moments=moments, space=data.x_space)


def eval_radon_nikodym(model: RadonNikodymModel, x_points) -> np.ndarray:
    """Localized weighted average of every label, at attribute feature vectors
    along the last axis: a ratio of quadratic forms."""
    coords = model.space.project(x_points)
    denom = np.vecdot(coords, coords)
    _require_positive(denom, "point", "has zero projection on the measure's span")
    return np.einsum("...i,jik,...k->...j", coords, model.third_moments, coords) / denom[..., None]


def joint_distribution_coverage(data: PreparedData) -> float:
    """Number of covered observations under the pure joint-distribution model.

    Secondary sampling: the Gram matrices (and cross moments) come first, then
    the squared overlap of the two localized states is accumulated per
    observation, read from the data's per-row norms and scaled by the
    christoffel-product weight.
    """
    weights = _row_weights(data, TensorKind.CHRISTOFFEL_PRODUCT)
    return float(np.sum(weights * data.row_norms.overlap ** 2))
