"""Reference estimators: least squares, Radon-Nikodym and joint-distribution
coverage.

These are the comparison points for the partially unitary channel. They all
consume a PreparedData record so the two Hilbert spaces are built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .hilbert import _SPAN, PreparedData, SpaceBasis, _points, _projection, _times
from .linalg import row_blocks
from .sample import _basis_columns
from .solver import constraint_residual
from .tensors import _raised


@dataclass(frozen=True)
class RadonNikodymModel:
    """Third moments <x_q x_s f_j> in orthonormal attribute coordinates."""

    third_moments: np.ndarray  # (m_labels, n_eff, n_eff), each slice symmetric
    space: SpaceBasis          # attribute space, kept for evaluation


def fit_least_squares(data: PreparedData) -> np.ndarray:
    """Least-squares expansion of the label features over the attribute basis, as
    beta (m_raw, n_raw): a row of raw attribute coefficients per label feature.

    In orthonormal coordinates it is the data's cross Gram C (`PreparedData.stats`);
    beta = G_f T_f^T C T_x, a model's own readout `moment_map` applied to the
    least-squares channel, maps both sides back to raw features.
    """
    return data.f_space.moment_map @ data.stats.cross @ data.x_space.transform


def eval_least_squares(beta: np.ndarray, x_points) -> np.ndarray:
    """Label features predicted for attribute feature vectors along the last axis,
    by the (m_raw, n_raw) map of `fit_least_squares`."""
    return _times(_points(x_points, beta.shape[1]), beta)


def lsq_channel(data: PreparedData) -> np.ndarray:
    """The least-squares map between orthonormal coordinates: a writable copy of the cross Gram."""
    return data.stats.cross.copy()


def partial_unitarity_residual(data: PreparedData) -> float:
    """Frobenius residual of the Gram-invariance condition for the least-squares channel.

    Zero exactly when the label space is a subspace of the attribute space.
    """
    return constraint_residual(data.stats.cross)


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
    for rows in row_blocks(data.size):
        x = data.x_space.transform @ _basis_columns(data.x_spec, data.x_rows[rows])
        weights = data.weights[rows] * _basis_columns(spec, label_rows[rows])  # (labels, block rows)
        moments = moments + (x * weights[:, None]) @ x.T  # one (x w_j) x^T per label
    return RadonNikodymModel(third_moments=moments, space=data.x_space)


def eval_radon_nikodym(model: RadonNikodymModel, x_points) -> np.ndarray:
    """Localized weighted average of every label, at attribute feature vectors
    along the last axis: a ratio of quadratic forms."""
    coords, denom = _projection(model.space, x_points, _SPAN)
    return (np.einsum("...i,jik,...k->...j", coords, model.third_moments, coords)
            / np.asarray(denom)[..., None])


def joint_distribution_coverage(data: PreparedData) -> float:
    """Number of covered observations under the pure joint-distribution model.

    Secondary sampling: the Gram matrices (and cross moments) come first, then
    the squared overlap of the two localized states is accumulated per
    observation in the weighted pass (`tensors`), scaled by the
    christoffel-product weight; that pass is made once per PreparedData
    (`PreparedData.baseline_sums`).
    """
    return _raised(data.baseline_sums.f_jdg)
