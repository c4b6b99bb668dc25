"""Output checks that recompute the library's answers by a second route.

Every function here takes public kgo objects and plain numpy arrays and
recomputes a result without calling the code path under test:

- `f_oracle` sums the coverage observation by observation, without
  `build_coverage_tensor`;
- `stationarity` is the first-order residual of the returned channel;
- `eval_oracle` answers the per-row eval trio for a batch of rows at once,
  from the model's `transform`, `gram_raw` and `channel`, with Chebyshev
  features from `numpy.polynomial` instead of `kgo.sample`.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

import kgo
from kgo import TensorKind


def f_oracle(data: kgo.PreparedData, u, kind: TensorKind) -> float:
    """F(u) = sum_l w_l (f_l^T u x_l)^2 / (|f_l|^2 * norm_x(x_l))."""
    f, x, w = data.f_orth, data.x_orth, data.weights
    overlap = np.einsum("ij,ij->i", f @ u, x)
    f_norm2 = np.einsum("ij,ij->i", f, f)
    if kind is TensorKind.F_CHRISTOFFEL:
        x_norm = np.ones_like(f_norm2)
    elif kind is TensorKind.CHRISTOFFEL_PRODUCT:
        x_norm = np.einsum("ij,ij->i", x, x)
    elif kind is TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED:
        cross = (f.T * w) @ x
        projection = cross.T @ np.linalg.solve(cross @ cross.T, cross)
        x_norm = np.einsum("ij,ij->i", x @ projection, x)
    else:
        raise ValueError(f"no F oracle for tensor kind {kind}")
    return float(np.sum(w * overlap ** 2 / (f_norm2 * x_norm)))


def stationarity(u, tensor: kgo.CoverageTensor) -> float:
    """||S u - sym(Lambda) u|| / ||S u|| with the public multipliers."""
    su = (tensor.matrix @ np.ravel(u)).reshape(np.shape(u))
    lam = kgo.lagrange_multipliers(u, tensor)
    return float(np.linalg.norm(su - lam @ u) / np.linalg.norm(su))


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _chebyshev_features(spec: kgo.BasisSpec, rows) -> np.ndarray:
    if spec.kind != "chebyshev" or spec.source is not None or spec.scale is None:
        raise ValueError("the eval oracle covers scaled Chebyshev bases over all columns")
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lo, hi = (np.asarray(s, dtype=float) for s in spec.scale)
    t = (2.0 * rows - (lo + hi)) / (hi - lo)
    per_var = [chebyshev.chebvander(t[:, j], spec.product_order) for j in range(rows.shape[1])]
    columns = []
    for idx in kgo.multi_indices(rows.shape[1], spec.product_order, spec.mode):
        col = np.ones(rows.shape[0])
        for j, k in enumerate(idx):
            col = col * per_var[j][:, k]
        columns.append(col)
    return np.stack(columns, axis=1)


def eval_oracle(model: kgo.KgoModel, x_rows, f_rows) -> dict:
    """Batched f_max_p, value, certainty and P(f|x) for many query rows."""
    x_coords = _chebyshev_features(model.x_spec, x_rows) @ model.x_space.transform.T
    x_coords /= np.linalg.norm(x_coords, axis=1, keepdims=True)
    alpha = x_coords @ model.channel.T
    f_max_p = alpha @ model.f_space.transform @ model.f_space.gram_raw.T
    const = f_max_p @ model.f_space.const_raw
    f_coords = _chebyshev_features(model.f_spec, f_rows) @ model.f_space.transform.T
    return {
        "f_max_p": f_max_p,
        "value": f_max_p / const[:, None],
        "certainty": np.einsum("ij,ij->i", alpha, alpha),
        "probability": (np.einsum("ij,ij->i", alpha, f_coords) ** 2
                        / np.einsum("ij,ij->i", f_coords, f_coords)),
    }


def eval_mismatches(model: kgo.KgoModel, rows, x_rows, f_rows, rtol=1e-8) -> int:
    """Count checked rows whose single-row answers differ from the oracle.

    `rows` holds, per checked query row, the tuple (f_max_p, value,
    certainty, probability) that the per-row library calls returned.
    """
    expected = eval_oracle(model, x_rows, f_rows)
    bad = 0
    for i, (f_max_p, value, certainty, prob) in enumerate(rows):
        got = {"f_max_p": f_max_p, "value": value,
               "certainty": certainty, "probability": prob}
        for key, want in expected.items():
            want_i = np.atleast_1d(want[i])
            scale = max(float(np.max(np.abs(want_i))), 1e-300)
            if np.max(np.abs(np.atleast_1d(got[key]) - want_i)) > rtol * scale:
                bad += 1
                break
    return bad
