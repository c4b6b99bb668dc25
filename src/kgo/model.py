"""Fitted models and everything computed from them: outcome probabilities,
most probable outcomes, const-normalized values, adjusted probability
variants, and serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache, cached_property
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .baselines import joint_distribution_coverage, lsq_channel
from .errors import DataError, DimensionError, NumericalError
from .hilbert import (DEFAULT_REL_THRESHOLD, PreparedData, SpaceBasis, _require_positive,
                      _times, label_matched_projection, prepare)
from .sample import BasisSpec, Sample, design_matrix, evaluate_basis, with_scale
from .sample import CHEBYSHEV
from .solver import PartiallyUnitaryOp, SolverConfig, solve
from .tensors import (ContributingSubspace, TensorKind, build_coverage_tensor,
                      contributing_subspace, ftot_upper_bound, subspace_embedding)

MODEL_FORMAT_VERSION = 1

POLE_REL = 1e-10

IMPORTANT_ONLY = "important-only"
DOF_ADJUSTED = "dof-adjusted"
SVD_BASIS = "svd-basis"


@dataclass(frozen=True)
class Prediction:
    """Most probable outcome at a query point.

    `f_max_p` is the unnormalized predicted label feature vector; `certainty`
    its probability (clipped into [0,1] and flagged non-probability for
    value-mapping tensor kinds); `pole_flag` marks a vanishing constant
    component in the const normalization.
    """

    f_max_p: np.ndarray
    certainty: float
    certainty_is_probability: bool
    pole_flag: bool


@dataclass(frozen=True)
class KgoModel:
    """Everything needed to evaluate P(f|x) and f(x) for a fitted channel."""

    x_spec: Optional[BasisSpec]
    f_spec: Optional[BasisSpec]
    x_space: SpaceBasis
    f_space: SpaceBasis
    operator: PartiallyUnitaryOp
    tensor_kind: TensorKind
    f_embed: Optional[np.ndarray]          # (m_eff, d) for subspace channels
    x_label_projection: Optional[np.ndarray]  # orthonormal adjusted normalizer
    report: dict

    @cached_property
    def channel(self) -> np.ndarray:
        """Effective map from attribute to label orthonormal coordinates."""
        if self.f_embed is None:
            return self.operator.u
        return self.f_embed @ self.operator.u

    @cached_property
    def label_map(self) -> np.ndarray:
        """Moments <b psi_i> of the raw label features against each orthonormal
        label function psi_i: G T^T, (m_raw, m_eff). Maps a transported state
        to its most probable outcome vector."""
        return self.f_space.gram_raw @ self.f_space.transform.T

    @cached_property
    def channel_svd(self):
        """Thin SVD (left, sigma, right_t) of the channel, for the svd-basis mode."""
        return np.linalg.svd(self.channel, full_matrices=False)


def fit(sample: Sample, x_spec: BasisSpec, f_spec: BasisSpec,
        kind: TensorKind = TensorKind.F_CHRISTOFFEL,
        config: SolverConfig = SolverConfig(),
        d: Optional[int] = None,
        rel_threshold: float = DEFAULT_REL_THRESHOLD):
    """Fit a partially unitary channel to a sample.

    Returns (model, trace). `d` selects a contributing subspace of that
    dimension (christoffel-product kind only); by default the channel maps
    onto the full label space. Zero-weight rows are dropped first.
    """
    if not sample.weights.all():
        keep = sample.weights > 0.0
        sample = Sample(sample.x_rows[keep], sample.f_rows[keep], sample.weights[keep])
    if x_spec.kind == CHEBYSHEV and x_spec.scale is None:
        x_spec = with_scale(x_spec, sample.x_rows)
    if f_spec.kind == CHEBYSHEV and f_spec.scale is None:
        f_spec = with_scale(f_spec, sample.f_rows)
    data = prepare(sample, x_spec, f_spec, rel_threshold)
    model, trace = fit_prepared(data, kind, config, d)
    model = replace(model, x_spec=x_spec, f_spec=f_spec)
    return model, trace


def fit_prepared(data: PreparedData, kind: TensorKind = TensorKind.F_CHRISTOFFEL,
                 config: SolverConfig = SolverConfig(), d: Optional[int] = None):
    """Fit from already prepared Hilbert spaces. The model has no basis specs,
    so it takes feature rows even when `data` carries specs; `fit` adds them."""
    kind = TensorKind(kind)
    m_eff, n_eff = data.f_space.eff_dim, data.x_space.eff_dim
    if m_eff > n_eff:
        if data.f_space.raw_dim > data.x_space.raw_dim:
            raise DimensionError(
                f"label space dimension {m_eff} exceeds attribute space {n_eff}; "
                "swap the two sides")
        raise NumericalError(f"whitening kept {_kept(data.x_space, 'attribute')} and "
                             f"{_kept(data.f_space, 'label')}: the attribute space "
                             "collapsed below the label space")
    subspace: Optional[ContributingSubspace] = None
    f_embed = None
    if d is not None and d != m_eff:
        subspace = contributing_subspace(data, d, "projective")
        f_embed = subspace_embedding(data, subspace)
    tensor = build_coverage_tensor(kind, data, subspace)
    # The report baselines first: their weight gate exits before a solve can overflow.
    f_tot, f_jdg = ftot_upper_bound(data), joint_distribution_coverage(data)
    u_init = lsq_channel(data)
    if subspace is not None:
        # Pull the least-squares channel back into subspace coordinates.
        u_init = np.linalg.pinv(f_embed) @ u_init
    op, trace = solve(tensor, config, u_init)
    best = next(record for record in trace if record.f_after == op.f_value)
    try:
        projection = label_matched_projection(data)
    except NumericalError:
        projection = None
    report = {
        "algorithm": op.algorithm,
        "iterations": op.iterations,
        "f": op.f_value,
        "f_tot": f_tot,
        "f_jdg": f_jdg,
        "residual": op.residual,
        "best_iteration": best.iteration,
        "stationarity": best.stationarity,
        "stop_reason": trace.stop_reason,
        "tensor_kind": kind.value,
        "d": tensor.d,
        "n": tensor.n,
        "x_raw_dim": data.x_space.raw_dim,
        "x_eff_dim": data.x_space.eff_dim,
        "f_raw_dim": data.f_space.raw_dim,
        "f_eff_dim": data.f_space.eff_dim,
    }
    model = KgoModel(
        x_spec=None,
        f_spec=None,
        x_space=data.x_space,
        f_space=data.f_space,
        operator=op,
        tensor_kind=kind,
        f_embed=f_embed,
        x_label_projection=projection,
        report=report,
    )
    return model, trace


def _kept(space: SpaceBasis, side: str) -> str:
    """How many directions whitening kept on a side, and the largest it dropped."""
    text = f"{space.eff_dim} of {space.raw_dim} {side} directions"
    if space.eff_dim < space.raw_dim:
        eig = np.linalg.eigvalsh(space.gram_raw)[::-1]
        text += f" (largest dropped Gram eigenvalue {eig[space.eff_dim] / eig[0]:.3g} of top)"
    return text


def _design(spec: Optional[BasisSpec], raw) -> np.ndarray:
    """Feature vector of one raw row; a spec-less model takes features as given."""
    if spec is not None:
        return evaluate_basis(spec, raw)
    return _finite_features(np.asarray(raw, dtype=float).reshape(-1))


def _design_rows(spec: Optional[BasisSpec], rows) -> np.ndarray:
    """Feature rows of a batch of raw rows, in one basis evaluation."""
    if spec is not None:
        return design_matrix(spec, rows)
    return _finite_features(np.atleast_2d(np.asarray(rows, dtype=float)))


def _finite_features(feats: np.ndarray) -> np.ndarray:
    """Given feature vectors along the last axis, refused when non-finite as a
    basis evaluation refuses them; a batch names the first such row."""
    finite = np.isfinite(feats).all(axis=-1)
    if not finite.all():
        row = f" in row {int(np.flatnonzero(~finite)[0])}" if finite.ndim else ""
        raise NumericalError(f"non-finite feature values{row}")
    return feats


# The queries below work on the last axis through the `hilbert` query kernel,
# so one feature vector (1-D) and a batch of feature rows (2-D) take the same code.

def _transported(model: KgoModel, x_feats: np.ndarray) -> np.ndarray:
    """Label-space coefficients of the transported, normalized attribute state."""
    coords = model.x_space.project(x_feats)
    norm = np.sqrt(np.vecdot(coords, coords))
    _require_positive(norm, "query point", "has zero projection on the attribute space")
    return _times(coords / norm[..., None], model.channel)


def _outcome(model: KgoModel, alpha: np.ndarray):
    """Most probable outcome vector, its constant component and its pole flag."""
    f_max_p = _times(alpha, model.label_map)
    const = np.vecdot(f_max_p, model.f_space.const_raw)
    scale = np.sqrt(np.vecdot(f_max_p, f_max_p))
    pole = np.abs(const) < POLE_REL * np.maximum(scale, 1e-300)
    return f_max_p, const, pole


def _certainty(model: KgoModel, alpha: np.ndarray) -> np.ndarray:
    """Probability of the most probable outcome, clipped into [0, 1] for plain values."""
    certainty = np.vecdot(alpha, alpha)
    if model.tensor_kind is TensorKind.PLAIN_VALUE:
        return np.clip(certainty, 0.0, 1.0)
    return certainty


def _const_normalized(f_max_p: np.ndarray, const: np.ndarray) -> np.ndarray:
    """Outcome vectors divided by their constant component; inf where it is zero."""
    const = const[..., None]
    out = np.empty_like(f_max_p)
    out.fill(np.inf)
    return np.divide(f_max_p, const, out=out, where=const != 0.0)


def _overlap(model: KgoModel, alpha: np.ndarray, f_feats: np.ndarray) -> np.ndarray:
    """P(f | x) from the transported state and the outcome's feature vector."""
    f_coords = model.f_space.project(f_feats)
    denom = np.vecdot(f_coords, f_coords)
    _require_positive(denom, "queried outcome", "has zero projection on the label space")
    overlap = np.vecdot(alpha, f_coords)
    return overlap * overlap / denom


def predict(model: KgoModel, X, F=None) -> dict:
    """Answer every query row at once.

    `X` holds raw attribute rows (features for a spec-less model), one per
    query; a 1-D `X` is one row. Returns arrays, one entry per row:
    `f_max_p` (Q, m_raw) most probable outcome vectors, `value` (Q, m_raw)
    const-normalized outcomes, `certainty` (Q,), `pole` (Q,) flags, and,
    when outcome rows `F` are given, `probability` (Q,) = P(F_i | X_i).
    Numerical failures name the first offending row.
    """
    x_feats = _design_rows(model.x_spec, X)
    alpha = _transported(model, x_feats)
    f_max_p, const, pole = _outcome(model, alpha)
    out = {
        "f_max_p": f_max_p,
        "value": _const_normalized(f_max_p, const),
        "certainty": _certainty(model, alpha),
        "pole": pole,
    }
    if F is not None:
        f_feats = _design_rows(model.f_spec, F)
        if f_feats.shape[0] != x_feats.shape[0]:
            raise DimensionError(
                f"{f_feats.shape[0]} outcome rows for {x_feats.shape[0]} query rows")
        out["probability"] = _overlap(model, alpha, f_feats)
    return out


def probability(model: KgoModel, x_raw, f_raw) -> float:
    """P(f | x): squared overlap of the transported state with the outcome.

    Invariant under rescaling of the queried outcome vector.
    """
    alpha = _transported(model, _design(model.x_spec, x_raw))
    return float(_overlap(model, alpha, _design(model.f_spec, f_raw)))


def most_probable(model: KgoModel, x_raw) -> Prediction:
    """Most probable outcome and its certainty at a query point."""
    alpha = _transported(model, _design(model.x_spec, x_raw))
    f_max_p, _, pole = _outcome(model, alpha)
    return Prediction(
        f_max_p=f_max_p,
        certainty=float(_certainty(model, alpha)),
        certainty_is_probability=model.tensor_kind is not TensorKind.PLAIN_VALUE,
        pole_flag=bool(pole),
    )


def value(model: KgoModel, x_raw):
    """Const-normalized outcome vector and a pole flag.

    Divides the most probable outcome by its constant component; near-zero
    constant components are flagged, not fatal, since the resulting poles are
    model behavior worth observing.
    """
    alpha = _transported(model, _design(model.x_spec, x_raw))
    f_max_p, const, pole = _outcome(model, alpha)
    return _const_normalized(f_max_p, const), bool(pole)


def scalar_value_roots(model: KgoModel, x_raw) -> float:
    """Outcome value for power-basis labels via polynomial root finding.

    When the label features are powers of one scalar, the probability is a
    rational function of that scalar; its stationary points are polynomial
    roots. Returns the scalar attaining the maximal probability. The dyadic
    route of `value` stays the default; this is a cross-check.
    """
    if model.f_spec is not None:
        if model.f_spec.kind != "monomial" or (model.f_spec.source is not None
                                               and len(model.f_spec.source) != 1):
            raise DimensionError("root search needs a scalar power-basis label")
    alpha = _transported(model, _design(model.x_spec, x_raw))
    # numerator coefficients: alpha . T f(s) is a polynomial in the scalar s
    num = np.polynomial.Polynomial(model.f_space.transform.T @ alpha)
    den_rows = [np.polynomial.Polynomial(model.f_space.transform[i])
                for i in range(model.f_space.eff_dim)]
    den = sum((row * row for row in den_rows), np.polynomial.Polynomial([0.0]))
    stationary = 2 * num.deriv() * den - num * den.deriv()
    candidates = [r.real for r in stationary.roots() if abs(r.imag) < 1e-9]
    if not candidates:
        raise NumericalError("no real stationary point for the root search")
    coords = model.f_space.project(np.vander(candidates, model.f_space.raw_dim, increasing=True))
    norm2 = np.vecdot(coords, coords)
    prob = np.divide(np.vecdot(coords, alpha) ** 2, norm2, out=np.full_like(norm2, -np.inf),
                     where=norm2 > 0.0)
    return candidates[int(np.argmax(prob))]


def adjusted_probability(model: KgoModel, x_raw, f_raw, mode: str) -> float:
    """Probability with renormalized attribute-side factors.

    important-only  normalizes by the transported state's own norm,
    dof-adjusted    by the label-matched adjusted Christoffel function,
    svd-basis       by the singular-value-weighted norm in the channel's
                    singular bases (evaluation only).
    """
    x_coords = model.x_space.project(_design(model.x_spec, x_raw))
    f_coords = model.f_space.project(_design(model.f_spec, f_raw))
    f_norm2 = f_coords @ f_coords
    _require_positive(f_norm2, "queried outcome", "has zero projection on the label space")
    channel = model.channel
    transported = _times(x_coords, channel)
    numer = np.dot(f_coords, transported) ** 2
    if mode == IMPORTANT_ONLY:
        denom = (transported @ transported) * f_norm2
        _require_positive(denom, "important-only normalizer", "vanishes at this query")
        return float(numer / denom)
    if mode == DOF_ADJUSTED:
        if model.x_label_projection is None:
            raise NumericalError("adjusted normalizer unavailable (singular coupling)")
        adj = x_coords @ model.x_label_projection @ x_coords
        _require_positive(adj, "dof-adjusted normalizer", "vanishes at this query")
        return float(numer / (adj * f_norm2))
    if mode == SVD_BASIS:
        left, sigma, right_t = model.channel_svd
        d = model.operator.d
        fb = (left.T @ f_coords)[:d]
        xb = (right_t @ x_coords)[:d]
        s = sigma[:d]
        numer_b = np.dot(fb * s, xb) ** 2
        denom_b = (fb @ fb) * ((xb * s) @ (xb * s))
        _require_positive(denom_b, "svd-basis normalizer", "vanishes at this query")
        return float(numer_b / denom_b)
    raise DimensionError(f"unknown adjusted probability mode {mode!r}")


def _encode(value):
    """JSON form of a model field: dataclasses by field name, arrays as float
    lists, tuples as lists, enums as their value, anything else as it is."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).tolist()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


_field_types = cache(get_type_hints)


def _decode(hint, value):
    """Inverse of `_encode` for a field of type `hint`. A dataclass needs exactly
    its field names, null needs an Optional field, and a list in a tuple (a
    basis scale's per-source bounds) becomes a float array."""
    if get_origin(hint) is Union:
        return None if value is None else _decode(get_args(hint)[0], value)
    if value is None:
        raise TypeError(f"null where {hint.__name__} is required")
    if is_dataclass(hint):
        names = {f.name for f in fields(hint)}
        if not isinstance(value, dict) or value.keys() != names:
            raise TypeError(f"{hint.__name__} needs exactly the keys {sorted(names)}")
        hints = _field_types(hint)
        return hint(**{name: _decode(hints[name], item) for name, item in value.items()})
    if hint is np.ndarray:
        return np.asarray(value, dtype=float)
    if hint is tuple:
        return tuple(np.asarray(item, dtype=float) if isinstance(item, list) else item
                     for item in value)
    if issubclass(hint, Enum):
        return hint(value)
    return value


def serialize_model(model: KgoModel) -> bytes:
    """Versioned JSON payload of the model's fields; floats survive the round trip bit-exactly."""
    payload = {"format_version": MODEL_FORMAT_VERSION, **_encode(model)}
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


def deserialize_model(blob: bytes) -> KgoModel:
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt model payload: {exc}") from exc
    version = payload.pop("format_version", None) if isinstance(payload, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    try:
        model = _decode(KgoModel, payload)
        _check_shapes(model)
    except (TypeError, ValueError) as exc:
        raise DataError(f"corrupt model payload: {exc}") from exc
    return model


def _check_shapes(model: KgoModel):
    """Refuse (ValueError) decoded arrays whose shapes do not fit together."""
    x, f, u = model.x_space, model.f_space, model.operator.u
    d = f.eff_dim if model.f_embed is None else len(u)
    expected = [("operator.u", u, (d, x.eff_dim)), ("f_embed", model.f_embed, (f.eff_dim, d)),
                ("x_label_projection", model.x_label_projection, (x.eff_dim, x.eff_dim))]
    for side, space in (("x_space", x), ("f_space", f)):
        raw, eff = space.raw_dim, space.eff_dim
        expected += [(f"{side}.{name}", getattr(space, name), shape) for name, shape in
                     (("transform", (eff, raw)), ("gram_raw", (raw, raw)),
                      ("const_raw", (raw,)), ("const_coords", (eff,)))]
    for name, array, shape in expected:
        if array is not None and array.shape != shape:
            raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
