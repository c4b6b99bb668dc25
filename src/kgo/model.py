"""Fitted models and everything computed from them: outcome probabilities
P(f|x), most probable outcomes, const-normalized values, and serialization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache, cached_property
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .baselines import lsq_channel
from .errors import DataError, DimensionError, NumericalError
from .hilbert import (PreparedData, SpaceBasis, _nonzero, _projection, _times, _whitening_cut,
                      prepare)
from .sample import CHEBYSHEV, BasisSpec, Sample, design_matrix, evaluate_basis, with_scale
from .linalg import sym_eig
from .solver import (LSQ_ADJ, PartiallyUnitaryOp, SolverConfig, enforce_partial_unitarity,
                     lsq_adjusted, solve)
from .tensors import (CoverageTensor, TensorKind, _composable, _raised, _subspace_dimension,
                      _weighted_pass, subspace_embedding)

MODEL_FORMAT_VERSION = 2

POLE_REL = 1e-10
_ATTRIBUTE = ("query point", "has zero projection on the attribute space")
_LABEL = ("queried outcome", "has zero projection on the label space")


@dataclass(frozen=True)
class Prediction:
    """Most probable outcome at a query point.

    `f_max_p` is the unnormalized predicted label feature vector; `certainty` its
    probability, clipped into [0,1] for the plain-value kind, whose certainty is not
    a probability. `value` and `predict` give the const-normalized outcome and pole.
    """

    f_max_p: np.ndarray
    certainty: float


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
    report: dict

    @cached_property
    def channel(self) -> np.ndarray:
        """Effective map from attribute to label orthonormal coordinates."""
        if self.f_embed is None:
            return self.operator.u
        return self.f_embed @ self.operator.u


def fit(sample: Sample, x_spec: BasisSpec, f_spec: BasisSpec,
        kind: TensorKind = TensorKind.F_CHRISTOFFEL,
        config: SolverConfig = SolverConfig(),
        d: Optional[int] = None):
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
    data = prepare(sample, x_spec, f_spec)
    model, trace = fit_prepared(data, kind, config, d)
    return replace(model, x_spec=x_spec, f_spec=f_spec), trace


def fit_prepared(data: PreparedData, kind: TensorKind = TensorKind.F_CHRISTOFFEL,
                 config: SolverConfig = SolverConfig(), d: Optional[int] = None):
    """Fit from already prepared Hilbert spaces. The model has no basis specs,
    so it takes feature rows even when `data` carries specs; `fit` adds them."""
    kind = TensorKind(kind)
    x_cut, f_cut = _whitening_cut(data.x_space), _whitening_cut(data.f_space)
    m_eff, n_eff = data.f_space.eff_dim, data.x_space.eff_dim
    if m_eff > n_eff:
        if data.f_space.raw_dim > data.x_space.raw_dim:
            raise DimensionError(
                f"label space dimension {m_eff} exceeds attribute space {n_eff}; "
                "swap the two sides")
        raise NumericalError(f"whitening kept {_kept(data.x_space, 'attribute', x_cut[1])} and "
                             f"{_kept(data.f_space, 'label', f_cut[1])}: the attribute space "
                             "collapsed below the label space")
    composed = d is not None and d != m_eff
    if composed:  # the checks of `contributing_subspace` and `build_coverage_tensor`
        _subspace_dimension(data, d)
        _composable(kind)
    # lsq-adj reads S only at its start, the snapped least-squares channel: without a
    # subspace to compose, the pass sums S u for it. A rank-deficient channel takes the
    # tensor path, whose solve raises after the pass's gates.
    channel = None
    if config.algorithm == LSQ_ADJ and not composed:
        try:
            channel = enforce_partial_unitarity(lsq_channel(data), "svd")
        except NumericalError:
            pass
    # One weighted pass gives the tensor (or S u) and the sums of F_TOT and F_JDG.
    sums = _weighted_pass(data, kind, channel)
    coverage = data.stats.cross.T @ _raised(sums.label_moments) @ data.stats.cross
    f_embed = None
    if composed:  # `contributing_subspace` of the pulled-back label coverage
        f_embed = subspace_embedding(data, sym_eig(coverage).eigenvectors[:, :d])
    # The report baselines first: their weight gate exits before a solve can overflow.
    f_tot, f_jdg = float(np.trace(coverage)), _raised(sums.f_jdg)
    if channel is not None:
        op, trace = lsq_adjusted(channel, sums.matrix)
    else:
        tensor = CoverageTensor(kind, m_eff, n_eff, sums.matrix)
        u_init = lsq_channel(data)
        if f_embed is not None:
            tensor = tensor.label_congruence(f_embed)
            # Pull the least-squares channel back into subspace coordinates.
            u_init = np.linalg.pinv(f_embed) @ u_init
        op, trace = solve(tensor, config, u_init)
    # u and -u differ only in the sign of f_max_p: keep the one agreeing with least squares.
    if np.vdot(op.u if f_embed is None else f_embed @ op.u, data.stats.cross) < 0.0:
        op = replace(op, u=-op.u)
    best = trace.records[trace.best]
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
        "d": op.u.shape[0],
        "n": op.u.shape[1],
        "x_raw_dim": data.x_space.raw_dim, "x_eff_dim": data.x_space.eff_dim,
        "f_raw_dim": data.f_space.raw_dim, "f_eff_dim": data.f_space.eff_dim,
        "x_smallest_kept": x_cut[0], "x_largest_dropped": x_cut[1],
        "f_smallest_kept": f_cut[0], "f_largest_dropped": f_cut[1],
    }
    # No query reads the attribute Gram matrix, so the model does not keep it.
    return KgoModel(x_spec=None, f_spec=None, x_space=replace(data.x_space, gram_raw=None),
                    f_space=data.f_space, operator=op, tensor_kind=kind, f_embed=f_embed,
                    report=report), trace


def _kept(space: SpaceBasis, side: str, dropped: float) -> str:
    """How many directions whitening kept on a side, and the largest it dropped (`dropped`)."""
    text = f"{space.eff_dim} of {space.raw_dim} {side} directions"
    if space.eff_dim < space.raw_dim:
        text += f" (largest dropped Gram eigenvalue {dropped:.3g} of top)"
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
# so one feature vector (1-D) and a batch of feature rows (2-D) take the same
# code. One row's scalar parts (the norm's square root, the constant division,
# the pole test) are Python floats: the same IEEE operations, so the same bits.

def _transported(model: KgoModel, x_feats: np.ndarray) -> np.ndarray:
    """Label-space coefficients of the transported, normalized attribute state."""
    coords, norm2 = _projection(model.x_space, x_feats, _ATTRIBUTE)
    norm = math.sqrt(norm2) if coords.ndim == 1 else np.sqrt(norm2)[:, None]
    return _times(coords / norm, model.channel)


def _certainty(model: KgoModel, alpha: np.ndarray) -> np.ndarray:
    """Probability of the most probable outcome, clipped into [0, 1] for plain values."""
    certainty = np.vecdot(alpha, alpha)
    if model.tensor_kind is TensorKind.PLAIN_VALUE:
        return np.clip(certainty, 0.0, 1.0)
    return certainty


def _const_normalized(model: KgoModel, f_max_p: np.ndarray):
    """Outcome vectors divided by their constant component (inf where it is zero),
    and the pole flags of a constant component vanishing relative to the vector."""
    const = np.vecdot(f_max_p, model.f_space.const_raw)
    square = np.vecdot(f_max_p, f_max_p)
    if f_max_p.ndim == 1:
        const = float(const)
        pole = abs(const) < POLE_REL * max(math.sqrt(square), 1e-300)
        return (f_max_p / const if const != 0.0 else np.full_like(f_max_p, np.inf)), pole
    pole = np.abs(const) < POLE_REL * np.maximum(np.sqrt(square), 1e-300)
    out = np.full_like(f_max_p, np.inf)
    return np.divide(f_max_p, const[:, None], out=out, where=const[:, None] != 0.0), pole


def _overlap(model: KgoModel, alpha: np.ndarray, f_feats: np.ndarray) -> np.ndarray:
    """P(f | x) from the transported state and the outcome's feature vector."""
    f_coords, denom = _projection(model.f_space, f_feats, _LABEL)
    overlap = np.vecdot(alpha, f_coords)
    return overlap * overlap / denom


def predict(model: KgoModel, X, F=None) -> dict:
    """Answer every query row at once.

    `X` holds raw attribute rows (features for a spec-less model), one per
    query; a 1-D `X` is one row. Returns arrays, one entry per row:
    `f_max_p` (Q, m_raw) most probable outcome vectors, `value` (Q, m_raw)
    const-normalized outcomes, `certainty` (Q,), `pole` (Q,) flags, and,
    when outcome rows `F` are given, `probability` (Q,) = P(F_i | X_i).
    Numerical failures name the first offending row. A 1-D `X` (with one
    outcome row, if any) takes the one-row path of `most_probable`, `value`
    and `probability`, with their errors and the batch row's bits, and gets
    the row axis back at the end.
    """
    one = np.ndim(X) == 1 and (F is None or np.ndim(F) < 2 or len(F) == 1)
    design = _design if one else _design_rows
    x_feats = design(model.x_spec, X)
    alpha = _transported(model, x_feats)
    f_max_p = _times(alpha, model.f_space.moment_map)
    normalized, pole = _const_normalized(model, f_max_p)
    out = {
        "f_max_p": f_max_p,
        "value": normalized,
        "certainty": _certainty(model, alpha),
        "pole": pole,
    }
    if F is not None:
        f_feats = design(model.f_spec, F)
        if f_feats.shape[:-1] != x_feats.shape[:-1]:
            raise DimensionError(
                f"{f_feats.shape[0]} outcome rows for {x_feats.shape[0]} query rows")
        out["probability"] = _overlap(model, alpha, f_feats)
    return {key: np.asarray(answer)[None] for key, answer in out.items()} if one else out


def probability(model: KgoModel, x_raw, f_raw) -> float:
    """P(f | x): squared overlap of the transported state with the outcome.

    Invariant under rescaling of the queried outcome vector.
    """
    alpha = _transported(model, _design(model.x_spec, x_raw))
    return float(_overlap(model, alpha, _design(model.f_spec, f_raw)))


def most_probable(model: KgoModel, x_raw) -> Prediction:
    """Most probable outcome and its certainty at a query point."""
    alpha = _transported(model, _design(model.x_spec, x_raw))
    return Prediction(_times(alpha, model.f_space.moment_map), float(_certainty(model, alpha)))


def value(model: KgoModel, x_raw):
    """Const-normalized outcome vector and a pole flag.

    Divides the most probable outcome by its constant component; near-zero
    constant components are flagged, not fatal, since the resulting poles are
    model behavior worth observing.
    """
    alpha = _transported(model, _design(model.x_spec, x_raw))
    normalized, pole = _const_normalized(model, _times(alpha, model.f_space.moment_map))
    return normalized, bool(pole)


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
    points = np.vander(candidates, model.f_space.raw_dim, increasing=True)
    coords = model.f_space.project(points)
    norm2 = np.vecdot(coords, coords)
    prob = np.divide(np.vecdot(coords, alpha) ** 2, norm2, out=np.full_like(norm2, -np.inf),
                     where=_nonzero(model.f_space, points) > 0.0)
    return candidates[int(np.argmax(prob))]


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
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise DataError(f"unsupported model format version {version!r}")
    try:
        dropped = _from_version_1(payload) if version == 1 else []
        model = _decode(KgoModel, payload)
        _check_arrays(model, dropped)
    except KeyError as exc:
        raise DataError(f"corrupt model payload: version 1 needs the key {exc}") from exc
    except (TypeError, ValueError, DataError) as exc:
        raise DataError(f"corrupt model payload: {exc}") from exc
    return model


def _from_version_1(payload: dict) -> list:
    """Turn a version-1 payload into version 2's, in place: drop the label-matched projection,
    each side's const_coords and the attribute Gram. A missing key or a null (but the
    projection's) raises here; `_check_arrays` refuses the returned arrays as version 1 did."""
    x, f = payload["x_space"], payload["f_space"]
    n, n_raw, m = x["eff_dim"], x["raw_dim"], f["eff_dim"]  # refuses a space that is no object
    dropped = [("x_label_projection",
                _decode(Optional[np.ndarray], payload.pop("x_label_projection")), (n, n)),
               ("x_space.gram_raw", _decode(np.ndarray, x["gram_raw"]), (n_raw, n_raw)),
               ("x_space.const_coords", _decode(np.ndarray, x.pop("const_coords")), (n,)),
               ("f_space.const_coords", _decode(np.ndarray, f.pop("const_coords")), (m,))]
    x["gram_raw"] = None
    return dropped


def _check_arrays(model: KgoModel, dropped: list):
    """Refuse (ValueError) a report that is not a JSON object, a label side without the Gram
    matrix `SpaceBasis.moment_map` reads, decoded arrays whose shapes do not fit together (and
    the `dropped` arrays of a version-1 payload), a spec's constant index past its basis, and
    any array or reported float holding a non-finite value (JSON decodes NaN and Infinity)."""
    if not isinstance(model.report, dict):
        raise ValueError("report is not a JSON object")
    x, f, op = model.x_space, model.f_space, model.operator
    if f.gram_raw is None:
        raise ValueError("f_space.gram_raw is null")
    d = f.eff_dim if model.f_embed is None else len(op.u)
    expected = [*dropped, ("operator.u", op.u, (d, x.eff_dim)),
                ("f_embed", model.f_embed, (f.eff_dim, d)),
                ("operator.residual", op.residual, None), ("operator.f_value", op.f_value, None)]
    expected += [(f"report.{key}", item, None) for key, item in model.report.items()
                 if isinstance(item, float)]
    for side, space in (("x_space", x), ("f_space", f)):
        raw, eff = space.raw_dim, space.eff_dim
        expected += [(f"{side}.{name}", getattr(space, name), shape) for name, shape in
                     (("transform", (eff, raw)), ("gram_raw", (raw, raw)), ("const_raw", (raw,)))]
    for side, spec, space in (("x_spec", model.x_spec, x), ("f_spec", model.f_spec, f)):
        if spec is not None and spec.constant_index >= space.raw_dim:
            raise ValueError(f"{side}.constant_index {spec.constant_index} out of range for "
                             f"basis dimension {space.raw_dim}")
        if spec is not None and spec.scale is not None:
            expected.append((f"{side}.scale", np.asarray(spec.scale, dtype=float), None))
    for name, array, shape in expected:
        if array is not None and shape is not None and array.shape != shape:
            raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
        if array is not None and not np.isfinite(array).all():
            raise ValueError(f"{name} has non-finite values")
