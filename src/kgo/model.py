"""Fitted models and everything computed from them: coverage, outcome
probabilities, most probable outcomes, const-normalized values, adjusted
probability variants, operator mapping, and serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .baselines import joint_distribution_coverage, lsq_channel
from .errors import DataError, DimensionError, NumericalError
from .hilbert import DEFAULT_REL_THRESHOLD, PreparedData, SpaceBasis, prepare
from .sample import BasisSpec, Sample, evaluate_basis, with_scale
from .sample import CHEBYSHEV
from .solver import (LSQ_ADJ, PartiallyUnitaryOp, SolverConfig, solve,
                     stationarity_residual)
from .tensors import (ContributingSubspace, CoverageTensor, TensorKind,
                      build_coverage_tensor, contributing_subspace,
                      ftot_upper_bound, label_matched_projection,
                      subspace_embedding)

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
    probability_at: Optional[float] = None


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

    @property
    def channel(self) -> np.ndarray:
        """Effective map from attribute to label orthonormal coordinates."""
        if self.f_embed is None:
            return self.operator.u
        return self.f_embed @ self.operator.u


def fit(sample: Sample, x_spec: BasisSpec, f_spec: BasisSpec,
        kind: TensorKind = TensorKind.F_CHRISTOFFEL,
        config: SolverConfig = SolverConfig(),
        d: Optional[int] = None,
        rel_threshold: float = DEFAULT_REL_THRESHOLD):
    """Fit a partially unitary channel to a sample.

    Returns (model, trace). `d` selects a contributing subspace of that
    dimension (christoffel-product kind only); by default the channel maps
    onto the full label space.
    """
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
    """Fit from already prepared Hilbert spaces (features in, no basis specs)."""
    kind = TensorKind(kind)
    m_eff = data.f_orth.shape[1]
    n_eff = data.x_orth.shape[1]
    if m_eff > n_eff:
        raise DimensionError(
            f"label space dimension {m_eff} exceeds attribute space {n_eff}; "
            "swap the two sides")
    subspace: Optional[ContributingSubspace] = None
    f_embed = None
    if d is not None and d != m_eff:
        subspace = contributing_subspace(data, d, "projective")
        f_embed = subspace_embedding(data, subspace)
    tensor = build_coverage_tensor(kind, data, subspace)
    u_init = None
    if config.algorithm == LSQ_ADJ or config.init_with_least_squares:
        if subspace is None:
            u_init = lsq_channel(data)
        else:
            # Pull the least-squares channel back into subspace coordinates.
            u_init = np.linalg.pinv(f_embed) @ lsq_channel(data)
    op, trace = solve(tensor, config, u_init)
    try:
        projection = label_matched_projection(data)
    except NumericalError:
        projection = None
    report = {
        "algorithm": op.algorithm,
        "iterations": op.iterations,
        "f": op.f_value,
        "f_tot": ftot_upper_bound(data),
        "f_jdg": joint_distribution_coverage(data),
        "residual": op.residual,
        "stationarity": stationarity_residual(op.u, tensor),
        "stop_reason": trace.stop_reason,
        "tensor_kind": kind.value,
        "d": tensor.d,
        "n": tensor.n,
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


def coverage(op, tensor: CoverageTensor) -> float:
    """Coverage of a channel: the flattened quadratic form."""
    u = op.u if isinstance(op, PartiallyUnitaryOp) else np.asarray(op, dtype=float)
    return tensor.quadratic_form(u)


def _design(spec: Optional[BasisSpec], raw) -> np.ndarray:
    if spec is not None:
        return evaluate_basis(spec, raw)
    return np.asarray(raw, dtype=float).reshape(-1)


def _state_coefficients(model: KgoModel, x_raw) -> np.ndarray:
    """Label-space coefficients of the transported attribute state."""
    coords = model.x_space.project(_design(model.x_spec, x_raw))
    norm = np.linalg.norm(coords)
    if norm <= 0.0:
        raise NumericalError("query point has zero projection on the attribute space")
    return model.channel @ (coords / norm)


def probability(model: KgoModel, x_raw, f_raw) -> float:
    """P(f | x): squared overlap of the transported state with the outcome.

    Invariant under rescaling of the queried outcome vector.
    """
    alpha = _state_coefficients(model, x_raw)
    f_coords = model.f_space.project(_design(model.f_spec, f_raw))
    denom = float(f_coords @ f_coords)
    if denom <= 0.0:
        raise NumericalError("queried outcome has zero projection on the label space")
    return float(np.dot(alpha, f_coords) ** 2 / denom)


def most_probable(model: KgoModel, x_raw, f_raw=None) -> Prediction:
    """Most probable outcome and its certainty at a query point."""
    alpha = _state_coefficients(model, x_raw)
    certainty = float(alpha @ alpha)
    f_max_p = model.f_space.gram_raw @ model.f_space.transform.T @ alpha
    const = float(model.f_space.const_raw @ f_max_p)
    scale = float(np.linalg.norm(f_max_p))
    pole = bool(abs(const) < POLE_REL * max(scale, 1e-300))
    is_probability = model.tensor_kind is not TensorKind.PLAIN_VALUE
    reported = certainty if is_probability else min(max(certainty, 0.0), 1.0)
    p_at = probability(model, x_raw, f_raw) if f_raw is not None else None
    return Prediction(
        f_max_p=f_max_p,
        certainty=reported,
        certainty_is_probability=is_probability,
        pole_flag=pole,
        probability_at=p_at,
    )


def value(model: KgoModel, x_raw):
    """Const-normalized outcome vector and a pole flag.

    Divides the most probable outcome by its constant component; near-zero
    constant components are flagged, not fatal, since the resulting poles are
    model behavior worth observing.
    """
    pred = most_probable(model, x_raw)
    const = float(model.f_space.const_raw @ pred.f_max_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = pred.f_max_p / const if const != 0.0 else np.full_like(pred.f_max_p, np.inf)
    return out, pred.pole_flag


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
    alpha = _state_coefficients(model, x_raw)
    m_raw = model.f_space.raw_dim
    # numerator coefficients: alpha . T f(s) is a polynomial in the scalar s
    num = np.polynomial.Polynomial(model.f_space.transform.T @ alpha)
    den_rows = [np.polynomial.Polynomial(model.f_space.transform[i])
                for i in range(model.f_space.eff_dim)]
    den = sum((row * row for row in den_rows), np.polynomial.Polynomial([0.0]))
    stationary = 2 * num.deriv() * den - num * den.deriv()
    candidates = [r.real for r in stationary.roots() if abs(r.imag) < 1e-9]
    if not candidates:
        raise NumericalError("no real stationary point for the root search")

    def prob(s: float) -> float:
        feats = np.array([s ** k for k in range(m_raw)])
        coords = model.f_space.transform @ feats
        d = float(coords @ coords)
        return float(np.dot(alpha, coords) ** 2 / d) if d > 0.0 else -np.inf

    return max(candidates, key=prob)


def adjusted_probability(model: KgoModel, x_raw, f_raw, mode: str) -> float:
    """Probability with renormalized attribute-side factors.

    important-only  normalizes by the transported state's own norm,
    dof-adjusted    by the label-matched adjusted Christoffel function,
    svd-basis       by the singular-value-weighted norm in the channel's
                    singular bases (evaluation only).
    """
    x_coords = model.x_space.project(_design(model.x_spec, x_raw))
    f_coords = model.f_space.project(_design(model.f_spec, f_raw))
    f_norm2 = float(f_coords @ f_coords)
    if f_norm2 <= 0.0:
        raise NumericalError("queried outcome has zero projection on the label space")
    channel = model.channel
    transported = channel @ x_coords
    numer = float(np.dot(f_coords, transported) ** 2)
    if mode == IMPORTANT_ONLY:
        denom = float(transported @ transported) * f_norm2
        if denom <= 0.0:
            raise NumericalError("important-only normalizer vanishes at this query")
        return numer / denom
    if mode == DOF_ADJUSTED:
        if model.x_label_projection is None:
            raise NumericalError("adjusted normalizer unavailable (singular coupling)")
        adj = float(x_coords @ model.x_label_projection @ x_coords)
        if adj <= 0.0:
            raise NumericalError("dof-adjusted normalizer vanishes at this query")
        return numer / (adj * f_norm2)
    if mode == SVD_BASIS:
        left, sigma, right_t = np.linalg.svd(channel, full_matrices=False)
        d = model.operator.d
        fb = (left.T @ f_coords)[:d]
        xb = (right_t @ x_coords)[:d]
        s = sigma[:d]
        numer_b = float(np.dot(fb * s, xb) ** 2)
        denom_b = float(fb @ fb) * float((xb * s) @ (xb * s))
        if denom_b <= 0.0:
            raise NumericalError("svd-basis normalizer vanishes at this query")
        return numer_b / denom_b
    raise DimensionError(f"unknown adjusted probability mode {mode!r}")


def map_operator(u, a) -> np.ndarray:
    """Push a symmetric operator through the channel: A -> u A u^T.

    Maps PSD to PSD; preserves the trace only for square unitary channels.
    """
    u = u.u if isinstance(u, PartiallyUnitaryOp) else np.asarray(u, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.shape != (u.shape[1], u.shape[1]):
        raise DimensionError(f"operator shape {a.shape} does not match channel {u.shape}")
    return u @ a @ u.T


def _array_to_json(a):
    return np.asarray(a, dtype=float).tolist()


def _spec_to_json(spec: Optional[BasisSpec]):
    if spec is None:
        return None
    return {
        "kind": spec.kind,
        "product_order": spec.product_order,
        "source": list(spec.source) if spec.source is not None else None,
        "mode": spec.mode,
        "constant_index": spec.constant_index,
        "scale": None if spec.scale is None else [_array_to_json(spec.scale[0]),
                                                  _array_to_json(spec.scale[1])],
    }


def _spec_from_json(payload):
    if payload is None:
        return None
    scale = payload.get("scale")
    return BasisSpec(
        kind=payload["kind"],
        product_order=payload["product_order"],
        source=tuple(payload["source"]) if payload.get("source") is not None else None,
        mode=payload["mode"],
        constant_index=payload["constant_index"],
        scale=None if scale is None else (np.asarray(scale[0]), np.asarray(scale[1])),
    )


def _space_to_json(space: SpaceBasis):
    return {
        "raw_dim": space.raw_dim,
        "eff_dim": space.eff_dim,
        "transform": _array_to_json(space.transform),
        "gram_raw": _array_to_json(space.gram_raw),
        "const_raw": _array_to_json(space.const_raw),
        "const_coords": _array_to_json(space.const_coords),
    }


def _space_from_json(payload) -> SpaceBasis:
    return SpaceBasis(
        raw_dim=payload["raw_dim"],
        eff_dim=payload["eff_dim"],
        transform=np.asarray(payload["transform"], dtype=float),
        gram_raw=np.asarray(payload["gram_raw"], dtype=float),
        const_raw=np.asarray(payload["const_raw"], dtype=float),
        const_coords=np.asarray(payload["const_coords"], dtype=float),
    )


def serialize_model(model: KgoModel) -> bytes:
    """Versioned JSON payload; floats survive the round trip bit-exactly."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "tensor_kind": model.tensor_kind.value,
        "x_spec": _spec_to_json(model.x_spec),
        "f_spec": _spec_to_json(model.f_spec),
        "x_space": _space_to_json(model.x_space),
        "f_space": _space_to_json(model.f_space),
        "operator": {
            "u": _array_to_json(model.operator.u),
            "residual": model.operator.residual,
            "algorithm": model.operator.algorithm,
            "iterations": model.operator.iterations,
            "f_value": model.operator.f_value,
        },
        "f_embed": None if model.f_embed is None else _array_to_json(model.f_embed),
        "x_label_projection": (None if model.x_label_projection is None
                               else _array_to_json(model.x_label_projection)),
        "report": model.report,
    }
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


def deserialize_model(blob: bytes) -> KgoModel:
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt model payload: {exc}") from exc
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    try:
        op = payload["operator"]
        return KgoModel(
            x_spec=_spec_from_json(payload["x_spec"]),
            f_spec=_spec_from_json(payload["f_spec"]),
            x_space=_space_from_json(payload["x_space"]),
            f_space=_space_from_json(payload["f_space"]),
            operator=PartiallyUnitaryOp(
                u=np.asarray(op["u"], dtype=float),
                residual=op["residual"],
                algorithm=op["algorithm"],
                iterations=op["iterations"],
                f_value=op["f_value"],
            ),
            tensor_kind=TensorKind(payload["tensor_kind"]),
            f_embed=(None if payload["f_embed"] is None
                     else np.asarray(payload["f_embed"], dtype=float)),
            x_label_projection=(None if payload["x_label_projection"] is None
                                else np.asarray(payload["x_label_projection"], dtype=float)),
            report=payload["report"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"corrupt model payload: {exc}") from exc
