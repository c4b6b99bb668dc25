"""Desk-scale demonstrations: localized states, square-wave interpolation,
an exact polynomial map, and image intensity mapping.

Each builder returns (header, rows) ready to be written as TSV; continuous
measures are discretized on uniform grids standing in for the integral.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import baselines, hilbert, model as model_mod
from .errors import DataError, DimensionError
from .sample import CHEBYSHEV, BasisSpec, Sample, design_matrix, evaluate_basis
from .solver import SolverConfig
from .tensors import TensorKind

DEFAULT_GRID_POINTS = 201
ANCHORS = (-0.6, 0.0, 0.4)  # the localization points of `localized_states_table`

# The solver each demonstration runs unless a config is passed in.
_MAPPING = SolverConfig(algorithm="linear-constraints", max_iterations=200,
                        init_with_least_squares=True)
PINNED_CONFIGS = {"square-wave": _MAPPING, "exact-map": _MAPPING,
                  "image": SolverConfig(algorithm="lsq-adj")}


def grid_measure(n_points: int = DEFAULT_GRID_POINTS):
    """Uniform grid on [-1, 1] with weights summing to the interval length."""
    if n_points < 2:
        raise DimensionError("need at least two grid points")
    grid = np.linspace(-1.0, 1.0, n_points)
    weights = np.full(n_points, 2.0 / n_points)
    return grid, weights


def localized_states_table(n: int = 7, n_points: int = DEFAULT_GRID_POINTS):
    """Squared localized states on the grid, one column per point of ANCHORS."""
    grid, weights = grid_measure(n_points)
    spec = BasisSpec("monomial", n - 1)
    sample = Sample(grid[:, None], grid[:, None], weights)
    space = hilbert.space_from_sample(sample, "x", spec)
    design = design_matrix(spec, grid[:, None])
    header = ["x"] + [f"psi2_y{y:+g}" for y in ANCHORS]
    columns = [grid]
    for y in ANCHORS:
        state = hilbert.localized_state(space, evaluate_basis(spec, [y]))
        columns.append(hilbert.state_values(state, design) ** 2)
    rows = np.column_stack(columns)
    return header, rows


def _estimate_table(data, labels, kind: TensorKind, config: SolverConfig, leading: dict):
    """A mapping demo's table: the leading columns, then at the data's own rows least squares,
    Radon-Nikodym on the label columns, and the channel's value, P(truth) and pole flag."""
    fitted, _ = model_mod.fit_prepared(data, kind, config)
    pred = model_mod.predict(fitted, data.x_points, data.f_points)
    lsq = baselines.eval_least_squares(baselines.fit_least_squares(data), data.x_points)
    rn = baselines.eval_radon_nikodym(baselines.fit_radon_nikodym(data, labels), data.x_points)
    header = [*leading, "least_squares", "radon_nikodym", "kgo_value", "kgo_p_at_truth", "pole"]
    return header, np.column_stack([*leading.values(), lsq[:, 1], rn[:, 0], pred["value"][:, 1],
                                    pred["probability"], pred["pole"]])


def _comparison_table(grid, weights, f_true, x_order: int, f_order: int,
                      kind: TensorKind, config: SolverConfig):
    """Shared assembly of the 1D function-mapping demos."""
    sample = Sample(grid[:, None], f_true[:, None], weights)
    data = hilbert.prepare(sample, BasisSpec("monomial", x_order), BasisSpec("monomial", f_order))
    return _estimate_table(data, f_true[:, None], kind, config, {"x": grid, "exact": f_true})


def square_wave_table(n: int = 7, n_points: int = DEFAULT_GRID_POINTS,
                      kind: TensorKind = TensorKind.F_CHRISTOFFEL,
                      config: Optional[SolverConfig] = None):
    """Square-wave interpolation: exact, least squares, Radon-Nikodym, channel.

    The label takes two values, so its producted basis has dimension 2.
    """
    grid, weights = grid_measure(n_points)
    f_true = np.where(grid >= 0.0, 1.0, -1.0)
    if config is None:
        config = PINNED_CONFIGS["square-wave"]
    return _comparison_table(grid, weights, f_true, n - 1, 1, kind, config)


def exact_map_table(n: int = 7, m: int = 5, n_points: int = DEFAULT_GRID_POINTS,
                    kind: TensorKind = TensorKind.F_CHRISTOFFEL,
                    config: Optional[SolverConfig] = None):
    """Identity map whose exact solution keeps the leading label components."""
    grid, weights = grid_measure(n_points)
    if not 1 <= m <= n:
        raise DimensionError("need 1 <= m <= n")
    if config is None:
        config = PINNED_CONFIGS["exact-map"]
    return _comparison_table(grid, weights, grid.copy(), n - 1, m - 1, kind, config)


def read_pgm(path) -> np.ndarray:
    """Read an ASCII (P2) portable graymap into intensities in [0, 1]."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise DataError("expected an ASCII portable graymap (P2)")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = np.array([float(t) for t in tokens[4:]], dtype=float)
    except (IndexError, ValueError) as exc:
        raise DataError(f"malformed graymap: {exc}") from exc
    if min(width, height) < 1:
        raise DataError(f"graymap width and height must be positive, got {width} x {height}")
    if maxval <= 0 or values.shape[0] != width * height:
        raise DataError("graymap header does not match pixel data")
    return values.reshape(height, width) / maxval


def synthetic_gradient(size: int = 8) -> np.ndarray:
    """Deterministic diagonal gradient image for self-contained runs."""
    axis = np.linspace(0.0, 1.0, size)
    return 0.5 * (axis[:, None] + axis[None, :])


def tensor_grid_design(x, y, n_x: int, n_y: int):
    """Two-axis tensor-product Chebyshev columns on [-1, 1]^2, leading-axis
    exponent major. The constant component (both exponents zero) comes first.
    """
    unit = (np.array([-1.0]), np.array([1.0]))
    cols_x = design_matrix(BasisSpec(CHEBYSHEV, n_x - 1, scale=unit),
                           np.asarray(x, dtype=float)[:, None])
    cols_y = design_matrix(BasisSpec(CHEBYSHEV, n_y - 1, scale=unit),
                           np.asarray(y, dtype=float)[:, None])
    out = np.einsum("li,lj->lij", cols_x, cols_y)
    return out.reshape(out.shape[0], n_x * n_y)


def image_table(image: np.ndarray, n_x: int = 5, n_y: int = 5, m: int = 3,
                kind: TensorKind = TensorKind.F_CHRISTOFFEL,
                config: Optional[SolverConfig] = None):
    """Pixel-coordinate to gray-intensity mapping over a whole image.

    Pixel centers are scaled onto [-1, 1]^2; the attribute basis is the
    n_x by n_y tensor grid, the label basis the first m powers of intensity.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or min(image.shape) < 2:
        raise DataError("image must be a 2D array with at least 2x2 pixels")
    height, width = image.shape
    xx = np.tile(np.linspace(-1.0, 1.0, width), height)
    yy = np.repeat(np.linspace(-1.0, 1.0, height), width)
    gray = image.reshape(-1)
    x_design = tensor_grid_design(xx, yy, n_x, n_y)
    f_design = design_matrix(BasisSpec("monomial", m - 1), gray[:, None])
    data = hilbert.prepare_points(x_design, f_design, np.ones(gray.shape[0]))
    if config is None:
        config = PINNED_CONFIGS["image"]
    return _estimate_table(data, gray[:, None], kind, config, {"x": xx, "y": yy, "exact": gray})
