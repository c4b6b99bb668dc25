"""Sample ingestion, attribute producting, basis evaluation, weighted averages.

A Sample is a weighted list of (attribute row, label row) observations; the
weighted sum over it is the measure behind every moment in the package.
Attribute / label rows are expanded into polynomial feature vectors by a
BasisSpec before any Hilbert-space machinery sees them.

Every pass over the rows evaluates a block's basis columns here
(`_basis_columns`). This module also owns the doubled-order moment table
that Chebyshev Gram matrices and coverage tensors are read off; no other
module knows its layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import comb
from typing import Optional

import numpy as np

from .errors import DataError, DimensionError, NumericalError
from .linalg import row_blocks

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

DEFAULT_DIMENSION_CAP = 10_000


@dataclass(frozen=True)
class Sample:
    """Weighted observations: attribute rows, label rows, nonnegative weights."""

    x_rows: np.ndarray
    f_rows: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x_rows, dtype=float))
        f = np.atleast_2d(np.asarray(self.f_rows, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if x.shape[0] < 1 or x.shape[0] != f.shape[0] or x.shape[0] != w.shape[0]:
            raise DimensionError(
                f"inconsistent observation counts: x={x.shape[0]}, f={f.shape[0]}, w={w.shape[0]}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f)) and np.all(np.isfinite(w))):
            raise DataError("sample contains non-finite values")
        if np.any(w < 0.0):
            raise DataError("weights must be nonnegative")
        if w.sum() <= 0.0:
            raise DataError("total weight must be positive")
        object.__setattr__(self, "x_rows", x)
        object.__setattr__(self, "f_rows", f)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.x_rows.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class BasisSpec:
    """Recipe turning a raw row into a polynomial feature vector.

    kind            "monomial" or "chebyshev" (argument-scaled Chebyshev).
    product_order   total degree of the producted monomials.
    source          which raw columns feed the basis (None = all).
    mode            "up_to" includes every degree 0..order, "exact" only the
                    stated degree (use exact order 1 for pass-through columns).
    constant_index  position of the constant component in the output vector.
    scale           per-source (lo, hi) used by the Chebyshev argument map;
                    fill it from the training sample with `with_scale`.
    """

    kind: str = MONOMIAL
    product_order: int = 1
    source: Optional[tuple] = None
    mode: str = "up_to"
    constant_index: int = 0
    scale: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in (MONOMIAL, CHEBYSHEV):
            raise DataError(f"unknown basis kind {self.kind!r}")
        if self.mode not in ("up_to", "exact"):
            raise DataError(f"unknown producting mode {self.mode!r}")
        if self.product_order < 0:
            raise DataError("product order must be nonnegative")
        if self.source is not None:
            object.__setattr__(self, "source", tuple(int(c) for c in self.source))

    @cached_property
    def _plan(self) -> "_BasisPlan":
        """Query-independent evaluation state, built on first use.

        A spec made by `dataclasses.replace` starts without one, so a plan
        never outlives the fields it was built from.
        """
        return _BasisPlan(self)


class _BasisPlan:
    """What evaluating a spec needs besides the query rows.

    Holds the source columns as an index array and, for a scaled Chebyshev
    spec, the pieces of the argument map t = (2 x - (lo + hi)) / (hi - lo):
    `lo + hi`, the span with zero spans replaced by one, and whether every
    span is positive (zero-span variables map to t = 0).
    """

    __slots__ = ("source", "lo_plus_hi", "safe_span", "live", "all_live")

    def __init__(self, spec: BasisSpec):
        self.source = None if spec.source is None else np.array(spec.source, dtype=np.intp)
        self.lo_plus_hi = self.safe_span = self.live = None
        self.all_live = True
        if spec.kind == CHEBYSHEV and spec.scale is not None:
            lo = np.asarray(spec.scale[0], dtype=float)
            hi = np.asarray(spec.scale[1], dtype=float)
            span = hi - lo
            self.live = span > 0.0
            self.all_live = bool(np.all(self.live))
            self.safe_span = np.where(self.live, span, 1.0)
            self.lo_plus_hi = lo + hi

    def select(self, rows: np.ndarray) -> np.ndarray:
        """The source columns of 2-D rows."""
        if self.source is None:
            return rows
        if self.source.max() >= rows.shape[1]:
            raise DimensionError(
                f"source column {self.source.max()} out of range for width {rows.shape[1]}"
            )
        return rows[:, self.source]

    def argument(self, sel: np.ndarray) -> np.ndarray:
        """Per-variable arguments of the factor tables; a per-source scale must fit the rows."""
        if self.lo_plus_hi is None:
            return sel
        if self.lo_plus_hi.ndim and self.lo_plus_hi.shape[0] != sel.shape[1]:
            raise DimensionError(f"basis scale covers {self.lo_plus_hi.shape[0]} variables, "
                                 f"rows have {sel.shape[1]}")
        t = (2.0 * sel - self.lo_plus_hi) / self.safe_span
        return t if self.all_live else np.where(self.live, t, 0.0)


def multi_indices(n_vars: int, order: int, mode: str = "exact"):
    """Exponent tuples of the producted basis, in the documented order.

    Exact mode lists all tuples with sum == order; up_to mode walks degrees
    0..order. Within a degree, tuples appear in lexicographic monomial order
    (leading variable first): (2,0) before (1,1) before (0,2).
    """
    if n_vars < 1:
        raise DimensionError("need at least one variable")

    def exact(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining, -1, -1):
            for rest in exact(remaining - k, slots - 1):
                yield (k,) + rest

    if mode == "exact":
        yield from exact(order, n_vars)
    elif mode == "up_to":
        for d in range(order + 1):
            yield from exact(d, n_vars)
    else:
        raise DataError(f"unknown producting mode {mode!r}")


@lru_cache(maxsize=64)
def _exponent_table(n_vars: int, order: int, mode: str) -> tuple:
    """multi_indices as read-only flat gather indices, built once.

    One index array per variable j: for every basis column, the row of
    variable j's factor in the factor table flattened to
    ((order + 1) * n_vars, rows), that is exponent * n_vars + j.
    """
    table = np.array(list(multi_indices(n_vars, order, mode)), dtype=np.intp)
    table = table.reshape(-1, n_vars) * n_vars + np.arange(n_vars)
    gathers = tuple(np.ascontiguousarray(column) for column in table.T)
    for gather in gathers:
        gather.setflags(write=False)
    return gathers


@lru_cache(maxsize=256)
def producted_dimension(n_vars: int, order: int, mode: str = "exact") -> int:
    """Closed-form count of producted monomials."""
    if mode == "exact":
        return comb(n_vars + order - 1, order)
    return sum(comb(n_vars + d - 1, d) for d in range(order + 1))


def weighted_average(sample: Sample, h) -> float:
    """Measure-weighted sum of a per-observation quantity.

    `h` may be a scalar, a length-M array of precomputed values, or a callable
    h(x_row, f_row) evaluated on every observation.
    """
    if callable(h):
        vals = np.array([float(h(x, f)) for x, f in zip(sample.x_rows, sample.f_rows)])
    else:
        vals = np.broadcast_to(np.asarray(h, dtype=float), (sample.size,))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite value under the average")
    return float(np.dot(vals, sample.weights))


def _gather_columns(table: np.ndarray, gathers: tuple) -> np.ndarray:
    """Basis columns from a flattened factor table: the product of one gathered row per variable."""
    first, *rest = gathers
    columns = table[first]
    for gather in rest:
        columns *= table[gather]
    return columns


def _n_vars(spec: BasisSpec, rows: np.ndarray) -> int:
    """Number of variables the spec reads from 2-D rows."""
    return rows.shape[1] if spec.source is None else len(spec.source)


def _checked_dimension(spec: BasisSpec, rows: np.ndarray) -> int:
    """The spec's basis dimension on 2-D rows; DimensionError above the cap, before anything is built."""
    dim = producted_dimension(_n_vars(spec, rows), spec.product_order, spec.mode)
    if dim > DEFAULT_DIMENSION_CAP:
        raise DimensionError(f"producted dimension {dim} exceeds cap {DEFAULT_DIMENSION_CAP}")
    return dim


def _factor_block(spec: BasisSpec, rows: np.ndarray, order: int) -> np.ndarray:
    """Factor table (order + 1, n_vars, rows) of a block of raw rows.

    Powers 0..order (or Chebyshev T_0..T_order) of every argument, stacked first.
    """
    plan = spec._plan
    values = np.ascontiguousarray(plan.argument(plan.select(rows)).T)  # unit-stride recurrence
    if spec.kind != CHEBYSHEV:
        return np.stack([np.ones_like(values)] + [values ** k for k in range(1, order + 1)])
    table = np.empty((order + 1,) + values.shape)
    table[0] = 1.0
    if order:
        table[1] = values
        twice = 2.0 * values
        # T_k = 2 t T_(k-1) - T_(k-2), written into the preallocated row views;
        # the third positional argument of each ufunc is its `out`.
        multiply, subtract = np.multiply, np.subtract
        before, last, *rest = table
        for row in rest:
            multiply(twice, last, row)
            subtract(row, before, row)
            before, last = last, row
    return table


def _basis_columns(spec: Optional[BasisSpec], rows: np.ndarray) -> np.ndarray:
    """Basis columns (dim, rows) of a block of raw rows; spec-less rows are the features."""
    if spec is None:
        return rows.T
    table = _factor_block(spec, rows, spec.product_order)
    return _gather_columns(table.reshape(-1, table.shape[-1]),
                           _exponent_table(table.shape[1], spec.product_order, spec.mode))


# The doubled-order moment table of a Chebyshev spec, summed by `_moment_table`,
# read by `_product_moments` and sized by `_table_shape`. Per variable
# T_a T_b = (T_(a+b) + T_|a-b|) / 2 (Mason & Handscomb, Chebyshev Polynomials,
# 2003), so the product of two basis columns is the mean, over the 2**n_vars
# choices of sum or difference per variable, of one column of order <= 2 * order.
# The table's columns are the leading variables' up_to list of that order
# times the last variable's exponent 0..2*order.


def _doubled_factors(spec: BasisSpec, rows: np.ndarray):
    """(lead, last): a block's leading-variable columns (Q, rows) and last-variable table.

    Table column q * (2 order + 1) + e of a row is lead[q] * last[e].
    """
    order = 2 * spec.product_order
    table = _factor_block(spec, rows, order)  # (order + 1, n_vars, rows)
    n_vars, n_rows = table.shape[1], table.shape[2]
    last = np.ascontiguousarray(table[:, -1])  # a unit-stride operand of the table products
    if n_vars == 1:
        return np.ones((1, n_rows)), last
    lead = table[:, :-1].reshape(-1, n_rows)
    return _gather_columns(lead, _exponent_table(n_vars - 1, order, "up_to")), last


def _table_shape(spec: BasisSpec, rows: np.ndarray):
    """Per-row sizes of one side's table: lead columns, last-variable rows, gather multiplies."""
    n_vars = _n_vars(spec, rows)
    order = 2 * spec.product_order
    lead = producted_dimension(n_vars - 1, order, "up_to") if n_vars > 1 else 1
    return lead, order + 1, lead * (n_vars - 1)


def _moment_table(spec: BasisSpec, rows: np.ndarray, weights: np.ndarray,
                  label_spec: Optional[BasisSpec] = None,
                  label_rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Mom[p, q] = sum_l w_l L_p(l) T_q(x_l) over the doubled-order columns T of `spec`.

    L is 1 (a Gram matrix's table) or a second Chebyshev side's columns.
    Per row block: the weighted L columns times the leading-variable
    columns, times the last variable's table in one matrix product.
    Non-finite values raise: every side has the column T_0 = 1, so a
    non-finite factor reaches the table.
    """
    mom = 0.0
    for block in row_blocks(rows.shape[0]):
        lead, last = _doubled_factors(spec, rows[block])
        label = weights[block][None]
        if label_spec is not None:
            f_lead, f_last = _doubled_factors(label_spec, label_rows[block])
            label = np.multiply(f_lead[:, None], f_last[None]).reshape(-1, last.shape[1]) * label
        left = np.multiply(label[:, None], lead[None]).reshape(-1, last.shape[1])
        mom = mom + left @ last.T
    if not np.isfinite(mom).all():
        raise NumericalError("basis evaluation produced non-finite values")
    return mom.reshape(label.shape[0], -1)


@lru_cache(maxsize=32)
def _product_gathers(n_vars: int, order: int, mode: str) -> tuple:
    """Where each product of two basis columns sits in the doubled-order table.

    Returns one read-only (dim, dim) index array per choice of sum or
    difference per variable.
    """
    exps = np.array(list(multi_indices(n_vars, order, mode)), dtype=np.intp).reshape(-1, n_vars)
    width = 2 * order + 1
    rank = np.zeros((width,) * (n_vars - 1), dtype=np.intp)
    if n_vars > 1:
        lead = np.array(list(multi_indices(n_vars - 1, 2 * order, "up_to")), dtype=np.intp)
        rank[tuple(lead.T)] = np.arange(lead.shape[0])
    plus = exps[:, None, :] + exps[None, :, :]
    minus = np.abs(exps[:, None, :] - exps[None, :, :])
    gathers = []
    for choice in np.ndindex((2,) * n_vars):
        exps2 = np.where(np.array(choice, dtype=bool), minus, plus)
        position = rank[tuple(np.moveaxis(exps2[..., :-1], -1, 0))] * width + exps2[..., -1]
        position.setflags(write=False)
        gathers.append(position)
    return tuple(gathers)


def _product_moments(moments: np.ndarray, spec: BasisSpec, rows: np.ndarray,
                     axis: int = -1) -> np.ndarray:
    """Moments of every product of two basis columns of `spec`, read off its table.

    `moments` holds the table's columns along `axis`; that axis becomes
    the (dim, dim) pair of basis columns.
    """
    gathers = _product_gathers(_n_vars(spec, rows), spec.product_order, spec.mode)
    products = np.take(moments, gathers[0], axis=axis)
    for gather in gathers[1:]:
        products += np.take(moments, gather, axis=axis)
    products /= len(gathers)
    return products


def with_scale(spec: BasisSpec, rows) -> BasisSpec:
    """Return the spec with Chebyshev argument scaling fit to sample rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    columns = np.ascontiguousarray(spec._plan.select(rows).T)  # reduce along contiguous memory
    return replace(spec, scale=(columns.min(axis=1), columns.max(axis=1)))


def design_matrix(spec: BasisSpec, rows) -> np.ndarray:
    """Evaluate the basis on every row; one feature vector per observation.

    Filled one block of observations at a time from `_basis_columns`, the
    evaluator every pass over the rows uses.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    out = np.empty((rows.shape[0], _checked_dimension(spec, rows)))
    for block in row_blocks(rows.shape[0]):
        out[block] = _basis_columns(spec, rows[block]).T
    if not np.isfinite(out).all():
        raise NumericalError("basis evaluation produced non-finite values")
    return out


def evaluate_basis(spec: BasisSpec, raw) -> np.ndarray:
    """Basis-evaluated feature vector of one raw row; constant always present."""
    return design_matrix(spec, raw)[0]


def parse_column_spec(text: str):
    """Parse `x=<a>-<b>;f=<c>-<d>[;w=<e>]` with zero-based inclusive ranges.

    Attribute and label ranges may alias each other (handy for identity-map
    checks); the weight column must not overlap either.
    """
    ranges = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"bad column spec fragment {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("x", "f", "w") or key in ranges:
            raise DataError(f"bad or repeated column spec key {key!r}")
        lo, dash, hi = val.partition("-")
        try:
            a = int(lo)
            b = int(hi) if dash else a
        except ValueError as exc:
            raise DataError(f"bad column range {val!r}") from exc
        if a < 0 or b < a:
            raise DataError(f"bad column range {val!r}")
        ranges[key] = list(range(a, b + 1))
    if "x" not in ranges or "f" not in ranges:
        raise DataError("column spec must name both x and f ranges")
    if "w" in ranges:
        if len(ranges["w"]) != 1:
            raise DataError("weight spec must name a single column")
        if set(ranges["w"]) & (set(ranges["x"]) | set(ranges["f"])):
            raise DataError("weight column overlaps attribute or label columns")
    return ranges["x"], ranges["f"], ranges.get("w", [None])[0]


def load_sample(path, column_spec: str) -> Sample:
    """Load a CSV of decimal reals into a Sample; rows keep file order.

    Lines starting with '#' are comments. Weights default to 1 when the spec
    names no w column.
    """
    x_cols, f_cols, w_col = parse_column_spec(column_spec)
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for line in raw_lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            rows.append([float(tok) for tok in fields])
        except ValueError as exc:
            raise DataError(f"malformed value in row {len(rows) + 1}") from exc
        if not all(np.isfinite(rows[-1])):
            raise DataError(f"non-finite value in row {len(rows) + 1}")
    if not rows:
        raise DataError(f"no data rows in {path}")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 1}: expected {width} fields")
    needed = max(x_cols + f_cols + ([w_col] if w_col is not None else []))
    if needed >= width:
        raise DataError(f"column {needed} out of range for {width}-column file")
    table = np.asarray(rows, dtype=float)
    weights = table[:, w_col] if w_col is not None else np.ones(table.shape[0])
    return Sample(table[:, x_cols], table[:, f_cols], weights)
