"""Sample ingestion, attribute producting and basis evaluation.

A Sample is a weighted list of (attribute row, label row) observations; the
weighted sum over it is the measure behind every moment in the package.
Attribute / label rows are expanded into polynomial feature vectors by a
BasisSpec before any Hilbert-space machinery sees them.

Every pass over the rows evaluates a block's basis columns here
(`_basis_columns`), and so does `evaluate_basis` for a single query row.
What evaluation needs besides the rows is resolved once per spec, in its
`_BasisPlan`: the source columns, the Chebyshev argument map's operands,
and per input width the basis dimension and the exponent gathers. A query
row then pays only for its own arithmetic. This module also owns the
doubled-order moment table that Chebyshev Gram matrices and coverage
tensors are read off; no other module knows its layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
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
    """What evaluating a spec needs besides the query rows, resolved once per spec.

    Holds the source columns as an index array with their largest index and,
    for a scaled Chebyshev spec, the operands of the argument map
    t = (2 x - (lo + hi)) / (hi - lo), shaped (n_vars, 1) for the
    (n_vars, rows) factor table: `lo + hi`, the span with zero spans replaced
    by one, and the zero-span variables, which map to t = 0. Per input width,
    `layout` resolves the basis dimension (checked against the cap) and the
    exponent gathers of the basis columns on first use.
    """

    __slots__ = ("order", "mode", "source", "source_max", "scale_width",
                 "lo_plus_hi", "safe_span", "dead", "widths")

    def __init__(self, spec: BasisSpec):
        self.order, self.mode = spec.product_order, spec.mode
        self.source = None if spec.source is None else np.array(spec.source, dtype=np.intp)
        self.source_max = None if spec.source is None else max(spec.source)
        self.scale_width = self.lo_plus_hi = self.safe_span = self.dead = None
        self.widths = {}
        if spec.kind == CHEBYSHEV and spec.scale is not None:
            lo = np.asarray(spec.scale[0], dtype=float)
            hi = np.asarray(spec.scale[1], dtype=float)
            self.lo_plus_hi, span = lo + hi, hi - lo
            if span.ndim:
                self.scale_width = span.shape[0]
                self.lo_plus_hi, span = self.lo_plus_hi[:, None], span[:, None]
            live = span > 0.0
            if not np.all(live):
                self.dead = ~live
            self.safe_span = np.where(live, span, 1.0)

    def layout(self, width: int) -> tuple:
        """(basis dimension, exponent gathers) on rows of this width.

        DimensionError above the cap, before the gathers are built.
        """
        if width not in self.widths:
            n_vars = width if self.source is None else len(self.source)
            dim = producted_dimension(n_vars, self.order, self.mode)
            if dim > DEFAULT_DIMENSION_CAP:
                raise DimensionError(f"producted dimension {dim} exceeds cap {DEFAULT_DIMENSION_CAP}")
            self.widths[width] = dim, _exponent_table(n_vars, self.order, self.mode)
        return self.widths[width]

    def select(self, rows: np.ndarray) -> np.ndarray:
        """The source columns of 2-D rows as a (n_vars, rows) view; a per-source scale must fit them."""
        if self.source is None:
            sel = rows.T
        elif self.source_max >= rows.shape[1]:
            raise DimensionError(
                f"source column {self.source_max} out of range for width {rows.shape[1]}")
        else:
            sel = rows[:, self.source].T
        if self.scale_width is not None and self.scale_width != sel.shape[0]:
            raise DimensionError(f"basis scale covers {self.scale_width} variables, "
                                 f"rows have {sel.shape[0]}")
        return sel

    def argument(self, sel: np.ndarray, out: np.ndarray) -> None:
        """Write the Chebyshev arguments of the selected columns into `out`."""
        if self.lo_plus_hi is None:
            out[...] = sel
            return
        # The ufuncs of (2 x - (lo + hi)) / span in order; the third positional
        # argument of each is its `out`.
        np.multiply(2.0, sel, out)
        np.subtract(out, self.lo_plus_hi, out)
        np.divide(out, self.safe_span, out)
        if self.dead is not None:
            np.copyto(out, 0.0, where=self.dead)


def multi_indices(n_vars: int, order: int, mode: str = "exact"):
    """Exponent tuples of the producted basis, in the documented order.

    Exact mode lists all tuples with sum == order; up_to mode walks degrees
    0..order. Within a degree, tuples appear in lexicographic monomial order
    (leading variable first): (2,0) before (1,1) before (0,2), which is the
    order of the sorted variable multisets of `combinations_with_replacement`.
    """
    if n_vars < 1:
        raise DimensionError("need at least one variable")
    if mode not in ("exact", "up_to"):
        raise DataError(f"unknown producting mode {mode!r}")
    for degree in range(order + 1) if mode == "up_to" else (order,):
        for chosen in combinations_with_replacement(range(n_vars), degree):
            yield tuple(chosen.count(j) for j in range(n_vars))


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


def _gather_columns(table: np.ndarray, gathers: tuple) -> np.ndarray:
    """Basis columns from a flattened factor table: the product of one gathered row per variable."""
    first, *rest = gathers
    columns = table.take(first, axis=0)
    for gather in rest:
        columns *= table.take(gather, axis=0)
    return columns


def _n_vars(spec: BasisSpec, rows: np.ndarray) -> int:
    """Number of variables the spec reads from 2-D rows."""
    return rows.shape[1] if spec.source is None else len(spec.source)


def _checked_dimension(spec: BasisSpec, rows: np.ndarray) -> int:
    """The spec's basis dimension on 2-D rows; DimensionError above the cap, before anything is built."""
    return spec._plan.layout(rows.shape[1])[0]


def _factor_block(spec: BasisSpec, rows: np.ndarray, order: int) -> np.ndarray:
    """Factor table (order + 1, n_vars, rows) of a block of raw rows.

    Powers 0..order (or Chebyshev T_0..T_order) of every argument, stacked first.
    """
    plan = spec._plan
    sel = plan.select(rows)
    if spec.kind != CHEBYSHEV:
        values = np.ascontiguousarray(sel)
        return np.stack([np.ones_like(values)] + [values ** k for k in range(1, order + 1)])
    table = np.empty((order + 1,) + sel.shape)
    table[0] = 1.0
    if order:
        plan.argument(sel, table[1])  # unit-stride rows for the recurrence
        twice = 2.0 * table[1]
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
    gathers = spec._plan.layout(rows.shape[1])[1]
    table = _factor_block(spec, rows, spec.product_order)
    return _gather_columns(table.reshape(-1, table.shape[-1]), gathers)


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
                  label_rows: Optional[np.ndarray] = None, shift: int = 0) -> np.ndarray:
    """Mom[p, q] = 2^-shift sum_l w_l L_p(l) T_q(x_l) over the doubled-order columns T of `spec`.

    L is 1 (a Gram matrix's table) or a second Chebyshev side's columns.
    Per row block: the weighted L columns times the leading-variable
    columns, times the last variable's table in one matrix product.
    Non-finite values raise: every side has the column T_0 = 1, so a
    non-finite factor reaches the table.
    """
    mom = 0.0
    for block in row_blocks(rows.shape[0]):
        lead, last = _doubled_factors(spec, rows[block])
        label = weights[block][None] if not shift else np.ldexp(weights[block], -shift)[None]
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
    # Selected by the unscaled spec's plan, so a spec of another width can be rescaled.
    columns = np.ascontiguousarray(replace(spec, scale=None)._plan.select(rows))
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
    """Basis-evaluated feature vector of one raw row (the first row of a 2-D `raw`).

    Equal bit for bit to that row of `design_matrix`, through the same
    `_basis_columns` without its block loop, and raises what `design_matrix`
    raises on `raw`. In up_to mode, and in exact mode at order 0, the first
    component is the constant 1 (every exponent zero); exact mode at order
    >= 1 has no constant component.
    """
    rows = np.array(raw, dtype=float, ndmin=2, copy=None)  # np.atleast_2d, in one call
    columns = _basis_columns(spec, rows)
    if not np.isfinite(columns).all():
        raise NumericalError("basis evaluation produced non-finite values")
    return columns[:, 0]


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
