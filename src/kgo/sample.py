"""Sample ingestion, attribute producting and basis evaluation.

A Sample is a weighted list of (attribute row, label row) observations; the
weighted sum over it is the measure behind every moment in the package.
Attribute / label rows are expanded into polynomial feature vectors by a
BasisSpec before any Hilbert-space machinery sees them.

A family, monomial or Chebyshev, is data here (`_Family`): its recurrence and
its product rule. Every pass over the rows evaluates a block's basis columns
(`_basis_columns`) or doubled-order factor tables (`_doubled_factors`) by the
recurrence, and `evaluate_basis` a single query row's in Python floats with
the same bits (`_row_factors`). What evaluation needs besides the rows is
resolved once per spec, in its `_BasisPlan`. This module also owns the
doubled-order moment table, whose columns hold every product of two basis
columns by the product rule, and the first pass over the rows
(`_raw_moments`): one loop of row blocks that sums both sides' Gram matrices
and a `prepare` pair's raw cross moments, on tables or basis columns as the
one work rule (`_moment_table`) picks. `hilbert` and `tensors` reach the
table's layout only through the helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb, isfinite
from operator import index
from typing import NamedTuple, Optional

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
        if not w.any():
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
        object.__setattr__(self, "product_order", _count(self.product_order, "product order"))
        object.__setattr__(self, "constant_index", _count(self.constant_index, "constant index"))
        if self.source is not None:
            source = tuple(_count(c, "source column") for c in self.source)
            object.__setattr__(self, "source", source)

    @cached_property
    def _plan(self) -> "_BasisPlan":
        """Query-independent evaluation state, built on first use.

        A spec made by `dataclasses.replace` starts without one, so a plan
        never outlives the fields it was built from.
        """
        return _BasisPlan(self)


def _count(value, what: str) -> int:
    """A spec's non-negative integer; a bool, fraction, NaN or non-number is refused."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise DataError(f"{what} must be an integer, got {value!r}")
    if index(value) < 0:
        raise DataError(f"{what} must be nonnegative")
    return index(value)


class _Family(NamedTuple):
    """A polynomial family as data: its product rule per variable, p_a p_b = p_(a+b) or,
    where it `folds`, (p_(a+b) + p_|a-b|) / 2, and the recurrence that rule gives at b = 1
    from p_0 = 1, p_1 = t: p_k = slope t p_(k-1), less p_(k-2) where it folds."""

    slope: float
    folds: bool


_FAMILIES = {MONOMIAL: _Family(1.0, False), CHEBYSHEV: _Family(2.0, True)}


class _BasisPlan:
    """What evaluating a spec needs besides the query rows, resolved once per spec.

    Holds the spec's family, the source columns as an index array with their
    largest index and, for a scaled Chebyshev spec, the operands of the argument map
    t = (2 x - (lo + hi)) / (hi - lo), shaped (n_vars, 1) for the
    (n_vars, rows) factor table: `lo + hi`, the span with zero spans replaced
    by one, and the zero-span variables, which map to t = 0; `row_terms`
    holds the same operands per variable as Python floats for one query
    row, one triple for a scalar scale. Per input width, `layout` resolves
    the basis dimension (checked against the cap) and the exponent gathers
    of the basis columns on first use.
    """

    __slots__ = ("order", "mode", "family", "source", "source_max", "scale_width",
                 "lo_plus_hi", "safe_span", "dead", "row_terms", "widths")

    def __init__(self, spec: BasisSpec):
        self.order, self.mode, self.family = spec.product_order, spec.mode, _FAMILIES[spec.kind]
        self.source = None if spec.source is None else np.array(spec.source, dtype=np.intp)
        self.source_max = None if spec.source is None else max(spec.source)
        self.scale_width = self.lo_plus_hi = self.safe_span = self.dead = self.row_terms = None
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
            self.row_terms = list(zip(*(np.ravel(a).tolist()
                                        for a in (self.lo_plus_hi, self.safe_span, live))))

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

    def row_argument(self, values: list) -> list:
        """`argument` of one row's selected values in Python floats: the same
        IEEE operations in the same order, so the same bits."""
        if self.row_terms is None:
            return values
        terms = self.row_terms if self.scale_width is not None else self.row_terms * len(values)
        return [(2.0 * x - a) / span if live else 0.0
                for x, (a, span, live) in zip(values, terms)]


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


def _n_vars(spec: BasisSpec, width: int) -> int:
    """Number of variables the spec reads from rows of this width."""
    return width if spec.source is None else len(spec.source)


def _checked_dimension(spec: BasisSpec, rows: np.ndarray) -> int:
    """The spec's basis dimension on 2-D rows; DimensionError above the cap, before anything is built."""
    return spec._plan.layout(rows.shape[1])[0]


def _factor_block(spec: BasisSpec, rows: np.ndarray, order: int) -> np.ndarray:
    """Factor table (order + 1, n_vars, rows) of a block of raw rows: the family's
    p_0..p_order of every argument by its recurrence, stacked first."""
    plan = spec._plan
    sel, (slope, folds) = plan.select(rows), plan.family
    table = np.empty((order + 1,) + sel.shape)
    table[0] = 1.0
    if order:
        plan.argument(sel, table[1])  # unit-stride rows for the recurrence
        step = slope * table[1]
        # p_k = slope t p_(k-1) [- p_(k-2)], written into the preallocated row
        # views; the third positional argument of each ufunc is its `out`.
        multiply, subtract = np.multiply, np.subtract
        before, last, *rest = table
        for row in rest:
            multiply(step, last, row)
            if folds:
                subtract(row, before, row)
            before, last = last, row
    return table


def _row_factors(plan: _BasisPlan, values: list, order: int) -> list:
    """The factor table of one row's selected values (order >= 1), flattened: entry
    k * n_vars + j is p_k of variable j.

    Computes the argument map and the recurrence in Python floats, one variable
    at a time: the same IEEE operations in the same order as `_factor_block`'s
    ufuncs, so the same bits, without their calls on a (n_vars, 1) array.
    Raises the NumericalError when a variable's last p is not finite: a
    non-finite factor stays non-finite up the recurrence, so every factor is
    finite when it returns. Its one caller is `evaluate_basis`; a block of a
    pass, one row or many, takes `_factor_block`.
    """
    n_vars, (slope, folds) = len(values), plan.family
    flat = [1.0] * ((order + 1) * n_vars)
    for j, t in enumerate(plan.row_argument(values)):
        step, before, last = slope * t, 1.0, t
        column = [1.0, t]
        if folds:  # one loop per family: no test per order
            for _ in range(order - 1):
                before, last = last, step * last - before
                column.append(last)
        else:
            for _ in range(order - 1):
                last = step * last
                column.append(last)
        if not isfinite(last):
            raise NumericalError("basis evaluation produced non-finite values")
        flat[j::n_vars] = column
    return flat


def _basis_columns(spec: Optional[BasisSpec], rows: np.ndarray) -> np.ndarray:
    """Basis columns (dim, rows) of a block of raw rows; spec-less rows are the features."""
    if spec is None:
        return rows.T
    gathers = spec._plan.layout(rows.shape[1])[1]
    # Past the float range a block gives inf or NaN without a warning; its caller raises.
    with np.errstate(over="ignore", invalid="ignore"):
        table = _factor_block(spec, rows, spec.product_order)
        return _gather_columns(table.reshape(-1, table.shape[-1]), gathers)


# The doubled-order moment table of a spec: summed by `_raw_moments` (its corner too,
# for a pair's cross moments) and by the weighted pass, read by `_product_moments`,
# evaluated per row by `_table_values` and sized by `_table_shape`. By the family's
# product rule (Chebyshev's: Mason & Handscomb, 2003) the product of two basis columns
# is one column of order <= 2 * order, or the mean of 2**n_vars such columns. The
# table's columns are the leading variables' up_to list of that order times the last
# variable's exponent 0..2*order; the up_to list of order `order` is a prefix of it, so
# every basis column is one column of the (Q', order + 1) corner of the table
# (`_column_grid`), the product of one leading-variable column and one last-variable
# factor (`_table_columns`).


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


def _doubled_columns(lead: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Every column of the doubled-order table of a block, (Q * E, rows).

    Rows `_spec_positions(...)[0]` of it are the basis columns, with the bits of
    `_basis_columns`: both multiply the variables' factors in order.
    """
    return np.multiply(lead[:, None], last[None]).reshape(-1, last.shape[1])


def _table_columns(spec: BasisSpec, rows: np.ndarray, lead: np.ndarray,
                   last: np.ndarray) -> np.ndarray:
    """A block's basis columns (dim, rows), gathered from its doubled-order factors
    `(lead, last)` (`_doubled_factors`): the rows of `_doubled_columns` at the basis
    columns, with the bits of `_basis_columns`, and no other column built."""
    at_lead, at_last, _ = _column_grid(spec, rows)
    columns = lead.take(at_lead, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # as in `_basis_columns`
        columns *= last.take(at_last, axis=0)
    return columns


def _table_block(label: np.ndarray, lead: np.ndarray, last: np.ndarray) -> np.ndarray:
    """One block's sum_l L_p(l) lead_q(l) last_e(l), (P * Q, E): the label rows
    `label` (P, rows) times the leading-variable columns, times the last
    variable's table in one matrix product."""
    return np.multiply(label[:, None], lead[None]).reshape(-1, last.shape[1]) @ last.T


def _table_shape(spec: BasisSpec, width: int):
    """Per-row sizes of one side's table: lead columns, last-variable rows, gather multiplies."""
    n_vars = _n_vars(spec, width)
    order = 2 * spec.product_order
    lead = producted_dimension(n_vars - 1, order, "up_to") if n_vars > 1 else 1
    return lead, order + 1, lead * (n_vars - 1)


# One elementwise multiply of a row block costs about as much as forty
# multiply-adds inside a matrix product: fitted to whole-fit timings of both
# engines on 2e4 rows with 2 to 4 attribute variables, where a table's
# elementwise left factor of a few MB per block runs at memory speed.
_ELEMENTWISE_COST = 40


def _moment_table(x_spec: BasisSpec, x_width: int, f_spec: BasisSpec, f_width: int) -> bool:
    """The one work rule: whether a `prepare` pair sums both passes on the doubled-order
    tables rather than on basis columns, from the two specs and their raw row widths.
    The engine with less work per row of the weighted pass wins, leaving out the
    product A b_x both make. The tables': the gathers of both sides' columns and of
    b_x, the weighted left factor and one matrix product of the tensor table, and
    |x|^2. The columns': basis columns and whitened attribute rows, z and z^T z."""
    f_lead, f_last, f_gather = _table_shape(f_spec, f_width)
    x_lead, x_last, x_gather = _table_shape(x_spec, x_width)
    m, n = f_spec._plan.layout(f_width)[0], x_spec._plan.layout(x_width)[0]
    label = f_lead * f_last
    table = (_ELEMENTWISE_COST * (f_gather + x_gather + 2 * label + label * x_lead + x_lead + n)
             + (label + 1) * x_lead * x_last)
    width = m * n
    columns = (_ELEMENTWISE_COST * (n * _n_vars(x_spec, x_width) + width)
               + n * n + width * (width + 1) // 2)
    return table < columns


def _finite(*sums):
    """Raise unless every sum is finite: a table has the column p_0 = 1, so a non-finite
    factor reaches it, and a non-finite basis column reaches its own Gram diagonal."""
    if not all(np.isfinite(a).all() for a in sums):
        raise NumericalError("basis evaluation produced non-finite values")


def _raw_moments(sides, weights: np.ndarray):
    """The first pass over the rows: one loop of row blocks for one or two sides.

    Each side is (spec, rows): raw rows under a BasisSpec, or feature rows and
    spec None. Returns each side's raw Gram matrix and, for a `prepare` pair
    (attributes first), the raw cross moments sum_l w_l b_f(l) b_x(l)^T,
    (m_raw, n_raw), else None. A pair sums on the engine the work rule picks,
    one side on its table and spec-less rows on their columns: a table gives
    the sums by the product rule, the cross moments off the joint table's
    basis-order corner; columns give (b w) b^T and (b_f w) b_x^T. Every spec's
    cap and constant index are checked before any row is read; a weight total
    past the float range and non-finite sums raise, without a warning first.
    """
    for spec, rows in sides:
        if spec is not None and spec.constant_index >= _checked_dimension(spec, rows):
            raise DimensionError(f"constant index {spec.constant_index} out of range for "
                                 f"basis dimension {_checked_dimension(spec, rows)}")
    with np.errstate(over="ignore"):  # an overflow raises below
        total = weights.sum()
    if not total < np.inf:
        raise NumericalError("sample weights add up past the float range: "
                             "rescale the sample weights")
    specs = [spec for spec, _ in sides]
    pair = len(sides) == 2 and None not in specs
    table = None not in specs and (len(sides) == 1 or _moment_table(
        specs[0], sides[0][1].shape[1], specs[1], sides[1][1].shape[1]))
    if pair and table:
        (x_spec, x_rows), (f_spec, f_rows) = sides
        rows_q, rows_e, corner = _column_grid(x_spec, x_rows)
    sums, cross = [0.0] * len(sides), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN raises below
        for block in row_blocks(weights.shape[0]):
            w = weights[block]
            if table:
                factors = [_doubled_factors(spec, rows[block]) for spec, rows in sides]
                sums = [acc + _table_block(w[None], *side) for acc, side in zip(sums, factors)]
                if pair:
                    (x_lead, x_last), (f_lead, f_last) = factors
                    labels = _table_columns(f_spec, f_rows, f_lead, f_last) * w
                    cross = cross + _table_block(labels, x_lead[:corner[0]], x_last[:corner[1]])
            else:
                rights = [np.ascontiguousarray(_basis_columns(spec, rows[block]).T)
                          for spec, rows in sides]
                lefts = [right.T * w for right in rights]
                sums = [acc + left @ right for acc, left, right in zip(sums, lefts, rights)]
                if pair:
                    cross = cross + lefts[1] @ rights[0]
    _finite(*sums, cross)
    if table:
        sums = [_product_moments(acc.ravel(), spec, rows) for (spec, rows), acc in zip(sides, sums)]
        cross = cross.reshape(-1, *corner)[:, rows_q, rows_e] if pair else None
    return sums, cross if pair else None


def _table_positions(exps: np.ndarray, n_vars: int, order: int) -> np.ndarray:
    """Column of the doubled-order table holding each exponent row of `exps` (..., n_vars)."""
    width = 2 * order + 1
    rank = np.zeros((width,) * (n_vars - 1), dtype=np.intp)
    if n_vars > 1:
        lead = np.array(list(multi_indices(n_vars - 1, 2 * order, "up_to")), dtype=np.intp)
        rank[tuple(lead.T)] = np.arange(lead.shape[0])
    return rank[tuple(np.moveaxis(exps[..., :-1], -1, 0))] * width + exps[..., -1]


@lru_cache(maxsize=32)
def _positions(n_vars: int, order: int, mode: str, folds: bool) -> tuple:
    """Where a spec's basis columns and their products sit in the doubled-order table,
    read-only: the column of each basis column, and one (dim, dim) index array of the
    products per term of the product rule: a sum per variable, or where the family
    `folds`, each choice of sum or difference per variable."""
    exps = np.array(list(multi_indices(n_vars, order, mode)), dtype=np.intp).reshape(-1, n_vars)
    columns = _table_positions(exps, n_vars, order)
    plus = exps[:, None, :] + exps[None, :, :]
    minus = np.abs(exps[:, None, :] - exps[None, :, :])
    gathers = tuple(_table_positions(np.where(np.array(choice, dtype=bool), minus, plus),
                                     n_vars, order)
                    for choice in np.ndindex((2 if folds else 1,) * n_vars))
    for array in (columns,) + gathers:
        array.setflags(write=False)
    return columns, gathers


def _spec_positions(spec: BasisSpec, rows: np.ndarray) -> tuple:
    """`_positions` of a spec on 2-D rows: (basis columns, product gathers)."""
    return _positions(_n_vars(spec, rows.shape[1]), spec.product_order, spec.mode,
                      spec._plan.family.folds)


def _column_grid(spec: BasisSpec, rows: np.ndarray):
    """(lead index, last exponent) of each basis column, and the (Q', order + 1)
    corner of the doubled-order table that holds them."""
    n_vars, order = _n_vars(spec, rows.shape[1]), spec.product_order
    lead, last = np.divmod(_spec_positions(spec, rows)[0], 2 * order + 1)
    return lead, last, (producted_dimension(n_vars - 1, order, "up_to") if n_vars > 1 else 1,
                        order + 1)


def _product_moments(moments: np.ndarray, spec: BasisSpec, rows: np.ndarray,
                     axis: int = -1) -> np.ndarray:
    """Moments of every product of two basis columns of `spec`, read off its table.

    `moments` holds the table's columns along `axis`; that axis becomes
    the (dim, dim) pair of basis columns.
    """
    gathers = _spec_positions(spec, rows)[1]
    products = np.take(moments, gathers[0], axis=axis)
    for gather in gathers[1:]:
        products += np.take(moments, gather, axis=axis)
    products /= len(gathers)
    return products


def _product_coefficients(form: np.ndarray, spec: BasisSpec, rows: np.ndarray) -> np.ndarray:
    """The quadratic form b^T A b of the basis columns b, A = `form` (dim, dim), as
    coefficients (Q, E) of the doubled-order table's columns: the adjoint of
    `_product_moments`, which scatters where it gathers."""
    gathers = _spec_positions(spec, rows)[1]
    lead, last, _ = _table_shape(spec, rows.shape[1])
    coefficients = sum(np.bincount(gather.ravel(), weights=form.ravel(), minlength=lead * last)
                       for gather in gathers)
    return (coefficients / len(gathers)).reshape(lead, last)


def _table_values(coefficients: np.ndarray, lead: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per row of a block, the functional `coefficients` (Q, E) of its doubled-order table,
    as `_product_coefficients` gives it: (rows,)."""
    return np.einsum("qr,qr->r", coefficients @ last, lead)


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

    Equal bit for bit to that row of `design_matrix`, and raises what `design_matrix`
    raises on `raw`. A single row of order >= 1 gathers its columns straight from
    `_row_factors`' Python floats, so a factor past the float range raises there
    without an overflow warning. The gathered products need no finiteness test:
    for m = max |t_j| >= 1, |prod_j t_j^k_j| <= m^order and
    |T_a(s) T_b(t)| <= T_order(m), finite when every variable's last factor is,
    and every factor is at most 1 in size where m < 1. Other rows take
    `_basis_columns` without its block loop. In up_to mode, and in exact mode at
    order 0, the first component is the constant 1 (every exponent zero); exact mode
    at order >= 1 has none.
    """
    rows = np.array(raw, dtype=float, ndmin=2, copy=None)  # np.atleast_2d, in one call
    if rows.shape[0] == 1 and spec.product_order:
        plan = spec._plan
        gathers = plan.layout(rows.shape[1])[1]
        return _gather_columns(np.array(_row_factors(plan, plan.select(rows)[:, 0].tolist(),
                                                     spec.product_order)), gathers)
    columns = _basis_columns(spec, rows)
    if not np.isfinite(columns).all():
        raise NumericalError("basis evaluation produced non-finite values")
    return columns[:, 0]


def _column_ranges(text: str, label_required: bool) -> dict:
    """The zero-based inclusive column lists of `x=<a>-<b>[;f=<c>-<d>][;w=<e>]`, by key.

    The x range is required, and so is the f range when `label_required`.
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
    if label_required and ("x" not in ranges or "f" not in ranges):
        raise DataError("column spec must name both x and f ranges")
    if "x" not in ranges:
        raise DataError("column spec must name an x range")
    if "w" in ranges:
        if len(ranges["w"]) != 1:
            raise DataError("weight spec must name a single column")
        if set(ranges["w"]) & (set(ranges["x"]) | set(ranges.get("f", ()))):
            raise DataError("weight column overlaps attribute or label columns")
    return ranges


def parse_column_spec(text: str):
    """Parse `x=<a>-<b>;f=<c>-<d>[;w=<e>]` into (x columns, f columns, w column or None)."""
    ranges = _column_ranges(text, label_required=True)
    return ranges["x"], ranges["f"], ranges.get("w", [None])[0]


def read_table(path, columns) -> np.ndarray:
    """The data rows of a CSV of decimal reals, in file order; lines starting with '#' are
    comments; a leading UTF-8 byte-order mark is skipped. Refuses a malformed value, then a
    ragged row, then a non-finite value, then a column of `columns` past the width; text
    that is not UTF-8 is refused by its line in the file. A file without data rows gives an
    empty table."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for line in handle:  # one line's text at a time, beside the parsed rows
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise DataError(f"malformed value in row {len(rows) + 1}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # raised where a chunk is decoded, not per line
        raise DataError(f"cannot read {path}: line {_undecodable_line(path)} "
                        "is not UTF-8 text") from exc
    if not rows:
        return np.empty((0, 0))
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 1}: expected {width} fields")
    table = np.array(rows)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite value in row {int(np.argmin(finite)) + 1}")
    if max(columns) >= width:
        raise DataError(f"column {max(columns)} out of range for {width}-column file")
    return table


def _undecodable_line(path) -> Optional[int]:
    """The number of the first line of a file that is not UTF-8. A newline byte is never
    part of a multi-byte UTF-8 character, so each line decodes on its own."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


def load_sample(path, column_spec: str) -> Sample:
    """Load a CSV (see `read_table`) into a Sample; weights are 1 unless the spec names w."""
    x_cols, f_cols, w_col = parse_column_spec(column_spec)
    w_cols = [] if w_col is None else [w_col]
    table = read_table(path, x_cols + f_cols + w_cols)
    if not len(table):
        raise DataError(f"no data rows in {path}")
    weights = table[:, w_col] if w_cols else np.ones(len(table))
    return Sample(table[:, x_cols], table[:, f_cols], weights)
