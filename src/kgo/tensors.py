"""Coverage tensors and the coverage-bound machinery.

The transferred coverage of a channel u is a quadratic form
F(u) = sum_jk,j'k' u_jk S_jk;j'k' u_j'k' over the flattened matrix u.
Four tensor kinds differ only in each observation's weight: its sample
weight w scaled by a localized-state normalization,

  CHRISTOFFEL_PRODUCT           w / (|x|^2 |f|^2): both sides normalized by
                                their Christoffel functions (full
                                localized-state overlap),
  CHRISTOFFEL_PRODUCT_ADJUSTED  w / (|K x|^2 |f|^2): the attribute side by
                                the adjusted Christoffel function with
                                label-matched degrees of freedom,
  F_CHRISTOFFEL                 w / |f|^2: label side only ("partially
                                normalized"),
  PLAIN_VALUE                   w: no normalization (fourth-order moments).

Tensors are built and stored in orthonormal coordinates; the Gram inverse
factors of the raw-coordinate formulas collapse to identity there. The
flattened index is row-major over (label index j, attribute index k).

Every kind is the same row-weighted sum S = sum_l w_l z_l z_l^T with
z_l = f_l (x) x_l; only the per-row weights w_l differ. A fit sums it in its
last pass over the rows, the weighted pass (`_weighted_pass`; the passes
before it are in `hilbert`). Per row block, in block order, that pass
computes each row's |f|^2 and |x|^2, and maps the raw attribute basis
columns b_x through A = [C; K; u] T_x in one product: the overlap f^T C x,
and for the adjusted kind |K x|^2. It gates them (`_kind_weights`: one zero
gate and one range gate, naming the first bad observation by its index in
the sample) and adds the block to the tensor of the fit's kind, to the
label-Christoffel moments of F_TOT and to the F_JDG sum. The gates of F_TOT
and F_JDG do not stop the pass: each is raised where its sum is read. The
kind-free sums of a pass without a tensor are summed once per PreparedData
(`PreparedData.baseline_sums`) and read by every coverage bound.

A single-shot fit reads F at one channel u known before the pass, the svd
snap of the least-squares channel, so its pass sums the product
S u = (sum_l w_l s_l f_l b_x(l)^T) T_x^T, s_l = f_l^T u T_x b_x(l), a d x n
matrix, in place of the (d n)^2 tensor; s is the last rows of the same
product. Each route gives a block's rows, whitened label rows, |x|^2 and b_x,
and sums the tensor; each pass picks its route by one rule (`_moment_route`):

  moment table  for data from `prepare` with Chebyshev specs on both sides.
                Per variable T_a T_b = (T_(a+b) + T_|a-b|) / 2, so one
                weighted table of doubled-order basis moments holds every
                product; S is gathered from it and whitened by T_f (x) T_x.
                |x|^2 is a quadratic form of the same attribute table, whose
                coefficients T_x^T T_x are scattered onto it
                (`sample._product_coefficients`), and b_x is gathered from
                its factors (`sample._table_columns`).
                Taken when the two whitenings are well conditioned and the
                table needs less work per row than the rows route (many
                variables at low order do not).
  rows          everything else: spec-less data (`prepare_points`),
                monomial specs (their doubled-order moments are badly
                conditioned) and the cases above. Each block's whitened rows
                give |x|^2, and z, built from them, is added as z z^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import DimensionError, NumericalError
from .hilbert import PreparedData, _coupled, _well_conditioned
from .linalg import row_blocks, sym_eig
from .sample import (CHEBYSHEV, _basis_columns, _doubled_columns, _doubled_factors, _finite,
                     _n_vars, _product_coefficients, _product_moments, _table_block,
                     _table_columns, _table_shape, _table_values)


class TensorKind(str, Enum):
    CHRISTOFFEL_PRODUCT = "christoffel-product"
    CHRISTOFFEL_PRODUCT_ADJUSTED = "christoffel-product-adjusted"
    F_CHRISTOFFEL = "f-christoffel"
    PLAIN_VALUE = "plain-value"


@dataclass(frozen=True)
class CoverageTensor:
    """Symmetric (d*n) x (d*n) matrix making coverage quadratic in the channel."""

    kind: TensorKind
    d: int
    n: int
    matrix: np.ndarray

    def quadratic_form(self, u) -> float:
        """F(u) = <u, S u>, with S u formed first as the solvers form it."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d, self.n):
            raise DimensionError(f"channel shape {u.shape} != ({self.d}, {self.n})")
        flat = u.reshape(-1)
        return float(flat @ (self.matrix @ flat))

    def label_congruence(self, a: np.ndarray) -> CoverageTensor:
        """(a^T (x) I) S (a (x) I), symmetrized: the tensor of v, where u = a v with a
        (d x d') acting on the label index; F(a v) under this tensor is F(v) under the new one."""
        four = self.matrix.reshape(self.d, self.n, self.d, self.n)
        four = np.einsum("js,jkql,qt->sktl", a, four, a)
        d = a.shape[1]
        matrix = four.reshape(d * self.n, d * self.n)
        return CoverageTensor(self.kind, d, self.n, 0.5 * (matrix + matrix.T))


def _positive(values: np.ndarray, what: str, start: int) -> np.ndarray:
    """The zero gate: every row's norm must be positive; rows are numbered from `start`."""
    bad = np.flatnonzero(values <= 0.0)
    if bad.size:
        raise NumericalError(f"observation {start + bad[0]} has zero {what}")
    return values


def _kind_weights(kind: TensorKind, weights: np.ndarray, label: np.ndarray,
                  attribute: np.ndarray, adjusted: Optional[np.ndarray],
                  start: int) -> np.ndarray:
    """Per-observation weights of a tensor kind over one row block, from its row norms.

    The one weighting step: w for plain values, otherwise w / |f|^2, or
    w / |f|^2 / a with the kind's attribute normalizer a: |x|^2 for the
    christoffel product, |K x|^2 for its adjusted variant. Dividing in turn
    keeps a |f|^2 from overflowing first. A weight that leaves the
    floating-point range (sample weights too tiny or too large) raises.
    Errors name the observation by its index in the sample, the block's
    rows numbered from `start`.
    """
    if kind is TensorKind.PLAIN_VALUE:
        return weights
    with np.errstate(over="ignore"):  # an overflow raises below
        kind_weights = weights / _positive(label, "label projection", start)
        if kind is TensorKind.CHRISTOFFEL_PRODUCT:
            kind_weights = kind_weights / _positive(attribute, "attribute projection", start)
        elif kind is TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED:
            kind_weights = kind_weights / _positive(adjusted, "adjusted normalizer", start)
    if not (kind_weights.min() > 0.0 and kind_weights.max() < np.inf):  # the fast test first
        bad = np.flatnonzero(~np.isfinite(kind_weights) | ((kind_weights == 0.0) & (weights > 0.0)))
        if bad.size:
            raise NumericalError(f"observation {start + bad[0]} has {kind.value} weight "
                                 f"{kind_weights[bad[0]]:g}: rescale the sample weights")
    return kind_weights


def _label_gate(label: np.ndarray, weights: np.ndarray, start: int):
    """F_TOT's gates over one row block: the zero gate, and a range gate on |f|^2, whose
    overflow would drop the row from the unit-state sum."""
    _positive(label, "label projection", start)
    bad = np.flatnonzero(~np.isfinite(label) & (weights > 0.0))
    if bad.size:
        raise NumericalError(f"observation {start + bad[0]} has label projection "
                             f"{label[bad[0]]:g}: rescale the sample weights")


@dataclass(frozen=True)
class _Sums:
    """What a weighted pass gives: S of its kind, or S u (d x n) for the pass's channel
    u (None without a kind), the label-Christoffel moments of F_TOT and F_JDG. Either of
    the last two is the NumericalError its gate raised, which its reader raises
    (`_raised`)."""

    matrix: Optional[np.ndarray]
    label_moments: Union[np.ndarray, NumericalError]
    f_jdg: Union[float, NumericalError]


def _raised(value):
    """A sum of the weighted pass; raises the error its gate recorded instead."""
    if isinstance(value, NumericalError):
        raise value.with_traceback(None)
    return value


def _row_maps(data: PreparedData, adjusted: bool = False,
              channel: Optional[np.ndarray] = None) -> np.ndarray:
    """A = [C; K; u] T_x: the linear maps of the raw attribute basis columns behind the
    overlap, |K x|^2 (`adjusted`; a singular coupling raises) and s (with a `channel` u)."""
    maps = [data.stats.cross]
    if adjusted:
        maps.append(_coupled(data.stats.factor))
    if channel is not None:
        maps.append(channel)
    return np.vstack(maps) @ data.x_space.transform


def _weighted_pass(data: PreparedData, kind: Optional[TensorKind] = None,
                   channel: Optional[np.ndarray] = None) -> _Sums:
    """The last pass over the rows: row norms, gates, the tensor of `kind` and the sums
    behind F_TOT and F_JDG, one row block at a time in block order.

    With a `channel` u (m_eff x n_eff) the pass sums S u for that one channel
    instead of S, under the same gates, and raises if S u is not finite; no
    (d n)^2 array is built. A gate of the tensor's kind raises at once; a
    singular coupling raises before the pass for the adjusted kind. F_TOT sums
    unit label states, in range at any weight scale; F_JDG sums the squared
    overlaps under the christoffel-product weight.
    """
    adjusted = kind is TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED
    maps, m = _row_maps(data, adjusted, channel), data.f_space.eff_dim
    tensor = kind is not None and channel is None
    route = (_TableRoute if _moment_route(data) else _RowsRoute)(data, tensor)
    moments, jdg, product = 0.0, 0.0, 0.0
    for rows, f, attribute, columns, operands in route.blocks():
        weights = data.weights[rows]
        label = np.einsum("ij,ij->j", f, f)
        mapped = maps @ columns
        overlap = np.einsum("ij,ij->j", f, mapped[:m])
        normalizer = np.einsum("ij,ij->j", mapped[m:2 * m], mapped[m:2 * m]) if adjusted else None
        s = np.einsum("ij,ij->j", f, mapped[-m:]) if channel is not None else None
        if kind is not None:
            kind_weights = _kind_weights(kind, weights, label, attribute, normalizer, rows.start)
            if tensor:  # the table route lets go of b_x before it builds its weighted table
                del columns
                route.add(operands, kind_weights)
            else:
                with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN raises below
                    product = product + (f * (kind_weights * s)) @ columns.T
        if not isinstance(moments, NumericalError):
            try:
                _label_gate(label, weights, rows.start)
            except NumericalError as error:
                moments = error
            else:
                norm = np.sqrt(label)
                unit = np.divide(f, norm, out=np.zeros_like(f), where=norm > 0.0)
                moments = moments + (unit * weights) @ unit.T
        if not isinstance(jdg, NumericalError):
            try:
                weight = _kind_weights(TensorKind.CHRISTOFFEL_PRODUCT, weights, label,
                                       attribute, None, rows.start)
            except NumericalError as error:
                jdg = error
            else:
                jdg += float(np.sum(weight * overlap ** 2))
    if not isinstance(moments, NumericalError):
        moments.setflags(write=False)
    matrix = None
    if tensor:
        matrix = route.matrix()
    elif kind is not None:  # S u = (sum_l w_l s_l f_l b_x(l)^T) T_x^T
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = product @ data.x_space.transform.T
        if not np.isfinite(matrix).all():  # the sums a fit reads first name tiny weights
            _raised(moments)
            _raised(jdg)
            _finite(matrix)
    return _Sums(matrix, moments, jdg)


# One elementwise multiply of a row block costs about as much as forty
# multiply-adds inside a matrix product: fitted to whole-fit timings of both
# routes on 2e4 rows with 2 to 4 attribute variables, where a table's
# elementwise left factor of a few MB per block runs at memory speed.
_ELEMENTWISE_COST = 40


def _moment_route(data: PreparedData) -> bool:
    """Whether the weighted pass takes the moment-table route, rather than the rows route.

    The one route rule, evaluated by every weighted pass. It needs Chebyshev
    specs on both sides and well-conditioned whitenings (`hilbert._well_conditioned`,
    the gate under which `PreparedData.stats` whitens the raw cross moments, so
    neither route makes a pass for C). Then the route with less work per row
    runs, leaving out the product A b_x both take. The moment table's: the
    gathers of both sides' columns and of b_x, the weighted left factor and one
    matrix product of the tensor table, and the quadratic form |x|^2. The rows
    route's: one pass of basis columns and whitened attribute rows, building z
    and z^T z.
    """
    if any(spec is None or spec.kind != CHEBYSHEV for spec in (data.f_spec, data.x_spec)):
        return False
    f_lead, f_last, f_gather = _table_shape(data.f_spec, data.f_rows)
    x_lead, x_last, x_gather = _table_shape(data.x_spec, data.x_rows)
    m, n = data.f_space.eff_dim, data.x_space.eff_dim
    n_raw = data.x_space.raw_dim
    label = f_lead * f_last
    moment = (_ELEMENTWISE_COST * (f_gather + x_gather + 2 * label + label * x_lead + x_lead
                                   + n_raw)
              + (label + 1) * x_lead * x_last)
    width = m * n
    rows = (_ELEMENTWISE_COST * (n_raw * _n_vars(data.x_spec, data.x_rows) + width)
            + n * n_raw + width * (width + 1) // 2)
    return moment < rows and _well_conditioned(data)


class _RowsRoute:
    """The rows route of the weighted pass: whitened rows per block.

    `blocks` yields each block's rows, whitened label rows f, |x|^2 of the
    whitened attribute rows, the raw attribute basis columns b_x and the
    operands of `add`, which adds the block's z z^T when the pass sums the
    `tensor`.
    """

    def __init__(self, data: PreparedData, tensor: bool):
        self.data = data
        m, n = data.f_space.eff_dim, data.x_space.eff_dim
        self.sum = np.zeros((m * n, m * n)) if tensor else None

    def blocks(self):
        data, tx = self.data, self.data.x_space.transform
        for rows in row_blocks(data.size):
            columns = _basis_columns(data.x_spec, data.x_rows[rows])
            f = data.f_space.transform @ _basis_columns(data.f_spec, data.f_rows[rows])
            x = columns.T @ tx.T  # (block rows, n_eff)
            yield rows, f, np.einsum("ij,ij->i", x, x), columns, (f, x)

    def add(self, operands, weights: np.ndarray):
        """Adds the block's z z^T, z = f (x) x scaled in place by sqrt(w)."""
        f, x = operands
        x = np.ascontiguousarray(x.T)  # (n_eff, block rows): z is built at unit stride
        with np.errstate(over="ignore", invalid="ignore"):  # as in `_TableRoute.matrix`
            z = np.multiply(f[:, None], x[None]).reshape(self.sum.shape[0], -1)
            z *= np.sqrt(weights)
            self.sum += z @ z.T

    def matrix(self) -> np.ndarray:
        return 0.5 * (self.sum + self.sum.T)


class _TableRoute:
    """The moment-table route of the weighted pass: one doubled-order factor table per
    side per block gives |x|^2, the basis columns b_x and the block's part of the
    table Mom[p, q] = sum_l w_l T_p(f_l) T_q(x_l), which holds every product of raw
    basis columns; `matrix` reads them off it by the Chebyshev product rule and
    whitens them by T_f (x) T_x: the attribute side first, for every label moment,
    and the label side last.

    The whitening rescales the table's raw sums only at the end. A running
    power-of-two prescale, raised block by block to the largest weight yet
    seen and undone exactly at the end, keeps the raw and the whitened sums
    in range at any weight scale: the bits of a prescale by the final
    exponent from the start.
    """

    def __init__(self, data: PreparedData, tensor: bool):
        self.data, self.tensor = data, tensor
        tx, tf = data.x_space.transform, data.f_space.transform
        with np.errstate(over="ignore", invalid="ignore"):  # |x|^2's gates name tiny weights
            self.form = _product_coefficients(tx.T @ tx, data.x_spec, data.x_rows)
        self.offset = sum(np.frexp(np.abs(t).max())[1] for t in (tx, tf))
        self.exp, self.sum = None, 0.0

    def blocks(self):
        """As `_RowsRoute.blocks`; |x|^2 is a quadratic form of the attribute table, and
        b_x is gathered from the attribute factors and not kept here. Only a pass that
        adds the tensor builds the label table, and gathers the label basis columns
        from its factors; any other pass takes them from `_basis_columns`, with the
        same bits (`_table_columns`)."""
        data = self.data
        for rows in row_blocks(data.size):
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN raises in `matrix`
                lead, last = _doubled_factors(data.x_spec, data.x_rows[rows])
                if self.tensor:
                    factors = _doubled_factors(data.f_spec, data.f_rows[rows])
                    labels = _doubled_columns(*factors)
                    f = data.f_space.transform @ _table_columns(data.f_spec, data.f_rows, *factors)
                else:
                    labels = None
                    f = data.f_space.transform @ _basis_columns(data.f_spec, data.f_rows[rows])
                attribute = _table_values(self.form, lead, last)
            yield (rows, f, attribute, _table_columns(data.x_spec, data.x_rows, lead, last),
                   (labels, lead, last))

    def add(self, operands, weights: np.ndarray):
        """Adds the block's weighted table, after raising the prescale if its largest
        weight needs it."""
        labels, lead, last = operands
        exp = np.frexp(weights.max())[1] + self.offset
        if self.exp is None or exp > self.exp:
            if self.exp is not None:
                self.sum = np.ldexp(self.sum, self.exp - exp)
            self.exp = exp
        weights = np.ldexp(weights, -self.exp)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN raises in `matrix`
            self.sum = self.sum + _table_block(labels * weights, lead, last)

    # A tensor past the float range (tiny weights) is inf: the baselines' gates,
    # which a fit reads first, name the weights.
    @np.errstate(over="ignore", invalid="ignore")
    def matrix(self) -> np.ndarray:
        data = self.data
        _finite(self.sum)
        tx, tf = data.x_space.transform, data.f_space.transform
        lead, last, _ = _table_shape(data.x_spec, data.x_rows)
        mom = self.sum.reshape(-1, lead * last)  # (label columns, attribute columns)
        x_white = tx @ _product_moments(mom, data.x_spec, data.x_rows) @ tx.T  # (labels, n, n)
        f_raw = _product_moments(x_white, data.f_spec, data.f_rows, axis=0)  # (m_raw, m_raw, n, n)
        four = np.tensordot(tf, f_raw, axes=(1, 0))           # (m, m_raw, n, n)
        four = np.tensordot(four, tf, axes=(1, 1))            # (m, n, n, m)
        m, n = tf.shape[0], tx.shape[0]
        matrix = four.transpose(0, 1, 3, 2).reshape(m * n, m * n)
        return np.ldexp(0.5 * (matrix + matrix.T), self.exp)


def build_coverage_tensor(kind: TensorKind, data: PreparedData,
                          subspace: Optional[np.ndarray] = None) -> CoverageTensor:
    """Assemble the coverage tensor of the requested kind.

    With a contributing subspace (`contributing_subspace`'s columns) the
    christoffel-product tensor is composed with the projections of the
    subspace directions onto the label basis, yielding the projective d x n
    problem. The christoffel-product tensor's four-index form is
    M[j, k, j', k'] = <x_k f_j | K_x K_f | x_k' f_j'>, the moments of the
    two Christoffel functions' product.
    """
    kind = TensorKind(kind)
    if subspace is not None:
        _composable(kind)
    tensor = CoverageTensor(kind, data.f_space.eff_dim, data.x_space.eff_dim,
                            _weighted_pass(data, kind).matrix)
    if subspace is None:
        return tensor
    return tensor.label_congruence(subspace_embedding(data, subspace))


def _composable(kind: TensorKind):
    """Refuse a subspace composition of any kind but the christoffel product."""
    if kind is not TensorKind.CHRISTOFFEL_PRODUCT:
        raise DimensionError("subspace composition is defined for the christoffel-product kind")


def subspace_embedding(data: PreparedData, subspace: np.ndarray) -> np.ndarray:
    """Projections of `contributing_subspace`'s columns onto the label basis (m_eff x d)."""
    return data.stats.cross @ subspace


def label_christoffel_moments(data: PreparedData) -> np.ndarray:
    """<f_t | K_f | f_s> in orthonormal label coordinates, read-only: the weighted pass's
    sum over the unit label states, behind the tensor weights' zero gate and a range
    gate on |f|^2, whose overflow would drop the row from the sum. Summed once per
    PreparedData (`PreparedData.baseline_sums`)."""
    return _raised(data.baseline_sums.label_moments)


def label_to_attribute_coverage(data: PreparedData) -> np.ndarray:
    """The label-coverage matrix pulled back to attribute coordinates.

    In orthonormal coordinates this is C^T M C with C the cross Gram and M
    the label-Christoffel moments; its spectrum decomposes the total
    transferable coverage.
    """
    cross = data.stats.cross
    return cross.T @ label_christoffel_moments(data) @ cross


def ftot_upper_bound(data: PreparedData) -> float:
    """Total transferable coverage, computed by the trace route.

    Equals the eigenvalue sum of the pulled-back coverage matrix; no
    eigenproblem is needed for the bound itself.
    """
    return float(np.trace(label_to_attribute_coverage(data)))


def _coverage_matrix(data: PreparedData, variant: str) -> np.ndarray:
    """The attribute-side matrix a subspace variant diagonalizes: the pulled-back label
    coverage of the one variant, "projective"."""
    if variant != "projective":
        raise DimensionError(f"unknown subspace variant {variant!r}")
    return label_to_attribute_coverage(data)


def contributing_subspace(data: PreparedData, d: int,
                          variant: str = "projective") -> np.ndarray:
    """Top-d attribute directions by transferable coverage: (n_eff, d) orthonormal
    columns in orthonormal coordinates, column i of coverage `coverage_spectrum(data)[i]`.

    The projective variant, the only one, diagonalizes the pulled-back label
    coverage (rank at most m).
    """
    _subspace_dimension(data, d)
    return sym_eig(_coverage_matrix(data, variant)).eigenvectors[:, :d]


def _subspace_dimension(data: PreparedData, d: int):
    """Refuse a subspace dimension d outside 1..min(m_eff, n_eff)."""
    m_eff, n_eff = data.f_space.eff_dim, data.x_space.eff_dim
    if not 1 <= d <= min(m_eff, n_eff):
        raise DimensionError(f"d={d} out of range 1..{min(m_eff, n_eff)}")


def coverage_spectrum(data: PreparedData, variant: str = "projective") -> np.ndarray:
    """All eigenvalues of the chosen coverage matrix, descending."""
    return sym_eig(_coverage_matrix(data, variant)).eigenvalues
