"""Sums over observations must not depend on how the rows are listed, nor
on the unit of the weights, nor on the sign or gauge of a basis.

Permuting the rows, splitting a row into two half-weight rows, and appending
zero-weight rows leave every coverage tensor and the joint-distribution
coverage unchanged. The samples are a little larger than one row block, so
the operations move rows across a block boundary. Rescaling every weight by
s scales each fitted figure by a fixed power of s. Each property runs on
spec-less data, whose tensors take the syrk, and on Chebyshev data from
`kgo.prepare`, whose tensors take the moment table. The gauge test maps
spec-less feature rows by invertible matrices that keep the constant column.
"""

import numpy as np
import pytest

import kgo
from kgo.linalg import _ROW_BLOCK

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

N_ATTR, N_LABEL = 4, 2
SIZES = st.integers(_ROW_BLOCK - 40, _ROW_BLOCK + 300)
SEEDS = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


def raw_rows(rng, size):
    x = np.column_stack([np.ones(size), rng.normal(size=(size, N_ATTR - 1))])
    f = np.column_stack([np.ones(size), x[:, 1] + 0.3 * rng.normal(size=size)])
    return x, f


def chebyshev_rows(rng, size):
    x = rng.uniform(-1.0, 1.0, size=(size, 2))
    f = np.sin(2.0 * x[:, :1]) + 0.2 * rng.normal(size=(size, 1))
    return x, f


def instance(seed, size, basis, scale=1.0):
    """Spec-less (basis None) or Chebyshev data of `size` rows, and its generator.

    The weights are drawn, then multiplied by `scale`.
    """
    rng = np.random.default_rng(seed)
    weights = scale * rng.uniform(0.1, 2.0, size=size)
    if basis is None:
        x, f = raw_rows(rng, size)
        return kgo.prepare_points(x, f, weights), rng
    x, f = chebyshev_rows(rng, size)
    data = kgo.prepare(kgo.Sample(x, f, weights),
                       kgo.with_scale(kgo.BasisSpec("chebyshev", 6), x),
                       kgo.with_scale(kgo.BasisSpec("chebyshev", 3), f))
    assert kgo.tensors._moment_route(data)
    return data, rng


def extra_rows(data, rng, size):
    """Rows of `size` new observations: raw rows, or feature rows for spec-less data."""
    return (raw_rows if data.x_spec is None else chebyshev_rows)(rng, size)


def relisted(data, weights, order=None, extra=None):
    """The same two spaces and specs over another list of rows.

    `order` picks the rows (with repeats); `extra` appends (x_rows, f_rows)
    of new observations.
    """
    x_rows, f_rows = data.x_rows, data.f_rows
    if order is not None:
        x_rows, f_rows = x_rows[order], f_rows[order]
    if extra is not None:
        x_rows, f_rows = np.vstack([x_rows, extra[0]]), np.vstack([f_rows, extra[1]])
    return kgo.PreparedData(
        weights=weights, x_space=data.x_space, f_space=data.f_space,
        x_rows=x_rows, f_rows=f_rows, x_spec=data.x_spec, f_spec=data.f_spec)


def assert_same_sums(data, other):
    assert kgo.tensors._moment_route(other) == kgo.tensors._moment_route(data)
    for kind in kgo.TensorKind:
        a = kgo.build_coverage_tensor(kind, data).matrix
        b = kgo.build_coverage_tensor(kind, other).matrix
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), kind
    jdg = kgo.joint_distribution_coverage(data)
    assert kgo.joint_distribution_coverage(other) == pytest.approx(jdg, rel=1e-12)


BASES = (None, "chebyshev")


@PROPERTY
@given(seed=SEEDS, size=SIZES)
def test_row_permutation(seed, size):
    for basis in BASES:
        data, rng = instance(seed, size, basis)
        order = rng.permutation(size)
        assert_same_sums(data, relisted(data, data.weights[order], order=order))


@PROPERTY
@given(seed=SEEDS, size=SIZES, row=st.integers(0, _ROW_BLOCK - 41))
def test_row_split_into_halves(seed, size, row):
    for basis in BASES:
        data, _ = instance(seed, size, basis)
        order = np.append(np.arange(size), row)  # the second half goes last
        weights = data.weights[order]
        weights[[row, -1]] *= 0.5
        assert_same_sums(data, relisted(data, weights, order=order))


@PROPERTY
@given(seed=SEEDS, size=SIZES, extra=st.integers(1, 2 * _ROW_BLOCK))
def test_zero_weight_rows_appended(seed, size, extra):
    for basis in BASES:
        data, rng = instance(seed, size, basis)
        assert_same_sums(data, relisted(data, np.append(data.weights, np.zeros(extra)),
                                        extra=extra_rows(data, rng, extra)))


def test_relisted_chebyshev_carries_rows_and_specs():
    data, rng = instance(1, _ROW_BLOCK + 3, "chebyshev")
    order = rng.permutation(data.size)
    other = relisted(data, data.weights[order], order=order)
    assert other.x_spec is data.x_spec and other.f_spec is data.f_spec
    np.testing.assert_array_equal(other.x_rows, data.x_rows[order])
    np.testing.assert_array_equal(other.f_rows, data.f_rows[order])
    np.testing.assert_array_equal(other.x_points, kgo.design_matrix(data.x_spec, other.x_rows))


# Power of the weight scale s that F of each kind, F_TOT and F_JDG carry.
F_DEGREE = {kgo.TensorKind.F_CHRISTOFFEL: 0, kgo.TensorKind.CHRISTOFFEL_PRODUCT: 1,
            kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED: 1, kgo.TensorKind.PLAIN_VALUE: -1}
SINGLE_SHOT = kgo.SolverConfig(algorithm="lsq-adj")  # no stop test to cross


@PROPERTY
@given(seed=SEEDS, exponent=st.floats(-100.0, 100.0))
@example(seed=1, exponent=100.0)
@example(seed=1, exponent=-100.0)
def test_weight_scale_degrees(seed, exponent):
    scale = 10.0 ** exponent
    for basis in BASES:
        unit, _ = instance(seed, _ROW_BLOCK + 10, basis)
        scaled, _ = instance(seed, _ROW_BLOCK + 10, basis, scale)
        for kind, degree in F_DEGREE.items():
            a = kgo.fit_prepared(unit, kind, SINGLE_SHOT)[0].report
            b = kgo.fit_prepared(scaled, kind, SINGLE_SHOT)[0].report
            assert b["f"] == pytest.approx(a["f"] * scale ** degree, rel=1e-12), kind
            for key in ("f_tot", "f_jdg"):
                assert b[key] == pytest.approx(a[key] * scale, rel=1e-12), (kind, key)


def gauge(rng, dim):
    """An invertible map of feature rows that keeps the constant column (the first)
    and flips the sign of one other column."""
    a = np.eye(dim)
    a[:, 1:] += 0.5 * rng.normal(size=(dim, dim - 1))
    a[:, rng.integers(1, dim)] *= -1.0
    return a


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_sign_and_gauge(seed):
    """Features x A and f B span the same function spaces as x and f: F of every
    kind, F_TOT and F_JDG stay, and so do the answers of a single-shot or an
    iterative fit, whose most probable outcome moves as the label features do.
    The sign of a channel is free, u and -u giving the same F; a fit keeps the
    one that agrees with the least-squares channel, so f_max_p keeps its sign."""
    data, rng = instance(seed, _ROW_BLOCK + 10, None)
    a, b = gauge(rng, N_ATTR), gauge(rng, N_LABEL)
    other = kgo.prepare_points(data.x_rows @ a, data.f_rows @ b, data.weights)
    qx, qf = raw_rows(rng, 50)
    for kind in kgo.TensorKind:
        for config in (kgo.SolverConfig(), SINGLE_SHOT):
            m0, m1 = (kgo.fit_prepared(d, kind, config)[0] for d in (data, other))
            for key in ("f", "f_tot", "f_jdg"):
                assert m1.report[key] == pytest.approx(m0.report[key], rel=1e-12), (kind, key)
            p0, p1 = kgo.predict(m0, qx, qf), kgo.predict(m1, qx @ a, qf @ b)
            message = f"{kind} {config.algorithm}"
            for key in ("certainty", "probability"):
                np.testing.assert_allclose(p1[key], p0[key], rtol=0.0, atol=1e-10, err_msg=message)
            want = p0["f_max_p"] @ b
            np.testing.assert_allclose(p1["f_max_p"], want, rtol=0.0,
                                       atol=1e-10 * np.abs(want).max(), err_msg=message)
