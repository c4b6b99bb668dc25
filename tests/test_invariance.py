"""Sums over observations must not depend on how the rows are listed.

Permuting the rows, splitting a row into two half-weight rows, and appending
zero-weight rows leave every coverage tensor and the joint-distribution
coverage unchanged. The samples are a little larger than one row block, so
the operations move rows across a block boundary.
"""

import numpy as np
import pytest

import kgo
from kgo.linalg import _ROW_BLOCK

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

N_ATTR, N_LABEL = 4, 2
SIZES = st.integers(_ROW_BLOCK - 40, _ROW_BLOCK + 300)
SEEDS = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


def raw_rows(rng, size):
    x = np.column_stack([np.ones(size), rng.normal(size=(size, N_ATTR - 1))])
    f = np.column_stack([np.ones(size), x[:, 1] + 0.3 * rng.normal(size=size)])
    return x, f


def instance(seed, size):
    rng = np.random.default_rng(seed)
    x, f = raw_rows(rng, size)
    return kgo.prepare_points(x, f, rng.uniform(0.1, 2.0, size=size)), rng


def relisted(data, x_points, f_points, weights):
    """The same two spaces over another list of rows."""
    return kgo.PreparedData(
        x_points=x_points, f_points=f_points, weights=weights,
        x_space=data.x_space, f_space=data.f_space,
        x_orth=x_points @ data.x_space.transform.T,
        f_orth=f_points @ data.f_space.transform.T)


def assert_same_sums(data, other):
    for kind in kgo.TensorKind:
        a = kgo.build_coverage_tensor(kind, data).matrix
        b = kgo.build_coverage_tensor(kind, other).matrix
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), kind
    jdg = kgo.joint_distribution_coverage(data)
    assert kgo.joint_distribution_coverage(other) == pytest.approx(jdg, rel=1e-12)


@PROPERTY
@given(seed=SEEDS, size=SIZES)
def test_row_permutation(seed, size):
    data, rng = instance(seed, size)
    order = rng.permutation(size)
    assert_same_sums(data, relisted(data, data.x_points[order], data.f_points[order],
                                    data.weights[order]))


@PROPERTY
@given(seed=SEEDS, size=SIZES, row=st.integers(0, _ROW_BLOCK - 41))
def test_row_split_into_halves(seed, size, row):
    data, _ = instance(seed, size)
    order = np.append(np.arange(size), row)  # the second half goes last
    weights = data.weights[order]
    weights[[row, -1]] *= 0.5
    assert_same_sums(data, relisted(data, data.x_points[order], data.f_points[order],
                                    weights))


@PROPERTY
@given(seed=SEEDS, size=SIZES, extra=st.integers(1, 2 * _ROW_BLOCK))
def test_zero_weight_rows_appended(seed, size, extra):
    data, rng = instance(seed, size)
    x_extra, f_extra = raw_rows(rng, extra)
    assert_same_sums(data, relisted(data, np.vstack([data.x_points, x_extra]),
                                    np.vstack([data.f_points, f_extra]),
                                    np.append(data.weights, np.zeros(extra))))
