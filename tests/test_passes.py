"""The blocked passes of a fit against dense formulas on materialized rows.

`kgo.prepare` sums both Gram matrices and the raw cross moments over the
row blocks, on the doubled-order moment tables or on basis columns, as the
work rule picks for the pair of specs. `PreparedData.stats` holds the cross Gram and
the factor of the label/attribute coupling. One weighted pass computes each
row's norms, the coverage tensor and the sums behind F_TOT and F_JDG: |x|^2
is a functional of the row's doubled-order table on the moment-table route
and comes from whitened rows on the rows route; on both, the overlap and
|K x|^2 come from one product with the raw basis columns. Every
quantity is checked here on both routes against the whole-array formula on
`x_points`, `x_orth`, `f_points` and `f_orth`, which the data builds only
when they are read."""

import tracemalloc
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest

import kgo
from kgo.errors import DimensionError, NumericalError
from kgo.linalg import _ROW_BLOCK

from test_tensors import chebyshev_instance, dense_coverage_matrix

BLOCK = _ROW_BLOCK
SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]
SHAPES = [dict(x_vars=1, x_order=5), dict(x_vars=2, x_order=4), dict(x_vars=3, x_order=2),
          dict(x_vars=4, x_order=3), dict(x_vars=2, x_order=4, mode="exact"),
          dict(x_vars=2, x_order=3, source=(2, 0)), dict(x_vars=3, x_order=3, dead=1)]
SHAPE_IDS = ["1var", "2var", "3var", "4var", "exact", "source", "dead"]


def close(got, want, rtol=1e-12):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert np.abs(np.asarray(got) - want).max() <= rtol * scale


def feature_gram(data):
    """The attribute Gram that `prepare_points` sums over the data's feature rows."""
    return kgo.prepare_points(data.x_points, data.f_points, data.weights).x_space.gram_raw


def dense_quantities(data):
    """Every checked quantity from whole-array formulas on the materialized rows."""
    x, f, w = data.x_points, data.f_points, data.weights
    xo, fo = data.x_orth, data.f_orth
    cross = (fo.T * w) @ xo
    label = np.einsum("ij,ij->i", fo, fo)
    attribute = np.einsum("ij,ij->i", xo, xo)
    overlap = np.einsum("ij,ij->i", fo @ cross, xo)
    moments = (fo.T * (w / label)) @ fo
    return {
        "x_gram": (x.T * w) @ x,
        "f_gram": (f.T * w) @ f,
        "cross": cross,
        "tensors": {kind: dense_coverage_matrix(kind, data) for kind in kgo.TensorKind},
        "f_tot": float(np.trace(cross.T @ moments @ cross)),
        "f_jdg": float(np.sum(w * overlap ** 2 / (attribute * label))),
        "beta": ((f.T * w) @ xo) @ data.x_space.transform,
    }


def assert_matches_dense(data):
    """The cross Gram, the least-squares map, every kind's tensor, F_TOT and F_JDG
    against the whole-array formulas, at 1e-12."""
    dense = dense_quantities(data)
    close(data.stats.cross, dense["cross"])
    close(kgo.fit_least_squares(data), dense["beta"])
    for kind, matrix in dense["tensors"].items():
        close(kgo.build_coverage_tensor(kind, data).matrix, matrix)
    assert kgo.ftot_upper_bound(data) == pytest.approx(dense["f_tot"], rel=1e-12)
    assert kgo.joint_distribution_coverage(data) == pytest.approx(dense["f_jdg"], rel=1e-12)
    return dense


@pytest.fixture(params=["table", "rows"])
def route(request, monkeypatch):
    """Send the data through one route, whatever the route rule would pick."""
    table = request.param == "table"
    monkeypatch.setattr(kgo.tensors, "_moment_route", lambda data: table)
    return table


def row_norms(data, table):
    """Each row's |x|^2, overlap f^T C x and |K x|^2, as the weighted pass computes them:
    |x|^2 from the route, the other two from the one product [C; K] T_x b_x."""
    route = (kgo.tensors._TableRoute if table else kgo.tensors._RowsRoute)(data, False)
    maps, m = kgo.tensors._row_maps(data, adjusted=True), data.f_space.eff_dim
    parts = []
    for _, f, attribute, columns, _ in route.blocks():
        mapped = maps @ columns
        parts.append((attribute, np.einsum("ij,ij->j", f, mapped[:m]),
                      np.einsum("ij,ij->j", mapped[m:], mapped[m:])))
    return [np.concatenate(part) for part in zip(*parts)]


class TestPassesMatchDense:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_every_quantity(self, size, shape, route):
        data = chebyshev_instance(np.random.default_rng([size, len(shape)]), size, **shape)
        dense = assert_matches_dense(data)
        close(data.x_space.gram_raw, dense["x_gram"])
        close(data.f_space.gram_raw, dense["f_gram"])

    def test_least_squares_with_a_dropped_label_direction(self):
        # A duplicated label feature: whitening drops a direction, and beta read
        # off the cross Gram through the label side's G_f T_f^T still has every row.
        data = chebyshev_instance(np.random.default_rng(10), BLOCK + 5)
        f_points = np.column_stack([data.f_points, data.f_points[:, 1]])
        data = kgo.prepare_points(data.x_points, f_points, data.weights)
        assert data.f_space.eff_dim == f_points.shape[1] - 1
        close(kgo.fit_least_squares(data), dense_quantities(data)["beta"])

    @pytest.mark.parametrize("basis", ["chebyshev", "monomial"])
    def test_table_gram_agrees_with_feature_rows(self, basis):
        # A monomial table reads each product of two columns off one table column.
        data = chebyshev_instance(np.random.default_rng(3), 2 * BLOCK + 7, x_order=6)
        if basis == "monomial":
            sample = kgo.Sample(data.x_rows, data.f_rows, data.weights)
            data = kgo.prepare(sample, kgo.BasisSpec("monomial", 6), kgo.BasisSpec("monomial", 2))
        close(data.x_space.gram_raw, feature_gram(data), rtol=1e-14)

    @pytest.mark.parametrize("basis", ["monomial", None])
    def test_other_data_matches_dense(self, basis):
        # A monomial pair takes the route its shape picks, here the moment table;
        # spec-less data takes the rows.
        data = chebyshev_instance(np.random.default_rng(9), BLOCK + 5)
        if basis == "monomial":
            sample = kgo.Sample(data.x_rows, data.f_rows, data.weights)
            data = kgo.prepare(sample, kgo.BasisSpec("monomial", 4), kgo.BasisSpec("monomial", 2))
            close(data.x_space.gram_raw, feature_gram(data), rtol=1e-14)
        else:
            data = kgo.prepare_points(data.x_points, data.f_points, data.weights)
        assert kgo.tensors._moment_route(data) == (basis == "monomial")
        assert_matches_dense(data)


def some_channel(data, seed):
    """A row-orthonormal m_eff x n_eff channel away from the least-squares one."""
    rng = np.random.default_rng(seed)
    return kgo.enforce_partial_unitarity(rng.normal(size=(data.f_space.eff_dim,
                                                          data.x_space.eff_dim)))


def assert_product_matches(kind, data, channel):
    """S u of the weighted pass against the tensor times vec(u), at 1e-12 relative."""
    product = kgo.tensors._weighted_pass(data, kind, channel).matrix
    matrix = kgo.build_coverage_tensor(kind, data).matrix
    assert product.shape == channel.shape
    close(product, (matrix @ channel.ravel()).reshape(channel.shape))


class TestChannelProduct:
    """The weighted pass sums S u for one channel u without building S."""

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_matches_the_tensor(self, kind, size, shape, route):
        # Every spec shape on both routes, with two label variables of order 2
        # (order 1 for `exact`, whose n = 5 < m = 6 at order 2): the table route
        # gathers b_x and the label rows f, with their mixed f1 f2 column, from
        # the block's doubled-order factors; the rows route evaluates them.
        f_order = 1 if shape.get("mode") == "exact" else 2
        data = chebyshev_instance(np.random.default_rng([size, 17, len(shape)]), size,
                                  f_vars=2, f_order=f_order, **shape)
        assert_product_matches(kind, data, some_channel(data, size))

    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_rank_deficient_attribute_side(self, kind, route):
        data = chebyshev_instance(np.random.default_rng(18), 2 * BLOCK + 7, **SHAPES[-1])
        assert data.x_space.eff_dim < data.x_space.raw_dim
        assert_product_matches(kind, data, some_channel(data, 18))

    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e300])
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_scaled_weights(self, kind, scale, route):
        base = chebyshev_instance(np.random.default_rng(19), BLOCK + 9)
        sample = kgo.Sample(base.x_rows, base.f_rows, base.weights * scale)
        data = kgo.prepare(sample, base.x_spec, base.f_spec)
        channel = some_channel(data, 19)
        if scale > 1e200 and kind is not kgo.TensorKind.PLAIN_VALUE:
            # |x|^2 |f|^2 falls as the square of the weight scale, so the Christoffel
            # kinds' weights overflow: S u raises the tensor's error.
            for build in (lambda: kgo.tensors._weighted_pass(data, kind, channel),
                          lambda: kgo.build_coverage_tensor(kind, data)):
                with pytest.raises(NumericalError, match=f"has {kind.value} weight inf"):
                    build()
        else:
            assert_product_matches(kind, data, channel)

    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_non_finite_product_raises(self, kind, route):
        # A channel near the float range: the Christoffel products' sums overflow,
        # and the pass raises where it would return inf.
        data = chebyshev_instance(np.random.default_rng(21), BLOCK + 9)
        channel = 1e306 * some_channel(data, 21)
        if kind in (kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                    kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED):
            with pytest.raises(NumericalError, match="non-finite"):
                kgo.tensors._weighted_pass(data, kind, channel)
        else:
            assert np.isfinite(kgo.tensors._weighted_pass(data, kind, channel).matrix).all()

    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_fit_keeps_the_channel_and_answers(self, kind, route):
        # The fit sums S u for the snapped least-squares channel; the solve of the
        # whole tensor returns the same channel bits, so every answer is the same,
        # and F agrees to rounding.
        data = chebyshev_instance(np.random.default_rng(20), 2 * BLOCK + 7, f_vars=2)
        config = kgo.SolverConfig(algorithm="lsq-adj")
        model, trace = kgo.fit_prepared(data, kind, config)
        op, reference = kgo.solve(kgo.build_coverage_tensor(kind, data), config,
                                  kgo.lsq_channel(data))
        u = op.u if np.vdot(op.u, data.stats.cross) >= 0.0 else -op.u
        assert model.operator.u.tobytes() == u.tobytes()
        assert model.report["f"] == pytest.approx(op.f_value, rel=1e-13, abs=0.0)
        assert len(trace) == len(reference) == 1
        tensor_model = replace(model, operator=replace(op, u=u))
        for key, got in kgo.predict(model, data.x_points[:50], data.f_points[:50]).items():
            want = kgo.predict(tensor_model, data.x_points[:50], data.f_points[:50])[key]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), key

    def test_row_gate_before_rank_deficient_channel(self):
        # The least-squares channel of these rows has rank 1, so its snap fails;
        # the zero-weight row with a zero label is still the error reported,
        # as when the tensor was built first.
        x = np.column_stack([np.ones(5), [-1.0, -1.0, 1.0, 1.0, 0.0]])
        f = np.column_stack([[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, -1.0, -1.0, 1.0, 0.0]])
        config = kgo.SolverConfig(algorithm="lsq-adj")
        bad = kgo.prepare_points(x, f, np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="observation 4 has zero label projection"):
            kgo.fit_prepared(bad, kgo.TensorKind.F_CHRISTOFFEL, config)
        good = kgo.prepare_points(x[:4], f[:4], np.ones(4))
        with pytest.raises(NumericalError, match="matrix is rank deficient"):
            kgo.fit_prepared(good, kgo.TensorKind.F_CHRISTOFFEL, config)

    def test_peak_memory_below_one_tensor(self, route):
        # d*n = 36 * 45 = 1620: an lsq-adj fit holds no (d*n)^2 array.
        data = chebyshev_instance(np.random.default_rng(22), 3 * BLOCK, f_vars=2,
                                  x_order=8, f_order=7)
        width = data.f_space.eff_dim * data.x_space.eff_dim
        assert width >= 720
        tracemalloc.start()
        try:
            kgo.fit_prepared(data, kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
                             kgo.SolverConfig(algorithm="lsq-adj"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < width ** 2 * 8, peak


def count_passes(monkeypatch):
    """Record the kind of every weighted pass; returns the list and the real pass."""
    passes, weighted = [], kgo.tensors._weighted_pass

    def counted(data, kind=None, channel=None):
        passes.append(kind)
        return weighted(data, kind, channel)

    monkeypatch.setattr(kgo.tensors, "_weighted_pass", counted)
    return passes, weighted


class TestBaselineSums:
    """Every coverage bound and F_JDG read one kind-free pass per PreparedData."""

    BOUNDS = (kgo.ftot_upper_bound, kgo.joint_distribution_coverage, kgo.coverage_spectrum,
              lambda data: kgo.contributing_subspace(data, 2), kgo.label_to_attribute_coverage,
              kgo.tensors.label_christoffel_moments)

    def test_one_pass_with_the_bits_of_its_own(self, monkeypatch, route):
        passes, weighted = count_passes(monkeypatch)
        data = chebyshev_instance(np.random.default_rng(23), BLOCK + 9, f_vars=2)
        values = [bound(data) for bound in self.BOUNDS * 2]
        assert passes == [None]
        own = weighted(data)  # what each bound summed on its own
        cross = data.stats.cross
        coverage = cross.T @ own.label_moments @ cross
        assert values[0] == float(np.trace(coverage)) and values[1] == own.f_jdg
        assert values[2].tobytes() == kgo.sym_eig(coverage).eigenvalues.tobytes()
        assert values[4].tobytes() == coverage.tobytes()
        assert values[5].tobytes() == own.label_moments.tobytes()
        for first, again in zip(values[:6], values[6:]):
            assert np.asarray(first).tobytes() == np.asarray(again).tobytes()

    def test_recorded_gate_raises_at_every_read(self, monkeypatch):
        passes, _ = count_passes(monkeypatch)
        t = np.linspace(-1.0, 1.0, 30)
        f = np.column_stack([np.ones(30), np.sin(2.0 * t)])
        f[7] = 0.0
        data = kgo.prepare_points(np.column_stack([np.ones(30), t, t ** 2]), f, np.ones(30))
        for bound in self.BOUNDS * 2:
            with pytest.raises(NumericalError, match="observation 7 has zero label projection"):
                bound(data)
        assert passes == [None]


def clusters():
    # The clusters of test_ill_conditioned_chebyshev_takes_syrk: kappa_x is
    # about 4e15.
    rng = np.random.default_rng(6)
    size = 2 * BLOCK
    x = np.concatenate([rng.normal(-1.0, 0.05, (size // 2, 2)),
                        rng.normal(1.0, 0.05, (size // 2, 2))])
    f = np.sin(x[:, :1]) + 0.1 * rng.normal(size=(size, 1))
    return kgo.prepare(kgo.Sample(x, f, np.ones(size)),
                       kgo.with_scale(kgo.BasisSpec("chebyshev", 6), x),
                       kgo.with_scale(kgo.BasisSpec("chebyshev", 3), f))


def wide_monomial():
    # The order-8 monomial fit over x in [0, 1000] of test_whitening_drop_reported.
    grid = np.linspace(0.0, 1000.0, 101)
    sample = kgo.Sample(grid[:, None], grid[:, None] / 1000.0, np.ones(101))
    return kgo.prepare(sample, kgo.BasisSpec("monomial", 8), kgo.BasisSpec("monomial", 1))


def max_error(got, reference) -> float:
    return float(np.abs(got - reference).max()) / float(np.abs(reference).max())


class TestIllConditioned:
    def test_table_gram_against_long_double(self):
        # The table Gram is as close to a long-double sum as the blocked Gram is.
        data = clusters()
        design = data.x_points.astype(np.longdouble)
        reference = (design.T * data.weights.astype(np.longdouble)) @ design
        blocked = feature_gram(data)
        for gram in (data.x_space.gram_raw, blocked):
            assert max_error(gram, reference) <= 1e-15

    @pytest.mark.parametrize("build", [clusters, wide_monomial], ids=["clusters", "monomial"])
    def test_cross_gram_against_long_double(self, build):
        # The cross Gram and the least-squares map, with the data's own
        # transforms, against long-double sums over the whitened rows. They
        # stay as close as the whole-array whitened-row expressions;
        # whitening the raw sum T_f (sum w f x^T) T_x^T instead is off by
        # 9e-10 on the clusters and 4e-15 on the monomial fit.
        data = build()
        ld = np.longdouble
        tx, tf, w = data.x_space.transform, data.f_space.transform, data.weights.astype(ld)
        x_orth = data.x_points.astype(ld) @ tx.T.astype(ld)
        f_orth = data.f_points.astype(ld) @ tf.T.astype(ld)
        cross = (f_orth.T * w) @ x_orth
        beta = ((data.f_points.astype(ld).T * w) @ x_orth) @ tx.astype(ld)
        whole_cross = (data.f_orth.T * data.weights) @ data.x_orth
        whole_beta = ((data.f_points.T * data.weights) @ data.x_orth) @ tx
        for got, whole, reference in ((data.stats.cross, whole_cross, cross),
                                      (kgo.fit_least_squares(data), whole_beta, beta)):
            assert max_error(got, reference) <= max(4.0 * max_error(whole, reference), 1e-15)

    def test_row_norms_against_long_double(self):
        # The rows route maps the raw attribute columns through [C; K] T_x
        # without whitening them first; with the data's own C, stored K = L^-1 C
        # (C C^T = L L^T) and transforms, overlap and adjusted stay near a
        # long-double sum over whitened rows. The attribute norms come from
        # the block's whitened rows.
        data = clusters()
        assert not kgo.tensors._moment_route(data)
        ld = np.longdouble
        x_orth = data.x_points.astype(ld) @ data.x_space.transform.T.astype(ld)
        f_orth = data.f_points.astype(ld) @ data.f_space.transform.T.astype(ld)
        overlap = np.einsum("ij,ij->i", f_orth @ data.stats.cross.astype(ld), x_orth)
        kx = x_orth @ data.stats.factor.T.astype(ld)
        attribute, got_overlap, adjusted = row_norms(data, table=False)
        assert max_error(got_overlap, overlap) <= 1e-11
        assert max_error(adjusted, np.einsum("ij,ij->i", kx, kx)) <= 1e-11
        np.testing.assert_allclose(attribute, np.einsum("ij,ij->i", data.x_orth, data.x_orth),
                                   rtol=1e-14)

    @pytest.mark.parametrize("shape", [dict(x_vars=1, x_order=12), dict(x_order=8, f_order=3),
                                       dict(x_vars=3, x_order=5), dict(x_order=6, f_vars=2),
                                       dict(x_vars=4, x_order=5, f_order=3)],
                             ids=["1var", "2var", "3var", "2labels", "4var"])
    def test_polynomial_norms_against_long_double(self, shape):
        # On the moment-table route |x|^2 is a quadratic form read off each row's
        # doubled-order table, and |K x|^2 the square of K T_x b_x, b_x gathered
        # from the row's doubled-order factors; with the data's own transform and K
        # they stay within 1e-13 of a long-double sum over whitened rows, row by row.
        data = chebyshev_instance(np.random.default_rng(12), 2 * BLOCK + 7, **shape)
        assert kgo.tensors._moment_route(data)
        ld = np.longdouble
        x_orth = data.x_points.astype(ld) @ data.x_space.transform.T.astype(ld)
        kx = x_orth @ data.stats.factor.T.astype(ld)
        attribute, _, adjusted = row_norms(data, table=True)
        for got, reference in ((attribute, np.einsum("ij,ij->i", x_orth, x_orth)),
                               (adjusted, np.einsum("ij,ij->i", kx, kx))):
            assert float(np.max(np.abs(got - reference) / reference)) <= 1e-13


class TestPrepareChecks:
    def test_dimension_cap(self):
        sample = kgo.Sample(np.zeros((3, 40)), np.zeros((3, 1)), np.ones(3))
        with pytest.raises(DimensionError, match="exceeds cap"):
            kgo.prepare(sample, kgo.BasisSpec("chebyshev", 4), kgo.BasisSpec("chebyshev", 1))

    @pytest.mark.parametrize("bad", ["constant", "cap"])
    @pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
    def test_bad_label_spec_reads_no_row(self, monkeypatch, kind, bad):
        # Both sides' dimension cap and constant index are checked before the first
        # pass, so a bad label spec fails before any attribute row is evaluated.
        rng = np.random.default_rng(8)
        sample = kgo.Sample(rng.uniform(-1.0, 1.0, (50, 2)),
                            rng.uniform(-1.0, 1.0, (50, 1 if bad == "constant" else 40)),
                            np.ones(50))
        x_spec = kgo.with_scale(kgo.BasisSpec(kind, 3), sample.x_rows)
        order, index = (2, 5) if bad == "constant" else (4, 0)
        f_spec = kgo.with_scale(kgo.BasisSpec(kind, order, constant_index=index), sample.f_rows)
        counts, _ = count_row_passes(monkeypatch, x_spec, f_spec)
        message = ("constant index 5 out of range for basis dimension 3" if bad == "constant"
                   else "producted dimension 135751 exceeds cap 10000")
        with pytest.raises(DimensionError, match=f"^{message}$"):
            kgo.prepare(sample, x_spec, f_spec)
        assert counts == dict.fromkeys(counts, 0)

    @pytest.mark.parametrize("weight", [1.0, 0.0])
    @pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
    def test_non_finite_basis_values(self, kind, weight):
        # A zero-weight row raises too; on the Chebyshev table 0 * inf is nan.
        x = np.array([[0.0], [1e200], [2.0]])
        sample = kgo.Sample(x, x.copy(), np.array([1.0, weight, 1.0]))
        with pytest.raises(NumericalError, match="non-finite"):
            kgo.prepare(sample, kgo.BasisSpec(kind, 3), kgo.BasisSpec(kind, 1))

    def test_lazy_rows_are_the_parents_arrays(self):
        data = chebyshev_instance(np.random.default_rng(2), BLOCK + 3, x_vars=2)
        assert "x_points" not in vars(data) and "x_orth" not in vars(data)
        x_points = kgo.design_matrix(data.x_spec, data.x_rows)
        assert data.x_points.tobytes() == x_points.tobytes()
        assert data.x_orth.tobytes() == (x_points @ data.x_space.transform.T).tobytes()
        f_points = kgo.design_matrix(data.f_spec, data.f_rows)
        assert data.f_orth.tobytes() == (f_points @ data.f_space.transform.T).tobytes()

    def test_cached_sums_are_read_only(self):
        data = chebyshev_instance(np.random.default_rng(2), 50)
        arrays = [getattr(data.stats, field.name) for field in fields(kgo.hilbert.RowStats)]
        arrays.append(kgo.tensors.label_christoffel_moments(data))
        assert all(array is not None for array in arrays)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_lsq_channel_is_a_fresh_copy(self):
        data = chebyshev_instance(np.random.default_rng(2), 50)
        cross = kgo.lsq_channel(data)
        want = cross.copy()
        cross[0] = 1.0
        assert kgo.lsq_channel(data).tobytes() == want.tobytes()
        assert data.stats.cross.tobytes() == want.tobytes()


def count_row_passes(monkeypatch, x_spec, f_spec):
    """Count, per side, the factor tables and the basis-column blocks the row passes build;
    also returns the (side, order) of every factor table, in build order."""
    counts = {"x tables": 0, "f tables": 0, "x columns": 0, "f columns": 0}
    orders = []
    table, columns = kgo.sample._factor_block, kgo.sample._basis_columns

    def side(spec):
        return "x" if spec is x_spec else "f" if spec is f_spec else "?"

    def count(what, spec):
        counts[f"{side(spec)} {what}"] += 1

    def table_spy(spec, rows, order):
        count("tables", spec)
        orders.append((side(spec), order))
        return table(spec, rows, order)

    def columns_spy(spec, rows):
        count("columns", spec)
        return columns(spec, rows)

    monkeypatch.setattr(kgo.sample, "_factor_block", table_spy)
    for module in (kgo.sample, kgo.hilbert, kgo.tensors, kgo.baselines):
        monkeypatch.setattr(module, "_basis_columns", columns_spy)
    return counts, orders


class TestRowPasses:
    @pytest.mark.parametrize("d", [None, 1])
    def test_moment_table_route_makes_two_passes(self, monkeypatch, d):
        # `prepare`'s pass and the weighted pass each build one factor table per
        # side per row block. The tensor pass (d = 1) evaluates no basis columns;
        # the S u pass of a single-shot fit (d None) reads the label side's basis
        # columns, from a basis-order table, where the tensor reads its doubled one.
        sample = chebyshev_sample(2 * BLOCK + 7)  # three row blocks
        x_spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 8), sample.x_rows)
        f_spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 3), sample.f_rows)
        assert kgo.tensors._moment_route(kgo.prepare(sample, x_spec, f_spec))
        counts, orders = count_row_passes(monkeypatch, x_spec, f_spec)
        kgo.fit(sample, x_spec, f_spec, kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                kgo.SolverConfig(algorithm="lsq-adj"), d=d)
        assert counts == {"x tables": 2 * 3, "f tables": 2 * 3, "x columns": 0,
                          "f columns": 3 if d is None else 0}
        assert orders == [("x", 16), ("f", 6)] * 3 + [("x", 16), ("f", 3 if d is None else 6)] * 3

    def test_kind_free_pass_reads_basis_order_labels(self, monkeypatch):
        # A pass that adds no tensor (the baselines' own sums) builds each block's
        # attribute table at doubled order and its label table at basis order only,
        # for the label basis columns; no doubled-order label table.
        sample = chebyshev_sample(2 * BLOCK + 7)  # three row blocks
        x_spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 8), sample.x_rows)
        f_spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 3), sample.f_rows)
        data = kgo.prepare(sample, x_spec, f_spec)
        assert kgo.tensors._moment_route(data)
        counts, orders = count_row_passes(monkeypatch, x_spec, f_spec)
        kgo.ftot_upper_bound(data)
        assert counts == {"x tables": 3, "f tables": 3, "x columns": 0, "f columns": 3}
        assert orders == [("x", 16), ("f", 3)] * 3

    def test_rows_route_makes_three_passes(self, monkeypatch):
        # Chebyshev data that fails the condition gate: `prepare`'s tables, then
        # the cross Gram's pass and the weighted pass over basis columns, each
        # block's columns built from one factor table.
        data = clusters()
        assert not kgo.tensors._moment_route(data)
        sample = kgo.Sample(data.x_rows, data.f_rows, data.weights)
        counts, _ = count_row_passes(monkeypatch, data.x_spec, data.f_spec)
        kgo.fit(sample, data.x_spec, data.f_spec, kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
                kgo.SolverConfig(algorithm="lsq-adj"))
        assert counts == {"x tables": 3 * 2, "f tables": 3 * 2, "x columns": 2 * 2,
                          "f columns": 2 * 2}

    @pytest.mark.parametrize("algorithm", ["lsq-adj", "polar-ascent"])
    def test_well_conditioned_rows_route_makes_two_passes(self, monkeypatch, algorithm):
        # Six attribute variables at order 2 pass the condition gate and take the
        # rows route: `prepare`'s pass sums the Gram matrices and the raw cross
        # moments over basis columns too, so it builds no doubled-order table, and
        # C is whitened from them. The single-shot fit (lsq-adj, S u) and the
        # tensor fit both make `prepare`'s pass and the weighted pass, each
        # block's columns built from one basis-order factor table per side.
        data = chebyshev_instance(np.random.default_rng(7), 2 * BLOCK + 7, x_vars=6, x_order=2)
        assert kgo.hilbert._well_conditioned(data) and not kgo.tensors._moment_route(data)
        sample = kgo.Sample(data.x_rows, data.f_rows, data.weights)
        counts, orders = count_row_passes(monkeypatch, data.x_spec, data.f_spec)
        kgo.fit(sample, data.x_spec, data.f_spec, kgo.TensorKind.F_CHRISTOFFEL,
                kgo.SolverConfig(algorithm=algorithm))
        assert counts == dict.fromkeys(counts, 2 * 3)
        assert orders == [("x", 2), ("f", 2)] * 2 * 3

    @pytest.mark.parametrize("x_vars", [1, 6])
    def test_default_bases_make_two_passes(self, monkeypatch, x_vars):
        # The CLI's default bases, monomial:2 and monomial:1, under the default
        # kind and solver: `prepare`'s pass sums the raw cross moments with the
        # Gram matrices, C is whitened from them, and the weighted pass is the
        # second and last pass; no pass sums C on its own.
        rng = np.random.default_rng(x_vars)
        x = rng.uniform(-1.0, 1.0, size=(2 * BLOCK + 7, x_vars))
        f = np.sin(2.0 * x[:, :1]) + 0.2 * rng.normal(size=(x.shape[0], 1))
        sample = kgo.Sample(x, f, rng.uniform(0.1, 2.0, size=x.shape[0]))
        x_spec, f_spec = kgo.BasisSpec("monomial", 2), kgo.BasisSpec("monomial", 1)
        data = kgo.prepare(sample, x_spec, f_spec)
        assert kgo.hilbert._well_conditioned(data) and not kgo.tensors._moment_route(data)
        counts, orders = count_row_passes(monkeypatch, x_spec, f_spec)
        model, _ = kgo.fit(sample, x_spec, f_spec)
        assert counts == dict.fromkeys(counts, 2 * 3)
        assert orders == [("x", 2), ("f", 1)] * 2 * 3
        assert model.report["stop_reason"] == "converged"

    @pytest.mark.parametrize("pair", ["monomial", "mixed", "points"])
    def test_first_pass_is_one_loop(self, monkeypatch, pair):
        # `prepare` and `prepare_points` sum both Gram matrices in one loop over the
        # row blocks, whatever the families of the two sides. Where the work rule
        # picks the moment tables, as for these shapes, each block builds one
        # doubled-order factor table per side, whatever its family.
        sample = chebyshev_sample(2 * BLOCK + 7)  # three row blocks
        x_spec = kgo.with_scale(kgo.BasisSpec("chebyshev" if pair == "mixed" else "monomial", 4),
                                sample.x_rows)
        f_spec = kgo.BasisSpec("monomial", 2)
        points = [kgo.design_matrix(x_spec, sample.x_rows),
                  kgo.design_matrix(f_spec, sample.f_rows)]
        loops, blocks = [], kgo.sample.row_blocks

        def spy(size):
            loops.append(size)
            return blocks(size)

        for module in (kgo.sample, kgo.hilbert):
            monkeypatch.setattr(module, "row_blocks", spy)
        if pair == "points":
            kgo.prepare_points(*points, sample.weights)
            assert loops == [sample.size]
            return
        counts, orders = count_row_passes(monkeypatch, x_spec, f_spec)
        kgo.prepare(sample, x_spec, f_spec)
        assert loops == [sample.size]
        assert counts == {"x tables": 3, "f tables": 3, "x columns": 0, "f columns": 0}
        assert orders == [("x", 8), ("f", 4)] * 3


class TestOneSideGramPath:
    @pytest.mark.parametrize("kind", ["chebyshev", "monomial"])
    def test_space_from_sample_is_prepares_side(self, kind):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, size=(2 * BLOCK + 7, 2))
        sample = kgo.Sample(x, x[:, :1] ** 2, rng.uniform(0.1, 2.0, size=x.shape[0]))
        x_spec = kgo.with_scale(kgo.BasisSpec(kind, 5), x)  # monomial specs ignore the scale
        data = kgo.prepare(sample, x_spec, kgo.BasisSpec("monomial", 2))
        space = kgo.space_from_sample(sample, "x", x_spec)
        assert space.gram_raw.tobytes() == data.x_space.gram_raw.tobytes()
        assert space.transform.tobytes() == data.x_space.transform.tobytes()

    def test_space_from_sample_builds_no_design(self):
        size = 50_000
        x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(size, 2))
        sample = kgo.Sample(x, x[:, :1], np.ones(size))
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 8), x)
        design_bytes = size * kgo.producted_dimension(2, 8, "up_to") * 8  # 18 MB
        tracemalloc.start()
        try:
            kgo.space_from_sample(sample, "x", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design_bytes, peak


class TestRadonNikodymBlocked:
    @pytest.mark.parametrize("labelled", [False, True], ids=["features", "labels"])
    @pytest.mark.parametrize("size", [1, BLOCK + 1])
    def test_matches_dense_and_caches_no_rows(self, size, labelled):
        rng = np.random.default_rng([size, 11])
        data = chebyshev_instance(rng, size)
        labels = rng.normal(size=(size, 3)) if labelled else None
        moments = kgo.fit_radon_nikodym(data, labels).third_moments
        assert not {"x_points", "x_orth", "f_points", "f_orth"} & set(vars(data))
        labels = data.f_points if labels is None else labels
        xo, w = data.x_orth, data.weights
        for j in range(labels.shape[1]):
            close(moments[j], (xo.T * (w * labels[:, j])) @ xo)


class TestSingularCoupling:
    def data(self):
        # The second label direction has no weighted overlap with any
        # attribute direction: the label/attribute coupling is singular.
        x = np.column_stack([np.ones(4), [-1.0, -1.0, 1.0, 1.0]])
        f = np.column_stack([np.ones(4), [1.0, -1.0, -1.0, 1.0]])
        return kgo.prepare_points(x, f, np.ones(4))

    def test_raises_only_where_the_adjusted_normalizer_is_read(self):
        data = self.data()
        assert data.stats.factor is None
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL)
        assert np.isfinite(model.report["f_jdg"])
        for kind in (kgo.TensorKind.CHRISTOFFEL_PRODUCT, kgo.TensorKind.PLAIN_VALUE):
            assert np.isfinite(kgo.build_coverage_tensor(kind, data).matrix).all()
        with pytest.raises(NumericalError, match="coupling matrix is singular"):
            kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED, data)
        with pytest.raises(NumericalError, match="coupling matrix is singular"):
            kgo.label_matched_projection(data)


def adjusted_fit(sample, x_order=8, f_order=3):
    return kgo.fit(sample, kgo.BasisSpec("chebyshev", x_order), kgo.BasisSpec("chebyshev", f_order),
                   kind=kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
                   config=kgo.SolverConfig(algorithm="lsq-adj"))


def chebyshev_sample(size, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(size, 2))
    f = np.sin(2.0 * x[:, :1]) * np.cos(x[:, 1:]) + 0.2 * rng.normal(size=(size, 1))
    return kgo.Sample(x, f, rng.uniform(0.1, 2.0, size=size))


class TestFitReadsNoAttributeRows:
    @pytest.mark.parametrize("d", [None, 1])
    def test_row_passes_recorded_once(self, monkeypatch, d):
        # Every reader of the coupling (the adjusted normalizer, the LSQ channel
        # and the channel's sign) reads one record, and the tensor, F_TOT and
        # F_JDG (and a subspace) come from one weighted pass.
        builds, passes = [], []
        build = kgo.PreparedData.stats.func

        def count_builds(data):
            builds.append(data)
            return build(data)

        counted = cached_property(count_builds)
        counted.__set_name__(kgo.PreparedData, "stats")
        monkeypatch.setattr(kgo.PreparedData, "stats", counted)
        weighted = kgo.tensors._weighted_pass

        def count_passes(data, kind=None, channel=None):
            passes.append(kind)
            return weighted(data, kind, channel)

        for module in (kgo.tensors, kgo.model):
            monkeypatch.setattr(module, "_weighted_pass", count_passes)
        kind = kgo.TensorKind.CHRISTOFFEL_PRODUCT if d else kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED
        model, _ = kgo.fit(chebyshev_sample(BLOCK + 9), kgo.BasisSpec("chebyshev", 8),
                           kgo.BasisSpec("chebyshev", 3), kind=kind, d=d,
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        assert len(builds) == 1 and passes == [kind]
        assert model.report["f_tot"] > 0.0 and model.report["f_jdg"] > 0.0

    def test_cross_gram_source_is_the_gate(self, monkeypatch):
        # Every `prepare` pair carries the raw cross moments, summed on either
        # engine, and `stats` whitens them wherever the whitenings pass the
        # condition gate, whichever route the weighted pass takes and whatever
        # the families, and never asks the route rule; the clusters and the wide
        # monomial fit fail the gate and sum C over whitened rows.
        calls, rule = [], kgo.tensors._moment_route
        monkeypatch.setattr(kgo.tensors, "_moment_route",
                            lambda data: calls.append(data) or rule(data))
        table = kgo.prepare(chebyshev_sample(BLOCK + 9), kgo.BasisSpec("chebyshev", 8),
                            kgo.BasisSpec("chebyshev", 3))
        rows = chebyshev_instance(np.random.default_rng(7), BLOCK, x_vars=6, x_order=2)
        monomial = kgo.prepare(kgo.Sample(rows.x_rows, rows.f_rows, rows.weights),
                               kgo.BasisSpec("monomial", 2), kgo.BasisSpec("monomial", 1))
        pairs = ((table, True), (rows, True), (monomial, True), (clusters(), False),
                 (wide_monomial(), False))
        for data, gate in pairs:
            assert kgo.hilbert._well_conditioned(data) == gate
            raw = data.f_space.transform @ data.cross_raw @ data.x_space.transform.T
            assert (data.stats.cross.tobytes() == raw.tobytes()) == gate
        assert calls == []
        assert rule(table) and not rule(rows)

    def test_never_reads_the_attribute_pair(self, monkeypatch):
        def refuse(data):
            raise AssertionError("the fit read an attribute row array")

        for name in ("x_points", "x_orth"):
            monkeypatch.setattr(kgo.PreparedData, name, property(refuse))
        model, _ = adjusted_fit(chebyshev_sample(BLOCK + 9))
        assert model.report["f"] > 0.0

    def test_peak_memory_below_one_design(self):
        size = 50_000
        sample = chebyshev_sample(size)
        design_bytes = size * kgo.producted_dimension(2, 8, "up_to") * 8  # 18 MB
        tracemalloc.start()
        try:
            adjusted_fit(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design_bytes, peak

    @pytest.mark.parametrize("basis", ["chebyshev", "monomial"])
    def test_peak_memory_flat_in_rows(self, basis):
        # Past the sample, a fit's memory is one row block on either route: the
        # traced peak of fit_prepared grows by less than one length-M float array
        # from M to 2M rows.
        size = 10 * BLOCK
        peaks = []
        for rows in (size, 2 * size):
            sample = chebyshev_sample(rows)
            specs = [kgo.BasisSpec(basis, 8), kgo.BasisSpec(basis, 3)]
            if basis == "chebyshev":
                specs = [kgo.with_scale(specs[0], sample.x_rows),
                         kgo.with_scale(specs[1], sample.f_rows)]
            data = kgo.prepare(sample, *specs)
            assert kgo.tensors._moment_route(data) == (basis == "chebyshev")
            tracemalloc.start()
            try:
                kgo.fit_prepared(data, kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
                                 kgo.SolverConfig(algorithm="lsq-adj"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * size, peaks
