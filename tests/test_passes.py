"""The blocked passes of a fit against dense formulas on materialized rows.

`kgo.prepare` sums both Gram matrices over the row blocks (a Chebyshev
side's Gram read off its doubled-order moment table), `PreparedData`
sums the cross moments in a second pass and the per-row norms with the
label-Christoffel moments in a third
(`row_norms`). Every quantity built from them is checked here against the
whole-array formula on `x_points`, `x_orth`, `f_points` and `f_orth`, which
the data builds only when they are read.
"""

import tracemalloc
from functools import cached_property

import numpy as np
import pytest

import kgo
from kgo.errors import DimensionError, NumericalError
from kgo.linalg import _ROW_BLOCK

from test_tensors import chebyshev_instance

BLOCK = _ROW_BLOCK
SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]
SHAPES = [dict(x_vars=1, x_order=5), dict(x_vars=2, x_order=4), dict(x_vars=3, x_order=2),
          dict(x_vars=2, x_order=4, mode="exact"), dict(x_vars=2, x_order=3, source=(2, 0)),
          dict(x_vars=3, x_order=3, dead=1)]


def close(got, want, rtol=1e-12):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert np.abs(np.asarray(got) - want).max() <= rtol * scale


def dense_quantities(data):
    """Every checked quantity from whole-array formulas on the materialized rows."""
    x, f, w = data.x_points, data.f_points, data.weights
    xo, fo = data.x_orth, data.f_orth
    cross = (fo.T * w) @ xo
    projection = cross.T @ np.linalg.solve(cross @ cross.T, cross)
    label = np.einsum("ij,ij->i", fo, fo)
    attribute = np.einsum("ij,ij->i", xo, xo)
    overlap = np.einsum("ij,ij->i", fo @ cross, xo)
    moments = (fo.T * (w / label)) @ fo
    adjusted = np.einsum("ij,jk,ik->i", xo, projection, xo)
    return {
        "x_gram": (x.T * w) @ x,
        "f_gram": (f.T * w) @ f,
        "cross": cross,
        "label": label,
        "attribute": attribute,
        "overlap": overlap,
        "adjusted": adjusted,
        "weights": {kgo.TensorKind.CHRISTOFFEL_PRODUCT: w / (attribute * label),
                    kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED: w / (adjusted * label),
                    kgo.TensorKind.F_CHRISTOFFEL: w / label,
                    kgo.TensorKind.PLAIN_VALUE: w},
        "f_tot": float(np.trace(cross.T @ moments @ cross)),
        "f_jdg": float(np.sum(w * overlap ** 2 / (attribute * label))),
        "beta": ((f.T * w) @ xo) @ data.x_space.transform,
    }


class TestPassesMatchDense:
    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["1var", "2var", "3var", "exact", "source", "dead"])
    @pytest.mark.parametrize("size", SIZES)
    def test_every_quantity(self, size, shape):
        data = chebyshev_instance(np.random.default_rng([size, len(shape)]), size, **shape)
        norms = data.row_norms
        lsq = kgo.fit_least_squares(data)
        f_tot = kgo.ftot_upper_bound(data)
        f_jdg = kgo.joint_distribution_coverage(data)
        dense = dense_quantities(data)
        close(data.x_space.gram_raw, dense["x_gram"])
        close(data.f_space.gram_raw, dense["f_gram"])
        close(data.cross_gram(), dense["cross"])
        for name in ("label", "attribute", "overlap", "adjusted"):
            close(getattr(norms, name), dense[name])
        for kind, weights in dense["weights"].items():
            close(kgo.tensors._row_weights(data, kind), weights)
        assert f_tot == pytest.approx(dense["f_tot"], rel=1e-12)
        assert f_jdg == pytest.approx(dense["f_jdg"], rel=1e-12)
        close(lsq.beta, dense["beta"])

    def test_table_gram_agrees_with_gram_matrix(self):
        data = chebyshev_instance(np.random.default_rng(3), 2 * BLOCK + 7, x_order=6)
        close(data.x_space.gram_raw, kgo.gram_matrix(data.x_points, data.weights), rtol=1e-14)

    @pytest.mark.parametrize("basis", ["monomial", None])
    def test_other_data_matches_dense(self, basis):
        data = chebyshev_instance(np.random.default_rng(9), BLOCK + 5)
        if basis == "monomial":
            sample = kgo.Sample(data.x_rows, data.f_rows, data.weights)
            data = kgo.prepare(sample, kgo.BasisSpec("monomial", 4), kgo.BasisSpec("monomial", 2))
            # The monomial Gram is gram_matrix's sum, bit for bit.
            assert data.x_space.gram_raw.tobytes() == kgo.gram_matrix(
                data.x_points, data.weights).tobytes()
        else:
            data = kgo.prepare_points(data.x_points, data.f_points, data.weights)
        dense = dense_quantities(data)
        close(data.cross_gram(), dense["cross"])
        close(kgo.fit_least_squares(data).beta, dense["beta"])
        for name in ("label", "attribute", "overlap", "adjusted"):
            close(getattr(data.row_norms, name), dense[name])
        assert kgo.joint_distribution_coverage(data) == pytest.approx(dense["f_jdg"], rel=1e-12)


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
        blocked = kgo.gram_matrix(data.x_points, data.weights)
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
        for got, whole, reference in ((data.cross_gram(), whole_cross, cross),
                                      (kgo.fit_least_squares(data).beta, whole_beta, beta)):
            assert max_error(got, reference) <= max(4.0 * max_error(whole, reference), 1e-15)

    def test_row_norms_against_long_double(self):
        # The third pass maps the raw attribute columns through [C; K] T_x
        # without whitening them first; with the data's own C, K and
        # transforms, overlap and adjusted stay near a long-double sum over
        # whitened rows. The attribute norms come from the second pass's
        # whitened rows.
        data = clusters()
        ld = np.longdouble
        cross, _, coupled = data.label_coupling
        x_orth = data.x_points.astype(ld) @ data.x_space.transform.T.astype(ld)
        f_orth = data.f_points.astype(ld) @ data.f_space.transform.T.astype(ld)
        overlap = np.einsum("ij,ij->i", f_orth @ cross.astype(ld), x_orth)
        kx = x_orth @ coupled.T.astype(ld)
        norms = data.row_norms
        assert max_error(norms.overlap, overlap) <= 1e-11
        assert max_error(norms.adjusted, np.einsum("ij,ij->i", kx, kx)) <= 1e-11
        np.testing.assert_allclose(norms.attribute,
                                   np.einsum("ij,ij->i", data.x_orth, data.x_orth), rtol=1e-14)


class TestPrepareChecks:
    def test_dimension_cap(self):
        sample = kgo.Sample(np.zeros((3, 40)), np.zeros((3, 1)), np.ones(3))
        with pytest.raises(DimensionError, match="exceeds cap"):
            kgo.prepare(sample, kgo.BasisSpec("chebyshev", 4), kgo.BasisSpec("chebyshev", 1))

    @pytest.mark.parametrize("weight", [1.0, 0.0])
    @pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
    def test_non_finite_basis_values(self, kind, weight):
        # A zero-weight row raises too; on the Chebyshev table 0 * inf is nan.
        x = np.array([[0.0], [1e200], [2.0]])
        sample = kgo.Sample(x, x.copy(), np.array([1.0, weight, 1.0]))
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite"):
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
        for array in (*data.cross_moments, data.row_norms.label):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_cross_gram_is_a_fresh_copy(self):
        data = chebyshev_instance(np.random.default_rng(2), 50)
        cross = data.cross_gram()
        want = cross.copy()
        cross[0] = 1.0
        assert data.cross_gram().tobytes() == want.tobytes()


class TestFourRowPasses:
    @pytest.mark.parametrize("d", [None, 1])
    def test_label_basis_evaluated_twice_per_block(self, monkeypatch, d):
        # The cross-moment pass and the row-norm pass, which also sums the
        # label moments of F_TOT and the projective subspace, are the only
        # label evaluations of a fit; its tensor reads the moment table.
        data = chebyshev_instance(np.random.default_rng(8), 2 * BLOCK + 7, x_order=8, f_order=3)
        assert kgo.tensors._moment_route(data)
        real, labels = kgo.hilbert._basis_columns, []

        def spy(spec, rows):
            labels.append(spec is data.f_spec)
            return real(spec, rows)

        monkeypatch.setattr(kgo.hilbert, "_basis_columns", spy)
        kgo.fit_prepared(data, kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                         kgo.SolverConfig(algorithm="lsq-adj"), d=d)
        assert sum(labels) == 2 * 3  # three row blocks


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
        assert data.row_norms.adjusted is None
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL)
        assert model.x_label_projection is None
        assert np.isfinite(model.report["f_jdg"])
        with pytest.raises(NumericalError, match="coupling matrix is singular"):
            kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED, data)


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
    def test_cross_moments_accumulated_once(self, monkeypatch):
        # Every reader of the cross Gram (label coupling, LSQ channel, F_TOT,
        # F_JDG and the row norms) reads the one sum of the cross moments.
        readers, sums = [], []
        read, summed = kgo.PreparedData.cross_gram, kgo.PreparedData.cross_moments.func

        def count_sums(data):
            sums.append(data)
            return summed(data)

        counted = cached_property(count_sums)
        counted.__set_name__(kgo.PreparedData, "cross_moments")
        monkeypatch.setattr(kgo.PreparedData, "cross_moments", counted)
        monkeypatch.setattr(kgo.PreparedData, "cross_gram",
                            lambda data: readers.append(data) or read(data))
        adjusted_fit(chebyshev_sample(BLOCK + 9))
        assert len(readers) >= 4
        assert len(sums) == 1

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
