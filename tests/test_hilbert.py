import warnings
from dataclasses import replace

import numpy as np
import pytest

import kgo
from kgo.errors import DataError, DimensionError, NumericalError
from kgo.hilbert import _projection, _whitening_cut
from kgo.linalg import _ROW_BLOCK

from conftest import grid_sample


def feature_space(points, weights):
    """The attribute space `prepare_points` builds from feature rows."""
    return kgo.prepare_points(points, points[:, :1], weights).x_space


def x_gram(sample, spec):
    return feature_space(kgo.design_matrix(spec, sample.x_rows), sample.weights).gram_raw


class TestGram:
    def test_three_point_line(self, three_point_sample, line_spec):
        g = x_gram(three_point_sample, line_spec)
        np.testing.assert_allclose(g, [[3.0, 0.0], [0.0, 2.0]])

    def test_single_observation_rank_one(self, line_spec):
        s = kgo.Sample([[0.0]], [[0.0]], [1.0])
        g = x_gram(s, line_spec)
        np.testing.assert_allclose(g, [[1.0, 0.0], [0.0, 0.0]])

    def test_constant_basis(self, three_point_sample):
        g = x_gram(three_point_sample, kgo.BasisSpec("monomial", 0))
        np.testing.assert_allclose(g, [[3.0]])

    @pytest.mark.parametrize("size", [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                      2 * _ROW_BLOCK + 7])
    def test_row_blocks_match_one_shot(self, size):
        rng = np.random.default_rng(size)
        points = rng.normal(size=(size, 6))
        weights = rng.uniform(0.1, 2.0, size=size)
        g = feature_space(points, weights).gram_raw
        expect = (points.T * weights) @ points
        assert np.abs(g - expect).max() <= 1e-12 * np.abs(expect).max()
        assert g.tobytes() == feature_space(points, weights).gram_raw.tobytes()


class TestRegularize:
    def test_diagonal(self):
        t = kgo.regularize(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(np.abs(t), [[0.5, 0.0], [0.0, 1.0]])

    def test_rank_one(self):
        t = kgo.regularize([[1.0, 1.0], [1.0, 1.0]])
        assert t.shape[0] == 1

    def test_identity(self):
        np.testing.assert_allclose(kgo.regularize(np.eye(3)), np.eye(3))

    def test_zero_matrix(self):
        with pytest.raises(NumericalError):
            kgo.regularize(np.zeros((2, 2)))

    def test_whitening_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 5))
        g = feature_space(pts, np.ones(40)).gram_raw
        t = kgo.regularize(g)
        np.testing.assert_allclose(t @ g @ t.T, np.eye(t.shape[0]), atol=1e-10)

    def test_constant_reconstruction(self, three_point_data):
        space = three_point_data.x_space
        gamma = space.transform @ space.gram_raw @ space.const_raw
        back = space.transform.T @ gamma
        err = back - space.const_raw
        rel = np.sqrt(err @ space.gram_raw @ err / (space.const_raw @ space.gram_raw @ space.const_raw))
        assert rel <= 1e-8

    def test_whitening_cut(self, three_point_data):
        """(smallest kept, largest dropped) Gram eigenvalue over the top one; a side
        that kept every direction needs no Gram matrix for it."""
        kept, dropped = _whitening_cut(replace(three_point_data.x_space, gram_raw=None))
        assert (kept, dropped) == (pytest.approx(2.0 / 3.0, rel=1e-14), 0.0)  # Gram diag(3, 2)
        data, model, _ = rank_deficient(1.0)
        eig = np.linalg.eigvalsh(data.x_space.gram_raw)[::-1]
        kept, dropped = _whitening_cut(data.x_space)
        assert kept == pytest.approx(eig[2] / eig[0], rel=1e-9)
        assert dropped == eig[3] / eig[0]
        report = model.report
        assert (report["x_smallest_kept"], report["x_largest_dropped"]) == (kept, dropped)
        assert report["f_largest_dropped"] == 0.0 and model.x_space.gram_raw is None


class TestChristoffel:
    def test_at_center(self, three_point_data):
        assert kgo.christoffel(three_point_data.x_space, [1.0, 0.0]) == pytest.approx(3.0)

    def test_at_edge(self, three_point_data):
        assert kgo.christoffel(three_point_data.x_space, [1.0, 1.0]) == pytest.approx(1.2)

    def test_constant_space(self, three_point_sample):
        space = kgo.space_from_sample(three_point_sample, "x", kgo.BasisSpec("monomial", 0))
        assert kgo.christoffel(space, [1.0]) == pytest.approx(3.0)

    def test_zero_projection(self, three_point_data):
        with pytest.raises(NumericalError):
            kgo.christoffel(three_point_data.x_space, [0.0, 0.0])

    def test_far_field_inverse_square(self):
        sample, _ = grid_sample(41)
        spec = kgo.BasisSpec("monomial", 3)
        space = kgo.space_from_sample(sample, "x", spec)
        rng = np.random.default_rng(1)
        for _ in range(5):
            direction = rng.normal(size=4)
            k3 = kgo.christoffel(space, 1e3 * direction) * 1e3 ** 2
            k4 = kgo.christoffel(space, 1e4 * direction) * 1e4 ** 2
            assert abs(k3 / k4 - 1.0) < 0.01


class TestLocalizedState:
    def test_center_coords(self, three_point_data):
        state = kgo.localized_state(three_point_data.x_space, [1.0, 0.0])
        np.testing.assert_allclose(state.coords, [1.0, 0.0], atol=1e-12)
        values = kgo.state_values(state, three_point_data.x_points)
        np.testing.assert_allclose(values, np.full(3, 1.0 / np.sqrt(3.0)))

    def test_unit_norm(self, three_point_data):
        rng = np.random.default_rng(2)
        for _ in range(10):
            state = kgo.localized_state(three_point_data.x_space,
                                        rng.normal(size=2))
            assert np.linalg.norm(state.coords) == pytest.approx(1.0, abs=1e-12)

    def test_overlap(self, three_point_data):
        a = kgo.localized_state(three_point_data.x_space, [1.0, 1.0])
        b = kgo.localized_state(three_point_data.x_space, [1.0, 0.0])
        assert float(np.dot(a.coords, b.coords)) ** 2 == pytest.approx(0.4)

    def test_one_row_point(self, three_point_data):
        space = three_point_data.x_space
        row = np.array([[1.0, 0.5]])
        assert kgo.christoffel(space, row) == kgo.christoffel(space, row[0])
        assert (kgo.localized_state(space, row).coords.tobytes()
                == kgo.localized_state(space, row[0]).coords.tobytes())


class TestSpaceIdentities:
    def test_project_batch_matches_rows(self):
        rng = np.random.default_rng(11)
        space = feature_space(rng.normal(size=(40, 5)), np.ones(40))
        batch = rng.normal(size=(7, 5))
        projected = space.project(batch)
        assert projected.shape == (7, space.eff_dim)
        for row, coords in zip(batch, projected):
            assert space.project(row).tobytes() == coords.tobytes()
        assert space.project(batch.reshape(7, 1, 5)).tobytes() == projected.tobytes()
        with pytest.raises(DimensionError, match="point dimension 4 != raw dimension 5"):
            space.project(batch[:, :4])

    def test_orthonormal_trace(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 6))
        w = rng.uniform(0.2, 1.5, size=60)
        space = feature_space(pts, w)
        coords = pts @ space.transform.T
        total = float(np.sum(w * np.einsum("ij,ij->i", coords, coords)))
        assert total == pytest.approx(space.eff_dim, abs=1e-10)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        w = rng.uniform(0.5, 1.0, size=50)
        space = feature_space(pts, w)
        transform = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        gauged = feature_space(pts @ transform.T, w)
        probe = rng.normal(size=4)
        other = rng.normal(size=4)
        k0 = kgo.christoffel(space, probe)
        k1 = kgo.christoffel(gauged, transform @ probe)
        assert abs(k0 / k1 - 1.0) <= 1e-8
        s0 = kgo.localized_state(space, probe)
        t0 = kgo.localized_state(space, other)
        s1 = kgo.localized_state(gauged, transform @ probe)
        t1 = kgo.localized_state(gauged, transform @ other)
        o0 = float(np.dot(s0.coords, t0.coords)) ** 2
        o1 = float(np.dot(s1.coords, t1.coords)) ** 2
        assert o0 == pytest.approx(o1, abs=1e-8)

    def test_monomial_chebyshev_equal_rank(self):
        sample, _ = grid_sample(31)
        mono = kgo.space_from_sample(sample, "x", kgo.BasisSpec("monomial", 5))
        cheb = kgo.space_from_sample(
            sample, "x", kgo.BasisSpec("chebyshev", 5,
                                       scale=(np.array([-1.0]), np.array([1.0]))))
        assert mono.eff_dim == cheb.eff_dim


class TestLocalization:
    @pytest.mark.parametrize("n,max_steps", [(7, 3), (25, 1)])
    def test_peak_near_anchor(self, n, max_steps):
        # The squared localized state peaks near its anchor; at low dimension
        # the peak of the off-center anchor sits a couple of grid steps away.
        sample, grid = grid_sample(201)
        spec = kgo.BasisSpec("monomial", n - 1)
        space = kgo.space_from_sample(sample, "x", spec)
        design = kgo.design_matrix(spec, grid[:, None])
        step = grid[1] - grid[0]
        for y in (-0.6, 0.0, 0.4):
            state = kgo.localized_state(space, kgo.evaluate_basis(spec, [y]))
            peak = grid[np.argmax(kgo.state_values(state, design) ** 2)]
            assert abs(peak - y) <= max_steps * step + 1e-12


def rank_deficient(scale):
    """x = [1, t, t, t^2] repeats a column, so whitening keeps 3 of 4 attribute
    directions; [0, 1, -1, 0] spans the dropped one."""
    t = np.random.default_rng(0).uniform(-1.0, 1.0, 200)
    x = np.column_stack([np.ones(200), t, t, t * t])
    f = np.column_stack([np.ones(200), np.sin(2.0 * t)])
    data = kgo.prepare_points(x, f, np.full(200, scale))
    model, _ = kgo.fit_prepared(data, config=kgo.SolverConfig(algorithm="lsq-adj"))
    return data, model, kgo.fit_radon_nikodym(data)


_SPAN = "point has zero projection on the measure's span"
_ATTRIBUTE = "query point has zero projection on the attribute space"
# (query of (data, model, Radon-Nikodym model, point), message at a null point)
_QUERIES = {
    "christoffel": (lambda d, m, rn, p: kgo.christoffel(d.x_space, p), _SPAN),
    "localized_state": (lambda d, m, rn, p: kgo.localized_state(d.x_space, p), _SPAN),
    "most_probable": (lambda d, m, rn, p: kgo.most_probable(m, p), _ATTRIBUTE),
    "value": (lambda d, m, rn, p: kgo.value(m, p), _ATTRIBUTE),
    "probability": (lambda d, m, rn, p: kgo.probability(m, p, d.f_points[3]), _ATTRIBUTE),
    "predict": (lambda d, m, rn, p: kgo.predict(m, np.vstack([d.x_points[:2], p]), d.f_points[:3]),
                "query point of row 2 has zero projection on the attribute space"),
    "eval_radon_nikodym": (lambda d, m, rn, p: kgo.eval_radon_nikodym(rn, p), _SPAN),
}


class TestZeroProjectionRule:
    """One rule, |T p|^2 <= eps^2 ||T||_2^2 |p|^2, refuses a point for every query,
    and it reads the same at every weight scale."""

    @pytest.fixture(scope="class", params=[1e-30, 1.0, 1e30])
    def instance(self, request):
        return rank_deficient(request.param)

    @pytest.mark.parametrize("query", sorted(_QUERIES))
    def test_null_point_refused(self, instance, query):
        call, message = _QUERIES[query]
        with pytest.raises(NumericalError, match=f"^{message}$"):
            call(*instance, np.array([0.0, 1.0, -1.0, 0.0]))

    @pytest.mark.parametrize("query", sorted(_QUERIES))
    def test_underflowed_point_refused(self, instance, query):
        """A tiny multiple of a training row passes the scale-free rule on this floored side,
        but its |T p|^2 underflows to 0: refused as a null point, without a warning first."""
        call, message = _QUERIES[query]
        point = 1e-300 * instance[0].x_points[3]
        assert instance[0].x_space.zero_floor > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{message}$"):
                call(*instance, point)

    def test_underflowed_outcome_refused(self):
        """The same on a floored label side: a tiny outcome is refused by `probability`
        and by `predict`, which names its row."""
        t = np.random.default_rng(0).uniform(-1.0, 1.0, 200)
        s = np.sin(2.0 * t)
        data = kgo.prepare_points(np.column_stack([np.ones(200), t, t, t * t]),
                                  np.column_stack([np.ones(200), s, s]), np.ones(200))
        assert data.f_space.zero_floor > 0.0
        model, _ = kgo.fit_prepared(data, config=kgo.SolverConfig(algorithm="lsq-adj"))
        fs = data.f_points[:3].copy()
        fs[2] *= 1e-300
        message = "has zero projection on the label space"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^queried outcome {message}$"):
                kgo.probability(model, data.x_points[2], fs[2])
            with pytest.raises(NumericalError, match=f"^queried outcome of row 2 {message}$"):
                kgo.predict(model, data.x_points[:3], fs)

    @pytest.mark.parametrize("query", sorted(_QUERIES))
    def test_training_row_accepted(self, instance, query):
        call, _ = _QUERIES[query]
        call(*instance, instance[0].x_points[3])

    def test_training_row_probability_is_scale_free(self):
        values = [kgo.probability(model, data.x_points[3], data.f_points[3])
                  for data, model, _ in map(rank_deficient, (1e-30, 1.0, 1e30))]
        assert max(values) - min(values) <= 1e-12 * values[1]

    @pytest.mark.parametrize("scale", [1e-30, 1e20, 1e30])
    def test_christoffel_scales_with_the_weights(self, scale):
        sample, _ = grid_sample(201)
        spec = kgo.BasisSpec("monomial", 6)
        point = kgo.evaluate_basis(spec, [0.3])

        def at(s):
            scaled = kgo.Sample(sample.x_rows, sample.f_rows, sample.weights * s)
            return kgo.christoffel(kgo.space_from_sample(scaled, "x", spec), point)

        assert at(scale) == pytest.approx(scale * at(1.0), rel=1e-12)

    def test_full_rank_floor_is_zero(self, three_point_data):
        """Whitening kept every direction, so only p = 0 projects to zero: no floor."""
        assert three_point_data.x_space.zero_floor == 0.0
        data = rank_deficient(1.0)[0]
        assert (data.x_space.eff_dim, data.x_space.raw_dim) == (3, 4)
        transform = data.x_space.transform
        assert data.x_space.zero_floor == pytest.approx(1e-28 * (transform ** 2).sum(axis=1).max())

    def test_huge_point_entries(self):
        """The rule scales p by its largest entry, so |p|^2 past the float range
        neither refuses nor passes a point by accident."""
        data = rank_deficient(1e30)[0]  # |T p|^2 stays in range where |p|^2 overflows
        space, row = data.x_space, data.x_points[3]
        with pytest.raises(NumericalError, match=f"^{_SPAN}$"):
            kgo.christoffel(space, [0.0, 1e160, -1e160, 0.0])
        huge = kgo.christoffel(space, 1e160 * row) * 1e160 * 1e160
        assert huge == pytest.approx(kgo.christoffel(space, row), rel=1e-12)

    @pytest.mark.parametrize("factor", [1.0, 1e160], ids=["in-bound", "past-bound"])
    def test_one_row_matches_batch(self, factor):
        """One row takes the overflow guard's unwarned path where |p|^2 is past its bound
        but |T p|^2 is in range, and either way gets the bits of the same row in a batch,
        its |T p|^2 as a Python float."""
        data = rank_deficient(1e30)[0]
        space, row = data.x_space, factor * data.x_points[3]
        assert (np.vdot(row, row) < space.square_bound) == (factor == 1.0)
        coords, norm2 = _projection(space, row, ("point", "refused"))
        batch = _projection(space, np.stack([data.x_points[0], row]), ("point", "refused"))
        assert type(norm2) is float and norm2 == batch[1][1]
        assert coords.tobytes() == batch[0][1].tobytes()


class TestHugeWeights:
    @pytest.mark.parametrize("data", ["chebyshev", "monomial", "points"])
    def test_weight_total_past_the_float_range_refused(self, data):
        # 300 weights of 1e307 add up past the float range: the first pass refuses
        # them by name before it reads a row, without a RuntimeWarning, whatever
        # the data; a Sample of them is still a valid sample.
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, size=(300, 2))
        f, w = x[:, :1] ** 2, np.full(300, 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = kgo.Sample(x, f, w)
            with pytest.raises(NumericalError, match="^sample weights add up past the float "
                                                     "range: rescale the sample weights$"):
                if data == "points":
                    kgo.prepare_points(x, f, w)
                else:
                    kgo.fit(sample, kgo.BasisSpec(data, 3), kgo.BasisSpec(data, 2))


class TestSubnormalWeights:
    @pytest.mark.parametrize("route", ["rule", "table", "rows"])
    @pytest.mark.parametrize("algorithm", ["polar-ascent", "lsq-adj"])
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    @pytest.mark.parametrize("scale", [1e-310, 1e-315, 1e-320])
    def test_fit_names_the_weights(self, monkeypatch, scale, kind, algorithm, route):
        # Subnormal weights put T_x^T T_x, T's squared row norms (the condition gate)
        # and the row norms past the float range: every kind's fit, on either route,
        # raises a gate's error that names the weights, with no RuntimeWarning first.
        if route != "rule":
            monkeypatch.setattr(kgo.tensors, "_moment_route", lambda data: route == "table")
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(3000, 2))
        f = np.sin(x[:, :1]) + 0.1 * rng.normal(size=(3000, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = kgo.Sample(x, f, np.full(3000, scale))
            with pytest.raises(NumericalError, match=r"^observation \d+ has .*: rescale the "
                                                     "sample weights$"):
                kgo.fit(sample, kgo.with_scale(kgo.BasisSpec("chebyshev", 6), x),
                        kgo.with_scale(kgo.BasisSpec("chebyshev", 3), f), kind=kind,
                        config=kgo.SolverConfig(algorithm=algorithm))

    @pytest.mark.parametrize("route", ["table", "rows"])
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_tensor_names_the_weights(self, monkeypatch, kind, route):
        # A tensor built on its own at subnormal weights: whitening puts the plain
        # values' sums past the float range on either route, and the pass raises
        # the gate that names the weights, as it does for S u, where it would
        # return inf; the other kinds' weight gates raise first.
        monkeypatch.setattr(kgo.tensors, "_moment_route", lambda data: route == "table")
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, size=(3000, 2))
        f = np.sin(x[:, :1]) + 0.1 * rng.normal(size=(3000, 1))
        sample = kgo.Sample(x, f, 1e-310 * rng.uniform(0.5, 1.5, size=3000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = kgo.prepare(sample, kgo.with_scale(kgo.BasisSpec("chebyshev", 6), x),
                               kgo.with_scale(kgo.BasisSpec("chebyshev", 3), f))
            with pytest.raises(NumericalError, match=r"^observation \d+ has .*: rescale the "
                                                     "sample weights$"):
                kgo.build_coverage_tensor(kind, data)


class TestPreparePoints:
    @pytest.mark.parametrize("x0, weights, message", [
        (1.0, np.r_[-0.5, np.ones(49)], "weights must be nonnegative"),
        (np.nan, np.ones(50), "sample contains non-finite values"),
        (1.0, np.zeros(50), "total weight must be positive"),
    ])
    def test_checks_rows_as_sample_does(self, x0, weights, message):
        x = np.column_stack([np.ones(50), np.random.default_rng(4).uniform(-1.0, 1.0, 50)])
        x[0, 0] = x0
        with pytest.raises(DataError, match=f"^{message}$"):
            kgo.prepare_points(x, x[:, :1].copy(), weights)

    def test_arrays_are_the_given_rows(self):
        x = np.array([[1.0, 0.5], [1.0, -0.25]])
        data = kgo.prepare_points(x.tolist(), [[1.0], [1.0]], (2.0, 3.0))
        assert data.x_rows.tobytes() == x.tobytes()
        assert data.f_rows.shape == (2, 1) and data.weights.tolist() == [2.0, 3.0]
