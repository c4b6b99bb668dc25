import numpy as np
import pytest

import kgo
from kgo.errors import DimensionError, NumericalError
from kgo.linalg import _ROW_BLOCK

from conftest import grid_sample


def x_gram(sample, spec):
    return kgo.gram_matrix(kgo.design_matrix(spec, sample.x_rows), sample.weights)


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
        g = kgo.gram_matrix(points, weights)
        expect = (points.T * weights) @ points
        assert np.abs(g - expect).max() <= 1e-12 * np.abs(expect).max()
        assert g.tobytes() == kgo.gram_matrix(points, weights).tobytes()


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
        g = kgo.gram_matrix(pts, np.ones(40))
        t = kgo.regularize(g)
        np.testing.assert_allclose(t @ g @ t.T, np.eye(t.shape[0]), atol=1e-10)

    def test_constant_reconstruction(self, three_point_data):
        space = three_point_data.x_space
        gamma = space.transform @ space.gram_raw @ space.const_raw
        back = space.transform.T @ gamma
        err = back - space.const_raw
        rel = np.sqrt(err @ space.gram_raw @ err / (space.const_raw @ space.gram_raw @ space.const_raw))
        assert rel <= 1e-8


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


class TestCoverageOfState:
    def test_constant_state(self, three_point_data, three_point_sample):
        state = kgo.localized_state(three_point_data.x_space, [1.0, 0.0])
        cov = kgo.coverage_of_state(three_point_data.x_points,
                                    three_point_sample.weights,
                                    three_point_data.x_space, state)
        assert cov == pytest.approx(1.8)

    def test_single_point(self):
        s = kgo.Sample([[0.5]], [[0.5]], [1.0])
        space = kgo.space_from_sample(s, "x", kgo.BasisSpec("monomial", 1))
        pts = kgo.design_matrix(kgo.BasisSpec("monomial", 1), s.x_rows)
        state = kgo.localized_state(space, pts[0])
        assert kgo.coverage_of_state(pts, s.weights, space, state) == pytest.approx(1.0)

    def test_linear_in_weights(self, three_point_data, three_point_sample):
        state = kgo.localized_state(three_point_data.x_space, [1.0, 0.5])
        base = kgo.coverage_of_state(three_point_data.x_points,
                                     three_point_sample.weights,
                                     three_point_data.x_space, state)
        scaled = kgo.coverage_of_state(three_point_data.x_points,
                                       3.0 * three_point_sample.weights,
                                       three_point_data.x_space, state)
        assert scaled == pytest.approx(3.0 * base)

    def test_zero_projection_names_row(self, three_point_data, three_point_sample):
        state = kgo.localized_state(three_point_data.x_space, [1.0, 0.5])
        points = three_point_data.x_points.copy()
        points[2] = 0.0
        with pytest.raises(NumericalError, match="sample point of row 2 has zero projection"):
            kgo.coverage_of_state(points, three_point_sample.weights,
                                  three_point_data.x_space, state)


class TestSpaceIdentities:
    def test_project_batch_matches_rows(self):
        rng = np.random.default_rng(11)
        space = kgo.build_space(rng.normal(size=(40, 5)), np.ones(40))
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
        space = kgo.build_space(pts, w)
        coords = pts @ space.transform.T
        total = float(np.sum(w * np.einsum("ij,ij->i", coords, coords)))
        assert total == pytest.approx(space.eff_dim, abs=1e-10)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        w = rng.uniform(0.5, 1.0, size=50)
        space = kgo.build_space(pts, w)
        transform = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        gauged = kgo.build_space(pts @ transform.T, w)
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
