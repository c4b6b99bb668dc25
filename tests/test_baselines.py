import numpy as np
import pytest

import kgo
from kgo.errors import NumericalError

from conftest import grid_sample


def square_wave_data():
    sample, _ = grid_sample(201, labels=lambda g: np.where(g >= 0, 1.0, -1.0))
    return kgo.prepare(sample, kgo.BasisSpec("monomial", 6), kgo.BasisSpec("monomial", 1))


def assert_rows_match(evaluate, model, points):
    """A batch gives, row by row, the bits of the one-point calls."""
    batch = evaluate(model, points)
    assert batch.shape[0] == points.shape[0]
    for point, row in zip(points, batch):
        assert evaluate(model, point).tobytes() == row.tobytes()


class TestLeastSquares:
    def test_identity_selection(self, three_point_data):
        lsq = kgo.fit_least_squares(three_point_data)
        np.testing.assert_allclose(lsq.beta, np.eye(2), atol=1e-12)

    def test_exact_affine_recovery(self, three_point_sample, line_spec):
        f = 2.0 + 3.0 * three_point_sample.x_rows
        x_design = kgo.design_matrix(line_spec, three_point_sample.x_rows)
        data = kgo.prepare_points(x_design, np.column_stack([np.ones(3), f]),
                                  three_point_sample.weights)
        fit = kgo.fit_least_squares(data)
        np.testing.assert_allclose(fit.beta[1], [2.0, 3.0], atol=1e-12)

    def test_odd_moment_cancellation(self, three_point_sample, line_spec):
        f = np.column_stack([np.ones(3), three_point_sample.x_rows[:, 0] ** 2 - 2.0 / 3.0])
        data = kgo.prepare_points(
            kgo.design_matrix(line_spec, three_point_sample.x_rows), f,
            three_point_sample.weights)
        lsq = kgo.fit_least_squares(data)
        assert lsq.beta[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_eval(self, three_point_data):
        lsq = kgo.fit_least_squares(three_point_data)
        np.testing.assert_allclose(kgo.eval_least_squares(lsq, [1.0, 1.0]),
                                   [1.0, 1.0], atol=1e-12)
        zero = kgo.LeastSquaresMap(beta=np.zeros((2, 2)))
        np.testing.assert_array_equal(kgo.eval_least_squares(zero, [1.0, 5.0]),
                                      [0.0, 0.0])

    def test_batch_matches_rows(self):
        data = square_wave_data()
        assert_rows_match(kgo.eval_least_squares, kgo.fit_least_squares(data), data.x_points)

    def test_exact_subspace_reproduction(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        f = x @ rng.normal(size=(4, 2))
        data = kgo.prepare_points(x, f, np.ones(30), f_const=None)
        lsq = kgo.fit_least_squares(data)
        resid = np.abs(f - x @ lsq.beta.T).max()
        assert resid <= 1e-9

    def test_unitarity_residual_detects_subspace(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        f = x[:, :2].copy()
        exact = kgo.prepare_points(x, f, np.ones(200))
        assert kgo.partial_unitarity_residual(exact) <= 1e-9
        augmented = np.column_stack([x, rng.uniform(-1.0, 1.0, size=200)])
        mixed = kgo.prepare_points(augmented, np.column_stack(
            [f[:, 0], augmented[:, 3] + 0.5 * rng.normal(size=200)]), np.ones(200))
        assert kgo.partial_unitarity_residual(mixed) > 0.01


class TestRadonNikodym:
    def test_identity_at_center(self, three_point_data):
        rn = kgo.fit_radon_nikodym(three_point_data,
                                   labels=three_point_data.f_points[:, 1:])
        assert kgo.eval_radon_nikodym(rn, [1.0, 0.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_label(self, three_point_data):
        rn = kgo.fit_radon_nikodym(three_point_data, labels=np.full((3, 1), 4.5))
        for point in ([1.0, 0.3], [1.0, -0.8], [1.0, 2.0]):
            assert kgo.eval_radon_nikodym(rn, point)[0] == pytest.approx(4.5)

    def test_square_wave_bounds(self):
        data = square_wave_data()
        rn = kgo.fit_radon_nikodym(data, labels=data.f_rows)
        vals = kgo.eval_radon_nikodym(rn, data.x_points)[:, 0]
        assert vals.min() >= -1.0 - 1e-9
        assert vals.max() <= 1.0 + 1e-9

    def test_tends_to_constant(self):
        sample, grid = grid_sample(41, labels=lambda g: g ** 2)
        spec = kgo.BasisSpec("monomial", 4)
        data = kgo.prepare(sample, spec, kgo.BasisSpec("monomial", 1))
        rn = kgo.fit_radon_nikodym(data, labels=sample.f_rows)
        v3 = kgo.eval_radon_nikodym(rn, kgo.evaluate_basis(spec, [1e3]))[0]
        v4 = kgo.eval_radon_nikodym(rn, kgo.evaluate_basis(spec, [1e4]))[0]
        assert abs(v3 / v4 - 1.0) < 0.01

    def test_zero_projection(self, three_point_data):
        rn = kgo.fit_radon_nikodym(three_point_data)
        with pytest.raises(NumericalError) as err:
            kgo.eval_radon_nikodym(rn, [0.0, 0.0])
        assert str(err.value) == "point has zero projection on the measure's span"

    def test_zero_projection_names_row(self, three_point_data):
        rn = kgo.fit_radon_nikodym(three_point_data)
        with pytest.raises(NumericalError) as err:
            kgo.eval_radon_nikodym(rn, [[1.0, 0.5], [0.0, 0.0]])
        assert str(err.value) == "point of row 1 has zero projection on the measure's span"

    def test_batch_matches_rows(self):
        data = square_wave_data()
        rn = kgo.fit_radon_nikodym(data, labels=data.f_rows)
        assert_rows_match(kgo.eval_radon_nikodym, rn, data.x_points)


class TestJointDistributionCoverage:
    def test_same_space_saturates(self, three_point_data):
        assert kgo.joint_distribution_coverage(three_point_data) == pytest.approx(3.0)

    def test_random_attribute_decreases(self):
        rng = np.random.default_rng(2)
        m_obs = 500
        base = np.column_stack([np.ones(m_obs), rng.normal(size=(m_obs, 2))])
        same = kgo.prepare_points(base, base, np.ones(m_obs))
        assert kgo.joint_distribution_coverage(same) == pytest.approx(m_obs, abs=1e-10)
        augmented = np.column_stack([base, rng.uniform(-1.0, 1.0, size=m_obs)])
        mixed = kgo.prepare_points(augmented, base, np.ones(m_obs))
        assert kgo.joint_distribution_coverage(mixed) < m_obs - 1e-3

    def test_single_observation(self):
        data = kgo.prepare_points([[1.0, 0.5]], [[1.0]], [0.7])
        assert kgo.joint_distribution_coverage(data) == pytest.approx(0.7)


class TestDirectProjection:
    def test_exact_subspace_certain(self, three_point_data):
        lsq = kgo.fit_least_squares(three_point_data)
        for i in range(3):
            p = kgo.direct_projection_probability(
                three_point_data, lsq,
                three_point_data.x_points[i], three_point_data.f_points[i])
            assert p == pytest.approx(1.0, abs=1e-10)

    def test_off_sample_overlap(self, three_point_data):
        lsq = kgo.fit_least_squares(three_point_data)
        p = kgo.direct_projection_probability(three_point_data, lsq,
                                              [1.0, 0.0], [1.0, 1.0])
        assert p == pytest.approx(0.4)

    def test_query_scale_invariance(self, three_point_data):
        lsq = kgo.fit_least_squares(three_point_data)
        base = kgo.direct_projection_probability(three_point_data, lsq,
                                                 [1.0, 0.5], [1.0, 1.0])
        for c in (2.0, -3.0):
            scaled = kgo.direct_projection_probability(
                three_point_data, lsq, [1.0, 0.5], [c * 1.0, c * 1.0])
            assert scaled == pytest.approx(base, abs=1e-12)
