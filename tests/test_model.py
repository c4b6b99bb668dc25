import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kgo
from kgo.errors import DataError, DimensionError, NumericalError
from kgo.model import scalar_value_roots

from conftest import make_random_instance, random_partially_unitary


@pytest.fixture
def identity_model(three_point_sample, line_spec):
    cfg = kgo.SolverConfig(algorithm="lsq-adj")
    model, _ = kgo.fit(three_point_sample, line_spec, line_spec,
                       kind=kgo.TensorKind.CHRISTOFFEL_PRODUCT, config=cfg)
    return model


class TestCoverage:
    def test_zero_channel(self, three_point_data):
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                           three_point_data)
        assert tensor.quadratic_form(np.zeros((2, 2))) == 0.0

    def test_exact_channel(self, identity_model, three_point_data):
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                           three_point_data)
        assert tensor.quadratic_form(identity_model.operator.u) == pytest.approx(3.0)

    def test_sign_invariance(self, three_point_data):
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL,
                                           three_point_data)
        rng = np.random.default_rng(0)
        u = rng.normal(size=(2, 2))
        assert tensor.quadratic_form(u) == tensor.quadratic_form(-u)

    def test_dimension_mismatch(self, three_point_data):
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL,
                                           three_point_data)
        with pytest.raises(DimensionError):
            tensor.quadratic_form(np.zeros((3, 2)))


class TestProbability:
    def test_matching_states(self, identity_model):
        assert kgo.probability(identity_model, [0.0], [0.0]) == pytest.approx(1.0)

    def test_off_sample_overlap(self, identity_model):
        assert kgo.probability(identity_model, [0.0], [1.0]) == pytest.approx(0.4)

    def test_query_scale_invariance(self, identity_model):
        base = kgo.probability(identity_model, [0.5], [0.7])
        # The outcome enters through its feature ray only; rescaling the
        # feature vector of the query must not change the probability.
        feats = kgo.evaluate_basis(identity_model.f_spec, [0.7])
        x_feats = kgo.evaluate_basis(identity_model.x_spec, [0.5])
        direct = replace(identity_model, x_spec=None, f_spec=None)
        for c in (2.0, -3.0):
            assert kgo.probability(direct, x_feats, c * feats) == pytest.approx(base)

    def test_zero_outcome_rejected(self, identity_model):
        direct = replace(identity_model, x_spec=None, f_spec=None)
        with pytest.raises(NumericalError):
            kgo.probability(direct, [1.0, 0.5], [0.0, 0.0])

    def test_bounds_adjusted_and_unadjusted(self, three_point_data):
        rng = np.random.default_rng(1)
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit_prepared(three_point_data,
                                    kgo.TensorKind.F_CHRISTOFFEL, cfg)
        queries = rng.normal(size=(40, 2))
        x_dim = three_point_data.x_space.raw_dim
        f_dim = three_point_data.f_space.raw_dim
        for q in queries:
            p = kgo.probability(model, [1.0, q[0]][:x_dim], [1.0, q[1]][:f_dim])
            assert -1e-9 <= p <= 1.0 + 1e-9
        # An unadjusted channel bounds probabilities by its top squared
        # singular value instead of one.
        u_any = rng.normal(size=(2, 2))
        sigma_max = np.linalg.svd(u_any, compute_uv=False)[0]
        loose = replace(model, operator=replace(model.operator, u=u_any))
        for q in queries:
            p = kgo.probability(loose, [1.0, q[0]][:x_dim], [1.0, q[1]][:f_dim])
            assert -1e-9 <= p <= sigma_max ** 2 + 1e-9


class TestMostProbable:
    def test_center(self, identity_model):
        pred = kgo.most_probable(identity_model, [0.0])
        assert pred.certainty == pytest.approx(1.0)
        val, pole = kgo.value(identity_model, [0.0])
        assert not pole
        assert val[1] == pytest.approx(0.0, abs=1e-12)

    def test_edge(self, identity_model):
        val, _ = kgo.value(identity_model, [1.0])
        assert val[1] == pytest.approx(1.0)
        assert kgo.most_probable(identity_model, [1.0]).certainty == pytest.approx(1.0)

    def test_probability_at_peak_equals_certainty(self, identity_model):
        for x in (-0.8, 0.1, 0.6):
            pred = kgo.most_probable(identity_model, [x])
            p = kgo.probability(identity_model, [x],
                                kgo.value(identity_model, [x])[0][1:2])
            assert p == pytest.approx(pred.certainty, abs=1e-10)

    def test_grid_oracle(self):
        grid = np.linspace(-1.0, 1.0, 41)
        sample = kgo.Sample(grid[:, None], grid[:, None], np.ones(41))
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit(sample, kgo.BasisSpec("monomial", 4),
                           kgo.BasisSpec("monomial", 2), config=cfg)
        f_grid = np.linspace(-2.0, 2.0, 401)
        for x in (-0.5, 0.2, 0.9):
            probs = [kgo.probability(model, [x], [f]) for f in f_grid]
            best = f_grid[int(np.argmax(probs))]
            val, _ = kgo.value(model, [x])
            assert abs(best - val[1]) <= (f_grid[1] - f_grid[0]) + 1e-12

    def test_root_search_agrees(self):
        grid = np.linspace(-1.0, 1.0, 41)
        sample = kgo.Sample(grid[:, None], grid[:, None], np.ones(41))
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit(sample, kgo.BasisSpec("monomial", 4),
                           kgo.BasisSpec("monomial", 2), config=cfg)
        for x in (-0.5, 0.2, 0.9):
            val, _ = kgo.value(model, [x])
            assert scalar_value_roots(model, [x]) == pytest.approx(val[1], abs=1e-9)


class TestValue:
    def test_exact_channel_midpoint(self, identity_model):
        val, pole = kgo.value(identity_model, [0.5])
        assert not pole
        assert val[1] == pytest.approx(0.5, abs=1e-9)

    def test_engineered_pole(self, identity_model):
        # Zeroing the row that feeds the constant component forces the
        # const-normalization denominator to vanish.
        u = identity_model.operator.u.copy()
        u[0, :] = 0.0
        broken = replace(identity_model,
                         operator=replace(identity_model.operator, u=u))
        pred = kgo.most_probable(broken, [0.5])
        assert pred.pole_flag

    def test_least_squares_adjusted_reproduces_least_squares(self, three_point_data):
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit_prepared(three_point_data,
                                    kgo.TensorKind.F_CHRISTOFFEL, cfg)
        lsq = kgo.fit_least_squares(three_point_data)
        for x in (-1.0, -0.25, 0.5, 1.0):
            point = [1.0, x]
            val, _ = kgo.value(model, point)
            expect = kgo.eval_least_squares(lsq, point)
            np.testing.assert_allclose(val, expect / expect[0], atol=1e-9)


class TestAdjustedProbability:
    @pytest.mark.parametrize("mode", ["important-only", "dof-adjusted", "svd-basis"])
    def test_exact_channel_saturates(self, identity_model, three_point_sample, mode):
        for x_row, f_row in zip(three_point_sample.x_rows, three_point_sample.f_rows):
            p = kgo.adjusted_probability(identity_model, x_row, f_row, mode)
            assert p == pytest.approx(1.0, abs=1e-9)

    def test_svd_basis_equals_probability_for_square_channel(self, identity_model):
        for x, f in ((0.3, 0.8), (-0.7, 0.1), (0.0, 1.0)):
            assert kgo.adjusted_probability(identity_model, [x], [f], "svd-basis") == \
                pytest.approx(kgo.probability(identity_model, [x], [f]), abs=1e-12)

    @pytest.mark.parametrize("mode", ["important-only", "svd-basis"])
    def test_unit_interval(self, mode):
        rng = np.random.default_rng(2)
        data = make_random_instance(rng, max_obs=60)
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL, cfg)
        for _ in range(20):
            x = np.concatenate([[1.0], rng.normal(size=data.x_space.raw_dim - 1)])
            f = np.concatenate([[1.0], rng.normal(size=data.f_space.raw_dim - 1)])
            p = kgo.adjusted_probability(model, x, f, mode)
            assert -1e-9 <= p <= 1.0 + 1e-9

    def test_homogeneous_in_outcome(self, identity_model):
        feats = kgo.evaluate_basis(identity_model.f_spec, [0.4])
        x_feats = kgo.evaluate_basis(identity_model.x_spec, [0.2])
        direct = replace(identity_model, x_spec=None, f_spec=None)
        for mode in ("important-only", "dof-adjusted", "svd-basis"):
            base = kgo.adjusted_probability(direct, x_feats, feats, mode)
            for c in (2.0, -3.0):
                assert kgo.adjusted_probability(direct, x_feats, c * feats, mode) == \
                    pytest.approx(base, abs=1e-12)

    def test_unknown_mode(self, identity_model):
        with pytest.raises(DimensionError):
            kgo.adjusted_probability(identity_model, [0.0], [0.0], "bogus")

    def test_vanishing_normalizers(self, identity_model):
        direct = replace(identity_model, x_spec=None, f_spec=None)
        x, f = np.array([1.0, 0.2]), np.array([1.0, 0.4])
        with pytest.raises(NumericalError,
                           match="^queried outcome has zero projection on the label space$"):
            kgo.adjusted_probability(direct, x, np.zeros(2), "important-only")
        zero = replace(direct, operator=replace(direct.operator, u=np.zeros((2, 2))),
                       x_label_projection=np.zeros((2, 2)))
        for mode in ("important-only", "dof-adjusted", "svd-basis"):
            with pytest.raises(NumericalError, match=f"^{mode} normalizer vanishes at this query$"):
                kgo.adjusted_probability(zero, x, f, mode)

    def test_svd_basis_factors_computed_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        data = make_random_instance(rng, max_obs=60)
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL, cfg)
        queries = list(zip(data.x_points[:5], data.f_points[:5]))

        def by_hand(x, f):
            # The svd-basis probability with the factors taken per query.
            left, sigma, right_t = np.linalg.svd(model.channel, full_matrices=False)
            d = model.operator.d
            fb = (left.T @ model.f_space.project(f))[:d]
            xb = (right_t @ model.x_space.project(x))[:d]
            weighted = xb * sigma[:d]
            return float(np.dot(fb, weighted) ** 2) / (float(fb @ fb) * float(weighted @ weighted))

        expect = [by_hand(x, f) for x, f in queries]
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        fresh = replace(model)  # no cached factors yet
        got = [kgo.adjusted_probability(fresh, x, f, "svd-basis") for x, f in queries]
        assert len(calls) == 1
        np.testing.assert_allclose(got, expect, rtol=1e-12)


class TestMapOperator:
    def test_identity_channel(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        a = a + a.T
        np.testing.assert_array_equal(kgo.map_operator(np.eye(3), a), a)

    def test_pure_state_stays_pure(self):
        rng = np.random.default_rng(4)
        u = random_partially_unitary(rng, 2, 4)
        psi = rng.normal(size=4)
        rho = np.outer(psi, psi)
        out = kgo.map_operator(u, rho)
        assert np.linalg.matrix_rank(out, tol=1e-10) == 1
        eigs = np.linalg.eigvalsh(out)
        assert eigs[0] >= -1e-10

    def test_psd_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = random_partially_unitary(rng, 2, 5)
            z = rng.normal(size=(5, 5))
            a = z @ z.T
            eigs = np.linalg.eigvalsh(kgo.map_operator(u, a))
            assert eigs[0] >= -1e-10 * np.linalg.norm(a)

    def test_trace_preserved_only_when_square(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 3))
        a = a @ a.T
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert np.trace(kgo.map_operator(q, a)) == pytest.approx(np.trace(a))
        u = random_partially_unitary(rng, 2, 3)
        assert abs(np.trace(kgo.map_operator(u, a)) - np.trace(a)) > 1e-6


class TestSerialization:
    def test_round_trip(self, identity_model):
        blob = kgo.serialize_model(identity_model)
        back = kgo.deserialize_model(blob)
        np.testing.assert_array_equal(back.operator.u, identity_model.operator.u)
        np.testing.assert_array_equal(back.x_space.transform,
                                      identity_model.x_space.transform)
        np.testing.assert_array_equal(back.f_space.gram_raw,
                                      identity_model.f_space.gram_raw)
        assert back.tensor_kind == identity_model.tensor_kind
        assert back.x_spec == replace(identity_model.x_spec)

    def test_truncated_payload(self, identity_model):
        blob = kgo.serialize_model(identity_model)
        with pytest.raises(DataError):
            kgo.deserialize_model(blob[: len(blob) // 2])

    def test_version_check(self, identity_model):
        blob = kgo.serialize_model(identity_model).replace(
            b'"format_version": 1', b'"format_version": 99')
        with pytest.raises(DataError):
            kgo.deserialize_model(blob)

    def test_coverage_recomputes_after_reload(self, three_point_sample, line_spec):
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit(three_point_sample, line_spec, line_spec,
                           kind=kgo.TensorKind.CHRISTOFFEL_PRODUCT, config=cfg)
        back = kgo.deserialize_model(kgo.serialize_model(model))
        data = kgo.prepare(three_point_sample, back.x_spec, back.f_spec)
        tensor = kgo.build_coverage_tensor(back.tensor_kind, data)
        assert tensor.quadratic_form(back.operator.u) == pytest.approx(
            back.report["f"], abs=1e-12)


# A model.json written by format version 1: a Chebyshev subspace fit with
# source columns, argument scales, a label embedding and an adjusted normalizer.
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"


def edited_model_v1(path, edit):
    """The committed payload with `edit` applied to the record at `path`."""
    payload = json.loads(MODEL_V1.read_bytes())
    record = payload
    for key in path:
        record = record[key]
    edit(record)
    return json.dumps(payload).encode("utf-8")


class TestModelFormat:
    def test_committed_model_round_trips(self):
        blob = MODEL_V1.read_bytes()
        model = kgo.deserialize_model(blob)
        assert model.x_spec.source == (0, 1) and model.x_spec.scale is not None
        assert model.f_embed is not None and model.x_label_projection is not None
        assert kgo.serialize_model(model) == blob

    @pytest.mark.parametrize("path, key", [
        ((), "report"), (("x_spec",), "source"), (("f_spec",), "scale"),
        (("x_space",), "const_coords"), (("operator",), "f_value")])
    def test_missing_key(self, path, key):
        with pytest.raises(DataError):
            kgo.deserialize_model(edited_model_v1(path, lambda record: record.pop(key)))

    @pytest.mark.parametrize("path", [(), ("x_spec",), ("f_space",), ("operator",)])
    def test_unknown_key(self, path):
        with pytest.raises(DataError):
            kgo.deserialize_model(edited_model_v1(
                path, lambda record: record.update(unknown=1)))

    @pytest.mark.parametrize("path, key", [((), "x_space"), (("operator",), "u")])
    def test_null_required_field(self, path, key):
        with pytest.raises(DataError):
            kgo.deserialize_model(edited_model_v1(
                path, lambda record: record.update({key: None})))

    def test_payload_not_an_object(self):
        with pytest.raises(DataError):
            kgo.deserialize_model(b"[1]")


class TestFitPipeline:
    def test_rejects_oversized_label_space(self):
        rng = np.random.default_rng(7)
        x = np.column_stack([np.ones(20), rng.normal(size=20)])
        f = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        with pytest.raises(DimensionError):
            kgo.fit_prepared(kgo.prepare_points(x, f, np.ones(20)))

    def test_subspace_fit_evaluates_within_subspace(self):
        rng = np.random.default_rng(8)
        x = np.column_stack([np.ones(80), rng.normal(size=(80, 4))])
        f = np.column_stack([np.ones(80), x[:, 1] + 0.1 * rng.normal(size=80),
                             x[:, 2] + 0.1 * rng.normal(size=80)])
        data = kgo.prepare_points(x, f, np.ones(80))
        m_eff = data.f_orth.shape[1]
        cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=20)
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                    cfg, d=m_eff - 1)
        assert model.operator.d == m_eff - 1
        assert model.f_embed is not None
        x = np.concatenate([[1.0], rng.normal(size=data.x_space.raw_dim - 1)])
        f = np.concatenate([[1.0], rng.normal(size=data.f_space.raw_dim - 1)])
        p = kgo.probability(model, x, f)
        assert np.isfinite(p) and p >= 0.0

    def test_single_observation_pipeline(self):
        sample = kgo.Sample([[0.5]], [[0.5]], [1.0])
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit(sample, kgo.BasisSpec("monomial", 1),
                           kgo.BasisSpec("monomial", 1), config=cfg)
        assert model.x_space.eff_dim == 1
        assert model.report["f"] == pytest.approx(1.0)
        assert kgo.probability(model, [0.5], [0.5]) == pytest.approx(1.0)

    @pytest.mark.parametrize("t", [0.5, 1e4, -1e4, 1e200, -1e200])
    def test_zero_weight_row_changes_nothing(self, t):
        # The row sits before a row-block boundary, outside the data range
        # for |t| > 1, and makes the label side overflow at 1e200.
        rng = np.random.default_rng(12)
        size = kgo.linalg._ROW_BLOCK + 100
        x = rng.uniform(-1.0, 1.0, size=(size, 2))
        f = np.sin(np.pi * x[:, :1]) + 0.1 * rng.normal(size=(size, 1))
        w = rng.uniform(0.5, 1.5, size=size)
        specs = kgo.BasisSpec("chebyshev", 4), kgo.BasisSpec("chebyshev", 2)
        cfg = kgo.SolverConfig(max_iterations=20, init_with_least_squares=True)
        model, _ = kgo.fit(kgo.Sample(x, f, w), *specs, config=cfg)
        with_row = kgo.Sample(np.insert(x, 1000, [t, -t], axis=0),
                              np.insert(f, 1000, [t], axis=0), np.insert(w, 1000, 0.0))
        padded, _ = kgo.fit(with_row, *specs, config=cfg)
        assert kgo.serialize_model(padded) == kgo.serialize_model(model)

    def test_report_fields(self, identity_model):
        for key in ("f", "f_tot", "f_jdg", "residual", "algorithm", "iterations",
                    "stationarity", "stop_reason"):
            assert key in identity_model.report
        report = identity_model.report
        assert (report["x_raw_dim"], report["x_eff_dim"]) == (2, 2)
        assert (report["f_raw_dim"], report["f_eff_dim"]) == (2, 2)

    def test_report_counts_dropped_directions(self):
        # An order-8 monomial basis over [0, 1000] is so badly scaled that
        # whitening keeps only a few of its nine directions.
        grid = np.linspace(0.0, 1000.0, 101)
        sample = kgo.Sample(grid[:, None], grid[:, None] / 1000.0, np.ones(101))
        model, _ = kgo.fit(sample, kgo.BasisSpec("monomial", 8), kgo.BasisSpec("monomial", 1),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        assert model.report["x_raw_dim"] == 9
        assert model.report["x_eff_dim"] == model.x_space.eff_dim < 9
        assert model.report["f_eff_dim"] == model.report["f_raw_dim"] == 2

    def test_adjusted_projection_computed_once(self, monkeypatch):
        import kgo.model
        calls = []
        real = kgo.model.label_matched_projection

        def counted(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(kgo.model, "label_matched_projection", counted)
        grid = np.linspace(-1.0, 1.0, 41)
        sample = kgo.Sample(grid[:, None], np.sin(2.0 * grid)[:, None], np.ones(41))
        model, _ = kgo.fit(sample, kgo.BasisSpec("monomial", 4), kgo.BasisSpec("monomial", 2),
                           kind=kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        assert len(calls) == 1
        np.testing.assert_array_equal(model.x_label_projection, real(calls[0]))


class TestGaugeInvariance:
    def test_model_level(self):
        rng = np.random.default_rng(9)
        m_obs = 120
        x = np.column_stack([np.ones(m_obs), rng.normal(size=(m_obs, 3))])
        f = np.column_stack([np.ones(m_obs),
                             x[:, 1] + 0.5 * x[:, 2] + 0.1 * rng.normal(size=m_obs)])
        w = rng.uniform(0.5, 1.5, size=m_obs)
        ax = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        af = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        d0 = kgo.prepare_points(x, f, w)
        d1 = kgo.prepare_points(x @ ax.T, f @ af.T, w,
                                np.linalg.solve(ax.T, np.eye(4)[0]),
                                np.linalg.solve(af.T, np.eye(2)[0]))
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        m0, _ = kgo.fit_prepared(d0, kgo.TensorKind.F_CHRISTOFFEL, cfg)
        m1, _ = kgo.fit_prepared(d1, kgo.TensorKind.F_CHRISTOFFEL, cfg)
        assert m0.report["f"] == pytest.approx(m1.report["f"], abs=1e-7)
        assert m0.report["f_jdg"] == pytest.approx(m1.report["f_jdg"], abs=1e-7)
        assert m0.report["f_tot"] == pytest.approx(m1.report["f_tot"], abs=1e-7)
        xq, fq = x[11], f[11]
        assert kgo.probability(m0, xq, fq) == pytest.approx(
            kgo.probability(m1, ax @ xq, af @ fq), abs=1e-7)
        v0, _ = kgo.value(m0, xq)
        v1, _ = kgo.value(m1, ax @ xq)
        np.testing.assert_allclose(np.linalg.solve(af, v1), v0, atol=1e-7)


class TestDegenerateCoupling:
    def test_fit_survives_and_dof_mode_reports(self):
        # Labels orthogonal to the attributes: fitting still works (the
        # adjusted normalizer is simply unavailable), and the dof-adjusted
        # probability mode reports the failure instead of dividing by a
        # singular matrix.
        x = np.column_stack([np.ones(4), [-1.0, -1.0, 1.0, 1.0]])
        f = np.column_stack([np.ones(4), [1.0, -1.0, -1.0, 1.0]])
        data = kgo.prepare_points(x, f, np.ones(4))
        # The least-squares channel is rank deficient here (one label
        # direction has no attribute coupling), so use an eigenstate path.
        cfg = kgo.SolverConfig(algorithm="maxev-svd-adj")
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL, cfg)
        assert model.x_label_projection is None
        assert kgo.probability(model, x[0], f[0]) >= 0.0
        with pytest.raises(NumericalError):
            kgo.adjusted_probability(model, x[0], f[0], "dof-adjusted")


def _single_rows(model, xs, fs):
    """The per-row answers that predict must reproduce."""
    out = {"f_max_p": [], "value": [], "certainty": [], "pole": [], "probability": []}
    for x, f in zip(xs, fs):
        pred = kgo.most_probable(model, x)
        val, pole = kgo.value(model, x)
        assert pole == pred.pole_flag
        out["f_max_p"].append(pred.f_max_p)
        out["value"].append(val)
        out["certainty"].append(pred.certainty)
        out["pole"].append(pole)
        out["probability"].append(kgo.probability(model, x, f))
    return {key: np.array(rows) for key, rows in out.items()}


def _assert_predict_matches_rows(model, xs, fs):
    batch = kgo.predict(model, xs, fs)
    rows = _single_rows(model, xs, fs)
    assert set(batch) == set(rows)
    np.testing.assert_array_equal(batch["pole"], rows["pole"])
    for key in ("f_max_p", "value", "certainty", "probability"):
        assert batch[key].shape == rows[key].shape
        np.testing.assert_allclose(batch[key], rows[key], rtol=1e-12, atol=0.0)
    return batch


def _line_sample(m=61):
    grid = np.linspace(-1.0, 1.0, m)
    labels = np.sin(2.0 * grid) + 0.1 * np.cos(7.0 * grid)
    return kgo.Sample(grid[:, None], labels[:, None], np.linspace(0.5, 1.5, m))


_QUERY_X = np.linspace(-1.2, 1.2, 13)[:, None]
_QUERY_F = np.linspace(-0.9, 1.1, 13)[:, None]


class TestPredict:
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_matches_single_rows_each_kind(self, kind):
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("chebyshev", 5),
                           kgo.BasisSpec("monomial", 2), kind=kind,
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        _assert_predict_matches_rows(model, _QUERY_X, _QUERY_F)

    def test_contributing_subspace_model(self):
        rng = np.random.default_rng(8)
        x = np.column_stack([np.ones(80), rng.normal(size=(80, 4))])
        f = np.column_stack([np.ones(80), x[:, 1] + 0.1 * rng.normal(size=80),
                             x[:, 2] + 0.1 * rng.normal(size=80)])
        data = kgo.prepare_points(x, f, np.ones(80))
        cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=20)
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.CHRISTOFFEL_PRODUCT, cfg,
                                    d=data.f_orth.shape[1] - 1)
        assert model.f_embed is not None
        # A spec-less model takes feature rows as they are.
        _assert_predict_matches_rows(model, x[:15], f[:15])

    def test_spec_less_model(self):
        rng = np.random.default_rng(3)
        data = make_random_instance(rng, max_obs=80)
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL,
                                    kgo.SolverConfig(algorithm="lsq-adj"))
        xs = np.column_stack([np.ones(10), rng.normal(size=(10, data.x_space.raw_dim - 1))])
        fs = np.column_stack([np.ones(10), rng.normal(size=(10, data.f_space.raw_dim - 1))])
        _assert_predict_matches_rows(model, xs, fs[:, :data.f_space.raw_dim])

    def test_plain_value_certainty_clip(self):
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("monomial", 4),
                           kgo.BasisSpec("monomial", 2), kind=kgo.TensorKind.PLAIN_VALUE,
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        # Doubling the channel pushes most certainties above one, so the
        # clip decides those reported values.
        loose = replace(model, operator=replace(model.operator, u=2.0 * model.operator.u))
        batch = _assert_predict_matches_rows(loose, _QUERY_X, _QUERY_F)
        raw = kgo.predict(replace(loose, tensor_kind=kgo.TensorKind.F_CHRISTOFFEL),
                          _QUERY_X)["certainty"]
        assert np.count_nonzero(raw > 1.0) >= 5
        np.testing.assert_array_equal(batch["certainty"], np.minimum(raw, 1.0))

    def test_engineered_pole(self, identity_model):
        u = identity_model.operator.u.copy()
        u[0, :] = 0.0
        broken = replace(identity_model, operator=replace(identity_model.operator, u=u))
        xs = np.array([[0.5], [-0.25], [1.0]])
        batch = _assert_predict_matches_rows(broken, xs, xs)
        assert batch["pole"].all()
        assert np.all(np.isinf(batch["value"]))

    def test_round_tripped_model(self):
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("chebyshev", 6),
                           kgo.BasisSpec("chebyshev", 2),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        back = kgo.deserialize_model(kgo.serialize_model(model))
        batch = _assert_predict_matches_rows(back, _QUERY_X, _QUERY_F)
        for key, values in kgo.predict(model, _QUERY_X, _QUERY_F).items():
            np.testing.assert_array_equal(batch[key], values)

    def test_without_outcomes_omits_probability(self, identity_model):
        batch = kgo.predict(identity_model, _QUERY_X)
        assert set(batch) == {"f_max_p", "value", "certainty", "pole"}
        assert batch["f_max_p"].shape == (13, 2)
        assert batch["certainty"].shape == batch["pole"].shape == (13,)

    def test_one_dimensional_query_is_one_row(self, identity_model):
        batch = kgo.predict(identity_model, [0.5], [0.25])
        assert batch["value"].shape == (1, 2)
        assert batch["probability"][0] == kgo.probability(identity_model, [0.5], [0.25])

    def test_outcome_row_count_mismatch(self, identity_model):
        with pytest.raises(DimensionError):
            kgo.predict(identity_model, _QUERY_X, _QUERY_F[:-1])


class TestPredictErrors:
    """A batch fails with the error its offending row raises alone."""

    @pytest.fixture
    def direct(self, identity_model):
        return replace(identity_model, x_spec=None, f_spec=None)

    def test_wrong_attribute_width(self, direct):
        with pytest.raises(DimensionError):
            kgo.most_probable(direct, [1.0, 0.5, 0.0])
        with pytest.raises(DimensionError):
            kgo.predict(direct, np.ones((4, 3)))

    def test_wrong_outcome_width(self, direct):
        with pytest.raises(DimensionError):
            kgo.probability(direct, [1.0, 0.5], [1.0])
        with pytest.raises(DimensionError):
            kgo.predict(direct, np.ones((4, 2)), np.ones((4, 1)))

    def test_zero_attribute_projection_names_row(self, direct):
        with pytest.raises(NumericalError, match="query point"):
            kgo.value(direct, [0.0, 0.0])
        xs = np.array([[1.0, 0.1], [1.0, -0.3], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match="query point of row 2 "):
            kgo.predict(direct, xs)

    def test_zero_outcome_projection_names_row(self, direct):
        xs = np.array([[1.0, 0.1], [1.0, -0.3], [1.0, 0.2]])
        fs = np.array([[1.0, 0.4], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="queried outcome has"):
            kgo.probability(direct, xs[1], fs[1])
        with pytest.raises(NumericalError, match="queried outcome of row 1 "):
            kgo.predict(direct, xs, fs)

    def test_non_finite_basis(self):
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("monomial", 4),
                           kgo.BasisSpec("monomial", 2),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        huge = 1e100
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
            kgo.most_probable(model, [huge])
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
            kgo.predict(model, [[0.0], [huge]])
