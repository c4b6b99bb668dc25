import json
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kgo
from kgo.cli import main
from kgo.errors import DataError, DimensionError, NumericalError
from kgo.model import scalar_value_roots

from conftest import make_random_instance


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
        val, pole = kgo.value(broken, [0.5])
        assert pole and np.all(np.isinf(val))
        assert kgo.predict(broken, [0.5])["pole"].all()

    def test_least_squares_adjusted_reproduces_least_squares(self, three_point_data):
        cfg = kgo.SolverConfig(algorithm="lsq-adj")
        model, _ = kgo.fit_prepared(three_point_data,
                                    kgo.TensorKind.F_CHRISTOFFEL, cfg)
        beta = kgo.fit_least_squares(three_point_data)
        for x in (-1.0, -0.25, 0.5, 1.0):
            point = [1.0, x]
            val, _ = kgo.value(model, point)
            expect = kgo.eval_least_squares(beta, point)
            np.testing.assert_allclose(val, expect / expect[0], atol=1e-9)


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
            b'"format_version": 2', b'"format_version": 99')
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
        # Version 1 loads by one conversion, which drops the fields no query reads;
        # written again it is version 2, and that round-trips byte for byte.
        blob = MODEL_V1.read_bytes()
        model = kgo.deserialize_model(blob)
        assert model.x_spec.source == (0, 1) and model.x_spec.scale is not None
        assert model.f_embed is not None and model.x_space.gram_raw is None
        converted = kgo.serialize_model(model)
        assert kgo.serialize_model(kgo.deserialize_model(converted)) == converted
        old = json.loads(blob)
        del old["x_label_projection"], old["x_space"]["const_coords"]
        del old["f_space"]["const_coords"]
        old["x_space"]["gram_raw"] = None
        assert json.loads(converted) == {**old, "format_version": 2}

    def test_converted_model_answers_alike(self):
        v1 = kgo.deserialize_model(MODEL_V1.read_bytes())
        v2 = kgo.deserialize_model(kgo.serialize_model(v1))
        rng = np.random.default_rng(26)
        x, f = rng.uniform(-1.5, 2.5, size=(64, 2)), rng.uniform(-4.0, 3.5, size=(64, 1))
        old, new = kgo.predict(v1, x, f), kgo.predict(v2, x, f)
        assert set(old) == set(new)
        for key in old:
            assert old[key].tobytes() == new[key].tobytes(), key

    def test_label_gram_required(self, tmp_path, capsys):
        # The attribute side carries no Gram matrix; the label side must, for its label map.
        payload = json.loads(kgo.serialize_model(kgo.deserialize_model(MODEL_V1.read_bytes())))
        payload["f_space"]["gram_raw"] = None
        bad, query = tmp_path / "model.json", tmp_path / "q.csv"
        bad.write_text(json.dumps(payload))
        query.write_text("0.5,0.25\n")
        capsys.readouterr()
        assert main(["eval", "--model", str(bad), "--data", str(query), "--cols", "x=0-1",
                     "--out-prefix", str(tmp_path / "e_")]) == 3
        assert "corrupt model payload: f_space.gram_raw is null" in capsys.readouterr().err

    @pytest.mark.parametrize("path, key", [
        ((), "report"), (("x_spec",), "source"), (("f_spec",), "scale"),
        (("x_space",), "const_coords"), (("operator",), "f_value"), ((), "x_label_projection")])
    def test_missing_key(self, path, key):
        with pytest.raises(DataError):
            kgo.deserialize_model(edited_model_v1(path, lambda record: record.pop(key)))

    @pytest.mark.parametrize("path", [(), ("x_spec",), ("f_space",), ("operator",)])
    def test_unknown_key(self, path):
        with pytest.raises(DataError):
            kgo.deserialize_model(edited_model_v1(
                path, lambda record: record.update(unknown=1)))

    @pytest.mark.parametrize("path, key", [((), "x_space"), (("operator",), "u"),
                                           (("x_space",), "gram_raw")])
    def test_null_required_field(self, path, key):
        with pytest.raises(DataError):
            kgo.deserialize_model(edited_model_v1(
                path, lambda record: record.update({key: None})))

    @pytest.mark.parametrize("path, field", [
        (("x_spec", "scale", 1), "x_spec.scale"),
        (("f_space", "const_coords"), "f_space.const_coords")])
    def test_non_finite_array(self, path, field):
        # JSON decodes Infinity and NaN; a decoded array holding one is refused.
        blob = edited_model_v1(path, lambda values: values.__setitem__(0, float("inf")))
        with pytest.raises(DataError, match=rf"^corrupt model payload: {field} has non-finite"):
            kgo.deserialize_model(blob)

    @pytest.mark.parametrize("path, key, bad", [
        (("operator",), "residual", float("inf")), (("operator",), "f_value", float("nan")),
        (("report",), "f", float("nan")), (("report",), "f_jdg", float("-inf")),
        (("report",), "f_tot", float("inf")), (("report",), "residual", float("nan")),
        (("report",), "stationarity", float("inf"))],
        ids=["operator.residual", "operator.f_value", "report.f", "report.f_jdg",
             "report.f_tot", "report.residual", "report.stationarity"])
    def test_non_finite_scalar(self, path, key, bad):
        # Queries read none of these; a file carrying one is still refused, by name.
        blob = edited_model_v1(path, lambda record: record.update({key: bad}))
        field = ".".join(path + (key,))
        with pytest.raises(DataError, match=rf"^corrupt model payload: {field} has non-finite"):
            kgo.deserialize_model(blob)

    @pytest.mark.parametrize("report", [[], "report", 1.0, True],
                             ids=["list", "string", "number", "boolean"])
    def test_report_not_an_object(self, report):
        blob = edited_model_v1((), lambda record: record.update(report=report))
        with pytest.raises(DataError,
                           match="^corrupt model payload: report is not a JSON object$"):
            kgo.deserialize_model(blob)

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
        assert model.operator.u.shape[0] == m_eff - 1
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
                    "best_iteration", "stationarity", "stop_reason"):
            assert key in identity_model.report
        report = identity_model.report
        assert (report["x_raw_dim"], report["x_eff_dim"]) == (2, 2)
        assert (report["f_raw_dim"], report["f_eff_dim"]) == (2, 2)
        # Whitening dropped nothing: the cut is the smallest kept eigenvalue alone.
        for side in "xf":
            assert 0.0 < report[f"{side}_smallest_kept"] <= 1.0
            assert report[f"{side}_largest_dropped"] == 0.0

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("algorithm", kgo.ALGORITHMS)
    def test_report_reads_the_returned_channels_row(self, algorithm, warm):
        # best_iteration is the row of the returned channel: the first row
        # with the returned F, or the last for polar ascent, which never
        # lowers F. The reported stationarity is that row's: the certificate
        # of the returned channel, bit for bit. An lsq-adj fit sums S u, not
        # S, so its certificate is that product's residual, and the dense
        # tensor's agrees to rounding.
        data = make_random_instance(np.random.default_rng(21), max_obs=80)
        kind = kgo.TensorKind.F_CHRISTOFFEL
        config = kgo.SolverConfig(algorithm=algorithm, max_iterations=30,
                                  init_with_least_squares=warm)
        model, trace = kgo.fit_prepared(data, kind, config)
        report = model.report
        rows = [r for r in trace if r.f_after == report["f"]]
        row = rows[-1] if algorithm == "polar-ascent" else rows[0]
        assert report["best_iteration"] == row.iteration
        assert report["stationarity"] == row.stationarity
        assert report["f"] == max(r.f_after for r in trace)
        u = model.operator.u
        dense = kgo.stationarity_residual(u, kgo.build_coverage_tensor(kind, data))
        if algorithm != "lsq-adj":
            assert report["stationarity"] == dense
            return
        su = kgo.tensors._weighted_pass(data, kind, u).matrix
        raw = u @ su.T
        assert report["stationarity"] == kgo.solver._stationarity(u, su, 0.5 * (raw + raw.T))
        assert report["stationarity"] == pytest.approx(dense, rel=1e-12, abs=0.0)

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
        # The cut sits at the whitening threshold, 1e-12 of the top eigenvalue.
        assert model.report["x_largest_dropped"] <= 1e-12 < model.report["x_smallest_kept"]

    @pytest.mark.parametrize("algorithm", ["lsq-adj", None], ids=["lsq-adj", "default"])
    @pytest.mark.parametrize("kind", list(kgo.TensorKind), ids=lambda kind: kind.value)
    def test_fit_computes_no_projection(self, monkeypatch, kind, algorithm):
        # Nothing reads the label-matched projector, so a fit neither computes
        # nor stores it, for every kind (the adjusted one reads the coupling too)
        # and for the default solver as well as lsq-adj.
        calls = []
        real = kgo.label_matched_projection

        def counted(data):
            calls.append(data)
            return real(data)

        for name, module in list(sys.modules.items()):  # every binding of the name
            if name.split(".")[0] == "kgo" and hasattr(module, "label_matched_projection"):
                monkeypatch.setattr(module, "label_matched_projection", counted)
        grid = np.linspace(-1.0, 1.0, 41)
        sample = kgo.Sample(grid[:, None], np.sin(2.0 * grid)[:, None], np.ones(41))
        config = kgo.SolverConfig() if algorithm is None else kgo.SolverConfig(algorithm=algorithm)
        model, _ = kgo.fit(sample, kgo.BasisSpec("monomial", 4), kgo.BasisSpec("monomial", 2),
                           kind=kind, config=config)
        assert calls == []
        blob = kgo.serialize_model(model)
        assert b'"x_label_projection"' not in blob
        assert kgo.serialize_model(kgo.deserialize_model(blob)) == blob


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
    def test_fit_survives(self):
        # Labels orthogonal to the attributes: fitting still works, and the
        # probability is answered, though the coupling is singular.
        x = np.column_stack([np.ones(4), [-1.0, -1.0, 1.0, 1.0]])
        f = np.column_stack([np.ones(4), [1.0, -1.0, -1.0, 1.0]])
        data = kgo.prepare_points(x, f, np.ones(4))
        # The least-squares channel is rank deficient here (one label
        # direction has no attribute coupling), so use an eigenstate path.
        cfg = kgo.SolverConfig(algorithm="maxev-svd-adj")
        model, _ = kgo.fit_prepared(data, kgo.TensorKind.F_CHRISTOFFEL, cfg)
        assert kgo.probability(model, x[0], f[0]) >= 0.0


def _single_rows(model, xs, fs):
    """The per-row answers that predict must reproduce."""
    out = {"f_max_p": [], "value": [], "certainty": [], "pole": [], "probability": []}
    for x, f in zip(xs, fs):
        pred = kgo.most_probable(model, x)
        val, pole = kgo.value(model, x)
        out["f_max_p"].append(pred.f_max_p)
        out["value"].append(val)
        out["certainty"].append(pred.certainty)
        out["pole"].append(pole)
        out["probability"].append(kgo.probability(model, x, f))
    return {key: np.array(rows) for key, rows in out.items()}


def _assert_predict_matches_rows(model, xs, fs):
    """The batch against the per-row calls, and each one-row `predict` (a 1-D row,
    with and without its outcome) against its batch row: the same bits, shape (1, ...)."""
    batch = kgo.predict(model, xs, fs)
    rows = _single_rows(model, xs, fs)
    assert set(batch) == set(rows)
    np.testing.assert_array_equal(batch["pole"], rows["pole"])
    for key in ("f_max_p", "value", "certainty", "probability"):
        assert batch[key].shape == rows[key].shape
        assert batch[key].tobytes() == rows[key].tobytes(), key
    for i, (x, f) in enumerate(zip(xs, fs)):
        for one, keys in ((kgo.predict(model, x, f), set(batch)),
                          (kgo.predict(model, x), set(batch) - {"probability"})):
            assert set(one) == keys
            for key, answer in one.items():
                assert answer.shape == (1,) + batch[key].shape[1:], key
                assert answer.dtype == batch[key].dtype, key
                assert answer.tobytes() == batch[key][i:i + 1].tobytes(), key
    with pytest.raises(DimensionError, match="^2 outcome rows for 1 query rows$"):
        kgo.predict(model, xs[0], fs[:2])
    return batch


def _line_sample(m=61):
    grid = np.linspace(-1.0, 1.0, m)
    labels = np.sin(2.0 * grid) + 0.1 * np.cos(7.0 * grid)
    return kgo.Sample(grid[:, None], labels[:, None], np.linspace(0.5, 1.5, m))


_QUERY_X = np.linspace(-1.2, 1.2, 13)[:, None]
_QUERY_F = np.linspace(-0.9, 1.1, 13)[:, None]


def _kind_model(kind):
    """A Chebyshev-attribute, monomial-label model of each kind, with the shared query rows."""
    model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("chebyshev", 5),
                       kgo.BasisSpec("monomial", 2), kind=kind,
                       config=kgo.SolverConfig(algorithm="lsq-adj"))
    return model, _QUERY_X, _QUERY_F


def _dropped_directions_model():
    """The attribute whitening of `test_report_counts_dropped_directions` drops directions,
    so the attribute side's zero rule has a floor (`SpaceBasis.zero_floor` > 0)."""
    grid = np.linspace(0.0, 1000.0, 101)
    model, _ = kgo.fit(kgo.Sample(grid[:, None], grid[:, None] / 1000.0, np.ones(101)),
                       kgo.BasisSpec("monomial", 8), kgo.BasisSpec("monomial", 1),
                       config=kgo.SolverConfig(algorithm="lsq-adj"))
    assert model.x_space.zero_floor > 0.0
    xs = np.linspace(-150.0, 1050.0, 13)[:, None]
    return model, xs, xs / 1000.0


def _monomial_attribute_model():
    """A monomial attribute side, whose rows take numpy's power, not the float path."""
    model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("monomial", 5),
                       kgo.BasisSpec("chebyshev", 2),
                       config=kgo.SolverConfig(algorithm="lsq-adj"))
    return model, _QUERY_X, _QUERY_F


_PREDICT_MODELS = {**{kind.value: (lambda kind=kind: _kind_model(kind)) for kind in kgo.TensorKind},
                   "dropped-directions": _dropped_directions_model,
                   "monomial-attributes": _monomial_attribute_model}


class TestPredict:
    @pytest.mark.parametrize("name", list(_PREDICT_MODELS))
    def test_matches_single_rows_each_kind(self, name):
        """Each tensor kind, an attribute side with a zero-rule floor and a monomial one."""
        _assert_predict_matches_rows(*_PREDICT_MODELS[name]())

    @pytest.mark.parametrize("source", [(2, 0), (2, 1)], ids=["live", "zero-span"])
    def test_product_basis_model(self, source):
        """A 2-variable Chebyshev attribute side read from a source subset (with the
        zero-span column 1, or without it) against its one-row queries."""
        rng = np.random.default_rng(25)
        x = np.column_stack([rng.uniform(-1.0, 1.0, 300), np.full(300, 0.4),
                             rng.uniform(-1.0, 1.0, 300), rng.normal(size=300)])
        f = np.sin(2.0 * x[:, 0]) + x[:, 2] ** 2 + 0.05 * rng.normal(size=300)
        model, _ = kgo.fit(kgo.Sample(x, f[:, None], np.ones(300)),
                           kgo.BasisSpec("chebyshev", 4, source=source),
                           kgo.BasisSpec("chebyshev", 3),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        xs = rng.uniform(-1.3, 1.3, size=(15, 4))  # column 1 maps to t = 0 wherever it is
        fs = rng.uniform(-1.2, 1.2, size=(15, 1))
        _assert_predict_matches_rows(model, xs, fs)

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

    def test_overflowing_projection_names_row(self):
        """A row whose basis values are finite but whose |T p|^2 overflows is refused,
        not answered with certainty 0 and an infinite value, and without an overflow
        warning first."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, size=(3000, 2))
        f = np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1] / 2) + 0.1 * rng.standard_normal(3000)
        model, _ = kgo.fit(kgo.Sample(x, f[:, None], rng.uniform(0.5, 1.5, 3000)),
                           kgo.BasisSpec("chebyshev", 10), kgo.BasisSpec("chebyshev", 4),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        far = np.array([1e16, 0.3])
        assert np.isfinite(kgo.evaluate_basis(model.x_spec, far)).all()
        past = "has |T p|^2 past the float range"
        with pytest.raises(NumericalError, match=re.escape(f"query point of row 1 {past}")):
            kgo.predict(model, np.array([[0.1, 0.2], far]))
        with pytest.raises(NumericalError, match=re.escape(f"query point {past}")):
            kgo.most_probable(model, far)
        with pytest.raises(NumericalError, match=re.escape(f"point {past}")):
            kgo.christoffel(model.x_space, kgo.evaluate_basis(model.x_spec, far))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, direct, bad):
        """A spec-less model refuses non-finite features as a spec model refuses
        non-finite basis values, before any arithmetic could warn."""
        with pytest.raises(NumericalError, match=r"^non-finite feature values$"):
            kgo.most_probable(direct, [1.0, bad])
        with pytest.raises(NumericalError, match=r"^non-finite feature values$"):
            kgo.value(direct, [bad, 0.5])
        with pytest.raises(NumericalError, match=r"^non-finite feature values$"):
            kgo.probability(direct, [1.0, 0.5], [1.0, bad])
        xs = np.array([[1.0, 0.1], [1.0, -0.3], [1.0, bad], [bad, 0.0]])
        with pytest.raises(NumericalError, match=r"^non-finite feature values in row 2$"):
            kgo.predict(direct, xs)
        fs = np.array([[1.0, 0.4], [bad, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match=r"^non-finite feature values in row 1$"):
            kgo.predict(direct, xs[:2], fs[:2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_row(self, bad):
        """One raw query row or outcome holding NaN or +-inf is refused by the basis
        evaluation, with no RuntimeWarning on the way."""
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("chebyshev", 6),
                           kgo.BasisSpec("chebyshev", 2),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        message = r"^basis evaluation produced non-finite values$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                kgo.most_probable(model, [bad])
            with pytest.raises(NumericalError, match=message):
                kgo.probability(model, [bad], [0.5])
            with pytest.raises(NumericalError, match=message):
                kgo.probability(model, [0.2], [bad])

    def test_non_finite_basis(self):
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("monomial", 4),
                           kgo.BasisSpec("monomial", 2),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        huge = 1e100
        with pytest.raises(NumericalError, match="non-finite"):
            kgo.most_probable(model, [huge])
        with pytest.raises(NumericalError, match="non-finite"):
            kgo.predict(model, [[0.0], [huge]])

    def test_far_out_chebyshev_row_in_batch(self):
        """A batch row whose T_k overflows raises as the row alone does, without a warning."""
        model, _ = kgo.fit(_line_sample(), kgo.BasisSpec("chebyshev", 6),
                           kgo.BasisSpec("chebyshev", 2),
                           config=kgo.SolverConfig(algorithm="lsq-adj"))
        for query in ([1e60], [[0.2], [1e60], [-0.4]]):
            with pytest.raises(NumericalError, match="^basis evaluation produced non-finite values$"):
                kgo.predict(model, query)
