import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgo
from kgo.cli import main
from kgo.demo import grid_measure, square_wave_table, synthetic_gradient

MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"


def pgm_text(image, maxval=255):
    """ASCII portable graymap (P2) of intensities in [0, 1]."""
    levels = np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(int)
    return (f"P2\n{levels.shape[1]} {levels.shape[0]}\n{maxval}\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in levels))


@pytest.fixture
def exact_csv(tmp_path):
    grid = np.linspace(-1.0, 1.0, 41)
    path = tmp_path / "exact.csv"
    path.write_text("# x, f\n" + "".join(f"{float(x)!r},{float(x)!r}\n" for x in grid))
    return str(path)


@pytest.fixture
def plane_csv(tmp_path):
    """Two attribute columns on a 9 x 9 grid and their product as the label."""
    path = tmp_path / "plane.csv"
    path.write_text("".join(f"{a},{b},{a * b}\n" for a in np.linspace(-1, 1, 9).tolist()
                            for b in np.linspace(-1, 1, 9).tolist()))
    return str(path)


def run_fit(exact_csv, tmp_path, *extra):
    prefix = str(tmp_path / "run_")
    code = main(["fit", "--data", exact_csv, "--cols", "x=0;f=1",
                 "--x-basis", "monomial:6", "--f-basis", "monomial:4",
                 "--tensor", "f-christoffel", "--out-prefix", prefix, *extra])
    return code, prefix


class TestModuleEntryPoint:
    def test_python_m_kgo_from_a_checkout(self, tmp_path):
        """`python -m kgo` runs the CLI with the source tree on PYTHONPATH, no install."""
        env = dict(os.environ, PYTHONPATH=str(Path(kgo.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-m", "kgo", "--help"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: kgo ")
        assert "{fit,eval,demo}" in out.stdout


class TestFit:
    @pytest.mark.parametrize("t", [0.5, 1e4, -1e200])
    def test_zero_weight_row_changes_nothing(self, tmp_path, t):
        grid = np.linspace(-1.0, 1.0, 41).tolist()
        rows = [f"{x!r},{x * x!r},1.0\n" for x in grid]
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("".join(rows))
        padded.write_text("".join(rows[:20] + [f"{t!r},{t!r},0.0\n"] + rows[20:]))
        models = []
        for path in (plain, padded):
            prefix = str(tmp_path / path.stem) + "_"
            assert main(["fit", "--data", str(path), "--cols", "x=0;f=1;w=2",
                         "--x-basis", "chebyshev:6", "--f-basis", "chebyshev:2",
                         "--lsq-init", "--out-prefix", prefix]) == 0
            models.append((tmp_path / (path.stem + "_model.json")).read_bytes())
        assert models[0] == models[1]

    def test_rel_tol_nan_exit_two(self, exact_csv, tmp_path, capsys):
        code, _ = run_fit(exact_csv, tmp_path, "--rel-tol", "nan")
        assert code == 2
        assert "rel_tol must be finite and positive" in capsys.readouterr().err

    def test_exact_channel_coverage(self, exact_csv, tmp_path):
        code, prefix = run_fit(exact_csv, tmp_path,
                               "--algorithm", "linear-constraints", "--lsq-init")
        assert code == 0
        # Oracle: the exact channel keeps the label subspace, so every
        # label-side normalized term contributes fully.
        sample = kgo.load_sample(exact_csv, "x=0;f=1")
        data = kgo.prepare(sample, kgo.BasisSpec("monomial", 6),
                           kgo.BasisSpec("monomial", 4))
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL, data)
        f_exact = tensor.quadratic_form(kgo.lsq_channel(data))
        report = dict(line.split(" = ") for line in
                      open(prefix + "report.txt").read().splitlines())
        assert abs(float(report["f"]) - f_exact) <= 1e-6

    def test_lsq_adj_residual(self, exact_csv, tmp_path):
        code, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        assert code == 0
        model = kgo.deserialize_model(open(prefix + "model.json", "rb").read())
        assert model.operator.residual <= 1e-10

    def test_default_algorithm(self, exact_csv, tmp_path):
        code, prefix = run_fit(exact_csv, tmp_path, "--lsq-init")
        assert code == 0
        report = dict(line.split(" = ") for line in
                      open(prefix + "report.txt").read().splitlines())
        assert report["algorithm"] == repr(kgo.SolverConfig().algorithm)
        assert report["stop_reason"] == "'converged'"
        assert float(report["stationarity"]) <= 1e-10
        trace = open(prefix + "trace.tsv").read().splitlines()
        assert trace[0].split("\t") == ["iteration", "f_before", "f_after", "residual",
                                        "lambda_asym", "lambda_spur", "stationarity"]
        # The reported F and stationarity are those of the returned channel's
        # row; polar ascent never lowers F, so that is the last row with that F.
        rows = [[float(v) for v in line.split("\t")] for line in trace[1:]]
        best = [row for row in rows if row[2] == float(report["f"])][-1]
        assert best[0] == int(report["best_iteration"])
        assert best[-1] == float(report["stationarity"])

    def test_linalg_error_exit_four(self, exact_csv, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(kgo.model, "fit", diverge)
        code, _ = run_fit(exact_csv, tmp_path)
        assert code == 4
        assert capsys.readouterr().err == "numerical failure: SVD did not converge\n"

    def test_whitening_drop_reported(self, tmp_path, capsys):
        # An order-8 monomial basis over [0, 1000] loses most of its nine
        # directions to whitening; the fit says so on stderr and in the report.
        grid = np.linspace(0.0, 1000.0, 101)
        path = tmp_path / "wide.csv"
        path.write_text("".join(f"{float(x)!r},{float(x) / 1000.0!r}\n" for x in grid))
        prefix = str(tmp_path / "w_")
        assert main(["fit", "--data", str(path), "--cols", "x=0;f=1",
                     "--x-basis", "monomial:8", "--f-basis", "monomial:1",
                     "--algorithm", "lsq-adj", "--out-prefix", prefix]) == 0
        report = dict(line.split(" = ") for line in
                      open(prefix + "report.txt").read().splitlines())
        kept = int(report["x_eff_dim"])
        assert report["x_raw_dim"] == "9" and kept < 9
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: whitening kept {kept} of 9 attribute and 2 of 2 "
                       "label basis directions"]

    def test_whitening_collapse_is_numerical(self, tmp_path, capsys):
        # Whitening keeps 2 of the 9 order-8 monomial directions over
        # [0, 1000], fewer than the 3 label directions: a conditioning
        # failure (exit 4). Against a raw order-1 basis the same labels
        # really are the wrong way round (exit 2).
        grid = np.linspace(0.0, 1000.0, 101)
        path = tmp_path / "wide.csv"
        path.write_text("".join(f"{float(x)!r},{float(x) / 1000.0!r}\n" for x in grid))

        def fit(x_basis):
            capsys.readouterr()
            code = main(["fit", "--data", str(path), "--cols", "x=0;f=1",
                         "--x-basis", x_basis, "--f-basis", "monomial:2",
                         "--out-prefix", str(tmp_path / "c_")])
            return code, capsys.readouterr().err

        code, err = fit("monomial:8")
        assert code == 4 and "swap" not in err
        assert "2 of 9 attribute directions (largest dropped Gram eigenvalue" in err
        assert "3 of 3 label directions" in err
        code, err = fit("monomial:1")
        assert code == 2 and "swap the two sides" in err

    @staticmethod
    def fit_scaled_weights(tmp_path, capsys, kind, scale):
        """Exit code and stderr of a 3000-row fit whose weights are scaled by `scale`."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=(3000, 2))
        f = np.sin(2.0 * x[:, 0]) + 0.2 * rng.normal(size=3000)
        w = scale * rng.uniform(0.1, 2.0, size=3000)
        path = tmp_path / "scaled.csv"
        np.savetxt(path, np.column_stack([x, f, w]), delimiter=",", fmt="%.17g")
        code = main(["fit", "--data", str(path), "--cols", "x=0-1;f=2;w=3",
                     "--x-basis", "chebyshev:6", "--f-basis", "chebyshev:3",
                     "--tensor", kind, "--out-prefix", str(tmp_path / "t_")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("kind", ["christoffel-product", "christoffel-product-adjusted",
                                      "f-christoffel", "plain-value"])
    def test_tiny_weights_exit_four(self, tmp_path, capsys, kind, scale):
        # Whitening scales |x|^2 and |f|^2 by 1/scale, so w / |f|^2 (and
        # F_JDG's w / |f|^2 / |x|^2) underflows to zero: a numerical failure,
        # raised before any RuntimeWarning, never F = 0 with exit 0. A
        # plain-value fit, whose F grows as 1/scale, stops at F_JDG's gate
        # before its solve.
        code, err = self.fit_scaled_weights(tmp_path, capsys, kind, scale)
        assert code == 4, err
        assert "weight 0: rescale the sample weights" in err

    @pytest.mark.parametrize("scale", [1e120, 1e200, 1e300])
    @pytest.mark.parametrize("kind", ["christoffel-product", "christoffel-product-adjusted",
                                      "f-christoffel", "plain-value"])
    def test_huge_weights_exit_four(self, tmp_path, capsys, kind, scale):
        # The mirror image: F_JDG's weight grows as scale^3 and overflows,
        # whichever kind is fit, and the fit exits 4 naming an infinite weight.
        code, err = self.fit_scaled_weights(tmp_path, capsys, kind, scale)
        assert code == 4, err
        assert "weight inf: rescale the sample weights" in err

    def test_no_whitening_line_when_nothing_dropped(self, exact_csv, tmp_path, capsys):
        code, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_missing_cols_usage_error(self, exact_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--data", exact_csv,
                  "--out-prefix", str(tmp_path / "x_")])
        assert err.value.code == 2

    def test_outputs_reproducible(self, exact_csv, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, p1 = run_fit(exact_csv, tmp_path / "a", "--algorithm", "lsq-adj")
        _, p2 = run_fit(exact_csv, tmp_path / "b", "--algorithm", "lsq-adj")
        for name in ("model.json", "trace.tsv", "report.txt"):
            assert open(p1 + name, "rb").read() == open(p2 + name, "rb").read()


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_csv_not_utf8_exit_three(exact_csv, tmp_path, capsys, command):
    # The second row starts with a byte that no UTF-8 text holds; the error names
    # the file and the line instead of ending in a decode traceback.
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"# x,f\n0.5,0.25\n\xff0.5,0.25\n")
    if command == "fit":
        code = main(["fit", "--data", str(bad), "--cols", "x=0;f=1",
                     "--out-prefix", str(tmp_path / "f_")])
    else:
        _, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        code = main(["eval", "--model", prefix + "model.json", "--data", str(bad),
                     "--cols", "x=0;f=1", "--out-prefix", str(tmp_path / "e_")])
    assert code == 3
    assert f"cannot read {bad}: line 3 is not UTF-8 text" in capsys.readouterr().err


class TestEval:
    def test_roundtrip_values(self, exact_csv, tmp_path):
        _, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        code = main(["eval", "--model", prefix + "model.json",
                     "--data", exact_csv, "--cols", "x=0;f=1",
                     "--out-prefix", prefix])
        assert code == 0
        rows = open(prefix + "eval.tsv").read().splitlines()
        header = rows[0].split("\t")
        value1 = header.index("value1")
        xs = np.array([float(r.split("\t")[0]) for r in rows[1:]])
        vals = np.array([float(r.split("\t")[value1]) for r in rows[1:]])
        np.testing.assert_allclose(vals, xs, atol=1e-9)
        assert header[-1] == "p_at_f"

    def test_empty_query_file(self, exact_csv, tmp_path):
        _, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        empty = tmp_path / "empty.csv"
        empty.write_text("# no rows\n")
        code = main(["eval", "--model", prefix + "model.json",
                     "--data", str(empty), "--cols", "x=0",
                     "--out-prefix", str(tmp_path / "e_")])
        assert code == 0
        lines = open(str(tmp_path / "e_") + "eval.tsv").read().splitlines()
        assert len(lines) == 1  # header only

    def test_empty_query_file_header_names_every_x_column(self, plane_csv, tmp_path):
        prefix = str(tmp_path / "p_")
        assert main(["fit", "--data", plane_csv, "--cols", "x=0-1;f=2",
                     "--x-basis", "monomial:2", "--f-basis", "monomial:1",
                     "--algorithm", "lsq-adj", "--out-prefix", prefix]) == 0
        empty = tmp_path / "empty.csv"
        empty.write_text("# no rows\n")
        assert main(["eval", "--model", prefix + "model.json", "--data", str(empty),
                     "--cols", "x=0-1", "--out-prefix", prefix]) == 0
        header = open(prefix + "eval.tsv").read().splitlines()[0].split("\t")
        assert header[:3] == ["x0", "x1", "f_max_p0"]

    @pytest.mark.parametrize("cols", ["x=0", "x=0-2"])
    def test_wrong_width_on_chebyshev_model_exit_two(self, plane_csv, tmp_path, capsys, cols):
        prefix = str(tmp_path / "w_")
        assert main(["fit", "--data", plane_csv, "--cols", "x=0-1;f=2",
                     "--x-basis", "chebyshev:3", "--f-basis", "chebyshev:1",
                     "--algorithm", "lsq-adj", "--out-prefix", prefix]) == 0
        code = main(["eval", "--model", prefix + "model.json", "--data", plane_csv,
                     "--cols", cols, "--out-prefix", prefix])
        assert code == 2
        assert "covers 2 variables" in capsys.readouterr().err

    def test_weight_column_is_not_read(self, exact_csv, tmp_path):
        """Eval range-checks a `w=` column but never reads its values: an all-zero
        weight column gives the same table as the spec without it."""
        _, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        query = tmp_path / "query.csv"
        query.write_text("-0.5,0.25,0.0\n0.5,0.75,0.0\n")
        tables = []
        for cols in ("x=0;f=1", "x=0;f=1;w=2"):
            out = str(tmp_path / f"{len(tables)}_")
            assert main(["eval", "--model", prefix + "model.json", "--data", str(query),
                         "--cols", cols, "--out-prefix", out]) == 0
            tables.append(open(out + "eval.tsv", "rb").read())
        assert tables[0] == tables[1]
        assert main(["eval", "--model", prefix + "model.json", "--data", str(query),
                     "--cols", "x=0;w=3", "--out-prefix", str(tmp_path / "r_")]) == 3

    def test_data_file_opened_for_parse_and_digest_only(self, exact_csv, tmp_path,
                                                         monkeypatch):
        _, prefix = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert main(["eval", "--model", prefix + "model.json", "--data", exact_csv,
                     "--cols", "x=0", "--out-prefix", prefix]) == 0
        assert opened.count(exact_csv) == 2

    def test_corrupt_model_exit_three(self, exact_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["eval", "--model", str(bad), "--data", exact_csv,
                     "--cols", "x=0", "--out-prefix", str(tmp_path / "c_")])
        assert code == 3

    @pytest.mark.parametrize("source, cut, message", [
        ("fit", lambda m: [row.pop() for row in m["operator"]["u"]], "operator.u has shape"),
        ("fit", lambda m: m["x_space"]["transform"].pop(), "x_space.transform has shape"),
        ("fit", lambda m: m["f_space"]["const_raw"].pop(), "f_space.const_raw has shape"),
        # A fit writes no projection; the committed version-1 file carries one.
        (MODEL_V1, lambda m: m["x_label_projection"].pop(), "x_label_projection has shape"),
        ("fit", lambda m: m["operator"]["u"][0].__setitem__(0, float("nan")),
         "operator.u has non-finite values"),
        ("fit", lambda m: m["operator"].__setitem__("residual", float("inf")),
         "operator.residual has non-finite values"),
        ("fit", lambda m: m["operator"].__setitem__("f_value", float("-inf")),
         "operator.f_value has non-finite values"),
        ("fit", lambda m: m["report"].__setitem__("f", float("nan")),
         "report.f has non-finite values"),
        ("fit", lambda m: m.__setitem__("report", [m["report"]]), "report is not a JSON object"),
        ("fit", lambda m: m["x_spec"].__setitem__("product_order", 2.5),
         "product order must be an integer, got 2.5"),
        ("fit", lambda m: m["x_spec"].__setitem__("product_order", True),
         "product order must be an integer, got True"),
        ("fit", lambda m: m["x_spec"].__setitem__("source", [0.5]),
         "source column must be an integer, got 0.5"),
        ("fit", lambda m: m["x_spec"].__setitem__("constant_index", 99),
         "x_spec.constant_index 99 out of range for basis dimension 7"),
        ("fit", lambda m: m["f_spec"].__setitem__("constant_index", -1),
         "constant index must be nonnegative")],
        ids=["u-column", "x-transform-row", "f-const-entry", "projection-row", "u-nan",
             "residual-inf", "f-value-inf", "report-nan", "report-list", "order-fraction",
             "order-bool", "source-fraction", "constant-past-basis", "constant-negative"])
    def test_inconsistent_model_exit_three(self, exact_csv, tmp_path, capsys, source, cut,
                                           message):
        if source == "fit":
            source = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")[1] + "model.json"
        payload = json.loads(Path(source).read_text())
        cut(payload)
        bad = tmp_path / "cut.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["eval", "--model", str(bad), "--data", exact_csv,
                     "--cols", "x=0", "--out-prefix", str(tmp_path / "c_")])
        assert code == 3
        assert f"error: corrupt model payload: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("source, version", [(MODEL_V1, True), (MODEL_V1, 1.0), ("fit", 2.0)],
                             ids=["true", "one-float", "two-float"])
    def test_format_version_exit_three(self, exact_csv, tmp_path, capsys, source, version):
        # Only the integers 1 and 2 name a format, though True == 1.0 == 1 and 2.0 == 2.
        if source == "fit":
            source = run_fit(exact_csv, tmp_path, "--algorithm", "lsq-adj")[1] + "model.json"
        payload = json.loads(Path(source).read_text())
        payload["format_version"] = version
        bad = tmp_path / "version.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["eval", "--model", str(bad), "--data", exact_csv,
                     "--cols", "x=0", "--out-prefix", str(tmp_path / "c_")])
        assert code == 3
        assert f"error: unsupported model format version {version!r}" in capsys.readouterr().err

    def test_zero_projection_exit_four(self, tmp_path):
        # A model fit on constant labels collapses the label space to one
        # direction; querying the probability of an outcome orthogonal to it
        # is a numerical failure, not a usage problem.
        train = tmp_path / "const.csv"
        train.write_text("".join(f"{float(x)!r},1.0\n" for x in np.linspace(-1, 1, 21)))
        prefix = str(tmp_path / "z_")
        assert main(["fit", "--data", str(train), "--cols", "x=0;f=1",
                     "--x-basis", "monomial:2", "--f-basis", "monomial:1",
                     "--algorithm", "lsq-adj", "--out-prefix", prefix]) == 0
        query = tmp_path / "query.csv"
        query.write_text("0.5,-1.0\n")
        code = main(["eval", "--model", prefix + "model.json",
                     "--data", str(query), "--cols", "x=0;f=1",
                     "--out-prefix", prefix])
        assert code == 4


class TestDemo:
    def test_square_wave_table(self, tmp_path):
        prefix = str(tmp_path / "sw_")
        assert main(["demo", "square-wave", "--n", "7",
                     "--out-prefix", prefix]) == 0
        rows = np.loadtxt(prefix + "demo_square-wave.tsv", skiprows=1)
        header = open(prefix + "demo_square-wave.tsv").readline().split()
        ls = rows[:, header.index("least_squares")]
        rn = rows[:, header.index("radon_nikodym")]
        assert rn.min() >= -1.0 - 1e-9 and rn.max() <= 1.0 + 1e-9
        assert max(ls.max() - 1.0, -1.0 - ls.min()) > 0.05

    def test_square_wave_polar_ascent_falls_back_to_lsq(self, tmp_path):
        # Every eigenvector of the square wave's tensor reshapes to a rank-1
        # 2 x 7 channel, so no eigenstate start exists; polar ascent starts
        # from the least-squares channel instead and never falls below it.
        # The maxev family has no such fallback.
        for algorithm, code in (("polar-ascent", 0), ("maxev-svd-adj", 4)):
            assert main(["demo", "square-wave", "--algorithm", algorithm,
                         "--out-prefix", str(tmp_path / f"{algorithm}_")]) == code
        grid, weights = grid_measure()
        sample = kgo.Sample(grid[:, None], np.where(grid >= 0.0, 1.0, -1.0)[:, None], weights)
        data = kgo.prepare(sample, kgo.BasisSpec("monomial", 6), kgo.BasisSpec("monomial", 1))
        polar, trace = kgo.fit_prepared(data, config=kgo.SolverConfig())
        lsq_adj, _ = kgo.fit_prepared(data, config=kgo.SolverConfig(algorithm="lsq-adj"))
        assert trace.records[0].iteration == 0
        assert polar.report["f"] >= lsq_adj.report["f"]

    def test_localized_states_argmax(self, tmp_path):
        prefix = str(tmp_path / "ls_")
        assert main(["demo", "localized-states", "--n", "7",
                     "--out-prefix", prefix]) == 0
        rows = np.loadtxt(prefix + "demo_localized-states.tsv", skiprows=1)
        x = rows[:, 0]
        peak = x[np.argmax(rows[:, 2])]  # column for y = 0
        assert abs(peak) <= (x[1] - x[0]) + 1e-12

    def test_image_probability_bounded(self, tmp_path):
        image = tmp_path / "grad.pgm"
        image.write_text(pgm_text(synthetic_gradient(8)))
        prefix = str(tmp_path / "im_")
        assert main(["demo", "image", "--image", str(image), "--nx", "3",
                     "--ny", "3", "--m", "2", "--out-prefix", prefix]) == 0
        rows = np.loadtxt(prefix + "demo_image.tsv", skiprows=1)
        header = open(prefix + "demo_image.tsv").readline().split()
        p = rows[:, header.index("kgo_p_at_truth")]
        assert np.all(p >= -1e-9) and np.all(p <= 1.0 + 1e-9)

    def test_solver_flags_honoured(self, tmp_path):
        flags = ["--algorithm", "linear-constraints", "--lsq-init", "--max-iterations", "60"]
        tables = {}
        for pool in (1, 16):
            prefix = str(tmp_path / f"p{pool}_")
            assert main(["demo", "square-wave", *flags, "--pool", str(pool),
                         "--out-prefix", prefix]) == 0
            tables[pool] = np.loadtxt(prefix + "demo_square-wave.tsv", skiprows=1)
        assert not np.array_equal(tables[1], tables[16])
        config = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=60,
                                  candidate_pool=1, init_with_least_squares=True)
        _, rows = square_wave_table(config=config)
        np.testing.assert_array_equal(tables[1], np.asarray(rows, dtype=float))

    def test_manifest_records_solver_that_ran(self, tmp_path):
        import json
        configs = {}
        for name, flags in (("square-wave", []), ("image", []), ("localized-states", []),
                            ("exact-map", ["--algorithm", "polar-ascent", "--pool", "3"])):
            prefix = str(tmp_path / f"{name}_")
            assert main(["demo", name, *flags, "--out-prefix", prefix]) == 0
            configs[name] = json.load(open(prefix + "manifest.json"))["config"]
        assert {k: configs["square-wave"][k] for k in
                ("algorithm", "max_iterations", "rel_tol", "pool", "lsq_init")} == {
            "algorithm": "linear-constraints", "max_iterations": 200,
            "rel_tol": kgo.SolverConfig.rel_tol, "pool": kgo.SolverConfig.candidate_pool,
            "lsq_init": True}
        assert configs["image"]["algorithm"] == "lsq-adj"
        assert configs["image"]["lsq_init"] is False
        assert "algorithm" not in configs["localized-states"]
        assert "max_iterations" not in configs["localized-states"]
        assert configs["exact-map"]["algorithm"] == "polar-ascent"
        assert configs["exact-map"]["pool"] == 3
        assert configs["exact-map"]["max_iterations"] == kgo.SolverConfig.max_iterations

    def test_manifest_written(self, tmp_path):
        prefix = str(tmp_path / "mf_")
        assert main(["demo", "localized-states", "--out-prefix", prefix]) == 0
        import json
        manifest = json.load(open(prefix + "manifest.json"))
        assert manifest["subcommand"] == "demo"
        assert manifest["outputs"] == [prefix + "demo_localized-states.tsv"]


class TestPgm:
    def test_round_trip(self, tmp_path):
        from kgo.demo import read_pgm
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "t.pgm"
        path.write_text(pgm_text(img))
        back = read_pgm(str(path))
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_comments_and_whitespace(self, tmp_path):
        from kgo.demo import read_pgm
        path = tmp_path / "c.pgm"
        path.write_text("P2  # magic\n# full comment line\n2 2\n4\n0 1\n2 4\n")
        img = read_pgm(str(path))
        np.testing.assert_allclose(img, [[0.0, 0.25], [0.5, 1.0]])

    def test_rejects_binary_magic(self, tmp_path):
        from kgo.demo import read_pgm
        from kgo.errors import DataError
        path = tmp_path / "b.pgm"
        path.write_text("P5\n2 2\n255\nxxxx\n")
        with pytest.raises(DataError):
            read_pgm(str(path))

    @pytest.mark.parametrize("size, pixels", [("-2 -3", "1 2 3 4 5 6"), ("-6 -1", "1 2 3 4 5 6"),
                                              ("0 0", "")])
    def test_rejects_non_positive_size(self, tmp_path, size, pixels):
        # Each header's width times height equals the pixel count.
        from kgo.demo import read_pgm
        from kgo.errors import DataError
        path = tmp_path / "n.pgm"
        path.write_text(f"P2\n{size}\n255\n{pixels}\n")
        with pytest.raises(DataError, match="width and height must be positive"):
            read_pgm(str(path))

    def test_demo_negative_size_exit_three(self, tmp_path, capsys):
        path = tmp_path / "n.pgm"
        path.write_text("P2\n-2 -3\n255\n1 2 3 4 5 6\n")
        code = main(["demo", "image", "--image", str(path), "--out-prefix", str(tmp_path / "i_")])
        assert code == 3
        assert "width and height must be positive" in capsys.readouterr().err

    def test_rejects_truncated_pixels(self, tmp_path):
        from kgo.demo import read_pgm
        from kgo.errors import DataError
        path = tmp_path / "t.pgm"
        path.write_text("P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(DataError):
            read_pgm(str(path))


class TestSubspaceFlag:
    def test_fit_with_contributing_subspace(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.normal(size=(60, 2)),
                                rng.normal(size=60)])
        rows[:, 2] = rows[:, 0] + 0.1 * rows[:, 2]
        path = tmp_path / "d.csv"
        path.write_text("".join(f"{a!r},{b!r},{c!r}\n"
                                for a, b, c in map(tuple, rows.tolist())))
        prefix = str(tmp_path / "s_")
        code = main(["fit", "--data", str(path), "--cols", "x=0-1;f=2",
                     "--x-basis", "monomial:2", "--f-basis", "monomial:1",
                     "--tensor", "christoffel-product", "--d", "1",
                     "--algorithm", "linear-constraints",
                     "--max-iterations", "30", "--out-prefix", prefix]) 
        assert code == 0
        model = kgo.deserialize_model(open(prefix + "model.json", "rb").read())
        assert model.operator.u.shape[0] == 1
        assert model.f_embed is not None


class TestAllTensorKinds:
    @pytest.mark.parametrize("kind", ["christoffel-product",
                                      "christoffel-product-adjusted",
                                      "f-christoffel", "plain-value"])
    def test_fit_each_kind(self, exact_csv, tmp_path, kind):
        prefix = str(tmp_path / f"{kind}_")
        code = main(["fit", "--data", exact_csv, "--cols", "x=0;f=1",
                     "--x-basis", "monomial:4", "--f-basis", "monomial:2",
                     "--tensor", kind, "--algorithm", "lagrange-iter",
                     "--max-iterations", "25", "--out-prefix", prefix])
        assert code == 0
        model = kgo.deserialize_model(open(prefix + "model.json", "rb").read())
        assert model.operator.residual <= 1e-8
        assert model.tensor_kind.value == kind
