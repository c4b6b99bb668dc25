"""Every input check of the package that no other test reaches, in one table.

Each case calls the public function (or, where only a private helper is
left to check, that helper) with an input the check refuses, and names the
error class and the whole message.
"""

import argparse
import re
from dataclasses import replace

import numpy as np
import pytest

import kgo
from kgo import cli, demo
from kgo.errors import DataError, DimensionError, NumericalError


def three_point():
    """x = f in {-1, 0, 1} with the (1, t) basis on both sides."""
    x = np.array([[-1.0], [0.0], [1.0]])
    return kgo.prepare(kgo.Sample(x, x.copy(), np.ones(3)), kgo.BasisSpec("monomial", 1),
                       kgo.BasisSpec("monomial", 1))


def identity_model(f_spec=kgo.BasisSpec("monomial", 1)):
    """A lsq-adj fit of the three-point sample."""
    x = np.array([[-1.0], [0.0], [1.0]])
    model, _ = kgo.fit(kgo.Sample(x, x.copy(), np.ones(3)), kgo.BasisSpec("monomial", 1), f_spec,
                       config=kgo.SolverConfig(algorithm="lsq-adj"))
    return model


def no_real_root():
    """The spec-less identity channel at x = [0, 1]: the transported state has no
    constant part, so the stationarity polynomial of the root search is a
    nonzero constant."""
    model = identity_model()
    direct = replace(model, x_spec=None, f_spec=None,
                     operator=replace(model.operator, u=np.eye(2)))
    return kgo.scalar_value_roots(direct, [0.0, 1.0])


def tensor():
    return kgo.CoverageTensor(kgo.TensorKind.F_CHRISTOFFEL, 2, 3, np.eye(6))


def write(path, text):
    path.write_text(text)
    return str(path)


def eval_args(tmp_path, cols, model=None):
    """`kgo eval` arguments; the model file exists only when a model is given."""
    model_path = tmp_path / "model.json"
    if model is not None:
        model_path.write_bytes(kgo.serialize_model(model))
    return argparse.Namespace(model=str(model_path), data=write(tmp_path / "q.csv", "0.5\n"),
                              cols=cols, out_prefix=str(tmp_path / "e_"))


# (id, call of tmp_path, error class, message pattern matched from its start to its end)
CASES = [
    ("sample-non-finite", lambda tmp: kgo.Sample([[np.inf]], [[0.0]], [1.0]),
     DataError, "sample contains non-finite values"),
    ("basis-kind", lambda tmp: kgo.BasisSpec("legendre", 2),
     DataError, "unknown basis kind 'legendre'"),
    ("basis-mode", lambda tmp: kgo.BasisSpec("monomial", 2, mode="below"),
     DataError, "unknown producting mode 'below'"),
    ("basis-order", lambda tmp: kgo.BasisSpec("monomial", -1),
     DataError, "product order must be nonnegative"),
    ("column-spec-fragment", lambda tmp: kgo.parse_column_spec("x=0;f1"),
     DataError, "bad column spec fragment 'f1'"),
    ("csv-non-finite", lambda tmp: kgo.load_sample(write(tmp / "d.csv", "1.0,2.0\n1.0,inf\n"),
                                                   "x=0;f=1"),
     DataError, "non-finite value in row 2"),
    ("points-row-count", lambda tmp: kgo.prepare_points([[1.0, 0.0]], [[1.0]], [1.0, 2.0]),
     DimensionError, "inconsistent observation counts: x=1, f=1, w=2"),
    ("space-constant", lambda tmp: kgo.prepare_points(np.eye(2), np.eye(2), np.ones(2),
                                                      x_const=[1.0, 0.0, 0.0]),
     DimensionError, "constant direction dimension mismatch"),
    ("rn-label-count", lambda tmp: kgo.fit_radon_nikodym(three_point(), labels=np.ones((2, 1))),
     DimensionError, "row/label count mismatch"),
    ("linalg-square", lambda tmp: kgo.sym_eig(np.ones(3)),
     DimensionError, re.escape("A must be square, got shape (3,)")),
    ("linalg-spd-sqrt", lambda tmp: kgo.spd_sqrt(-np.eye(2)),
     NumericalError, "matrix is not positive definite"),
    ("linalg-pencil-shape", lambda tmp: kgo.gen_sym_eig(np.eye(2), np.eye(3)),
     DimensionError, re.escape("shape mismatch: (2, 2) vs (3, 3)")),
    ("solver-algorithm", lambda tmp: kgo.SolverConfig(algorithm="newton"),
     DimensionError, re.escape(f"unknown algorithm 'newton'; choose from {kgo.ALGORITHMS}")),
    ("solver-iterations-bool", lambda tmp: kgo.SolverConfig(max_iterations=True),
     DimensionError, "max_iterations must be an integer, got True"),
    ("solver-pool-bool", lambda tmp: kgo.SolverConfig(candidate_pool=False),
     DimensionError, "candidate_pool must be an integer, got False"),
    ("solver-tol-bool", lambda tmp: kgo.SolverConfig(rel_tol=True),
     DimensionError, "rel_tol must be a real number, got True"),
    ("solver-tol-array", lambda tmp: kgo.SolverConfig(rel_tol=np.array([1e-3])),
     DimensionError, re.escape("rel_tol must be a real number, got array([0.001])")),
    ("solver-tol-text", lambda tmp: kgo.SolverConfig(rel_tol="1e-3"),
     DimensionError, "rel_tol must be a real number, got '1e-3'"),
    ("solver-lsq-init-text", lambda tmp: kgo.SolverConfig(init_with_least_squares="no"),
     DimensionError, "init_with_least_squares must be a bool, got 'no'"),
    ("solver-lsq-init-int", lambda tmp: kgo.SolverConfig(init_with_least_squares=1),
     DimensionError, "init_with_least_squares must be a bool, got 1"),
    ("multiplier-shape", lambda tmp: kgo.solve_partial_constraint(tensor(), np.zeros((3, 3))),
     DimensionError, re.escape("multiplier shape (3, 3) != (2, 2)")),
    ("multiplier-symmetry", lambda tmp: kgo.solve_partial_constraint(tensor(), [[0.0, 1.0],
                                                                               [0.0, 0.0]]),
     NumericalError, "multiplier matrix must be symmetric"),
    ("snap-shape", lambda tmp: kgo.enforce_partial_unitarity(np.ones((3, 2))),
     DimensionError, re.escape("expected a wide matrix, got shape (3, 2)")),
    ("snap-method", lambda tmp: kgo.enforce_partial_unitarity(np.eye(2), "qr"),
     DimensionError, "unknown adjustment method 'qr'"),
    ("candidate-pool", lambda tmp: kgo.select_candidate([], tensor(), 0),
     DimensionError, "pool size must be positive"),
    ("operator-shape", lambda tmp: kgo.operator_adjust(np.eye(2, 3), np.eye(3), tensor()),
     DimensionError, "operator dimensions do not match the channel"),
    ("operator-rank", lambda tmp: kgo.operator_adjust(np.zeros((2, 3)), np.eye(2), tensor()),
     NumericalError, "matrix is rank deficient"),
    ("subspace-variant", lambda tmp: kgo.contributing_subspace(three_point(), 1, "dual"),
     DimensionError, "unknown subspace variant 'dual'"),
    ("roots-label", lambda tmp: kgo.scalar_value_roots(
        identity_model(kgo.BasisSpec("chebyshev", 1)), [0.5]),
     DimensionError, "root search needs a scalar power-basis label"),
    ("roots-none", lambda tmp: no_real_root(),
     NumericalError, "no real stationary point for the root search"),
    ("cli-basis", lambda tmp: cli._parse_basis("legendre:2"),
     DimensionError, re.escape("bad basis 'legendre:2'; expected <kind>:<order> with kind in "
                               "('monomial', 'chebyshev')")),
    ("cli-basis-order", lambda tmp: cli._parse_basis("monomial:two"),
     DimensionError, "bad basis order 'two'"),
    ("cli-basis-negative", lambda tmp: cli._parse_basis("monomial:-1"),
     DimensionError, "basis order must be nonnegative"),
    ("cli-model-missing", lambda tmp: cli.cmd_eval(eval_args(tmp, "x=0")),
     DataError, "cannot read model .*model.json: .*"),
    ("cli-eval-no-x", lambda tmp: cli.cmd_eval(eval_args(tmp, "w=0", identity_model())),
     DataError, "column spec must name an x range"),
    ("cli-data-missing", lambda tmp: kgo.sample.read_table(tmp / "absent.csv", [0]),
     DataError, "cannot read .*absent.csv: .*"),
    ("demo-grid", lambda tmp: demo.grid_measure(1),
     DimensionError, "need at least two grid points"),
    ("demo-exact-map", lambda tmp: demo.exact_map_table(n=3, m=4),
     DimensionError, "need 1 <= m <= n"),
    ("pgm-missing", lambda tmp: demo.read_pgm(tmp / "absent.pgm"),
     DataError, "cannot read image .*absent.pgm: .*"),
    ("pgm-header", lambda tmp: demo.read_pgm(write(tmp / "short.pgm", "P2\n2 2\n")),
     DataError, "malformed graymap: list index out of range"),
    ("image-shape", lambda tmp: demo.image_table(np.zeros((1, 4))),
     DataError, "image must be a 2D array with at least 2x2 pixels"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check(tmp_path, call, error, message):
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert type(caught.value) is error
    assert re.fullmatch(message, str(caught.value)), str(caught.value)

