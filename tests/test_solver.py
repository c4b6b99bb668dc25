import numpy as np
import pytest

import kgo
from kgo.errors import NumericalError

from conftest import make_random_instance, random_partially_unitary


def random_tensor(rng, d, n, kind=kgo.TensorKind.PLAIN_VALUE):
    z = rng.normal(size=(d * n, d * n))
    return kgo.CoverageTensor(kind, d, n, z @ z.T)


@pytest.fixture
def svd_calls(monkeypatch):
    """The argument shapes of every np.linalg.svd call made while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def three_point_tensor(three_point_data):
    return kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                     three_point_data)


def adjusted_least_squares(data, tensor):
    """The svd-snapped least-squares channel, solved as lsq-adj."""
    op, _ = kgo.solve(tensor, kgo.SolverConfig(algorithm="lsq-adj"), kgo.lsq_channel(data))
    return op


class TestSolvePartialConstraint:
    def test_diagonal_tensor(self):
        tensor = kgo.CoverageTensor(kgo.TensorKind.PLAIN_VALUE, 2, 2,
                                    np.diag([4.0, 3.0, 2.0, 1.0]))
        values, channels = kgo.solve_partial_constraint(tensor)
        np.testing.assert_allclose(values, [4.0, 3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(channels[0]),
                                   np.sqrt(2.0) * np.array([[1.0, 0.0], [0.0, 0.0]]))
        for ch in channels:
            assert np.sum(ch ** 2) == pytest.approx(2.0)

    def test_rayleigh_bound(self):
        rng = np.random.default_rng(0)
        tensor = random_tensor(rng, 2, 3)
        values, _ = kgo.solve_partial_constraint(tensor)
        for _ in range(10):
            u = rng.normal(size=(2, 3))
            u *= np.sqrt(2.0) / np.linalg.norm(u)
            assert 2.0 * values[0] >= tensor.quadratic_form(u) - 1e-9

    def test_matches_dense_oracle(self, three_point_tensor):
        values, _ = kgo.solve_partial_constraint(three_point_tensor)
        oracle = np.sort(np.linalg.eigvalsh(three_point_tensor.matrix))[::-1]
        np.testing.assert_allclose(values, oracle, atol=1e-12)

    def test_multiplier_shift(self, three_point_tensor):
        lam = np.diag([0.5, 0.25])
        values, _ = kgo.solve_partial_constraint(three_point_tensor, lam)
        shifted = three_point_tensor.matrix - np.kron(lam, np.eye(2))
        oracle = np.sort(np.linalg.eigvalsh(shifted))[::-1]
        np.testing.assert_allclose(values, oracle, atol=1e-12)


class TestSelectCandidate:
    def test_pool_one_is_max_eigenstate(self, three_point_tensor):
        _, channels = kgo.solve_partial_constraint(three_point_tensor)
        cand, _, _ = kgo.select_candidate(channels, three_point_tensor, 1)
        np.testing.assert_array_equal(cand, channels[0])

    def test_pool_never_worse_than_top(self, three_point_tensor):
        _, channels = kgo.solve_partial_constraint(three_point_tensor)
        _, _, f_top = kgo.select_candidate(channels, three_point_tensor, 1)
        _, _, f_pool = kgo.select_candidate(channels, three_point_tensor, 4)
        assert f_pool >= f_top

    def test_beats_adjusted_least_squares(self, three_point_data, three_point_tensor):
        _, channels = kgo.solve_partial_constraint(three_point_tensor)
        _, _, f_pool = kgo.select_candidate(channels, three_point_tensor, 4)
        lsq = adjusted_least_squares(three_point_data, three_point_tensor)
        assert f_pool >= lsq.f_value - 1e-12


class TestEnforcePartialUnitarity:
    def test_diagonal_padded(self):
        u = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 0.0]])
        adjusted = kgo.enforce_partial_unitarity(u)
        np.testing.assert_allclose(adjusted, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                   atol=1e-12)

    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        u = random_partially_unitary(rng, 2, 4)
        np.testing.assert_allclose(kgo.enforce_partial_unitarity(u), u, atol=1e-12)

    def test_methods_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.normal(size=(2, 4))
            a = kgo.enforce_partial_unitarity(u, "svd")
            b = kgo.enforce_partial_unitarity(u, "gram-eig")
            np.testing.assert_allclose(a, b, atol=1e-9)
            assert kgo.constraint_residual(a) <= 1e-10

    def test_rejects_rank_deficient(self):
        with pytest.raises(NumericalError):
            kgo.enforce_partial_unitarity(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_svd_snap_takes_one_svd(self, svd_calls):
        # The rank gate reads the singular values of the SVD that snaps.
        kgo.enforce_partial_unitarity(np.random.default_rng(3).normal(size=(2, 4)), "svd")
        assert len(svd_calls) == 1
        with pytest.raises(NumericalError):
            kgo.enforce_partial_unitarity(np.array([[1.0, 0.0], [2.0, 0.0]]), "svd")
        assert len(svd_calls) == 2

    def test_candidate_scoring_takes_one_svd_each(self, svd_calls, three_point_tensor):
        _, channels = kgo.solve_partial_constraint(three_point_tensor)
        svd_calls.clear()
        kgo.select_candidate(channels[:3], three_point_tensor, 3)
        assert len(svd_calls) == 3

    def test_exact_subspace_unchanged(self, three_point_data):
        channel = kgo.lsq_channel(three_point_data)
        u = kgo.enforce_partial_unitarity(channel)
        np.testing.assert_allclose(u, channel, atol=1e-10)

    def test_square_wave_adjustment(self):
        grid = np.linspace(-1.0, 1.0, 201)
        f = np.where(grid >= 0.0, 1.0, -1.0)
        sample = kgo.Sample(grid[:, None], f[:, None], np.full(201, 2.0 / 201))
        data = kgo.prepare(sample, kgo.BasisSpec("monomial", 6),
                           kgo.BasisSpec("monomial", 1))
        channel = kgo.lsq_channel(data)
        u = kgo.enforce_partial_unitarity(channel)
        assert np.abs(u - channel).max() > 1e-3  # genuinely moved
        assert kgo.constraint_residual(u) <= 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(2, 5))
        base = kgo.enforce_partial_unitarity(u)
        for c in (0.1, 7.0):
            scaled = kgo.enforce_partial_unitarity(c * u)
            np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestLagrangeMultipliers:
    def test_isotropic_tensor(self):
        tensor = kgo.CoverageTensor(kgo.TensorKind.PLAIN_VALUE, 2, 3, np.eye(6))
        rng = np.random.default_rng(3)
        u = random_partially_unitary(rng, 2, 3)
        lam = kgo.lagrange_multipliers(u, tensor)
        np.testing.assert_allclose(lam, np.eye(2), atol=1e-12)
        assert tensor.quadratic_form(u) == pytest.approx(2.0)

    def test_spur_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            tensor = random_tensor(rng, 3, 5)
            u = random_partially_unitary(rng, 3, 5)
            raw = kgo.raw_lagrange_multipliers(u, tensor)
            f = tensor.quadratic_form(u)
            assert abs(np.trace(raw) - f) <= 1e-12 * max(1.0, abs(f))

    def test_symmetric_at_eigenstate(self, three_point_tensor):
        _, channels = kgo.solve_partial_constraint(three_point_tensor)
        raw = kgo.raw_lagrange_multipliers(channels[0], three_point_tensor)
        assert np.abs(raw - raw.T).max() <= 1e-9

    def test_rejects_unconstrained_point(self, three_point_tensor):
        with pytest.raises(NumericalError):
            kgo.lagrange_multipliers(np.full((2, 2), 0.7), three_point_tensor)


class TestIterateLagrange:
    def test_three_point_exact(self, three_point_tensor):
        cfg = kgo.SolverConfig(algorithm="lagrange-iter", max_iterations=100)
        op, trace = kgo.solve(three_point_tensor, cfg)
        assert op.f_value == pytest.approx(3.0, abs=1e-6)
        assert op.residual <= 1e-8
        assert len(trace) <= cfg.max_iterations

    def test_scalar_problem(self):
        tensor = kgo.CoverageTensor(kgo.TensorKind.PLAIN_VALUE, 1, 1,
                                    np.array([[2.5]]))
        cfg = kgo.SolverConfig(algorithm="lagrange-iter")
        op, _ = kgo.solve(tensor, cfg)
        assert abs(op.u[0, 0]) == pytest.approx(1.0)
        assert op.f_value == pytest.approx(2.5)


class TestOneLoop:
    @pytest.mark.parametrize("max_iterations", [1, 2, 40])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("algorithm", kgo.ALGORITHMS)
    def test_best_is_running_max(self, algorithm, warm, max_iterations):
        rng = np.random.default_rng(5)
        tensor = random_tensor(rng, 2, 4)
        u_init = rng.normal(size=(2, 4))
        cfg = kgo.SolverConfig(algorithm=algorithm, max_iterations=max_iterations,
                               init_with_least_squares=warm)
        op, trace = kgo.solve(tensor, cfg, u_init)
        assert 1 <= len(trace) <= max_iterations
        assert op.iterations == trace.records[-1].iteration
        assert op.f_value == max(r.f_after for r in trace)
        iterative = algorithm in ("lagrange-iter", "linear-constraints", "polar-ascent")
        if not iterative:
            assert trace.stop_reason == "converged"
            assert len(trace) == 1 and op.iterations == 1
        elif len(trace) < max_iterations:
            assert trace.stop_reason in ("converged", "stalled")
        else:
            assert trace.stop_reason in ("converged", "budget")
        if max_iterations == 1 and iterative:
            assert trace.stop_reason == "budget"
        if warm and iterative:
            start = kgo.enforce_partial_unitarity(u_init)
            assert trace.records[0].iteration == 0
            assert trace.records[0].f_after == tensor.quadratic_form(start)

    def test_first_step_never_stops_a_paper_iteration(self, three_point_data,
                                                      three_point_tensor):
        # The least-squares start is already exact, so F is flat from the
        # first step on; the loop still takes a second step before stopping.
        cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=50,
                               init_with_least_squares=True)
        op, trace = kgo.solve(three_point_tensor, cfg, kgo.lsq_channel(three_point_data))
        assert [r.iteration for r in trace] == [0, 1, 2]
        assert trace.stop_reason == "converged"
        assert op.f_value == pytest.approx(3.0, abs=1e-12)


class TestIterateLinearConstraints:
    def test_zero_border_matches_relaxed_problem(self, three_point_tensor):
        cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=1)
        op, trace = kgo.solve(three_point_tensor, cfg)
        _, channels = kgo.solve_partial_constraint(three_point_tensor)
        _, _, f_plain = kgo.select_candidate(channels, three_point_tensor,
                                             min(16, 4))
        assert trace.records[0].f_after == pytest.approx(f_plain, rel=1e-12)

    def test_three_point_exact_within_fifty(self, three_point_tensor):
        cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=50)
        op, _ = kgo.solve(three_point_tensor, cfg)
        assert op.f_value == pytest.approx(3.0, abs=1e-6)

    def test_not_worse_than_adjusted_least_squares(self, three_point_data,
                                                   three_point_tensor):
        cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=50)
        op, _ = kgo.solve(three_point_tensor, cfg)
        lsq = adjusted_least_squares(three_point_data, three_point_tensor)
        assert op.f_value >= lsq.f_value - 1e-9


def christoffel_tensor(rng, m_obs=2000):
    """F_CHRISTOFFEL tensor on 2-D attributes with d*n = 5 * 21 = 105."""
    x = rng.uniform(-1.0, 1.0, size=(m_obs, 2))
    f = np.sin(np.pi * x[:, :1]) + 0.1 * rng.standard_normal((m_obs, 1))
    sample = kgo.Sample(x, f, rng.uniform(0.5, 1.5, size=m_obs))
    data = kgo.prepare(sample,
                       kgo.with_scale(kgo.BasisSpec("chebyshev", 5), x),
                       kgo.with_scale(kgo.BasisSpec("chebyshev", 4), f))
    return data, kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL, data)


def assert_monotone(trace):
    f_after = [r.f_after for r in trace]
    assert all(b >= a for a, b in zip(f_after, f_after[1:]))


class TestIteratePolarAscent:
    def test_is_the_default(self):
        assert kgo.SolverConfig().algorithm == "polar-ascent"

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_monotone_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        tensor = random_tensor(rng, 3, 6)
        for u_init in (None, rng.normal(size=(3, 6))):
            cfg = kgo.SolverConfig(max_iterations=200,
                                   init_with_least_squares=u_init is not None)
            op, trace = kgo.solve(tensor, cfg, u_init)
            assert_monotone(trace)
            assert op.f_value == trace.records[-1].f_after  # the last iterate is the best
            assert op.residual <= 1e-8

    def test_trace_monotone_christoffel(self):
        data, tensor = christoffel_tensor(np.random.default_rng(15))
        assert tensor.d * tensor.n >= 100
        cfg = kgo.SolverConfig(max_iterations=300, init_with_least_squares=True)
        op, trace = kgo.solve(tensor, cfg, kgo.lsq_channel(data))
        assert len(trace) > 10
        assert_monotone(trace)
        assert op.residual <= 1e-8

    def test_stationary_when_converged(self):
        # The |dF| stop test bounds the stationarity residual by roughly
        # sqrt(rel_tol), so a tight rel_tol makes the certificate small.
        rng = np.random.default_rng(16)
        data = make_random_instance(rng, max_obs=80)
        for kind in kgo.TensorKind:
            tensor = kgo.build_coverage_tensor(kind, data)
            op, trace = kgo.solve(tensor, kgo.SolverConfig(rel_tol=1e-12))
            assert trace.stop_reason == "converged"
            assert trace.records[-1].stationarity <= 1e-6
            assert kgo.stationarity_residual(op.u, tensor) == pytest.approx(
                trace.records[-1].stationarity, rel=1e-9, abs=1e-15)

    def test_not_below_its_start(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            data = make_random_instance(rng, max_obs=80)
            tensor = kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL, data)
            maxev, _ = kgo.solve(tensor, kgo.SolverConfig(algorithm="maxev-svd-adj"))
            op, _ = kgo.solve(tensor, kgo.SolverConfig())
            assert op.f_value >= maxev.f_value
            snap = adjusted_least_squares(data, tensor)
            op, _ = kgo.solve(tensor, kgo.SolverConfig(init_with_least_squares=True),
                              kgo.lsq_channel(data))
            assert op.f_value >= snap.f_value

    def test_rank_deficient_steps(self):
        # Two rank-one observations: S u = sum_l c_l f_l x_l^T has rank <= 2
        # < d, so the plain step polar(S u) never exists.
        rng = np.random.default_rng(18)
        d, n, m_obs = 4, 6, 2
        z = np.einsum("li,lj->lij", rng.normal(size=(m_obs, d)),
                      rng.normal(size=(m_obs, n))).reshape(m_obs, -1)
        tensor = kgo.CoverageTensor(kgo.TensorKind.PLAIN_VALUE, d, n, z.T @ z)
        for u_init in (None, rng.normal(size=(d, n))):
            cfg = kgo.SolverConfig(init_with_least_squares=u_init is not None)
            op, trace = kgo.solve(tensor, cfg, u_init)
            su = (tensor.matrix @ op.u.reshape(-1)).reshape(d, n)
            assert np.linalg.matrix_rank(su) < d
            assert op.residual <= 1e-8
            assert len(trace) > 1
            assert_monotone(trace)

    def test_stalls_without_raising(self):
        tensor = kgo.CoverageTensor(kgo.TensorKind.PLAIN_VALUE, 2, 3, np.zeros((6, 6)))
        u0 = random_partially_unitary(np.random.default_rng(19), 2, 3)
        op, trace = kgo.solve(tensor, kgo.SolverConfig(init_with_least_squares=True), u0)
        assert trace.stop_reason == "stalled"
        assert len(trace) == 1
        np.testing.assert_allclose(op.u, u0, atol=1e-12)


class TestOperatorAdjust:
    def test_identity_operator_matches_gram_eig(self):
        rng = np.random.default_rng(7)
        tensor = random_tensor(rng, 3, 5)
        u = rng.normal(size=(3, 5))
        op, transferred = kgo.operator_adjust(u, np.eye(3), tensor)
        f_direct = tensor.quadratic_form(kgo.enforce_partial_unitarity(u, "gram-eig"))
        assert transferred.quadratic_form(op.u) == pytest.approx(f_direct, rel=1e-9)
        assert op.residual <= 1e-10

    def test_already_unitary_is_row_mixing(self):
        rng = np.random.default_rng(8)
        tensor = random_tensor(rng, 2, 4)
        u = random_partially_unitary(rng, 2, 4)
        op, transferred = kgo.operator_adjust(u, np.eye(2), tensor)
        mix = op.u @ u.T
        np.testing.assert_allclose(mix @ mix.T, np.eye(2), atol=1e-10)
        assert transferred.quadratic_form(op.u) == pytest.approx(
            tensor.quadratic_form(u), rel=1e-9)

    def test_multiplier_operator_keeps_constraints(self, three_point_tensor):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(2, 2)) + np.eye(2)
        lam = kgo.lagrange_multipliers(kgo.enforce_partial_unitarity(u),
                                       three_point_tensor)
        op, _ = kgo.operator_adjust(u, lam, three_point_tensor)
        assert op.residual <= 1e-10


class TestSigmaBasisMultipliers:
    def test_single_row(self):
        rng = np.random.default_rng(10)
        tensor = random_tensor(rng, 1, 4)
        u = rng.normal(size=(1, 4))
        mult = kgo.sigma_basis_multipliers(u, tensor)
        adjusted = kgo.enforce_partial_unitarity(u)
        assert mult[0] == pytest.approx(tensor.quadratic_form(adjusted))

    def test_spur_consistency(self):
        rng = np.random.default_rng(11)
        tensor = random_tensor(rng, 3, 6)
        u = rng.normal(size=(3, 6))
        mult = kgo.sigma_basis_multipliers(u, tensor)
        converted = kgo.convert_sigma_multipliers(u, mult)
        assert float(mult.sum()) == pytest.approx(float(np.trace(converted)),
                                                  abs=1e-12 * max(1.0, abs(mult.sum())))

    def test_agrees_with_multiplier_trace(self, three_point_tensor):
        rng = np.random.default_rng(12)
        u = rng.normal(size=(2, 2)) + 0.5 * np.eye(2)
        adjusted = kgo.enforce_partial_unitarity(u)
        mult = kgo.sigma_basis_multipliers(adjusted, three_point_tensor)
        lam = kgo.lagrange_multipliers(adjusted, three_point_tensor)
        assert float(mult.sum()) == pytest.approx(float(np.trace(lam)), abs=1e-9)


class TestIllConditionedSelection:
    def test_gram_eig_skips_unusable_candidates(self):
        # Labels sitting almost inside a lower-dimensional subspace produce
        # eigenstate candidates whose singular-value ratio passes the rank
        # gate but whose squared conditioning defeats the gram-eig snap;
        # selection must skip them instead of aborting the solve.
        rng = np.random.default_rng(2)
        m_obs = 96
        x = np.column_stack([np.ones(m_obs), rng.normal(size=(m_obs, 3))])
        base = x[:, :3] @ rng.normal(size=(3, 4))
        f = base + 1e-7 * rng.normal(size=(m_obs, 4))
        f[:, 0] = 1.0
        w = rng.uniform(0.01, 3.0, size=m_obs)
        data = kgo.prepare_points(x, f, w)
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL, data)
        _, channels = kgo.solve_partial_constraint(tensor)
        hits = 0
        for ch in channels[:16]:
            s = np.linalg.svd(ch, compute_uv=False)
            if s[-1] <= 1e-12 * s[0]:
                continue
            try:
                kgo.enforce_partial_unitarity(ch, "gram-eig")
            except NumericalError:
                hits += 1
        assert hits >= 1  # the instance really exercises the skip path
        cfg = kgo.SolverConfig(algorithm="maxev-evadj")
        op, _ = kgo.solve(tensor, cfg)
        assert op.residual <= 1e-8


class TestSolveDispatcher:
    @pytest.mark.parametrize("algorithm", kgo.ALGORITHMS)
    def test_all_paths_constrained(self, three_point_data, three_point_tensor,
                                   algorithm):
        cfg = kgo.SolverConfig(algorithm=algorithm, max_iterations=30)
        u_init = (kgo.lsq_channel(three_point_data)
                  if algorithm == "lsq-adj" else None)
        op, trace = kgo.solve(three_point_tensor, cfg, u_init)
        assert op.residual <= 1e-8
        assert op.algorithm == algorithm
        assert len(trace) >= 1

    @pytest.mark.parametrize("algorithm", kgo.ALGORITHMS)
    def test_stop_reason_and_stationarity(self, algorithm):
        rng = np.random.default_rng(20)
        tensor = random_tensor(rng, 3, 6)
        iterative = algorithm in ("lagrange-iter", "linear-constraints", "polar-ascent")
        cfg = kgo.SolverConfig(algorithm=algorithm, max_iterations=2)
        op, trace = kgo.solve(tensor, cfg, rng.normal(size=(3, 6)))
        assert trace.stop_reason == ("budget" if iterative else "converged")
        for record in trace:
            assert np.isfinite(record.stationarity) and record.stationarity >= 0.0
        if not iterative:
            assert trace.records[-1].stationarity == pytest.approx(
                kgo.stationarity_residual(op.u, tensor), abs=1e-15)

    def test_sign_flip_leaves_coverage(self, three_point_tensor):
        cfg = kgo.SolverConfig(algorithm="maxev")
        op, _ = kgo.solve(three_point_tensor, cfg)
        assert three_point_tensor.quadratic_form(-op.u) == pytest.approx(op.f_value)

    def test_deterministic_traces(self):
        rng = np.random.default_rng(13)
        data = make_random_instance(rng, max_obs=50)
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL, data)
        cfg = kgo.SolverConfig(algorithm="lagrange-iter", max_iterations=20)
        op1, tr1 = kgo.solve(tensor, cfg)
        op2, tr2 = kgo.solve(tensor, cfg)
        np.testing.assert_array_equal(op1.u, op2.u)
        assert [(r.f_before, r.f_after, r.residual) for r in tr1] == \
               [(r.f_before, r.f_after, r.residual) for r in tr2]

    def test_coverage_bounded_by_total_transferable(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            data = make_random_instance(rng, max_obs=80)
            d = data.f_orth.shape[1]
            sub = kgo.contributing_subspace(data, d, "projective")
            tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                               data, sub)
            cfg = kgo.SolverConfig(algorithm="linear-constraints", max_iterations=25)
            op, _ = kgo.solve(tensor, cfg)
            assert op.f_value <= kgo.ftot_upper_bound(data) + 1e-8


class TestDispatcherErrors:
    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        from kgo.errors import DimensionError
        with pytest.raises(DimensionError, match="rel_tol must be finite and positive"):
            kgo.SolverConfig(rel_tol=rel_tol)

    def test_lsq_adj_requires_channel(self, three_point_tensor):
        from kgo.errors import DimensionError
        with pytest.raises(DimensionError):
            kgo.solve(three_point_tensor, kgo.SolverConfig(algorithm="lsq-adj"))
