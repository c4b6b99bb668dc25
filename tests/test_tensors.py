import tracemalloc
from functools import partial

import numpy as np
import pytest

import kgo
from kgo.errors import DimensionError, NumericalError
from kgo.linalg import _ROW_BLOCK
from kgo.tensors import subspace_embedding

from conftest import direct_coverage, make_random_instance, random_partially_unitary


def christoffel_product_moments(data):
    """Four-index christoffel-product tensor M[j, k, j', k']."""
    tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT, data)
    return tensor.matrix.reshape(tensor.d, tensor.n, tensor.d, tensor.n)


class TestChristoffelProductMoments:
    def test_raw_constant_entry(self, three_point_data):
        # Raw-coordinate oracle: sum of the Christoffel products over the sample.
        kx = [kgo.christoffel(three_point_data.x_space, p)
              for p in three_point_data.x_points]
        kf = [kgo.christoffel(three_point_data.f_space, p)
              for p in three_point_data.f_points]
        raw_expect = sum(w * a * b for w, a, b in zip(three_point_data.weights, kx, kf))
        assert raw_expect == pytest.approx(11.88)
        m4 = christoffel_product_moments(three_point_data)
        # Contract back onto the raw constant directions of both sides.
        gx = three_point_data.x_space
        gf = three_point_data.f_space
        cx = gx.transform @ gx.gram_raw @ gx.const_raw
        cf = gf.transform @ gf.gram_raw @ gf.const_raw
        raw_entry = np.einsum("jkst,j,k,s,t->", m4, cf, cx, cf, cx)
        assert raw_entry == pytest.approx(raw_expect)

    def test_single_observation_outer_product(self):
        data = kgo.prepare_points([[1.0, 2.0]], [[1.0]], [1.0])
        m4 = christoffel_product_moments(data)
        xo = data.x_orth[0] / np.linalg.norm(data.x_orth[0])
        fo = data.f_orth[0] / np.linalg.norm(data.f_orth[0])
        expect = np.einsum("j,k,s,t->jkst", fo, xo, fo, xo)
        np.testing.assert_allclose(m4, expect, atol=1e-12)

    def test_linear_in_weights(self, three_point_data, three_point_sample):
        m4 = christoffel_product_moments(three_point_data)
        doubled = kgo.PreparedData(
            weights=2.0 * three_point_data.weights,
            x_space=three_point_data.x_space, f_space=three_point_data.f_space,
            x_rows=three_point_data.x_rows, f_rows=three_point_data.f_rows,
            x_spec=three_point_data.x_spec, f_spec=three_point_data.f_spec)
        np.testing.assert_allclose(christoffel_product_moments(doubled),
                                   2.0 * m4, atol=1e-12)


class TestBuildCoverageTensor:
    def test_identity_channel_saturates(self, three_point_data):
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                           three_point_data)
        assert tensor.quadratic_form(np.eye(2)) == pytest.approx(3.0)
        assert direct_coverage(three_point_data, np.eye(2),
                               kgo.TensorKind.CHRISTOFFEL_PRODUCT) == pytest.approx(3.0)

    def test_zero_channel(self, three_point_data):
        for kind in kgo.TensorKind:
            tensor = kgo.build_coverage_tensor(kind, three_point_data)
            assert tensor.quadratic_form(np.zeros((2, 2))) == 0.0

    def test_plain_value_oracle(self, three_point_data):
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.PLAIN_VALUE,
                                           three_point_data)
        f = tensor.quadratic_form(np.eye(2))
        assert f == pytest.approx(direct_coverage(three_point_data, np.eye(2),
                                                  kgo.TensorKind.PLAIN_VALUE))

    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_oracle_equivalence_random(self, kind):
        rng = np.random.default_rng(hash(kind.value) % 2 ** 31)
        for _ in range(5):
            data = make_random_instance(rng, max_obs=60, max_n=6, max_m=3)
            d = data.f_orth.shape[1]
            n = data.x_orth.shape[1]
            u = rng.normal(size=(d, n))
            tensor = kgo.build_coverage_tensor(kind, data)
            expect = direct_coverage(data, u, kind)
            assert tensor.quadratic_form(u) == pytest.approx(expect, rel=1e-9)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(10)
        data = make_random_instance(rng)
        for kind in kgo.TensorKind:
            tensor = kgo.build_coverage_tensor(kind, data)
            m = tensor.matrix
            assert np.abs(m - m.T).max() <= 1e-12 * max(np.abs(m).max(), 1e-300)
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] >= -1e-10 * np.linalg.norm(m)

    def test_subspace_composition_oracle(self, three_point_data):
        rng = np.random.default_rng(11)
        sub = kgo.contributing_subspace(three_point_data, 2, "projective")
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                                           three_point_data, sub)
        embed = subspace_embedding(three_point_data, sub)
        u = rng.normal(size=(2, 2))
        expect = direct_coverage(three_point_data, u,
                                 kgo.TensorKind.CHRISTOFFEL_PRODUCT, embed=embed)
        assert tensor.quadratic_form(u) == pytest.approx(expect, rel=1e-9)

    def test_subspace_requires_product_kind(self, three_point_data):
        sub = kgo.contributing_subspace(three_point_data, 1, "projective")
        with pytest.raises(DimensionError):
            kgo.build_coverage_tensor(kgo.TensorKind.PLAIN_VALUE,
                                      three_point_data, sub)

    def test_swapped_roles_equality(self):
        # When labels outnumber attributes, swapping the sides yields the
        # same transferred coverage for the transposed channel.
        rng = np.random.default_rng(12)
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        f = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        w = np.ones(30)
        swapped = kgo.prepare_points(f, x, w)
        tensor = kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT, swapped)
        u = random_partially_unitary(rng, 2, 3)
        unswapped = kgo.prepare_points(x, f, w)
        expect = 0.0
        for l in range(30):
            xo, fo = unswapped.x_orth[l], unswapped.f_orth[l]
            expect += w[l] * float(xo @ u @ fo) ** 2 / float(xo @ xo) / float(fo @ fo)
        assert tensor.quadratic_form(u) == pytest.approx(expect, rel=1e-9)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(13)
        m_obs = 40
        x = np.column_stack([np.ones(m_obs), rng.normal(size=(m_obs, 3))])
        f = np.column_stack([np.ones(m_obs), x[:, 1] + 0.1 * rng.normal(size=m_obs)])
        w = rng.uniform(0.5, 1.5, size=m_obs)
        ax = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        af = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        data0 = kgo.prepare_points(x, f, w)
        data1 = kgo.prepare_points(x @ ax.T, f @ af.T, w,
                                   np.linalg.solve(ax.T, np.array([1.0, 0, 0, 0])),
                                   np.linalg.solve(af.T, np.array([1.0, 0])))
        u = random_partially_unitary(rng, 2, 4)
        # Transport the channel between the two orthonormal frames.
        r_x = data1.x_space.transform @ ax @ np.linalg.pinv(data0.x_space.transform)
        r_f = data1.f_space.transform @ af @ np.linalg.pinv(data0.f_space.transform)
        u1 = r_f @ u @ r_x.T
        for kind in kgo.TensorKind:
            t0 = kgo.build_coverage_tensor(kind, data0)
            t1 = kgo.build_coverage_tensor(kind, data1)
            assert t0.quadratic_form(u) == pytest.approx(t1.quadratic_form(u1), rel=1e-8)


class TestFtotUpperBound:
    def test_exact_subspace_equals_total_weight(self, three_point_data):
        assert kgo.ftot_upper_bound(three_point_data) == pytest.approx(3.0, abs=1e-10)

    def test_orthogonal_labels_reduce_to_constant(self):
        # Labels uncorrelated with every non-constant attribute: only the
        # constant direction carries coverage; trace oracle by hand.
        x = np.column_stack([np.ones(4), [1.0, 1.0, -1.0, -1.0]])
        f = np.column_stack([np.ones(4), [1.0, -1.0, 1.0, -1.0]])
        data = kgo.prepare_points(x, f, np.ones(4))
        cross = data.stats.cross
        mf = kgo.tensors.label_christoffel_moments(data)
        by_hand = float(np.trace(cross.T @ mf @ cross))
        assert kgo.ftot_upper_bound(data) == pytest.approx(by_hand, abs=1e-12)

    def test_trace_equals_eigen_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            data = make_random_instance(rng, max_obs=80)
            spectrum = kgo.coverage_spectrum(data, "projective")
            assert kgo.ftot_upper_bound(data) == pytest.approx(
                float(spectrum.sum()), abs=1e-10 * max(1.0, abs(spectrum.sum())))

    def test_raw_pencil_route_agrees(self):
        rng = np.random.default_rng(15)
        data = make_random_instance(rng, max_obs=60)
        cross_raw = (data.x_points.T * data.weights) @ data.f_orth
        mf = kgo.tensors.label_christoffel_moments(data)
        k_raw = cross_raw @ mf @ cross_raw.T
        pencil = kgo.gen_sym_eig(k_raw, data.x_space.gram_raw)
        assert kgo.ftot_upper_bound(data) == pytest.approx(
            float(pencil.eigenvalues.sum()), rel=1e-9)


def subspace_coverage(data, sub):
    """Coverage of each subspace column under the pulled-back label coverage."""
    return np.einsum("ki,kl,li->i", sub, kgo.label_to_attribute_coverage(data), sub)


class TestContributingSubspace:
    def test_projective_eigenvalues_sum(self, three_point_data):
        sub = kgo.contributing_subspace(three_point_data, 2, "projective")
        np.testing.assert_allclose(sub.T @ sub, np.eye(2), atol=1e-12)
        coverage = subspace_coverage(three_point_data, sub)
        np.testing.assert_allclose(coverage, kgo.coverage_spectrum(three_point_data)[:2],
                                   atol=1e-12)
        assert float(coverage.sum()) == pytest.approx(3.0)
        raw = three_point_data.x_space.transform.T @ sub
        gram_orthonormal = raw.T @ three_point_data.x_space.gram_raw @ raw
        np.testing.assert_allclose(gram_orthonormal, np.eye(2), atol=1e-10)

    def test_top_one(self, three_point_data):
        sub = kgo.contributing_subspace(three_point_data, 1, "projective")
        full = kgo.contributing_subspace(three_point_data, 2, "projective")
        np.testing.assert_array_equal(sub, full[:, :1])
        assert subspace_coverage(three_point_data, sub)[0] == pytest.approx(
            kgo.coverage_spectrum(three_point_data)[0])

    def test_rejects_out_of_range(self, three_point_data):
        with pytest.raises(DimensionError):
            kgo.contributing_subspace(three_point_data, 3, "projective")
        with pytest.raises(DimensionError):
            kgo.contributing_subspace(three_point_data, 0, "projective")


def adjusted_christoffel(data, point):
    """The adjusted Christoffel function 1 / (c^T P c) at a raw point with
    orthonormal coordinates c and P the label-matched projection."""
    coords = data.x_space.project(point)
    return 1.0 / float(coords @ kgo.label_matched_projection(data) @ coords)


def adjusted_matrix(data):
    """The raw-coordinate matrix T^T P T of the adjusted Christoffel function."""
    t = data.x_space.transform
    return t.T @ kgo.label_matched_projection(data) @ t


class TestAdjustedChristoffel:
    def test_full_space_equals_plain(self, three_point_data):
        for p in three_point_data.x_points:
            assert adjusted_christoffel(three_point_data, p) == pytest.approx(
                kgo.christoffel(three_point_data.x_space, p), rel=1e-12)

    def test_dominates_plain(self):
        grid = np.linspace(-1.0, 1.0, 41)
        sample = kgo.Sample(grid[:, None], grid[:, None], np.ones(41))
        data = kgo.prepare(sample, kgo.BasisSpec("monomial", 2),
                           kgo.BasisSpec("monomial", 1))
        for p in data.x_points:
            assert adjusted_christoffel(data, p) >= kgo.christoffel(data.x_space, p) - 1e-12

    def test_sign_flip_invariance(self):
        grid = np.linspace(-1.0, 1.0, 21)
        sample = kgo.Sample(grid[:, None], grid[:, None], np.ones(21))
        data = kgo.prepare(sample, kgo.BasisSpec("monomial", 3),
                           kgo.BasisSpec("monomial", 1))
        flipped = kgo.prepare_points(data.x_points,
                                     data.f_points * np.array([1.0, -1.0]),
                                     data.weights, f_const=np.array([1.0, 0.0]))
        np.testing.assert_allclose(adjusted_matrix(flipped), adjusted_matrix(data), atol=1e-12)

    def test_never_zero_on_sample(self):
        rng = np.random.default_rng(17)
        data = make_random_instance(rng, max_obs=60)
        for p in data.x_points:
            k_adj = adjusted_christoffel(data, p)
            assert np.isfinite(k_adj) and k_adj > 0.0


class TestZeroGate:
    """One gate over the row norms: a zero norm names its observation."""

    def data(self, side):
        rng = np.random.default_rng(21)
        t = rng.uniform(-1.0, 1.0, 30)
        x = np.column_stack([np.ones(30), t, t ** 2])
        f = np.column_stack([np.ones(30), np.sin(2.0 * t)])
        (x if side == "x" else f)[7] = 0.0
        return kgo.prepare_points(x, f, np.ones(30))

    def test_zero_label_row(self):
        data = self.data("f")
        calls = [partial(kgo.build_coverage_tensor, kind, data) for kind in (
            kgo.TensorKind.CHRISTOFFEL_PRODUCT, kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
            kgo.TensorKind.F_CHRISTOFFEL)]
        calls += [partial(kgo.ftot_upper_bound, data),
                  partial(kgo.joint_distribution_coverage, data)]
        for call in calls:
            with pytest.raises(NumericalError, match="observation 7 has zero label projection"):
                call()
        kgo.build_coverage_tensor(kgo.TensorKind.PLAIN_VALUE, data)

    def test_zero_attribute_row(self):
        data = self.data("x")
        for call in (partial(kgo.build_coverage_tensor, kgo.TensorKind.CHRISTOFFEL_PRODUCT, data),
                     partial(kgo.joint_distribution_coverage, data)):
            with pytest.raises(NumericalError, match="observation 7 has zero attribute projection"):
                call()
        with pytest.raises(NumericalError, match="observation 7 has zero adjusted normalizer"):
            kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED, data)
        for kind in (kgo.TensorKind.F_CHRISTOFFEL, kgo.TensorKind.PLAIN_VALUE):
            kgo.build_coverage_tensor(kind, data)
        assert np.isfinite(kgo.ftot_upper_bound(data))


class TestRangeGate:
    """A weight that leaves the floating-point range names its observation.

    Whitening scales every row norm by 1/s when the weights scale by s, so
    w / |f|^2 scales as s^2 and the christoffel-product weight as s^3.
    """

    def data(self, scale):
        rng = np.random.default_rng(22)
        t = rng.uniform(-1.0, 1.0, 30)
        x = np.column_stack([np.ones(30), t, t ** 2])
        f = np.column_stack([np.ones(30), np.sin(2.0 * t)])
        weights = scale * rng.uniform(0.5, 2.0, 30)
        weights[0] = 0.0  # a zero-weight row is no failure, whatever its kind weight
        return kgo.prepare_points(x, f, weights)

    def test_underflow_names_first_weighted_row(self):
        data = self.data(1e-200)
        for kind in (kgo.TensorKind.CHRISTOFFEL_PRODUCT,
                     kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED, kgo.TensorKind.F_CHRISTOFFEL):
            with pytest.raises(NumericalError,
                               match=f"observation 1 has {kind.value} weight 0: rescale"):
                kgo.build_coverage_tensor(kind, data)
        with pytest.raises(NumericalError, match="observation 1 has christoffel-product weight 0"):
            kgo.joint_distribution_coverage(data)
        assert np.all(np.isfinite(kgo.build_coverage_tensor(kgo.TensorKind.PLAIN_VALUE,
                                                            data).matrix))

    def test_overflow_names_first_weighted_row(self):
        data = self.data(1e200)
        with pytest.raises(NumericalError, match="observation 1 has f-christoffel weight inf"):
            kgo.build_coverage_tensor(kgo.TensorKind.F_CHRISTOFFEL, data)
        with pytest.raises(NumericalError, match="observation 1 has christoffel-product weight inf"):
            kgo.joint_distribution_coverage(data)

    def test_label_norm_overflow_names_first_weighted_row(self):
        # |f|^2 scales as 1/s and overflows at s = 1e-310; the unit-state sum
        # behind F_TOT would drop those rows, so it raises instead.
        data = self.data(1e-310)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(data.f_orth[1] ** 2))
        for bound in (kgo.ftot_upper_bound, kgo.coverage_spectrum):
            with pytest.raises(NumericalError,
                               match="observation 1 has label projection inf: rescale"):
                bound(data)

    def test_in_range_scale_passes(self):
        # s^3 stays inside the range at s = 1e90: every kind builds.
        data = self.data(1e90)
        for kind in kgo.TensorKind:
            assert np.all(np.isfinite(kgo.build_coverage_tensor(kind, data).matrix))
        assert np.isfinite(kgo.joint_distribution_coverage(data))


class TestSingularCoupling:
    def make_orthogonal_label_data(self):
        # The second label direction has zero measure-weighted overlap with
        # every attribute direction, so the label/attribute coupling matrix
        # is singular.
        x = np.column_stack([np.ones(4), [-1.0, -1.0, 1.0, 1.0]])
        f = np.column_stack([np.ones(4), [1.0, -1.0, -1.0, 1.0]])
        return kgo.prepare_points(x, f, np.ones(4))

    def test_label_matched_projection_rejects(self):
        from kgo.errors import NumericalError
        data = self.make_orthogonal_label_data()
        with pytest.raises(NumericalError):
            kgo.label_matched_projection(data)

    def test_adjusted_tensor_rejects(self):
        from kgo.errors import NumericalError
        data = self.make_orthogonal_label_data()
        with pytest.raises(NumericalError):
            kgo.build_coverage_tensor(kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED,
                                      data)


BLOCK = _ROW_BLOCK


def blocked_instance(rng, size, n=5, m=3):
    """Prepared data of `size` rows with constant columns on both sides."""
    x = np.column_stack([np.ones(size), rng.normal(size=(size, n - 1))])
    f = np.column_stack([np.ones(size),
                         x[:, 1:m] + 0.3 * rng.normal(size=(size, m - 1))])
    return kgo.prepare_points(x, f, rng.uniform(0.1, 2.0, size=size))


def dense_coverage_weights(kind, data):
    """Per-row weights of the tensor kind, from whole-array formulas."""
    f, x = data.f_orth, data.x_orth
    w = data.weights.copy()
    if kind is not kgo.TensorKind.PLAIN_VALUE:
        w /= np.einsum("ij,ij->i", f, f)
    if kind is kgo.TensorKind.CHRISTOFFEL_PRODUCT:
        w /= np.einsum("ij,ij->i", x, x)
    if kind is kgo.TensorKind.CHRISTOFFEL_PRODUCT_ADJUSTED:
        w /= np.einsum("ij,jk,ik->i", x, kgo.label_matched_projection(data), x)
    return w


def dense_coverage_matrix(kind, data):
    """One-shot reference: S = Z^T diag(w) Z with the whole (M, d*n) Z in memory."""
    w = dense_coverage_weights(kind, data)
    z = np.einsum("lj,lk->ljk", data.f_orth, data.x_orth).reshape(data.size, -1)
    return (z.T * w) @ z


def chebyshev_instance(rng, size, x_vars=2, f_vars=1, x_order=4, f_order=2,
                       mode="up_to", source=None, dead=None):
    """`kgo.prepare` data over scaled Chebyshev bases on both sides.

    `source` picks attribute columns out of x_vars + 1 raw ones; `dead`
    names an attribute column held constant (a zero-span variable).
    """
    width = x_vars if source is None else x_vars + 1
    x = rng.uniform(-1.0, 1.0, size=(size, width))
    if dead is not None:
        x[:, dead] = 0.25
    f = np.column_stack([np.sin(2.0 * x[:, 0]) * np.cos(x[:, -1])
                         + 0.2 * rng.normal(size=size)]
                        + [rng.uniform(-2.0, 3.0, size=size) for _ in range(f_vars - 1)])
    sample = kgo.Sample(x, f, rng.uniform(0.1, 2.0, size=size))
    x_spec = kgo.BasisSpec("chebyshev", x_order, source=source, mode=mode)
    f_spec = kgo.BasisSpec("chebyshev", f_order)
    return kgo.prepare(sample, kgo.with_scale(x_spec, sample.x_rows),
                       kgo.with_scale(f_spec, sample.f_rows))


@pytest.fixture
def moment_route(monkeypatch):
    """Send every fit through the moment-table route and count the tensor builds.

    Small instances would take the rows route on cost alone; forcing the route
    checks the moment table on every shape against the dense reference.
    """
    calls = []
    real = kgo.tensors._TableRoute.matrix

    def counted(route):
        calls.append(route.data)
        return real(route)

    monkeypatch.setattr(kgo.tensors, "_moment_route", lambda data: True)
    monkeypatch.setattr(kgo.tensors._TableRoute, "matrix", counted)
    return calls


def assert_matches_dense(kind, data, subspace=None):
    """The build matches the one-shot reference to 1e-12 and repeats its bytes."""
    matrix = kgo.build_coverage_tensor(kind, data, subspace).matrix
    expect = dense_coverage_matrix(kind, data)
    if subspace is not None:
        embed = subspace_embedding(data, subspace)
        d, n = data.f_orth.shape[1], data.x_orth.shape[1]
        expect = np.einsum("js,jkql,qt->sktl", embed, expect.reshape(d, n, d, n), embed)
        expect = expect.reshape(matrix.shape)
    assert np.abs(matrix - expect).max() <= 1e-12 * np.abs(expect).max()
    again = kgo.build_coverage_tensor(kind, data, subspace).matrix
    assert matrix.tobytes() == again.tobytes()


SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]


class TestRowBlocks:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_matches_dense_and_repeats_bytes(self, size, kind):
        data = blocked_instance(np.random.default_rng(size), size)
        matrix = kgo.build_coverage_tensor(kind, data).matrix
        expect = dense_coverage_matrix(kind, data)
        assert np.abs(matrix - expect).max() <= 1e-12 * np.abs(expect).max()
        again = kgo.build_coverage_tensor(kind, data).matrix
        assert matrix.tobytes() == again.tobytes()

    @pytest.mark.parametrize("x_vars, f_vars", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_moment_table_matches_dense(self, moment_route, size, kind, x_vars, f_vars):
        rng = np.random.default_rng([size, x_vars, f_vars])
        x_order = {1: 5, 2: 4, 3: 2}[x_vars]
        data = chebyshev_instance(rng, size, x_vars, f_vars, x_order=x_order)
        assert_matches_dense(kind, data)
        assert len(moment_route) == 2

    @pytest.mark.parametrize("shape", [dict(x_vars=2, mode="exact"),
                                       dict(x_vars=2, source=(2, 0)),
                                       dict(x_vars=3, dead=1),
                                       dict(x_vars=3, source=(0, 1, 3), dead=3)])
    @pytest.mark.parametrize("size", [BLOCK - 1, 2 * BLOCK + 7])
    @pytest.mark.parametrize("kind", list(kgo.TensorKind))
    def test_moment_table_spec_shapes(self, moment_route, size, kind, shape):
        data = chebyshev_instance(np.random.default_rng(size), size, x_order=3, **shape)
        assert_matches_dense(kind, data)
        assert len(moment_route) == 2

    @pytest.mark.parametrize("size", [BLOCK + 1, 2 * BLOCK + 7])
    @pytest.mark.parametrize("d", [1, 2])
    def test_moment_table_subspace_composition(self, moment_route, size, d):
        data = chebyshev_instance(np.random.default_rng(size), size, 2, 2, x_order=4)
        subspace = kgo.contributing_subspace(data, d, "projective")
        assert_matches_dense(kgo.TensorKind.CHRISTOFFEL_PRODUCT, data, subspace)
        assert len(moment_route) == 2

    @pytest.mark.parametrize("basis", ["chebyshev", "monomial", None])
    def test_route_pinned(self, monkeypatch, basis):
        # Chebyshev data from kgo.prepare takes the moment table; monomial and
        # spec-less data take the syrk, and the tensor is its output unchanged.
        routes = []
        for name in ("_RowsRoute", "_TableRoute"):
            func = getattr(kgo.tensors, name).matrix

            def spy(route, func=func, name=name):
                routes.append((name, func(route)))
                return routes[-1][1]

            monkeypatch.setattr(getattr(kgo.tensors, name), "matrix", spy)
        data = chebyshev_instance(np.random.default_rng(4), 3 * BLOCK, x_order=8, f_order=3)
        if basis == "monomial":
            sample = kgo.Sample(data.x_rows, data.f_rows, data.weights)
            data = kgo.prepare(sample, kgo.BasisSpec("monomial", 8), kgo.BasisSpec("monomial", 3))
        elif basis is None:
            data = kgo.prepare_points(data.x_points, data.f_points, data.weights,
                                      data.x_space.const_raw, data.f_space.const_raw)
            assert data.x_spec is data.f_spec is None
        expect = "_TableRoute" if basis == "chebyshev" else "_RowsRoute"
        for kind in kgo.TensorKind:
            matrix = kgo.build_coverage_tensor(kind, data).matrix
            name, built = routes.pop()
            assert name == expect
            assert matrix.tobytes() == built.tobytes()

    def test_ill_conditioned_chebyshev_takes_syrk(self):
        # Two tight clusters make the attribute Gram nearly singular; whitening
        # raw moments would lose about kappa_x * kappa_f of precision there.
        rng = np.random.default_rng(6)
        size = 2 * BLOCK
        x = np.concatenate([rng.normal(-1.0, 0.05, (size // 2, 2)),
                            rng.normal(1.0, 0.05, (size // 2, 2))])
        f = np.sin(x[:, :1]) + 0.1 * rng.normal(size=(size, 1))
        sample = kgo.Sample(x, f, np.ones(size))
        data = kgo.prepare(sample, kgo.with_scale(kgo.BasisSpec("chebyshev", 6), x),
                           kgo.with_scale(kgo.BasisSpec("chebyshev", 3), f))
        assert not kgo.tensors._moment_route(data)

    def test_many_variables_low_order_takes_syrk(self):
        # Six attribute variables at order 2: the moment table's leading
        # columns outnumber what the syrk does per row.
        data = chebyshev_instance(np.random.default_rng(7), BLOCK, x_vars=6, x_order=2)
        assert not kgo.tensors._moment_route(data)

    def test_tensor_build_memory_flat_in_rows(self):
        # d*n = 100 at M = 5e4: one dense (M, d*n) buffer alone would be 40 MB.
        size, n, m = 50_000, 25, 4
        data = blocked_instance(np.random.default_rng(5), size, n, m)
        # The same rows through the moment table: d*n = 4 * 45 = 180.
        cheb = chebyshev_instance(np.random.default_rng(5), size, x_order=8, f_order=3)
        assert kgo.tensors._moment_route(cheb)
        tracemalloc.start()
        try:
            for instance in (data, cheb):
                dense_bytes = size * instance.f_space.eff_dim * instance.x_space.eff_dim * 8
                for kind in kgo.TensorKind:
                    tracemalloc.reset_peak()
                    tensor = kgo.build_coverage_tensor(kind, instance)
                    peak = tracemalloc.get_traced_memory()[1]
                    assert tensor.matrix.shape == (tensor.d * tensor.n,) * 2
                    assert peak < dense_bytes / 4, (kind, peak)
        finally:
            tracemalloc.stop()
