import numpy as np
import pytest

import kgo
from kgo.errors import NumericalError
from kgo.linalg import _fix_column_signs


class TestSymEig:
    def test_diagonal(self):
        res = kgo.sym_eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(res.eigenvectors), np.eye(2))

    def test_two_by_two_exchange(self):
        res = kgo.sym_eig([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(res.eigenvalues, [1.0, -1.0])
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(res.eigenvectors[:, 0], [r, r])
        np.testing.assert_allclose(res.eigenvectors[:, 1], [r, -r])

    def test_scalar(self):
        res = kgo.sym_eig([[5.0]])
        np.testing.assert_allclose(res.eigenvalues, [5.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericalError):
            kgo.sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            kgo.sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_reconstruction_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 31))
            a = rng.normal(size=(n, n))
            a = a + a.T
            res = kgo.sym_eig(a)
            scale = 1.0 + np.linalg.norm(a)
            for i in range(n):
                resid = a @ res.eigenvectors[:, i] - res.eigenvalues[i] * res.eigenvectors[:, i]
                assert np.linalg.norm(resid) <= 1e-10 * scale
            gram = res.eigenvectors.T @ res.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-12


class TestGenEig:
    def test_identity_b_matches_sym_eig(self):
        a = np.diag([2.0, 1.0])
        res = kgo.gen_sym_eig(a, np.eye(2))
        plain = kgo.sym_eig(a)
        np.testing.assert_allclose(res.eigenvalues, plain.eigenvalues)

    def test_diagonal_ratio(self):
        res = kgo.gen_sym_eig(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0])

    def test_identity_pencil(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        spd = a @ a.T + 4.0 * np.eye(4)
        res = kgo.gen_sym_eig(spd, spd)
        np.testing.assert_allclose(res.eigenvalues, np.ones(4), atol=1e-12)

    def test_b_orthonormality_and_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 31))
            a = rng.normal(size=(n, n))
            a = a + a.T
            b = rng.normal(size=(n, n))
            b = b @ b.T + n * np.eye(n)
            res = kgo.gen_sym_eig(a, b)
            scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(b)
            for i in range(n):
                resid = a @ res.eigenvectors[:, i] - res.eigenvalues[i] * (b @ res.eigenvectors[:, i])
                assert np.linalg.norm(resid) <= 1e-10 * scale
            gram = res.eigenvectors.T @ b @ res.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-12 * scale

    def test_whitening_route_agreement(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        b = rng.normal(size=(6, 6))
        b = b @ b.T + 6.0 * np.eye(6)
        w = kgo.spd_inverse_sqrt(b)
        np.testing.assert_allclose(kgo.gen_sym_eig(a, b).eigenvalues,
                                   kgo.sym_eig(w @ a @ w).eigenvalues, atol=1e-9)

    def test_rejects_indefinite_b(self):
        with pytest.raises(NumericalError):
            kgo.gen_sym_eig(np.eye(2), np.diag([1.0, -1.0]))


class TestSpdInverseSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(kgo.spd_inverse_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([0.5, 1.0 / 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(kgo.spd_inverse_sqrt(np.eye(3)), np.eye(3))

    def test_defining_property(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        w = kgo.spd_inverse_sqrt(g)
        np.testing.assert_allclose(w @ g @ w, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(w, w.T)

    def test_rejects_singular(self):
        with pytest.raises(NumericalError):
            kgo.spd_inverse_sqrt(np.diag([1.0, 0.0]))

    def test_random_spd_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 31))
            a = rng.normal(size=(n, n))
            g = a @ a.T + n * np.eye(n)
            w = kgo.spd_inverse_sqrt(g)
            assert np.abs(w @ g @ w - np.eye(n)).max() <= 1e-10 * np.linalg.norm(g)


class TestDeterminism:
    def test_sign_flip_matches_column_loop(self):
        # Zeros and tied magnitudes: the first largest-magnitude entry decides.
        rng = np.random.default_rng(9)
        for trial in range(50):
            v = rng.integers(-2, 3, size=(int(rng.integers(1, 7)), int(rng.integers(0, 7))))
            v = v.astype(float) if trial % 2 else v * rng.normal(size=v.shape)
            expect = v.copy()
            for i in range(v.shape[1]):
                if v[np.argmax(np.abs(v[:, i])), i] < 0.0:
                    expect[:, i] = -v[:, i]
            assert _fix_column_signs(v).tobytes() == expect.tobytes()

    def test_empty_matrix(self):
        eig = kgo.sym_eig(np.zeros((0, 0)))
        assert eig.eigenvalues.shape == (0,) and eig.eigenvectors.shape == (0, 0)

    def test_sign_convention_stable(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        first = kgo.sym_eig(a)
        second = kgo.sym_eig(a.copy())
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestRebindableNames:
    """bench/layers.py times these layers by rebinding the names below in the
    modules that call them, so each must stay a module-level binding of the
    same function."""

    def test_sym_eig_bindings(self):
        import kgo.hilbert
        import kgo.linalg
        import kgo.solver
        import kgo.tensors
        for module in (kgo.solver, kgo.hilbert, kgo.tensors):
            assert module.sym_eig is kgo.linalg.sym_eig

    def test_evaluate_basis_binding(self):
        import kgo.model
        import kgo.sample
        assert kgo.model.evaluate_basis is kgo.sample.evaluate_basis
