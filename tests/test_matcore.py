import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplr import matcore
from lplr.errors import (
    InvalidP,
    NotPositiveDefinite,
    RankDeficient,
    ShapeMismatch,
)

from oracles import hand_cholesky, jacobi_eigvalsh, pnorm_pow_loops


class TestEntrywisePnormPow:
    def test_sum_of_absolute_values(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert matcore.entrywise_pnorm_pow(a, 1) == pytest.approx(10.0)

    def test_identity_p2(self):
        assert matcore.entrywise_pnorm_pow(np.eye(2), 2) == pytest.approx(2.0)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-5, 6, size=(3, 3)).astype(float)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert matcore.entrywise_pnorm_pow(a, p) == pytest.approx(pnorm_pow_loops(a, p), rel=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidP):
            matcore.entrywise_pnorm_pow(np.eye(2), 0.5)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(InvalidP):
            matcore.entrywise_pnorm_pow(np.eye(2), p)
        with pytest.raises(InvalidP):
            matcore.vector_pnorm(np.ones(2), p)

    def test_zero_iff_zero_matrix(self):
        assert matcore.entrywise_pnorm_pow(np.zeros((2, 3)), 1.5) == 0.0
        assert matcore.entrywise_pnorm_pow(np.array([[0.0, 1e-150]]), 1.5) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(-8.0, 8.0, allow_nan=False),
        p=st.floats(1.0, 4.0),
    )
    def test_transpose_and_scaling_invariants(self, seed, alpha, p):
        a = np.random.default_rng(seed).normal(size=(3, 5))
        base = matcore.entrywise_pnorm_pow(a, p)
        assert matcore.entrywise_pnorm_pow(a.T, p) == pytest.approx(base, rel=1e-10)
        assert matcore.entrywise_pnorm_pow(alpha * a, p) == pytest.approx(abs(alpha) ** p * base, rel=1e-9, abs=1e-12)


class TestSvd:
    def test_diagonal_matrix(self):
        u, s, v = matcore.svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-12)

    def test_identity(self):
        _, s, _ = matcore.svd(np.eye(4))
        np.testing.assert_allclose(s, np.ones(4), atol=1e-12)

    def test_reconstruction_and_jacobi_oracle(self):
        a = np.random.default_rng(42).normal(size=(5, 3))
        u, s, v = matcore.svd(a)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - a) < 1e-10
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)
        # Singular values are the square roots of the eigenvalues of A^T A,
        # computed by an independent Jacobi rotation solver.
        oracle = np.sqrt(jacobi_eigvalsh(a.T @ a))
        np.testing.assert_allclose(s, oracle, rtol=1e-9)

    def test_singular_values_invariant_under_row_permutation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4))
        _, s1, _ = matcore.svd(a)
        _, s2, _ = matcore.svd(a[rng.permutation(6)])
        np.testing.assert_allclose(s1, s2, rtol=1e-10)

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            matcore.svd(np.ones((2, 5)))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(matcore.cholesky(np.eye(3)), np.eye(3))

    def test_two_by_two_hand_case(self):
        f = np.array([[4.0, 2.0], [2.0, 3.0]])
        g = matcore.cholesky(f)
        np.testing.assert_allclose(g, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-12)
        np.testing.assert_allclose(g, hand_cholesky(f), rtol=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            matcore.cholesky(np.diag([1.0, -1.0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_recovers_lower_triangular_factor(self, seed):
        rng = np.random.default_rng(seed)
        g = np.tril(rng.normal(size=(4, 4)))
        np.fill_diagonal(g, np.abs(np.diag(g)) + 0.5)
        back = matcore.cholesky(g @ g.T)
        np.testing.assert_allclose(back, g, rtol=1e-9, atol=1e-9)


class TestQr:
    def test_identity(self):
        np.testing.assert_allclose(matcore.qr(np.eye(3)), np.eye(3))

    def test_permutation_input(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = matcore.qr(a)
        assert np.all(np.diag(r) > 0)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-12)

    def test_reconstruction(self):
        a = np.random.default_rng(5).normal(size=(6, 3))
        r = matcore.qr(a)
        np.testing.assert_allclose(r.T @ r, a.T @ a, rtol=0, atol=1e-10)
        np.testing.assert_allclose(r, np.triu(r))
        assert np.all(np.diag(r) >= 0)

    # The randomized conditioner at p = 2 is this R; forming no Q must not move a bit of it.
    @pytest.mark.parametrize("shape", [(6, 3), (6, 6), (400, 5), (2000, 16), (20000, 32)])
    @pytest.mark.parametrize("layout", ["rows", "columns"])
    def test_r_equals_the_full_factorizations_bit_for_bit(self, shape, layout):
        a = np.random.default_rng(shape[0]).normal(size=shape)
        if layout == "columns":
            a = np.asfortranarray(a)
        r = np.linalg.qr(a)[1]
        r *= np.where(np.diag(r) < 0, -1.0, 1.0)[:, None]
        assert matcore.qr(a).tobytes() == r.tobytes()

    def test_rank_deficient_rejected(self):
        col = np.arange(1.0, 7.0)[:, None]
        with pytest.raises(RankDeficient):
            matcore.qr(np.hstack([col, 2.0 * col]))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ShapeMismatch):
        matcore.as_matrix(np.array([[1.0, np.nan]]))
