import importlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from lplr import SyntheticSpec, generate_synthetic, lpsvd
from lplr.errors import NoConvergence, RankDeficient, ShapeMismatch
from lplr.lowner import DIRECTION_BLOCK, LevelSet, LownerConfig
from lplr.lpsvd import lp_svd, lp_svd_randomized, randomized_conditioner, sandwich_check
from lplr.matcore import full_rank_singular_values, qr
from lplr.rng import philox

from oracles import mvee_axis_reciprocals, reference_lewis, whitened_lower_ratio

# The package attribute ``lplr.lowner`` is the function, not the module.
lowner_module = importlib.import_module("lplr.lowner")


def ratio_samples(a, p, d_diag, v, xs):
    return LevelSet(a, p).norms(xs) / np.linalg.norm((xs @ v) * d_diag, axis=1)


def sandwich_dirs(v, num_samples=1000, seed=424242):
    dirs = philox(seed, stream=0).standard_normal((num_samples, v.shape[0]))
    return np.concatenate([dirs, v.T, -v.T], axis=0)


def one_product_numerators(a, p, dirs):
    prod = a @ dirs.T
    y = np.abs(prod)
    if p in (1, 2):
        return y.sum(axis=0) if p == 1 else (y**p).sum(axis=0) ** (1.0 / p)
    w = prod * prod * prod if p == 4 else np.sign(prod) * y ** (p - 1.0)
    return np.einsum("ij,ij->j", w, prod) ** (1.0 / p)


def one_product_sandwich(a, p, d_diag, v):
    """sandwich_check's ratios from a single product over all directions."""
    dirs = sandwich_dirs(v)
    ratios = one_product_numerators(a, p, dirs) / np.linalg.norm((dirs @ v) * d_diag[None, :], axis=1)
    return float(ratios.min()), float(ratios.max())


class TestLpSvd:
    def test_orthogonal_input_p2_is_exact(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 5)))
        fac = lp_svd(q, 2.0)
        np.testing.assert_allclose(fac.D, np.ones(5), rtol=1e-6)
        np.testing.assert_allclose(fac.U.T @ fac.U, np.eye(5), atol=1e-6)
        xs = np.random.default_rng(2).normal(size=(500, 5))
        np.testing.assert_allclose(ratio_samples(q, 2.0, fac.D, fac.V, xs), 1.0, rtol=1e-3)

    def test_diagonal_cross_polytope_p1(self):
        a = np.diag([3.0, 2.0, 1.0])
        fac = lp_svd(a, 1.0)
        np.testing.assert_allclose(fac.D, [3.0, 2.0, 1.0], rtol=0.05)
        np.testing.assert_allclose(np.abs(fac.V), np.eye(3), atol=0.05)
        np.testing.assert_allclose(np.abs(fac.U), np.eye(3), atol=0.05)
        oracle = mvee_axis_reciprocals(np.concatenate([np.diag([1 / 3, 1 / 2, 1.0]), -np.diag([1 / 3, 1 / 2, 1.0])]))
        np.testing.assert_allclose(fac.D, oracle, rtol=0.05)

    def test_p2_random_ratios_within_ten_percent(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 5))
        fac = lp_svd(a, 2.0)
        xs = rng.normal(size=(1000, 5))
        r = ratio_samples(a, 2.0, fac.D, fac.V, xs)
        assert r.min() >= 1.0 / 1.1 and r.max() <= 1.1

    def test_p2_d_matches_singular_values(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 4))
        fac = lp_svd(a, 2.0)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(fac.D, s, rtol=0.05)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_reconstruction_identity(self, p):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(25, 4))
        fac = lp_svd(a, p)
        err = np.linalg.norm((fac.U * fac.D) @ fac.V.T - a) / np.linalg.norm(a)
        assert err < 1e-8

    def test_distortion_field(self):
        fac = lp_svd(np.random.default_rng(6).normal(size=(20, 4)), 1.0)
        assert fac.distortion == pytest.approx(2.0 * (1.0 + LownerConfig().slack))

    def test_rank_deficient_propagates(self):
        col = np.arange(1.0, 11.0)[:, None]
        with pytest.raises(RankDeficient):
            lp_svd(np.hstack([col, 2 * col]), 1.0)

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            lp_svd(np.ones((2, 5)), 1.0)


class TestRandomizedConditioner:
    def test_identity_sketch_on_orthogonal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(30, 4)))
        cond = randomized_conditioner(q, 2.0, seed=1)
        assert cond.distortion == pytest.approx(1.0, abs=1e-9)
        # R is orthogonal up to the one-sided rescaling
        rtr = cond.R @ cond.R.T
        np.testing.assert_allclose(rtr / rtr[0, 0], np.eye(4), atol=1e-9)

    def test_lower_inequality_on_fresh_samples(self):
        a = np.diag([3.0, 2.0, 1.0])
        cond = randomized_conditioner(a, 1.0, seed=11)
        xs = np.random.default_rng(999).normal(size=(1000, 3))
        ratios = LevelSet(a, 1.0).norms(xs) / np.linalg.norm(xs @ cond.R.T, axis=1)
        assert ratios.min() >= 1.0 - 1e-6

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_lower_inequality_on_tall_planted_input(self, p):
        spec = SyntheticSpec(n=5000, d=8, k_true=2, outlier_fraction=0.05, noise_sigma=0.01,
                             outlier_scale=20.0, seed=5)
        a = generate_synthetic(spec)
        cond = randomized_conditioner(a, p, seed=3)
        xs = np.random.default_rng(77).normal(size=(1000, 8))
        ratios = LevelSet(a, p).norms(xs) / np.linalg.norm(xs @ cond.R.T, axis=1)
        assert ratios.min() >= 1.0 - 1e-6

    def test_deterministic_under_seed(self):
        a = np.random.default_rng(8).normal(size=(100, 5))
        c1 = randomized_conditioner(a, 1.0, seed=42)
        c2 = randomized_conditioner(a, 1.0, seed=42)
        np.testing.assert_array_equal(c1.R, c2.R)
        assert c1.distortion == c2.distortion

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_square_input_falls_back_to_unsketched(self, p):
        # At n = d every row has leverage 1 under any row scaling, so the Lewis
        # weights are all 1 and the conditioner keeps A's own factor at every p.
        a = philox(3).standard_normal((6, 6))
        cond = randomized_conditioner(a, p)
        scales = cond.R[np.triu_indices(6)] / qr(a)[np.triu_indices(6)]
        assert scales.min() > 0
        np.testing.assert_allclose(scales, scales[0], rtol=1e-12)
        fac = lp_svd_randomized(a, p)
        lo, _ = sandwich_check(a, p, fac.D, fac.V)
        assert lo >= 1.0 - 1e-9

    def test_distortion_finite_and_reported(self):
        a = np.random.default_rng(9).normal(size=(400, 6))
        for p in (1.0, 1.5, 2.0, 3.0):
            cond = randomized_conditioner(a, p, seed=3)
            assert np.isfinite(cond.distortion) and cond.distortion >= 1.0


class TestExactConditionerAtP2:
    """At p = 2 the conditioner is the input's own QR factor, shrunk by 1e-9."""

    @staticmethod
    def planted_2000x16():
        return generate_synthetic(SyntheticSpec(n=2000, d=16, k_true=4, outlier_fraction=0.05, noise_sigma=0.01,
                                                outlier_scale=20.0, seed=5))

    def test_lower_inequality_holds_on_every_direction(self):
        # max over x of ||Rx||^2 / ||Ax||^2 is lambda_max(L^-1 R^T R L^-T) with
        # L L^T = A^T A.  The sketched conditioner reached 1.28 here (ratio 0.884).
        a = self.planted_2000x16()
        r = randomized_conditioner(a, 2.0, seed=0).R
        chol = np.linalg.cholesky(a.T @ a)
        m = np.linalg.solve(chol, np.linalg.solve(chol, r.T @ r).T)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).max() <= 1.0

    def test_d_is_the_shrunk_singular_values(self):
        a = self.planted_2000x16()
        fac = lp_svd_randomized(a, 2.0)
        np.testing.assert_allclose(fac.D, np.linalg.svd(a, compute_uv=False) * (1.0 - 1e-9), rtol=1e-8, atol=0)

    def test_distortion_is_one_and_nothing_is_sketched(self):
        cond = randomized_conditioner(self.planted_2000x16(), 2.0)
        assert cond.distortion == 1.0

    def test_seed_does_not_change_r(self):
        a = self.planted_2000x16()
        assert randomized_conditioner(a, 2.0, seed=0).R.tobytes() == randomized_conditioner(a, 2.0, seed=7).R.tobytes()

    def test_lower_inequality_at_condition_1e6(self):
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.normal(size=(50, 6)))[0]
        v = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        a = (u * np.logspace(0, -6, 6)) @ v.T
        cond = randomized_conditioner(a, 2.0)
        xs = np.random.default_rng(77).normal(size=(1000, 6))
        ratios = LevelSet(a, 2.0).norms(xs) / np.linalg.norm(xs @ cond.R.T, axis=1)
        assert ratios.min() >= 1.0


def planted(n, d, seed):
    return generate_synthetic(SyntheticSpec(n=n, d=d, k_true=d // 4, outlier_fraction=0.05, noise_sigma=0.01,
                                            outlier_scale=20.0, seed=seed))


def assert_both_sides(a, p):
    # The whitened probe minimizes ||Ax||_p / ||Rx||_2 in A's QR basis, so
    # an ill-conditioned A does not hide the minimizing direction from it.
    cond = randomized_conditioner(a, p)
    assert np.all(np.isfinite(cond.R))
    ratio, _ = whitened_lower_ratio(a, p, cond.R, starts=64, iters=200, seed=11)
    assert ratio >= 1.0 - 1e-9
    fac = lp_svd_randomized(a, p)
    lo, hi = sandwich_check(a, p, fac.D, fac.V)
    assert fac.distortion == cond.distortion >= hi / lo


class TestLewisConditionerBelowP2:
    """At p < 2 both sides of the conditioner's sandwich are proved from its Lewis weights."""

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_both_sides_hold_on_a_planted_input(self, p):
        assert_both_sides(planted(2000, 16, 5), p)

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_both_sides_hold_when_the_cap_ends_the_fixed_point(self, monkeypatch, cap, p):
        monkeypatch.setattr(lpsvd, "_LEWIS_ITERS", cap)
        assert_both_sides(planted(2000, 16, 5), p)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_zero_rows_are_left_out_of_the_weights(self, p):
        a = planted(200, 8, 5)
        a[[17, 120]] = 0.0
        assert_both_sides(a, p)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_distortion_is_the_lewis_constant(self, p):
        cond = randomized_conditioner(planted(2000, 16, 5), p)
        assert cond.distortion == pytest.approx(16 ** (1.0 / p - 0.5), rel=1e-3)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_seed_does_not_change_r(self, p):
        a = planted(2000, 16, 5)
        assert randomized_conditioner(a, p, seed=0).R.tobytes() == randomized_conditioner(a, p, seed=7).R.tobytes()


class TestLewisConditionerAboveP2:
    """At p > 2 too: Holder gives the lower side, |a_i x| <= sqrt(tau_i) ||Rx||_2 the upper one."""

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_both_sides_hold_on_a_planted_input(self, p):
        assert_both_sides(planted(2000, 16, 5), p)

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_both_sides_hold_when_the_cap_ends_the_fixed_point(self, monkeypatch, cap, p):
        monkeypatch.setattr(lpsvd, "_LEWIS_ITERS", cap)
        assert_both_sides(planted(2000, 16, 5), p)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_zero_rows_are_left_out_of_the_weights(self, p):
        a = planted(200, 8, 5)
        a[[17, 120]] = 0.0
        assert_both_sides(a, p)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_distortion_is_the_lewis_constant(self, p):
        cond = randomized_conditioner(planted(2000, 16, 5), p)
        assert cond.distortion == pytest.approx(16 ** (0.5 - 1.0 / p), rel=1e-3)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_seed_does_not_change_r(self, p):
        a = planted(2000, 16, 5)
        assert randomized_conditioner(a, p, seed=0).R.tobytes() == randomized_conditioner(a, p, seed=7).R.tobytes()


def large_p_input(name):
    if name == "gaussian 400x8":
        return np.random.default_rng(1).standard_normal((400, 8))
    return planted(400, 8, 7) if name == "planted 400x8" else planted(2000, 16, 5)


class TestLewisConditionerAtLargeP:
    """From p = 8 on the fixed point's step is damped by alpha = 4/(p + 2); alpha = 1/2 failed from p = 10 on."""

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("p", [8.0, 10.0, 12.0, 20.0, 64.0])
    @pytest.mark.parametrize("name", ["planted 400x8", "gaussian 400x8", "planted 2000x16"])
    def test_both_sides_hold_at_the_lewis_constant(self, name, p, scale):
        # At p = 64 the 50-step cap ends the loop; the constant is still near.
        a = large_p_input(name) * scale
        cond = randomized_conditioner(a, p)
        assert cond.distortion == pytest.approx(a.shape[1] ** (0.5 - 1.0 / p), rel=1e-3)
        ratio, _ = whitened_lower_ratio(a, p, cond.R, starts=64, iters=200, seed=11)
        assert ratio >= 1.0 - 1e-9

    @pytest.mark.parametrize("name", ["planted 400x8", "gaussian 400x8", "planted 2000x16"])
    def test_underflowed_constants_are_not_used(self, name):
        # At p = 1000, g_i = tau_i^499 / s_i^2 underflows on some steps, and
        # a constant read from a subnormal or zero max g (hi = 0 gave a
        # distortion of 0) would break the upper side.  Such a step is never
        # the result: either both sides hold on sampled directions or
        # NoConvergence names the cause.
        a = large_p_input(name)
        try:
            cond = randomized_conditioner(a, 1000.0)
        except NoConvergence:
            return
        x = np.random.default_rng(0).standard_normal((2000, a.shape[1]))
        y = np.abs(a @ x.T)
        top = y.max(axis=0)
        ratios = top * ((y / top) ** 1000.0).sum(axis=0) ** 1e-3 / np.linalg.norm(x @ cond.R.T, axis=1)
        assert 1.0 - 1e-9 <= ratios.min() and ratios.max() <= cond.distortion

    @pytest.mark.parametrize("failure", ["rank", "singular", "overflow"])
    @pytest.mark.parametrize("p", [1.0, 4.0, 12.0])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_a_failed_step_keeps_the_last_good_one(self, monkeypatch, p, failure):
        # A step whose B loses rank (its Cholesky and its QR fallback both
        # fail), whose factor does not invert, or whose leverages overflow
        # ends the loop with the step before it: the same R and distortion as
        # a cap of two steps.
        a = planted(400, 8, 7)
        monkeypatch.setattr(lpsvd, "_LEWIS_ITERS", 2)
        capped = randomized_conditioner(a, p)
        monkeypatch.undo()
        inject_step_failure(monkeypatch, failure, 3)
        cond = randomized_conditioner(a, p)
        assert cond.R.tobytes() == capped.R.tobytes()
        assert cond.distortion == capped.distortion

    @pytest.mark.parametrize("p", [1.0, 4.0, 12.0])
    def test_a_failed_final_qr_keeps_the_last_qr_step(self, monkeypatch, p):
        # The standing Cholesky step is proved by a QR at the end; if that QR
        # fails, the last step that ran a QR stands, here the first: the same
        # R and distortion as a cap of one step.  The first step's R_A is not
        # checked by qr (its rank test is), so the final QR is qr's one call.
        a = planted(400, 8, 7)
        monkeypatch.setattr(lpsvd, "_LEWIS_ITERS", 1)
        capped = randomized_conditioner(a, p)
        monkeypatch.undo()
        calls = []

        def failing_final_qr(m):
            calls.append(1)
            raise RankDeficient("matrix is (numerically) rank deficient")

        monkeypatch.setattr(lpsvd, "qr", failing_final_qr)
        cond = randomized_conditioner(a, p)
        assert len(calls) == 1
        assert cond.R.tobytes() == capped.R.tobytes()
        assert cond.distortion == capped.distortion

    @pytest.mark.parametrize("failure,error", [("rank", RankDeficient), ("singular", RankDeficient),
                                               ("overflow", NoConvergence)])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_a_failed_first_step_raises_a_typed_error(self, monkeypatch, failure, error):
        inject_step_failure(monkeypatch, failure, 1)
        with pytest.raises(error):
            randomized_conditioner(planted(400, 8, 7), 12.0)


def inject_step_failure(monkeypatch, failure, step):
    """Make step ``step`` of the Lewis fixed point fail in its factorization, its inverse, or its leverages.

    The first step factors A, and its rank test decides whether that
    factor stands; every later one factors by Cholesky.  So a step is
    counted at the rank test and at each QR or Cholesky call, except the QR
    that stands in for a failed Cholesky.  A failing factorization fails the
    first step's rank test, or on both routes of a later step: its Cholesky
    and then its QR fallback.
    """
    calls = []
    fallback = []
    real_inv = np.linalg.inv
    real_cholesky = np.linalg.cholesky

    def failing_rank_test(r):
        calls.append(1)
        if len(calls) == step:
            raise RankDeficient("matrix is not of full column rank (sigma_d <= 1e-10 sigma_1)")
        return full_rank_singular_values(r)

    def failing_qr(m):
        if fallback:
            fallback.clear()
            raise RankDeficient("matrix is (numerically) rank deficient")
        calls.append(1)
        if len(calls) == step:
            raise RankDeficient("matrix is (numerically) rank deficient")
        return qr(m)

    def failing_cholesky(m):
        calls.append(1)
        if len(calls) == step:
            fallback.append(1)
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real_cholesky(m)

    def failing_inv(m):
        calls.append(1)
        if len(calls) == step:
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(m.shape, np.inf)
        return real_inv(m)

    if failure == "rank":
        monkeypatch.setattr(lpsvd, "full_rank_singular_values", failing_rank_test)
        monkeypatch.setattr(lpsvd, "qr", failing_qr)
        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    else:
        monkeypatch.setattr(np.linalg, "inv", failing_inv)


def reference_input(name):
    if name.startswith("rows scaled by "):
        a = np.random.default_rng(5).standard_normal((400, 5))
        a[:200] *= float(name.rsplit(" ", 1)[1])
        return a
    if name == "zero rows 200x8":
        a = planted(200, 8, 5)
        a[[17, 120]] = 0.0
        return a
    if name.startswith("cond "):
        return TestConditionerEdgeInputs.conditioned(float(name.split(" ")[1]))
    return large_p_input(name)


REFERENCE_INPUTS = ["planted 2000x16", "planted 400x8", "gaussian 400x8", "rows scaled by 1e-120",
                    "rows scaled by 1e-160", "rows scaled by 1e-200", "zero rows 200x8", "cond 1e6"]
REFERENCE_PS = [1.0, 1.5, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 64.0]


def assert_same_triple(got, expected):
    """(R, lo, hi) equal bit for bit."""
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1:] == expected[1:]


class TestAgainstTheAllQrFixedPoint:
    """The middle steps read tau from A's whitened basis; the fixed point still matches one QR per step."""

    @pytest.mark.parametrize("p", REFERENCE_PS)
    @pytest.mark.parametrize("name", REFERENCE_INPUTS)
    def test_r_and_distortion_agree(self, name, p):
        a = reference_input(name)
        r, lo, hi = reference_lewis(a, p)
        cond = randomized_conditioner(a, p)
        expected = r * (lo * (1.0 - lpsvd._LOWER_MARGIN))
        assert np.linalg.norm(cond.R - expected) <= 1e-10 * np.linalg.norm(expected)
        assert cond.distortion == pytest.approx(hi / lo, rel=1e-10, abs=0)

    @pytest.mark.parametrize("name", REFERENCE_INPUTS + ["cond 1e9"])
    def test_p2_is_the_reference_bit_for_bit(self, name):
        a = reference_input(name)
        assert_same_triple(lpsvd._sketch(a, 2.0), reference_lewis(a, 2.0))

    @pytest.mark.parametrize("p", REFERENCE_PS)
    def test_condition_1e9_keeps_both_sides(self, p):
        # A QR at cond 1e9 is accurate to about cond x eps, so R itself may
        # move by 1e-8 relative; the distortion and the lower side may not.
        a = reference_input("cond 1e9")
        r, lo, hi = reference_lewis(a, p)
        cond = randomized_conditioner(a, p)
        assert cond.distortion == pytest.approx(hi / lo, rel=1e-6, abs=0)
        ratio, _ = whitened_lower_ratio(a, p, cond.R, starts=64, iters=200, seed=11)
        assert ratio >= 1.0 - 1e-9

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 12.0])
    def test_every_cholesky_failing_is_the_reference_bit_for_bit(self, monkeypatch, p):
        # A step whose Cholesky fails runs the QR step instead; with every
        # Cholesky failing, that is the all-QR fixed point, and no
        # LinAlgError escapes.
        def failing_cholesky(m):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        a = planted(2000, 16, 5)
        expected = reference_lewis(a, p)
        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        assert_same_triple(lpsvd._sketch(a, p), expected)

    @pytest.mark.parametrize("p,count", [(1.0, 2), (1.5, 2), (2.0, 1), (4.0, 2), (12.0, 2)])
    def test_only_the_first_and_last_steps_run_a_qr(self, monkeypatch, p, count):
        # The fixed point takes 6-28 steps here; the layer trace times only
        # the whole of _sketch, so the QR count pins where its time went.
        a = planted(2000, 16, 5)
        calls = []
        real_qr = np.linalg.qr

        def counting_qr(m, *args, **kwargs):
            calls.append(m.shape)
            return real_qr(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        randomized_conditioner(a, p)
        assert calls == [a.shape] * count

    @pytest.mark.parametrize("p,cholesky", [(2.0, "real"), (1.5, "failing"), (4.0, "failing")])
    @pytest.mark.parametrize("layout", ["C-ordered", "F-ordered", "zero rows"])
    def test_rows_keep_their_bits_in_every_layout(self, monkeypatch, layout, p, cholesky):
        # Without a zero row _sketch factors A itself, made C-contiguous, where
        # the reference factors the masked copy: the same values in the same
        # layout.  At p = 2, or with every Cholesky failing, the two are one
        # computation, so R, lo and hi must agree bit for bit.
        a = planted(2000, 16, 5)
        if layout == "F-ordered":
            a = np.asfortranarray(a)
        elif layout == "zero rows":
            a[[3, 700, 1999]] = 0.0
        expected = reference_lewis(a, p)
        if cholesky == "failing":
            def failing_cholesky(m):
                raise np.linalg.LinAlgError("Matrix is not positive definite")

            monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        assert_same_triple(lpsvd._sketch(a, p), expected)

    @pytest.mark.parametrize("p", [1.0, 4.0])
    def test_no_copy_of_a_without_zero_rows(self, p):
        # The masked copy of every row was one n x d array more: the traced
        # peak of one call on this input was 3.46 A, and is 2.47 A without it.
        a = planted(4000, 16, 5)
        assert a.flags.c_contiguous
        lpsvd._sketch(a, p)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            lpsvd._sketch(a, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * a.nbytes


class TestConditionerEdgeInputs:
    @pytest.mark.parametrize("scale", [1e-120, 1e-160, 1e-200])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 6.0])
    def test_rows_far_smaller_than_the_others(self, p, scale):
        # Leverages of the 1e-120 rows lie far below a QR's rounding floor, and
        # at p > 2 their weights underflow to 0.  At 1e-160 and 1e-200 tau
        # itself underflows (below the smallest normal double, or to 0), and
        # at p < 2 a zero weight would scale its row by inf.  Reading tau from
        # A R^-1 row by row, and leaving such rows out of B with the bound
        # tau^(p/2), keeps both sides and reaches the fixed point's constant
        # 5^|1/p - 1/2|.
        a = np.random.default_rng(5).standard_normal((400, 5))
        a[:200] *= scale
        cond = randomized_conditioner(a, p)
        assert np.isfinite(cond.distortion)
        assert cond.distortion == pytest.approx(5 ** abs(1.0 / p - 0.5), abs=1e-3)
        ratio, _ = whitened_lower_ratio(a, p, cond.R, starts=64, iters=200, seed=11)
        assert ratio >= 1.0 - 1e-9

    @staticmethod
    def conditioned(cond_number):
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.normal(size=(50, 6)))[0]
        v = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        return (u * np.logspace(0, -math.log10(cond_number), 6)) @ v.T

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_rank_test_rejects_what_the_level_set_rejects(self, p):
        col = np.arange(1.0, 11.0)[:, None]
        few_rows = np.zeros((10, 4))
        few_rows[:3] = np.random.default_rng(2).normal(size=(3, 4))
        for a in (np.hstack([col, 2 * col, col * col]), self.conditioned(1e11), few_rows):
            with pytest.raises(RankDeficient):
                LevelSet(a, p)
            with pytest.raises(RankDeficient):
                randomized_conditioner(a, p)
        LevelSet(self.conditioned(1e9), p)
        randomized_conditioner(self.conditioned(1e9), p)

    @pytest.mark.parametrize("cond_number", [1e6, 1e9])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_ill_conditioned_inputs_factorize(self, cond_number, p):
        a = self.conditioned(cond_number)
        fac = lp_svd_randomized(a, p)
        assert np.all(np.isfinite(fac.D)) and np.isfinite(fac.distortion)


class TestLpSvdRandomized:
    def test_reconstruction(self):
        a = np.random.default_rng(10).normal(size=(200, 5))
        fac = lp_svd_randomized(a, 2.0)
        err = np.linalg.norm((fac.U * fac.D) @ fac.V.T - a) / np.linalg.norm(a)
        assert err < 1e-8

    def test_diag_p1_within_distortion_of_deterministic(self):
        a = np.diag([3.0, 2.0, 1.0])
        det = lp_svd(a, 1.0)
        rnd = lp_svd_randomized(a, 1.0)
        khat = rnd.distortion
        # the sandwiched quadratic forms pin each axis within the distortion
        assert np.all(rnd.D >= det.D / (khat * 1.05))
        assert np.all(rnd.D <= det.D * np.sqrt(3.0) * 1.05)

    @pytest.mark.slow
    def test_randomized_faster_than_deterministic_at_scale(self, monkeypatch):
        # wall-clock comparison on a 10000 x 64 input; the deterministic
        # ellipsoid path runs minutes even at a loosened refinement
        # tolerance, the randomized path runs seconds
        a = np.random.default_rng(12).normal(size=(10000, 64))
        t0 = time.perf_counter()
        lp_svd_randomized(a, 1.0)
        t_rand = time.perf_counter() - t0
        monkeypatch.setattr(lowner_module, "_REFINE_TOL", 2e-2)
        t0 = time.perf_counter()
        lp_svd(a, 1.0)
        t_det = time.perf_counter() - t0
        assert t_rand < t_det


class TestSandwichCheck:
    def test_exact_p2_factorization(self):
        a = np.random.default_rng(13).normal(size=(40, 5))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        lo, hi = sandwich_check(a, 2.0, s, vt.T)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_p1_random_50x4(self):
        a = np.random.default_rng(14).normal(size=(50, 4))
        fac = lp_svd(a, 1.0)
        lo, hi = sandwich_check(a, 1.0, fac.D, fac.V)
        assert lo >= 1.0 - 1e-3
        assert hi <= 2.0 * 1.1

    def test_identity_p1_extremes(self):
        lo, hi = sandwich_check(np.eye(2), 1.0, np.ones(2), np.eye(2))
        assert lo == pytest.approx(1.0, abs=1e-12)  # attained on the axis directions
        assert hi == pytest.approx(np.sqrt(2.0), rel=1e-3)  # approached on the diagonal

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sandwich_check(np.eye(3), 1.0, np.ones(2), np.eye(2))

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_shared_gaussian_norms_give_the_same_extremes(self, p):
        # A sweep computes the Gaussian numerators once per p and hands them
        # to every factorization's check; the result must not depend on it.
        a = np.random.default_rng(17).normal(size=(300, 6))
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        shared = lpsvd.gaussian_norms(a, p)
        assert shared.shape == (1000,)
        assert sandwich_check(a, p, s, vt.T, shared) == sandwich_check(a, p, s, vt.T)
        with pytest.raises(ShapeMismatch):
            sandwich_check(a, p, s, vt.T, shared[:-1])

    # 1000 + 2d directions: 1064, 1032, 1016 and 1014, none a whole number of blocks.
    @pytest.mark.parametrize("n,d", [(2000, 32), (2000, 16), (200, 8), (61, 7)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("layout", ["rows", "transposed view"])
    def test_blocks_match_one_product_bit_for_bit(self, n, d, p, layout):
        assert (1000 + 2 * d) % DIRECTION_BLOCK != 0
        a = np.random.default_rng(16).normal(size=(n, d))
        if layout == "transposed view":
            a = np.ascontiguousarray(a.T).T  # what evaluate() hands over for a wide input
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        assert sandwich_check(a, p, s, vt.T) == one_product_sandwich(a, p, s, vt.T)

    # Inputs taller than one row chunk of A are summed chunk by chunk: equal to
    # the one-product ratios to rounding, and bit for bit up to one chunk.
    @pytest.mark.parametrize("n", [2048, 2049, 4097, 20000])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("layout", ["rows", "transposed view"])
    def test_row_chunks_match_one_product(self, n, p, layout):
        a = np.random.default_rng(n).normal(size=(n, 8))
        if layout == "transposed view":
            a = np.ascontiguousarray(a.T).T
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        got = sandwich_check(a, p, s, vt.T)
        if n <= lowner_module._ROW_CHUNK:
            assert got == one_product_sandwich(a, p, s, vt.T)
        else:
            # Numerators in slices of 127 directions keep the reference's n x 127 temporaries small.
            dirs = sandwich_dirs(vt.T)
            num = np.concatenate([one_product_numerators(a, p, dirs[i : i + 127]) for i in range(0, len(dirs), 127)])
            ratios = num / np.linalg.norm((dirs @ vt.T) * s[None, :], axis=1)
            np.testing.assert_allclose(got, (ratios.min(), ratios.max()), rtol=1e-13, atol=0)
