import numpy as np
import pytest

from lplr.errors import InvalidConfig, InvalidP, InvalidRank
from lplr.factor import Method, assemble, error_bounds, factorize, l2_low_rank, lp_low_rank, low_rank, orient
from lplr.lowner import lowner
from lplr.matcore import entrywise_pnorm_pow
from lplr.synth import SyntheticSpec, generate_synthetic

from oracles import best_projection_residual_sq, mvee_axis_reciprocals


@pytest.mark.parametrize("call", [
    lambda a: low_rank(a, 2, 1.0, "bogus"),
    lambda a: lp_low_rank(a, 2, 1.0, method="bogus"),
    lambda a: factorize(a, 1.0, "bogus"),
    lambda a: error_bounds(np.ones(4), 2, 1.0, 4, 30, "bogus"),
], ids=["low_rank", "lp_low_rank", "factorize", "error_bounds"])
def test_unknown_method_is_invalid_config(call):
    a = np.random.default_rng(3).normal(size=(30, 4))
    with pytest.raises(InvalidConfig, match="one of lowner, randomized, svd, got 'bogus'"):
        call(a)


class TestOrient:
    def test_tall_unchanged(self):
        a = np.arange(15.0).reshape(5, 3)
        out, transposed = orient(a)
        assert not transposed
        np.testing.assert_array_equal(out, a)

    def test_wide_transposed(self):
        a = np.arange(15.0).reshape(3, 5)
        out, transposed = orient(a)
        assert transposed
        assert out.shape == (5, 3)

    def test_embedding_shaped_input_stays(self):
        out, transposed = orient(np.ones((3052, 76)))
        assert out.shape == (3052, 76) and not transposed


class TestLpLowRank:
    @pytest.mark.parametrize("method", [Method.LOWNER, Method.RANDOMIZED])
    @pytest.mark.parametrize("p", [0.5, float("nan"), float("inf"), -1.0])
    def test_rejects_p_that_is_not_finite_at_least_one(self, method, p):
        a = np.random.default_rng(3).normal(size=(30, 4))
        with pytest.raises(InvalidP, match="finite number >= 1"):
            lp_low_rank(a, 2, p, method=method)

    def test_diag_k2_p2(self):
        a = np.diag([3.0, 2.0, 1.0])
        approx = lp_low_rank(a, 2, 2.0)
        np.testing.assert_allclose(assemble(approx), np.diag([3.0, 2.0, 0.0]), atol=1e-6)
        assert entrywise_pnorm_pow(a - assemble(approx), 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_diag_k2_p1_closed_form(self):
        a = np.diag([3.0, 2.0, 1.0])
        approx = lp_low_rank(a, 2, 1.0)
        np.testing.assert_allclose(assemble(approx), np.diag([3.0, 2.0, 0.0]), atol=0.05)
        err = entrywise_pnorm_pow(a - assemble(approx), 1.0)
        assert err == pytest.approx(1.0, rel=0.05)
        oracle = mvee_axis_reciprocals(np.concatenate([np.diag([1 / 3, 1 / 2, 1.0]), -np.diag([1 / 3, 1 / 2, 1.0])]))
        np.testing.assert_allclose(approx.sigmas, oracle, rtol=0.05)

    def test_identity_drops_one_axis_by_index_order(self):
        approx = lp_low_rank(np.eye(3), 2, 1.0)
        # all sigma ties broken by keeping lower indices; the last axis goes
        np.testing.assert_allclose(assemble(approx), np.diag([1.0, 1.0, 0.0]), atol=1e-5)
        assert entrywise_pnorm_pow(np.eye(3) - assemble(approx), 1.0) == pytest.approx(1.0, rel=1e-5)

    def test_factor_pair_shapes_and_product(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(30, 5))
        approx = lp_low_rank(a, 2, 1.0)
        assert approx.left.shape == (30, 2) and approx.right.shape == (2, 5)
        recon = approx.left @ approx.right
        udkv = (approx.left @ approx.right)  # rank <= k by construction
        assert np.linalg.matrix_rank(udkv, tol=1e-10) <= 2
        np.testing.assert_allclose(recon, assemble(approx), atol=1e-12)
        # Dk holds the first k sigmas then exact zeros
        np.testing.assert_array_equal(approx.Dk[2:], 0.0)
        np.testing.assert_allclose(approx.Dk[:2], approx.sigmas[:2])

    def test_wide_input_handled_by_orientation(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 40))
        approx = lp_low_rank(a, 2, 1.0)
        assert approx.transposed
        assert assemble(approx).shape == (4, 40)

    def test_rank_out_of_range(self):
        a = np.random.default_rng(2).normal(size=(10, 4))
        for bad in (0, 4, -1):
            with pytest.raises(InvalidRank):
                lp_low_rank(a, bad, 1.0)

    def test_randomized_method(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(300, 6))
        approx = lp_low_rank(a, 3, 1.0, method=Method.RANDOMIZED)
        assert approx.method is Method.RANDOMIZED
        assert assemble(approx).shape == a.shape
        assert np.linalg.matrix_rank(assemble(approx), tol=1e-8) == 3


class TestL2LowRank:
    def test_diag_k1_residual(self):
        approx = l2_low_rank(np.diag([3.0, 2.0, 1.0]), 1)
        resid = entrywise_pnorm_pow(np.diag([3.0, 2.0, 1.0]) - assemble(approx), 2.0)
        assert resid == pytest.approx(5.0, rel=1e-10)

    def test_top_rank_residual_is_last_sigma(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 6))
        s = np.linalg.svd(a, compute_uv=False)
        approx = l2_low_rank(a, 5)
        resid = entrywise_pnorm_pow(a - assemble(approx), 2.0)
        assert resid == pytest.approx(s[-1] ** 2, rel=1e-8)

    def test_never_beaten_by_random_projections(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(30, 6))
        approx = l2_low_rank(a, 3)
        resid = entrywise_pnorm_pow(a - assemble(approx), 2.0)
        oracle = best_projection_residual_sq(a, 3, trials=10_000, seed=99)
        assert resid <= oracle + 1e-9

    def test_matches_sigma_tail_identity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(25, 5))
        s = np.linalg.svd(a, compute_uv=False)
        for k in (1, 2, 4):
            resid = entrywise_pnorm_pow(a - assemble(l2_low_rank(a, k)), 2.0)
            assert resid == pytest.approx(float(np.sum(s[k:] ** 2)), rel=1e-8)


class TestErrorBounds:
    def test_worked_example(self):
        bounds = error_bounds([3.0, 2.0, 1.0], k=2, p=1.0, d=3, n=3, method=Method.LOWNER)
        assert bounds.upper == pytest.approx(3.0**1.5, rel=1e-12)  # ~5.196
        assert bounds.lower == pytest.approx(3.0, rel=1e-12)
        assert bounds.upper_sigma_index == 3
        assert bounds.lower_informational is True

    def test_equal_sigmas_ratio(self):
        for p in (1.0, 1.5, 2.0):
            b = error_bounds([2.0, 2.0, 2.0, 2.0], k=2, p=p, d=4, n=50, method=Method.LOWNER)
            assert b.upper / b.lower == pytest.approx(4.0 ** (p / 2.0), rel=1e-12)

    def test_dimension_one_has_no_valid_rank(self):
        with pytest.raises(InvalidRank):
            error_bounds([1.0], k=1, p=2.0, d=1, n=10, method=Method.LOWNER)

    def test_randomized_factor_grows_with_n(self):
        b1 = error_bounds([3.0, 2.0, 1.0], k=1, p=1.0, d=3, n=10, method=Method.RANDOMIZED)
        b2 = error_bounds([3.0, 2.0, 1.0], k=1, p=1.0, d=3, n=10_000, method=Method.RANDOMIZED)
        assert b2.upper > b1.upper

    def test_stated_variant_uses_previous_sigma(self):
        b = error_bounds([3.0, 2.0, 1.0], k=2, p=1.0, d=3, n=3, method=Method.LOWNER)
        assert b.upper_stated == pytest.approx(3.0**1.5 * 2.0, rel=1e-12)


class TestAssemble:
    def test_identity_factors(self):
        approx = l2_low_rank(np.eye(4) * 2.0, 3)
        np.testing.assert_allclose(assemble(approx), np.diag([2.0, 2.0, 2.0, 0.0]), atol=1e-10)

    def test_matches_triple_product(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 5))
        approx = lp_low_rank(a, 3, 1.5)
        u = a @ (approx.full_v / approx.sigmas[None, :])
        triple = (u * approx.Dk[None, :]) @ approx.full_v.T
        np.testing.assert_allclose(assemble(approx), triple, atol=1e-8)


class TestFactorInvariants:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_upper_bound_holds_with_slack(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 5))
        for p in (1.0, 2.0):
            approx = lp_low_rank(a, 2, p)
            err = entrywise_pnorm_pow(a - assemble(approx), p)
            bound = error_bounds(approx.sigmas, 2, p, 5, 40, Method.LOWNER)
            assert err <= 1.1**p * bound.upper

    def test_per_column_sandwich(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(40, 5))
        p, k = 1.5, 2
        approx = lp_low_rank(a, k, p)
        resid = a - assemble(approx)
        sig = approx.sigmas
        v = approx.full_v
        upper = 1.1**p * 5 ** (p / 2.0) * sig[k] ** p
        proj_tail = np.eye(5) - v[:, :k] @ v[:, :k].T
        for i in range(5):
            col_err = float(np.sum(np.abs(resid[:, i]) ** p))
            assert col_err <= upper + 1e-12
            if np.linalg.norm(proj_tail[:, i]) > 1e-12:
                # lower side only meaningful where the column has a tail component
                tail = np.linalg.norm((np.diag(sig) @ v.T @ proj_tail[:, i])[k:])
                assert col_err >= (1.0 - 1e-3) ** p * tail**p - 1e-12

    def test_p2_deterministic_close_to_svd_baseline(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 5))
        for k in (1, 2, 4):
            lp = entrywise_pnorm_pow(a - assemble(lp_low_rank(a, k, 2.0)), 2.0)
            sv = entrywise_pnorm_pow(a - assemble(l2_low_rank(a, k)), 2.0)
            assert lp <= 1.1 * sv + 1e-12

    def test_residual_monotone_in_k(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(25, 5))
        errs = [
            entrywise_pnorm_pow(a - assemble(lp_low_rank(a, k, 1.0)), 1.0) for k in (1, 2, 3, 4)
        ]
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))

    def test_transpose_consistency(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(30, 4))
        e1 = entrywise_pnorm_pow(a - assemble(lp_low_rank(a, 2, 1.0)), 1.0)
        e2 = entrywise_pnorm_pow(a.T - assemble(lp_low_rank(a.T, 2, 1.0)), 1.0)
        assert e1 == pytest.approx(e2, rel=1e-8)

    def test_low_rank_dispatch(self):
        a = np.random.default_rng(6).normal(size=(20, 4))
        assert low_rank(a, 2, 2.0, "svd").method is Method.SVD
        assert low_rank(a, 2, 1.0, "lowner").method is Method.LOWNER


class TestOneFactorizationPerInput:
    """Each path factors its n x d input once, by an R-only QR; every SVD is of a d x d matrix.

    The randomized conditioner's QRs are counted by
    ``test_lpsvd.py::TestAgainstTheAllQrFixedPoint::test_only_the_first_and_last_steps_run_a_qr``.
    """

    @staticmethod
    def recorded(monkeypatch, run):
        a = generate_synthetic(SyntheticSpec(n=200, d=8, k_true=2, outlier_fraction=0.05, noise_sigma=0.01,
                                             outlier_scale=20.0, seed=3))
        calls = []
        for name in ("qr", "svd"):
            real = getattr(np.linalg, name)

            def recording(m, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, m.shape))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        run(a)
        return [name for name, shape in calls if shape == a.shape]

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_lowner(self, monkeypatch, p):
        assert self.recorded(monkeypatch, lambda a: lowner(a, p)) == ["qr"]

    def test_l2_low_rank(self, monkeypatch):
        assert self.recorded(monkeypatch, lambda a: l2_low_rank(a, 3)) == ["qr"]
