import importlib

import numpy as np
import pytest

from lplr import SyntheticSpec, generate_synthetic
from lplr.errors import DimensionTooSmall, NoConvergence, NotPositiveDefinite, RankDeficient, ZeroGradient
from lplr.lowner import (
    DIRECTION_BLOCK,
    Ellipsoid,
    LevelSet,
    LownerConfig,
    LownerResult,
    central_cut,
    contracted_vertices,
    initial_ball,
    lowner,
    member,
    shallow_cut,
    subgradient,
)

from oracles import central_diff_grad, mvee_axis_reciprocals, reference_cut_loop

# The package attribute ``lplr.lowner`` is the function, not the module.
lowner_module = importlib.import_module("lplr.lowner")


def random_pd(rng, d, spread=1.0):
    g = rng.normal(size=(d, d))
    return g @ g.T + spread * np.eye(d)


class TestMember:
    def test_inside_l1(self):
        assert member(LevelSet(np.eye(2), 1.0), [0.5, 0.4])

    def test_outside_l1(self):
        assert not member(LevelSet(np.eye(2), 1.0), [0.8, 0.4])

    def test_boundary_within_tolerance(self):
        assert member(LevelSet(np.eye(2), 2.0), [1.0, 0.0])


def test_level_set_is_centrally_symmetric():
    rng = np.random.default_rng(12)
    level = LevelSet(rng.normal(size=(20, 3)), 1.5)
    for _ in range(50):
        x = rng.normal(size=3)
        assert member(level, x) == member(level, -x)


# The conditioner's 1000 probes and certification's 4096 samples take the blocked path.
@pytest.mark.parametrize("count", [2 * DIRECTION_BLOCK, 1000, 4096])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_level_set_norms_blocks_match_one_product(count, p):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2000, 16))
    pts = rng.normal(size=(count, 16))
    y = np.abs(a @ pts.T)
    if p == 1:
        expected = y.sum(axis=0)
    elif p == 2:
        expected = np.sqrt((y * y).sum(axis=0))
    else:
        expected = (y**p).sum(axis=0) ** (1.0 / p)
    np.testing.assert_array_equal(LevelSet(a, p).norms(pts), expected)


class TestInitialBall:
    def test_unit_ball_level_set(self):
        for d in (2, 3, 5):
            ball = initial_ball(LevelSet(np.eye(d), 2.0))
            np.testing.assert_allclose(ball.shape, np.eye(d), atol=1e-12)
            np.testing.assert_allclose(ball.center, 0.0)

    def test_anisotropic_ellipse(self):
        # max ||x|| over 4 x1^2 + x2^2 <= 1 is 1, attained on the x2 axis
        ball = initial_ball(LevelSet(np.diag([2.0, 1.0]), 2.0))
        np.testing.assert_allclose(ball.shape, np.eye(2), atol=1e-12)

    def test_cross_polytope(self):
        # farthest vertex of {|x1| + |x2| <= 1} sits at distance 1
        ball = initial_ball(LevelSet(np.eye(2), 1.0))
        np.testing.assert_allclose(ball.shape, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_contains_level_set(self, p):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(40, 4))
        level = LevelSet(a, p)
        ball = initial_ball(level)
        boundary = level.boundary(rng.normal(size=(500, 4)))
        radius = np.sqrt(ball.shape[0, 0])
        assert np.all(np.linalg.norm(boundary, axis=1) <= radius * (1 + 1e-12))


class TestSubgradient:
    def test_euclidean_direction(self):
        g = subgradient(LevelSet(np.eye(2), 2.0), [3.0, 4.0])
        np.testing.assert_allclose(g, [0.6, 0.8], atol=1e-12)

    def test_sign_vector(self):
        g = subgradient(LevelSet(np.eye(2), 1.0), [1.0, -2.0])
        np.testing.assert_allclose(g, [1.0, -1.0], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 4))
        level = LevelSet(a, 1.5)
        x = rng.normal(size=4)
        g = subgradient(level, x)
        fd = central_diff_grad(lambda v: level.norms(v[None, :])[0], x)
        np.testing.assert_allclose(g, fd, atol=1e-5)

    def test_euler_identity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(9, 3))
        for p in (1.0, 1.5, 2.0, 2.5):
            level = LevelSet(a, p)
            x = rng.normal(size=3)
            g = subgradient(level, x)
            assert g @ x == pytest.approx(level.norms(x[None, :])[0], rel=1e-10)

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroGradient):
            subgradient(LevelSet(np.eye(2), 2.0), [0.0, 0.0])


class TestCentralCut:
    def test_hand_worked_unit_ball(self):
        e = central_cut(Ellipsoid(np.zeros(2), np.eye(2)), [1.0, 0.0])
        np.testing.assert_allclose(e.center, [-1.0 / 3.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(e.shape, (4.0 / 3.0) * np.diag([1.0 / 3.0, 1.0]), atol=1e-12)

    def test_volume_strictly_decreases(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 6):
            e = Ellipsoid(rng.normal(size=d), random_pd(rng, d))
            cut = central_cut(e, rng.normal(size=d))
            assert np.linalg.det(cut.shape) < np.linalg.det(e.shape)

    def test_coordinate_swap_symmetry(self):
        ex = central_cut(Ellipsoid(np.zeros(2), np.eye(2)), [1.0, 0.0])
        ey = central_cut(Ellipsoid(np.zeros(2), np.eye(2)), [0.0, 1.0])
        np.testing.assert_allclose(ey.center, ex.center[::-1], atol=1e-12)
        np.testing.assert_allclose(ey.shape, ex.shape[::-1, ::-1], atol=1e-12)


class TestShallowCut:
    def test_hand_worked_unit_ball(self):
        e = shallow_cut(Ellipsoid(np.zeros(2), np.eye(2)), [1.0, 0.0])
        zeta, sigma, tau = 1.0 + 1.0 / 72.0, 32.0 / 27.0, 1.0 / 3.0
        np.testing.assert_allclose(e.center, [-1.0 / 9.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(e.shape, zeta * sigma * np.diag([1.0 - tau, 1.0]), atol=1e-12)

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(3)
        e = Ellipsoid(rng.normal(size=4), random_pd(rng, 4))
        cut = shallow_cut(e, rng.normal(size=4))
        assert np.max(np.abs(cut.shape - cut.shape.T)) < 1e-12

    def test_det_decreases_over_random_cuts(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            e = Ellipsoid(rng.normal(size=d), random_pd(rng, d))
            cut = shallow_cut(e, rng.normal(size=d))
            assert np.linalg.det(cut.shape) < np.linalg.det(e.shape)

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionTooSmall):
            shallow_cut(Ellipsoid(np.zeros(1), np.eye(1)), [1.0])


class TestContractedVertices:
    def test_half_unit_ball(self):
        verts = contracted_vertices(Ellipsoid(np.zeros(2), np.eye(2)), 0.5)
        expected = {(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)}
        got = {tuple(np.round(v, 12)) for v in verts}
        assert got == expected

    def test_axis_endpoints(self):
        verts = contracted_vertices(Ellipsoid(np.zeros(2), np.diag([4.0, 1.0])), 1.0)
        got = {tuple(np.round(v, 12)) for v in verts}
        assert got == {(2.0, 0.0), (-2.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_translation_equivariance(self):
        verts = contracted_vertices(Ellipsoid(np.array([1.0, 1.0]), np.eye(2)), 1.0)
        got = {tuple(np.round(v, 12)) for v in verts}
        assert got == {(2.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0, 0.0)}

    def test_quadratic_form_at_vertices(self):
        rng = np.random.default_rng(9)
        e = Ellipsoid(rng.normal(size=3), random_pd(rng, 3))
        for factor in (1.0, 0.5, 1.0 / 3.0):
            verts = contracted_vertices(e, factor)
            np.testing.assert_allclose(e.quadratic_form(verts), factor**2, atol=1e-8)


def planted(n, d, seed):
    """Low-rank rows plus 5% outliers scaled by 20: every cut budget runs out on these."""
    return generate_synthetic(SyntheticSpec(n=n, d=d, k_true=max(1, d // 4), outlier_fraction=0.05,
                                            noise_sigma=0.01, outlier_scale=20.0, seed=seed))


class TestCutPhase:
    # Planted inputs run the loop to its cut budget; Gaussian ones mostly stop
    # early, at the vertex test or at the margin test.
    @pytest.mark.parametrize("kind", ["planted", "gaussian"])
    @pytest.mark.parametrize("contraction", ["inv-d", "inv-sqrt-d"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n_rows", ["3d", "200"])
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_matches_validated_reference_bit_for_bit(self, d, n_rows, p, contraction, kind):
        n = 3 * d if n_rows == "3d" else 200
        a = planted(n, d, 100 * d + n) if kind == "planted" else np.random.default_rng(100 * d + n).normal(size=(n, d))
        level = LevelSet(a, p)
        cfg = LownerConfig(contraction=contraction)
        e, central, shallow, dets, contacts = lowner_module._cut_phase(level, cfg)
        ref_e, ref_cuts, ref_dets, ref_contacts = reference_cut_loop(level, cfg)
        assert central == 0
        assert shallow == ref_cuts
        assert e.shape.tobytes() == ref_e.shape.tobytes()
        assert e.center.tobytes() == ref_e.center.tobytes()
        assert np.array(dets).tobytes() == np.array(ref_dets).tobytes()
        assert np.array(contacts).tobytes() == np.array(ref_contacts).tobytes()

    @pytest.mark.parametrize("cut,corruption,check", [
        # det stays positive at even d, so the next vertex eigh rejects it
        (3, "negated", "non-positive eigenvalue"),
        # the slogdet of the same cut rejects a negative or non-finite determinant
        (3, "one negative eigenvalue", "determinant is not positive"),
        (3, "nan", "determinant is not positive"),
        # on the budget's last cut, the returned Ellipsoid's Cholesky rejects it
        (6, "negated", "non-positive pivot"),
    ])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in slogdet:RuntimeWarning")
    def test_lost_definiteness_raises_typed_error(self, monkeypatch, cut, corruption, check):
        real = lowner_module._shallow_update
        calls = []

        def corrupted(f, h):
            shape, b = real(f, h)
            calls.append(1)
            if len(calls) == cut:
                vals, vecs = np.linalg.eigh(shape)
                if corruption == "negated":
                    vals = -vals
                elif corruption == "one negative eigenvalue":
                    vals = np.concatenate([-vals[:1], vals[1:]])
                else:
                    vals = np.full_like(vals, np.nan)
                shape = (vecs * vals) @ vecs.T
            return shape, b

        monkeypatch.setattr(lowner_module, "_shallow_update", corrupted)
        with pytest.raises(NotPositiveDefinite, match=check):
            lowner(planted(200, 8, 3), 1.0, LownerConfig(phase1_cuts=6))
        assert len(calls) == cut


class TestLowner:
    def test_unit_ball_p2(self):
        res = lowner(np.eye(2), 2.0)
        np.testing.assert_allclose(res.D, [1.0, 1.0], rtol=1e-6)

    def test_ellipsoid_is_its_own_enclosure(self):
        res = lowner(np.diag([2.0, 1.0]), 2.0)
        np.testing.assert_allclose(res.D, [2.0, 1.0], rtol=1e-6)
        np.testing.assert_allclose(np.abs(res.V), np.eye(2), atol=1e-6)

    def test_cross_polytope_against_khachiyan_oracle(self):
        res = lowner(np.eye(2), 1.0)
        oracle = mvee_axis_reciprocals(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        np.testing.assert_allclose(res.D, oracle, rtol=0.05)
        np.testing.assert_allclose(res.D, [1.0, 1.0], rtol=0.05)

    def test_scaled_cross_polytope_against_khachiyan_oracle(self):
        a = np.diag([3.0, 2.0, 1.0])
        res = lowner(a, 1.0)
        vertices = np.concatenate([np.diag(1.0 / np.diag(a)), -np.diag(1.0 / np.diag(a))])
        oracle = mvee_axis_reciprocals(vertices)
        np.testing.assert_allclose(res.D, oracle, rtol=0.05)

    @pytest.mark.parametrize("n,d,p,seed", [(50, 4, 1.0, 0), (60, 5, 1.5, 1), (40, 3, 2.0, 2)])
    def test_containment_and_volume_invariants(self, n, d, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, d))
        level = LevelSet(a, p)
        cfg = LownerConfig()
        res = lowner(a, p, cfg)
        # outer containment: boundary points of L stay inside E
        boundary = level.boundary(rng.normal(size=(1000, d)))
        assert np.max(res.ellipsoid.quadratic_form(boundary)) <= 1.0 + 1e-6
        # inner containment: contracted vertices are members of L
        verts = contracted_vertices(res.ellipsoid, cfg.contraction_factor(d))
        assert np.max(level.norms(verts)) <= 1.0 + cfg.vertex_tol
        # the cut sequence only ever shrinks det(F)
        assert np.all(np.diff(res.logdet_trace) < 0)
        assert np.linalg.norm(res.ellipsoid.center) <= cfg.center_tol
        # D sorted positive, V orthogonal
        assert np.all(res.D > 0) and np.all(np.diff(res.D) <= 1e-12)
        np.testing.assert_allclose(res.V.T @ res.V, np.eye(d), atol=1e-8)

    def test_linear_equivariance_of_quadratic_forms(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(40, 3)) @ np.diag([4.0, 2.0, 1.0])
        t = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        res_a = lowner(a, 1.5)
        res_at = lowner(a @ t, 1.5)
        xs = rng.normal(size=(200, 3))
        q_at = np.linalg.norm((xs @ res_at.V) * res_at.D, axis=1) ** 2
        q_a_tx = np.linalg.norm(((xs @ t.T) @ res_a.V) * res_a.D, axis=1) ** 2
        ratio = q_at / q_a_tx
        assert ratio.max() / ratio.min() <= 1.1**2
        assert abs(np.median(ratio) - 1.0) < 0.1

    def test_scale_covariance(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(30, 3)) @ np.diag([5.0, 2.0, 1.0])
        alpha = 3.5
        res = lowner(a, 1.0)
        res_scaled = lowner(alpha * a, 1.0)
        np.testing.assert_allclose(res_scaled.D, alpha * res.D, rtol=0.1)
        xs = rng.normal(size=(100, 3))
        q1 = np.linalg.norm((xs @ res.V) * res.D, axis=1)
        q2 = np.linalg.norm((xs @ res_scaled.V) * res_scaled.D, axis=1)
        np.testing.assert_allclose(q2, alpha * q1, rtol=0.1)

    def test_p_above_two(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(60, 4))
        res = lowner(a, 3.0)
        level = LevelSet(a, 3.0)
        boundary = level.boundary(rng.normal(size=(800, 4)))
        assert np.max(res.ellipsoid.quadratic_form(boundary)) <= 1.0 + 1e-6
        ratios = level.norms(boundary) / np.linalg.norm((boundary @ res.V) * res.D, axis=1)
        assert ratios.min() >= 0.999 and ratios.max() <= 2.0 * 1.1

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            lowner(np.outer(np.arange(1.0, 5.0), [1.0, 2.0]), 2.0)

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionTooSmall):
            lowner(np.arange(1.0, 6.0)[:, None], 2.0)

    def test_no_convergence_carries_best_iterate(self):
        rng = np.random.default_rng(30)
        a = rng.normal(size=(40, 4))
        cfg = LownerConfig(refine_tol=1e-13, max_outer=1, oracle_iters=5)
        with pytest.raises(NoConvergence) as err:
            lowner(a, 1.0, cfg)
        assert isinstance(err.value.best, LownerResult)

    def test_sharper_contraction_option(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(40, 4))
        cfg = LownerConfig(contraction="inv-sqrt-d")
        res = lowner(a, 1.0, cfg)
        level = LevelSet(a, 1.0)
        verts = contracted_vertices(res.ellipsoid, 0.5)
        assert np.max(level.norms(verts)) <= 1.0 + cfg.vertex_tol + 10 * cfg.refine_tol
