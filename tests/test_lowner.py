import importlib
import tracemalloc

import numpy as np
import pytest

from lplr import SyntheticSpec, generate_synthetic
from lplr.errors import (
    DimensionTooSmall,
    InvalidConfig,
    InvalidP,
    LplrError,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficient,
    ZeroGradient,
)
from lplr.factor import assemble, l2_low_rank, lp_low_rank
from lplr.lowner import (
    DIRECTION_BLOCK,
    VERTEX_TOL,
    Ellipsoid,
    LevelSet,
    LownerConfig,
    LownerResult,
    contracted_vertices,
    initial_ball,
    lowner,
    subgradient,
)
from lplr.matcore import entrywise_pnorm_pow

from oracles import central_diff_grad, mvee_axis_reciprocals, reference_ascend, reference_cut_loop, shallow_cut

# The package attribute ``lplr.lowner`` is the function, not the module.
lowner_module = importlib.import_module("lplr.lowner")


def random_pd(rng, d, spread=1.0):
    g = rng.normal(size=(d, d))
    return g @ g.T + spread * np.eye(d)


def test_level_set_is_centrally_symmetric():
    rng = np.random.default_rng(12)
    level = LevelSet(rng.normal(size=(20, 3)), 1.5)
    x = rng.normal(size=(50, 3))
    np.testing.assert_array_equal(level.norms(x), level.norms(-x))


def one_product_norms(a, p, pts):
    """||A x||_p for each row of ``pts`` from one product over all rows of A."""
    prod = a @ pts.T
    y = np.abs(prod)
    if p == 1:
        return y.sum(axis=0)
    if p == 2:
        return np.sqrt((y * y).sum(axis=0))
    w = prod * prod * prod if p == 4 else np.sign(prod) * y ** (p - 1.0)
    return np.einsum("ij,ij->j", w, prod) ** (1.0 / p)


# The conditioner's 1000 probes and certification's 4096 samples take the blocked path.
@pytest.mark.parametrize("count", [2 * DIRECTION_BLOCK, 1000, 4096])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_level_set_norms_blocks_match_one_product(count, p):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2000, 16))
    pts = rng.normal(size=(count, 16))
    np.testing.assert_array_equal(LevelSet(a, p).norms(pts), one_product_norms(a, p, pts))


# 600 directions are two direction blocks; 2048 rows are one row chunk, and the
# taller inputs end in a chunk of 1, 1 and 1568 rows.
@pytest.mark.parametrize("n", [2048, 2049, 4097, 20000])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("layout", ["rows", "transposed view"])
def test_level_set_norms_row_chunks_match_one_product(n, p, layout):
    assert lowner_module._ROW_CHUNK == 2048
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 6))
    if layout == "transposed view":
        a = np.ascontiguousarray(a.T).T
    pts = rng.normal(size=(600, 6))
    got = LevelSet(a, p).norms(pts)
    if n <= lowner_module._ROW_CHUNK:
        np.testing.assert_array_equal(got, one_product_norms(a, p, pts))
    else:
        # The reference in slices of 100 directions keeps its n x 100 temporaries small.
        expected = np.concatenate([one_product_norms(a, p, pts[i : i + 100]) for i in range(0, 600, 100)])
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)


class TestNormPass:
    # The one-power kernel and the plain |y|**p, |y|**(p-1) formula both err by
    # at most 3e-15 here, so the rtol does not favour either rounding; the
    # error is that of the float64 product A x.
    @pytest.mark.parametrize("n,d", [(200, 8), (2048, 16)])
    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
    def test_matches_extended_precision(self, p, n, d):
        rtol = 1e-14
        a = planted(n, d, n + d)
        pts = np.random.default_rng(n).standard_normal((300, d))
        y = a.astype(np.longdouble) @ pts.astype(np.longdouble).T
        z_ref = (np.abs(y) ** p).sum(axis=0) ** (1 / np.longdouble(p))
        g_ref = (a.astype(np.longdouble).T @ (np.sign(y) * np.abs(y) ** (p - 1))) / z_ref ** (p - 1)
        z = lowner_module.pnorms(a, p, pts)
        _, g = lowner_module._norm_pass(a, p, pts, grad=True)  # the gradient _ascend steps along
        assert np.max(np.abs(z - z_ref) / z_ref) <= rtol
        # Column by column: an entry that cancels keeps only its column's absolute accuracy.
        assert np.max(np.linalg.norm(g - g_ref, axis=0) / np.linalg.norm(g_ref, axis=0)) <= rtol


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


def cut_phase_input(kind, n, d):
    seed = 100 * d + n
    if kind == "planted":
        return planted(n, d, seed)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(n, d))
    # Student-t rows with 2 degrees of freedom: a few rows dominate each norm.
    return rng.standard_t(2.0, size=(n, d))


class TestCutPhase:
    # Planted inputs run the loop to its cut budget; Gaussian ones mostly stop
    # early, at the vertex test or at the margin test.  p = 3 takes the general
    # power of the norm above 2, where p = 4 has its own cubed branch.
    @pytest.mark.parametrize("kind", ["planted", "gaussian", "heavy-tailed"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n_rows", ["3d", "200"])
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_matches_validated_reference_bit_for_bit(self, d, n_rows, p, kind):
        n = 3 * d if n_rows == "3d" else 200
        a = cut_phase_input(kind, n, d)
        level = LevelSet(a, p)
        e, central, shallow, dets, contacts = lowner_module._cut_phase(level)
        ref_e, ref_cuts, ref_dets, ref_contacts = reference_cut_loop(level)
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
        # on the last cut of the default budget (8 d^2 = 512 here, which this
        # planted input uses up), the returned Ellipsoid's Cholesky rejects it
        (512, "negated", "non-positive pivot"),
    ])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in slogdet:RuntimeWarning")
    def test_lost_definiteness_raises_typed_error(self, monkeypatch, cut, corruption, check):
        real = lowner_module._shallow_update
        calls = []

        def corrupted(f, h):
            shape = real(f, h)
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
            return shape

        monkeypatch.setattr(lowner_module, "_shallow_update", corrupted)
        with pytest.raises(NotPositiveDefinite, match=check):
            lowner(planted(200, 8, 3), 1.0)
        assert len(calls) == cut


class TestAscend:
    # p = 1.5 and p = 3 put the gradient's |y|**(p-1) on numpy's sqrt and
    # square fast paths; iters = 1 is scored only, 2 moves once.
    @pytest.mark.parametrize("starts", [1, 7, 600])
    @pytest.mark.parametrize("iters", [1, 2, 60])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_matches_untrimmed_reference_bit_for_bit(self, p, iters, starts):
        a = np.array(planted(200, 8, 11))
        a[[5, 120]] = 0.0  # zero rows, so A x holds exact zeros
        level = LevelSet(a, p)
        rng = np.random.default_rng(1000 * iters + starts)
        minv = random_pd(rng, 8, spread=2.0)
        x = rng.standard_normal((starts, 8))
        vals, pts = lowner_module._ascend(level, minv, x, iters)
        ref_vals, ref_pts = reference_ascend(level, minv, x, iters)
        assert vals.tobytes() == ref_vals.tobytes()
        assert pts.tobytes() == ref_pts.tobytes()

    # Above _ROW_CHUNK rows A x and the gradient are summed chunk by chunk, so
    # the values agree with the one-product reference to rounding, not bit for bit.
    @pytest.mark.parametrize("n", [2049, 5000])
    @pytest.mark.parametrize("iters", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_row_chunks_match_reference(self, p, iters, n):
        a = np.array(planted(n, 8, n))
        level = LevelSet(a, p)
        rng = np.random.default_rng(n + iters)
        minv = random_pd(rng, 8, spread=2.0)
        x = rng.standard_normal((300, 8))
        vals, pts = lowner_module._ascend(level, minv, x, iters)
        ref_vals, ref_pts = reference_ascend(level, minv, x, iters)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-12, atol=0)
        # Points row by row: a coordinate that cancels to 1e-9 of its row keeps
        # only the row's absolute accuracy.
        row_err = np.linalg.norm(pts - ref_pts, axis=1) / np.linalg.norm(ref_pts, axis=1)
        assert row_err.max() <= 1e-12

    # Certification's 4,096 starts go through the norm pass in 16 blocks of
    # DIRECTION_BLOCK; 2000 rows are one chunk, so the result must still be
    # the one-product result bit for bit, whichever order the starts are in.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("iters", [1, 2, 4])
    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_direction_blocks_match_reference_bit_for_bit(self, p, iters, order):
        a = planted(2000, 16, 5)
        level = LevelSet(a, p)
        rng = np.random.default_rng(iters)
        minv = random_pd(rng, 16, spread=2.0)
        x = np.asarray(rng.standard_normal((4096, 16)), order=order)
        vals, pts = lowner_module._ascend(level, minv, x, iters)
        ref_vals, ref_pts = reference_ascend(level, minv, x, iters)
        assert vals.tobytes() == ref_vals.tobytes()
        assert pts.tobytes() == ref_pts.tobytes()


class TestCertifiedShape:
    def test_peak_memory_is_one_direction_block(self):
        # The 4,096-start certification ascent holds one 2 x 2000 x 256 work
        # buffer (8 MB); in one full-width pass it held 2 x 2000 x 4096 (131 MB).
        a = planted(2000, 16, 5)
        level = LevelSet(a, 1.0)
        minv = np.linalg.inv(a.T @ a)
        tracemalloc.start()
        try:
            lowner_module._certified_shape(level, minv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


class TestLownerConfig:
    # The config has no fields: the vertex contraction is fixed at 1/d and the
    # solver budgets are module constants.  Passing any of them, at any value,
    # is a TypeError that names it.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("contraction", "bogus"),
            ("phase1_cuts", -5),
            ("refine_tol", -1.0),
            ("max_outer", 0),
            ("oracle_iters", 0),
            ("slack", -2.0),
            ("refine_tol", float("nan")),
            ("slack", float("inf")),
            ("oracle_iters", 2.5),
            ("max_outer", True),
            ("refine_tol", 1e-3),
        ],
    )
    def test_rejects_field_out_of_range(self, field, value):
        with pytest.raises(TypeError, match=field):
            LownerConfig(**{field: value})

    def test_accepts_bounds_and_defaults(self):
        assert issubclass(InvalidConfig, LplrError)
        assert LownerConfig().contraction_factor(4) == 0.25
        assert LownerConfig().slack == 0.1


class TestLowner:
    def test_unit_ball_p2(self):
        res = lowner(np.eye(2), 2.0)
        np.testing.assert_allclose(res.D, [1.0, 1.0], rtol=1e-6)

    @pytest.mark.parametrize("name", ["diag-2x2", "planted-200x8", "planted-200x16", "planted-2000x16",
                                      "cond1e6-50x6", "square-6x6"])
    def test_ellipsoid_is_its_own_enclosure(self, name):
        # At p = 2 the level set is an ellipsoid: D and V are A's SVD, up to
        # the certification margin, and no cut or refinement step runs.
        if name == "diag-2x2":
            a = np.diag([2.0, 1.0])
        elif name.startswith("planted"):
            n, d = map(int, name.split("-")[1].split("x"))
            a = np.array(planted(n, d, n + d))
        elif name == "cond1e6-50x6":
            rng = np.random.default_rng(7)
            u = np.linalg.qr(rng.normal(size=(50, 6)))[0]
            v = np.linalg.qr(rng.normal(size=(6, 6)))[0]
            a = (u * np.logspace(0, -6, 6)) @ v.T
        else:
            a = np.random.default_rng(3).normal(size=(6, 6))
        d = a.shape[1]
        res = lowner(a, 2.0)
        _, s, vh = np.linalg.svd(a)
        np.testing.assert_allclose(res.D, s, rtol=1e-8)
        np.testing.assert_allclose(np.abs(res.V.T @ vh.T), np.eye(d), atol=1e-8)
        boundary = LevelSet(a, 2.0).boundary(np.random.default_rng(8).normal(size=(1000, d)))
        q = np.linalg.norm((boundary @ res.V) * res.D, axis=1) ** 2
        assert q.min() >= 1.0 - 1e-8 and q.max() <= 1.0
        assert (res.iterations_central, res.iterations_shallow, res.iterations_refine) == (0, 0, 0)
        assert res.logdet_trace.size == 0
        for k in range(1, d):
            lp = entrywise_pnorm_pow(a - assemble(lp_low_rank(a, k, 2.0)), 2.0)
            sv = entrywise_pnorm_pow(a - assemble(l2_low_rank(a, k)), 2.0)
            assert lp == pytest.approx(sv, rel=1e-10)

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
        assert np.max(level.norms(verts)) <= 1.0 + VERTEX_TOL
        # the cut sequence only ever shrinks det(F)
        assert np.all(np.diff(res.logdet_trace) < 0)
        assert np.linalg.norm(res.ellipsoid.center) == 0.0
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
        # Fewer rows than columns: L is unbounded, and at p = 1 a ball came back.
        for p in (1.0, 2.0):
            with pytest.raises(RankDeficient):
                lowner(np.random.default_rng(1).standard_normal((3, 5)), p)

    def test_level_set_p_must_match_argument(self):
        # A LevelSet carries its own p: lowner(LevelSet(a, 1), 4) must not
        # quietly solve p = 1.
        a = np.random.default_rng(32).normal(size=(40, 4))
        with pytest.raises(InvalidP, match=r"4\.0.*1\.0"):
            lowner(LevelSet(a, 1.0), 4.0)
        assert lowner(LevelSet(a, 4.0), 4.0).D.tobytes() == lowner(a, 4.0).D.tobytes()

    def test_dimension_one_rejected(self):
        with pytest.raises(DimensionTooSmall):
            lowner(np.arange(1.0, 6.0)[:, None], 2.0)

    def test_no_convergence_carries_best_iterate(self, monkeypatch):
        # An oracle that inflates every value finds a protruding point in every
        # round, so refinement runs out of column-generation rounds.
        real = lowner_module._ascend

        def inflated(*args):
            vals, pts = real(*args)
            return vals * 1e6, pts

        monkeypatch.setattr(lowner_module, "_ascend", inflated)
        rng = np.random.default_rng(30)
        a = rng.normal(size=(40, 4))
        with pytest.raises(NoConvergence) as err:
            lowner(a, 1.0)
        assert isinstance(err.value.best, LownerResult)
