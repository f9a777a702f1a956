from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmls.errors import AllWeightsZero, EmptyStencil, TooFewPoints
from mfmls.geometry import presets
from mfmls.geometry.cloud import PointCloud
from mfmls.geometry.sampling import sample_quasi_uniform
from mfmls.mls import (
    MlsConfig,
    build_stencil,
    gaussian_noise,
    lebesgue_constant,
    lebesgue_function,
    local_fit,
    mls_evaluate,
    noise_study,
    select_delta,
    shape_function_matrix,
    wendland_weight,
)
from mfmls.polybasis import MonomialBasis, hilbert_dim_hypersurface


def _wendland_fraction(t: Fraction) -> Fraction:
    if t >= 1:
        return Fraction(0)
    return (1 - t) ** 6 * (1 + 6 * t + Fraction(35, 3) * t**2)


def test_wendland_rational_values():
    for num, den in [(0, 1), (1, 4), (1, 2), (3, 4), (1, 1), (5, 4)]:
        t = Fraction(num, den)
        got = wendland_weight(np.array([float(t) * 2.0]), 2.0)[0]
        assert got == pytest.approx(float(_wendland_fraction(t)), rel=1e-15, abs=1e-300)
    assert wendland_weight(np.array([1.0]), 2.0)[0] == pytest.approx(83.0 / 768.0, rel=1e-15)


@settings(max_examples=200)
@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
def test_wendland_monotone_and_bounded(t1, t2):
    # one-ulp slack: near t=0 the product form can round a hair above 1
    lo, hi = sorted((t1, t2))
    w = wendland_weight(np.array([lo, hi]), 1.0)
    assert w[0] >= w[1] - 4e-16
    assert w[1] >= 0.0
    assert w[0] <= 1.0 + 4e-16


def test_wendland_compact_support():
    r = np.array([1.0, 1.5, 100.0])
    assert (wendland_weight(r, 1.0) == 0.0).all()
    assert wendland_weight(np.array([0.0]), 1.0)[0] == 1.0


def test_select_delta_bruteforce():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(60, 3))
    evals = rng.normal(size=(7, 3))
    cloud = PointCloud(pts)
    k = 2 * 4  # degree-1 basis in 3 variables, doubled
    expect = max(np.sort(np.linalg.norm(pts - e, axis=1))[k - 1] for e in evals)
    got = select_delta(cloud, evals, basis_size=4)
    assert got == pytest.approx(expect * (1 + 1e-9), rel=1e-12)
    # every eval point must see at least 2M strict-ball neighbours
    for e in evals:
        assert (np.linalg.norm(pts - e, axis=1) < got).sum() >= k


def test_select_delta_too_few_points():
    cloud = PointCloud(np.random.default_rng(1).normal(size=(5, 3)))
    with pytest.raises(TooFewPoints):
        select_delta(cloud, np.zeros((1, 3)), basis_size=4)


def test_build_stencil_strict_boundary():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0]])
    cloud = PointCloud(pts)
    idx = build_stencil(cloud, np.zeros(3), 1.0)
    assert list(idx) == [0]
    idx = build_stencil(cloud, np.zeros(3), 1.0 + 1e-9)
    assert list(idx) == [0, 1]
    with pytest.raises(EmptyStencil):
        build_stencil(cloud, np.array([50.0, 0, 0]), 1.0)


def test_shepard_is_normalized_weighting():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(40, 3))
    x = np.zeros(3)
    fit = local_fit(pts, x, 2.0, MonomialBasis(3, 0))
    r = np.linalg.norm(pts - x, axis=1)
    w = wendland_weight(r, 2.0)
    np.testing.assert_allclose(fit.weights, w / w.sum(), rtol=0, atol=1e-14)
    assert fit.rank == 1
    # constants are reproduced essentially exactly
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_matches_normal_equations_on_full_rank_stencils():
    # Small well-conditioned planar stencils: the SVD route must agree with
    # the classical normal-equations solution W P (P^T W P)^{-1} e_1.
    rng = np.random.default_rng(7)
    basis = MonomialBasis(2, 2)
    for _ in range(25):
        pts = rng.uniform(-0.8, 0.8, size=(12, 2))
        x = rng.uniform(-0.2, 0.2, size=2)
        delta = 2.5
        fit = local_fit(pts, x, delta, basis)
        from mfmls.polybasis import eval_scaled_basis

        P = eval_scaled_basis(basis, x, delta, pts)
        w = wendland_weight(np.linalg.norm(pts - x, axis=1), delta)
        G = P.T @ (w[:, None] * P)
        oracle = (w[:, None] * P) @ np.linalg.solve(G, np.eye(6)[:, 0])
        assert fit.rank == 6
        np.testing.assert_allclose(fit.weights, oracle, atol=1e-8 * np.abs(oracle).max())


def test_polynomial_reproduction():
    rng = np.random.default_rng(11)
    basis = MonomialBasis(2, 3)
    pts = rng.uniform(-1, 1, size=(30, 2))
    x = np.array([0.1, -0.05])
    fit = local_fit(pts, x, 3.0, basis)
    for trial in range(5):
        coef = rng.uniform(-1, 1, size=basis.size)
        q = basis.eval(pts) @ coef
        qx = basis.eval(x[None, :]) @ coef
        assert fit.weights @ q == pytest.approx(qx[0], abs=1e-10 * np.abs(coef).sum())


def test_scale_equivariance():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, size=(25, 3))
    x = rng.uniform(-0.3, 0.3, size=3)
    basis = MonomialBasis(3, 2)
    ref = local_fit(pts, x, 2.0, basis).weights
    for lam in (1e-3, 1e3):
        scaled = local_fit(lam * pts, lam * x, lam * 2.0, basis).weights
        np.testing.assert_allclose(scaled, ref, rtol=0, atol=1e-12)


def test_partition_of_unity_on_surface_stencil():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 500, seed=2)
    x = cloud.points[0]
    basis = MonomialBasis(3, 3)
    idx = build_stencil(cloud, x, 0.9)
    fit = local_fit(cloud.points[idx], x, 0.9, basis)
    assert fit.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_rank_matches_restricted_dimension():
    # On a degree-2 zero set, the weighted Vandermonde collapses to the
    # dimension of polynomials restricted to the surface.
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 600, seed=5)
    x = cloud.points[10]
    idx = build_stencil(cloud, x, 1.0)
    assert len(idx) >= 80
    for degree in (2, 3):
        fit = local_fit(cloud.points[idx], x, 1.0, MonomialBasis(3, degree))
        assert fit.rank == hilbert_dim_hypersurface(3, degree, 2)
        assert fit.cond >= 1.0


def test_all_weights_zero_direct_call():
    pts = np.array([[2.0, 0, 0], [0, 3.0, 0]])
    with pytest.raises(AllWeightsZero):
        local_fit(pts, np.zeros(3), 1.0, MonomialBasis(3, 0))


def test_matrix_locality_dense_scan():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 300, seed=8)
    evals = sample_quasi_uniform(sphere, 40, seed=9).points
    cfg = MlsConfig(degree=1, delta=0.5)
    B, diag = shape_function_matrix(cloud, evals, cfg)
    assert B.shape == (len(evals), len(cloud))
    dense = B.toarray()
    for i, x in enumerate(evals):
        d = np.linalg.norm(cloud.points - x, axis=1)
        assert (dense[i, d >= 0.5] == 0.0).all()
        assert diag.n_neighbors[i] == (d < 0.5).sum()
        assert not diag.failed[i]
        assert dense[i].sum() == pytest.approx(1.0, abs=1e-9)


def test_failure_flagged_not_silent():
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(30, 3)))
    evals = np.array([[0.5, 0.5, 0.5], [50.0, 0, 0]])
    cfg = MlsConfig(degree=0, delta=0.8)
    B, diag = shape_function_matrix(cloud, evals, cfg)
    assert not diag.failed[0] and diag.failed[1]
    assert diag.rank[1] == 0
    assert np.isnan(diag.lebesgue[1])
    vals, _ = mls_evaluate(cloud, np.ones(30), evals, cfg)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(vals[1])


def test_escalation_recovers_far_point():
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(30, 3)))
    evals = np.array([[3.0, 0.0, 0.0]])
    cfg = MlsConfig(degree=0, delta=0.8, escalate_delta=True)
    B, diag = shape_function_matrix(cloud, evals, cfg)
    assert not diag.failed[0]
    assert diag.delta[0] > 0.8
    vals, _ = mls_evaluate(cloud, np.full(30, 2.5), evals, cfg)
    assert vals[0] == pytest.approx(2.5, abs=1e-12)


def test_no_eval_points_gives_empty_assembly():
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(30, 3)))
    for delta in (None, 0.5):
        B, diag = shape_function_matrix(cloud, np.zeros((0, 3)), MlsConfig(1, delta))
        assert B.shape == (0, 30) and B.nnz == 0
        assert len(diag.failed) == len(diag.rank) == len(diag.lebesgue) == 0
        if delta is None:
            assert np.isnan(diag.base_delta)
        else:
            assert diag.base_delta == delta


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_eval_point_rejected_up_front(bad):
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(30, 3)))
    evals = np.full((5, 3), 0.5)
    evals[3, 1] = bad
    with pytest.raises(ValueError, match="evaluation point 3 is not finite"):
        shape_function_matrix(cloud, evals, MlsConfig(degree=1, delta=0.5))


def test_lebesgue_consistency():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 400, seed=3)
    evals = sample_quasi_uniform(sphere, 60, seed=4).points
    cfg = MlsConfig(degree=2)
    B, diag = shape_function_matrix(cloud, evals, cfg)
    leb = lebesgue_function(cloud, evals, cfg)
    np.testing.assert_allclose(leb, np.abs(B.toarray()).sum(axis=1), rtol=1e-12)
    np.testing.assert_allclose(leb, diag.lebesgue, rtol=1e-12)
    const = lebesgue_constant(cloud, evals, cfg)
    assert const == pytest.approx(leb.max(), rel=1e-12)
    assert const >= 1.0 - 1e-9


def test_auto_delta_used_when_not_fixed():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 400, seed=3)
    evals = cloud.points[:10]
    cfg = MlsConfig(degree=1)
    _, diag = shape_function_matrix(cloud, evals, cfg)
    expect = select_delta(cloud, evals, basis_size=4)
    assert diag.base_delta == pytest.approx(expect, rel=1e-12)
    assert (diag.n_neighbors >= 8).all()


def test_gaussian_noise_determinism_and_moments():
    a = gaussian_noise(seed=5, trial=0, size=100_000)
    b = gaussian_noise(seed=5, trial=0, size=100_000)
    c = gaussian_noise(seed=5, trial=1, size=100_000)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(a.mean()) < 0.02
    assert a.std() == pytest.approx(1.0, abs=0.02)
    # fourth moment distinguishes a true normal from e.g. uniform rescaling
    assert np.mean(a**4) == pytest.approx(3.0, abs=0.15)


def test_noise_study_zero_sigma_and_reproducibility():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 500, seed=1)
    evals = sample_quasi_uniform(sphere, 100, seed=2).points
    f = lambda p: np.cos(p[:, 0]) * p[:, 1]
    cfg = MlsConfig(degree=2)
    clean = f(cloud.points)
    exact = f(evals)
    m0, s0 = noise_study(
        cloud, clean, evals, cfg, sigma=0.0, trials=5, seed=0, exact_values=exact
    )
    vals, _ = mls_evaluate(cloud, clean, evals, cfg)
    assert m0 == pytest.approx(np.abs(vals - exact).max(), rel=1e-12)
    assert s0 == 0.0
    # default reference is the clean approximant, so sigma=0 is a null study
    z0, _ = noise_study(cloud, clean, evals, cfg, sigma=0.0, trials=2, seed=0)
    assert z0 == 0.0
    m1, s1 = noise_study(
        cloud, clean, evals, cfg, sigma=1e-2, trials=4, seed=9, exact_values=exact
    )
    m2, s2 = noise_study(
        cloud, clean, evals, cfg, sigma=1e-2, trials=4, seed=9, exact_values=exact
    )
    assert (m1, s1) == (m2, s2)
    assert m1 > m0  # noise can only hurt at this sigma
    assert s1 > 0.0


def test_noise_response_scales_exactly_linearly():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 500, seed=1)
    evals = sample_quasi_uniform(sphere, 80, seed=2).points
    cfg = MlsConfig(degree=1)
    clean = np.sin(3 * cloud.points[:, 0])
    m_small, _ = noise_study(cloud, clean, evals, cfg, sigma=1e-3, trials=20, seed=3)
    m_big, _ = noise_study(cloud, clean, evals, cfg, sigma=1e-1, trials=20, seed=3)
    # the noise response is linear in sigma and independent of the clean data
    assert m_big / m_small == pytest.approx(100.0, rel=1e-9)


def test_noise_response_bounded_by_stability_function():
    sphere = presets.sphere()
    cloud = sample_quasi_uniform(sphere, 400, seed=6)
    evals = sample_quasi_uniform(sphere, 150, seed=7).points
    cfg = MlsConfig(degree=2)
    clean = np.cos(cloud.points @ np.array([1.0, 2.0, 0.5]))
    lam = lebesgue_constant(cloud, evals, cfg)
    sigma, trials = 1e-2, 40
    maxima = []
    for t in range(trials):
        m, _ = noise_study(cloud, clean, evals, cfg, sigma=sigma, trials=2, seed=100 + t)
        maxima.append(m)
    within = np.mean([m <= 4 * sigma * lam for m in maxima])
    assert within >= 0.95


def test_convergence_smoke():
    sphere = presets.sphere()
    f = lambda p: np.sin(2 * p[:, 0]) * np.cos(p[:, 1] + p[:, 2])
    evals = sample_quasi_uniform(sphere, 100, seed=30).points
    errs = []
    for n in (400, 1600):
        cloud = sample_quasi_uniform(sphere, n, seed=31)
        vals, diag = mls_evaluate(cloud, f(cloud.points), evals, MlsConfig(degree=2))
        assert not diag.failed.any()
        errs.append(np.abs(vals - f(evals)).max())
    assert errs[1] < errs[0] / 2


def test_config_validation():
    with pytest.raises(ValueError):
        MlsConfig(degree=-1)
    with pytest.raises(ValueError):
        MlsConfig(degree=2, delta=0.0)
    with pytest.raises(ValueError):
        MlsConfig(degree=2, rank_threshold_factor=0.0)
    with pytest.raises(ValueError):
        MlsConfig(degree=2, neighbor_multiple=0)
