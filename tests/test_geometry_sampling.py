import functools

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from mfmls.geometry import presets, sampling
from mfmls.geometry.cloud import BallRestriction, density_stats, restrict, save_csv
from mfmls.geometry.sampling import _greedy_thin, sample_quasi_uniform
from mfmls.geometry.surface import AlgebraicSurface


def test_sphere_card_and_residuals():
    s = presets.sphere()
    cloud = sample_quasi_uniform(s, 100, seed=7)
    assert abs(len(cloud) - 100) <= 10
    assert np.abs(s.eval(cloud.points)).max() <= 1e-10 * s.coeff_scale


def test_single_point_request():
    s = presets.sphere()
    cloud = sample_quasi_uniform(s, 1, seed=0)
    assert len(cloud) == 1
    assert cloud.separation == np.inf
    assert abs(s.eval(cloud.points)[0]) < 1e-10


def test_deterministic_per_seed():
    s = presets.torus()
    a = sample_quasi_uniform(s, 300, seed=11)
    b = sample_quasi_uniform(s, 300, seed=11)
    c = sample_quasi_uniform(s, 300, seed=12)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.points.shape != c.points.shape or not np.array_equal(a.points, c.points)


def test_deterministic_csv_bytes(tmp_path):
    s = presets.sphere()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(sample_quasi_uniform(s, 150, seed=3), p1)
    save_csv(sample_quasi_uniform(s, 150, seed=3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_ratio_bound():
    s = presets.cyclide()
    cloud = sample_quasi_uniform(s, 1500, seed=5)
    assert abs(len(cloud) - 1500) <= 150
    # stats attached by the sampler
    assert cloud.fill_distance is not None and cloud.separation is not None
    assert cloud.fill_distance / cloud.separation <= 4.0
    # independent probe-based check
    rng = np.random.default_rng(99)
    lo, hi = s.bbox
    raw = rng.uniform(lo, hi, size=(60000, 3))
    raw = raw[np.abs(s.eval(raw)) < 0.05 * s.coeff_scale]
    from mfmls.geometry.surface import project_points
    probes, ok = project_points(s, raw, on_fail="mask")
    h, q = density_stats(cloud, probes[ok])
    assert h / q <= 4.0


def test_cyclide_residuals_near_floor():
    s = presets.cyclide()
    cloud = sample_quasi_uniform(s, 2000, seed=1)
    res = np.abs(s.eval_longdouble(cloud.points)).astype(float)
    assert res.max() < 1e-12 * s.coeff_scale
    assert np.median(res) < 5e-14


def test_patch_direct_sampling():
    s = presets.cyclide()
    ball = BallRestriction(presets.cyclide_patch_center(), 1.0)
    cloud = sample_quasi_uniform(s, 800, seed=21, within=ball)
    assert abs(len(cloud) - 800) <= 80
    assert ball.contains(cloud.points).all()
    assert np.abs(s.eval(cloud.points)).max() <= 1e-10 * s.coeff_scale


@pytest.mark.slow
def test_restrict_global_cloud_to_patch_cardinality():
    # A 2^14-point cyclide cloud cut by the unit ball at the patch anchor
    # keeps roughly 706 points (+-15%).
    s = presets.cyclide()
    cloud = sample_quasi_uniform(s, 2**14, seed=4)
    ball = BallRestriction(presets.cyclide_patch_center(), 1.0)
    sub = restrict(cloud, ball)
    assert abs(len(sub) - 706) <= 0.15 * 706


def test_invalid_requests():
    s = presets.sphere()
    with pytest.raises(ValueError):
        sample_quasi_uniform(s, 0, seed=1)
    with pytest.raises(ValueError):
        sample_quasi_uniform(s, 100, seed=1, oversample=2)


@pytest.mark.parametrize("oversample", [np.nan, np.inf])
def test_non_finite_oversample_rejected(oversample):
    with pytest.raises(ValueError, match="oversample"):
        sample_quasi_uniform(presets.sphere(), 100, seed=1, oversample=oversample)


@pytest.mark.parametrize(
    "preset, seed",
    [("torus", 438497551), ("cyclide", 3285388380)],
)
def test_calibration_settles_when_rescaling_oscillates(preset, seed):
    # On these draws the sqrt(count/n) rescaling jumps between about 25 and
    # 35 points for all six passes; bisecting the bracketing radii settles.
    s = getattr(presets, preset)()
    cloud = sample_quasi_uniform(s, 30, seed=seed)
    assert abs(len(cloud) - 30) <= 0.08 * 30
    assert cloud.fill_distance / cloud.separation <= 4.0
    assert np.abs(s.eval(cloud.points)).max() <= 1e-10 * s.coeff_scale


def _unit_sphere(k):
    """The unit sphere in R^k, a (k - 1)-manifold."""
    coeffs = {tuple(2 * (j == i) for j in range(k)): 1.0 for i in range(k)}
    coeffs[(0,) * k] = -1.0
    return AlgebraicSurface.from_coefficients(k, coeffs, [[-1.1] * k, [1.1] * k])


@pytest.mark.parametrize("seed", range(10))
def test_calibration_settles_on_a_plane_curve(seed):
    # A packing of a curve holds about length / radius points, so the
    # radius must be rescaled linearly in count / n there.
    cloud = sample_quasi_uniform(_unit_sphere(2), 30, seed=seed)
    assert abs(len(cloud) - 30) <= 0.08 * 30
    assert cloud.fill_distance / cloud.separation <= 4.0


@pytest.mark.parametrize("k", [2, 4])
def test_calibration_passes_per_dimension(k, monkeypatch):
    # The first radius and its rescale both take the intrinsic dimension,
    # so a circle and the 3-sphere in R^4 settle in at most two thinning
    # passes, as surfaces in R^3 usually do.
    radii = []
    thin = sampling._greedy_thin

    def counted(points, radius, limit=None):
        radii.append(radius)
        return thin(points, radius, limit)

    monkeypatch.setattr(sampling, "_greedy_thin", counted)
    counts = []
    for seed in range(5):
        radii.clear()
        sample_quasi_uniform(_unit_sphere(k), 200, seed=seed)
        counts.append(len(radii))
    assert max(counts) <= 2, counts


_PACKED_SURFACES = {
    "sphere": (presets.sphere, None),
    "torus": (presets.torus, None),
    "cyclide-ball": (presets.cyclide, BallRestriction(presets.cyclide_patch_center(), 1.0)),
    "circle": (lambda: _unit_sphere(2), None),
    "3-sphere": (lambda: _unit_sphere(4), None),
}


@pytest.mark.parametrize("n", [30, 200])
@pytest.mark.parametrize("name", _PACKED_SURFACES)
def test_pool_fill_never_exceeds_separation(name, n):
    # The packing drops a candidate only within its radius of a kept point
    # and keeps points at least that radius apart, so the pool fill is at
    # most the radius and the radius at most the separation. A retry on
    # h/q above any bound of at least 1 could never fire.
    make, within = _PACKED_SURFACES[name]
    for seed in range(3):
        cloud = sample_quasi_uniform(make(), n, seed=seed, within=within)
        assert cloud.fill_distance <= cloud.separation * (1 + 1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_greedy_thin_fill_below_radius_below_separation(dim):
    for points, radius in _thinning_cases(dim):
        if not len(points):
            continue
        kept = points[_greedy_thin(points, radius)]
        fill, _ = cKDTree(kept).query(points)
        assert fill.max() < radius
        if len(kept) > 1:
            assert pdist(kept).min() >= radius


def brute_force_greedy_thin(points, radius, limit=None):
    """O(n^2) greedy packing, the reference for ``_greedy_thin``."""
    accepted = []
    for i, p in enumerate(points):
        d = points[accepted] - p
        if not ((d * d).sum(axis=1) < radius * radius).any():
            accepted.append(i)
            if limit is not None and len(accepted) >= limit:
                break
    return np.asarray(accepted, dtype=np.intp)


@functools.cache
def _brute_force_results(dim, limit):
    return [brute_force_greedy_thin(p, r, limit) for p, r in _thinning_cases(dim)]


def _thinning_cases(dim):
    """Random, clustered, lattice and degenerate inputs of dimension ``dim``."""
    rng = np.random.default_rng(dim)
    radius = {1: 0.004, 2: 0.06, 3: 0.15, 4: 0.3, 5: 0.4}[dim]
    yield rng.random((400, dim)), radius
    yield rng.normal(scale=4 * radius, size=(250, dim)), radius
    # Dyadic lattice with spacing equal to the radius: exact distance ties,
    # which the strict "closer than radius" test must accept.
    lattice = np.indices((6,) * dim).reshape(dim, -1).T * 0.25
    yield lattice[rng.permutation(len(lattice))], 0.25
    # Beside the x = 0 face of a smaller such lattice, points at
    # x = -0.25 * (1 -+ 1e-15): each lies just inside or just outside the
    # radius of its face point.
    lattice = lattice[(lattice <= 0.75).all(axis=1)]
    near = lattice[lattice[:, 0] == 0.0]
    near[:, 0] = -0.25 * (1.0 + np.where(np.arange(len(near)) % 2, 1e-15, -1e-15))
    assert (np.abs(near[:, 0]) != 0.25).all()
    both = np.vstack([lattice, near])
    yield both[rng.permutation(len(both))], 0.25
    if dim in (3, 4):
        # Enough points to cross many default-size batches; most are
        # rejected, so the k-d prefilter does real work.
        yield rng.random((20_000, dim)), {3: 0.08, 4: 0.2}[dim]
    yield np.zeros((1, dim)), radius
    yield np.zeros((0, dim)), radius
    if dim == 3:
        # Two clusters 3e6 radii apart: the grid passes 2**21 cells per
        # axis, so cell keys leave int64 for Python ints.
        far = rng.normal(scale=3.0, size=(300, 3))
        far[150:] += 3.0e6
        yield far, 1.0
        # Grid of stride s = 2**21 + 2 with two points 0.2 apart whose cell
        # keys are 2**63 - 1 and 2**63: int64 keys would wrap between them.
        s = 2**21 + 2
        cx, rem = divmod(2**63 - 1, s * s)
        cy, cz = divmod(rem, s)
        yield np.array([
            [0.0, 0.0, 0.0],
            [s - 3.5, 0.0, 0.0],
            [cx - 1.5, cy - 1.5, cz - 1.1],
            [cx - 1.5, cy - 1.5, cz - 0.9],
        ]), 1.0


# Prefilter batch sizes (first, cap): the defaults, and tiny ones so that
# every case crosses many batch boundaries and tree rebuilds.
_BATCH_SIZES = {"": None, "-batch1": (1, 1), "-batch1to3": (1, 3)}


@pytest.mark.parametrize(
    "dim, limit, batches",
    [
        pytest.param(dim, limit, batches, id=f"{dim}-{limit}{tag}")
        for tag, batches in _BATCH_SIZES.items()
        for dim in (1, 2, 3, 4, 5)
        for limit in (7, None)
    ],
)
def test_greedy_thin_matches_brute_force(dim, limit, batches, monkeypatch):
    if batches is not None:
        monkeypatch.setattr(sampling, "_THIN_BATCH_FIRST", batches[0])
        monkeypatch.setattr(sampling, "_THIN_BATCH_MAX", batches[1])
    expected = _brute_force_results(dim, limit)
    for (points, radius), want in zip(_thinning_cases(dim), expected, strict=True):
        got = _greedy_thin(points, radius, limit)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)
