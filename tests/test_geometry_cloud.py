import numpy as np
import pytest

from mfmls.errors import SinglePointCloud
from mfmls.geometry.cloud import (
    BallRestriction,
    PointCloud,
    density_stats,
    load_csv,
    restrict,
    save_csv,
)


@pytest.fixture
def random_cloud():
    rng = np.random.default_rng(42)
    return PointCloud(rng.uniform(-1, 1, size=(80, 3)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(bad):
    pts = np.zeros((3, 3))
    pts[:, 0] = [0.0, 1.0, 2.0]
    pts[1, 2] = bad
    with pytest.raises(ValueError, match="point 1 is not finite"):
        PointCloud(pts)


# ---------------------------------------------------------------------------
# ball queries (strict inequality)
# ---------------------------------------------------------------------------

def test_ball_query_is_strict():
    pts = np.array([[1.0, 0, 0], [0.5, 0, 0], [2.0, 0, 0]])
    cloud = PointCloud(pts)
    idx = cloud.ball(np.zeros(3), 1.0)
    assert list(idx) == [1]
    idx = cloud.ball(np.zeros(3), 1.0 + 1e-12)
    assert list(idx) == [0, 1]


def test_ball_query_matches_brute_force(random_cloud):
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(-1.2, 1.2, size=3)
        r = float(rng.uniform(0.1, 1.5))
        idx = random_cloud.ball(x, r)
        d = np.linalg.norm(random_cloud.points - x, axis=1)
        expect = np.flatnonzero(d < r)
        np.testing.assert_array_equal(idx, expect)


# ---------------------------------------------------------------------------
# density statistics
# ---------------------------------------------------------------------------

def test_density_stats_brute_force(random_cloud):
    rng = np.random.default_rng(3)
    probes = rng.uniform(-1, 1, size=(500, 3))
    h, q = density_stats(random_cloud, probes)
    pts = random_cloud.points
    d2 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d2, np.inf)
    assert q == pytest.approx(d2.min(), rel=1e-14)
    dp = np.linalg.norm(probes[:, None, :] - pts[None, :, :], axis=-1).min(axis=1)
    assert h == pytest.approx(dp.max(), rel=1e-14)


def test_density_stats_single_point():
    with pytest.raises(SinglePointCloud):
        density_stats(PointCloud(np.zeros((1, 3))), np.ones((4, 3)))


# ---------------------------------------------------------------------------
# ball restriction
# ---------------------------------------------------------------------------

def test_restrict_strict_boundary():
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0]])
    ball = BallRestriction(np.zeros(3), 1.0)
    sub = restrict(PointCloud(pts), ball)
    assert len(sub) == 2  # the point at exactly radius 1 is excluded


def test_restrict_empty_is_not_fatal():
    pts = np.array([[5.0, 0, 0], [6.0, 0, 0]])
    sub = restrict(PointCloud(pts), BallRestriction(np.zeros(3), 1.0))
    assert len(sub) == 0


def test_restriction_radius_positive():
    with pytest.raises(ValueError):
        BallRestriction(np.zeros(3), 0.0)


def test_duplicate_points_rejected():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
    with pytest.raises(ValueError):
        PointCloud(pts)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_roundtrip_exact(tmp_path, random_cloud):
    path = tmp_path / "cloud.csv"
    save_csv(random_cloud, path)
    again = load_csv(path)
    np.testing.assert_array_equal(again.points, random_cloud.points)
    assert path.read_text().splitlines()[0] == "x,y,z"


def test_csv_rewrite_byte_identical(tmp_path, random_cloud):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(random_cloud, p1)
    save_csv(load_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_two_dimensional(tmp_path):
    cloud = PointCloud(np.array([[0.25, -1.5], [3.125, 2.0]]))
    path = tmp_path / "flat.csv"
    save_csv(cloud, path)
    assert path.read_text().splitlines()[0] == "x,y"
    np.testing.assert_array_equal(load_csv(path).points, cloud.points)
