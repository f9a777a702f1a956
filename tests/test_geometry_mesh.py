import numpy as np
import pytest

from mfmls.errors import EmptyMesh, MeshFormatError, SamplingFailed
from mfmls.geometry import mesh as mesh_module
from mfmls.geometry.mesh import TriMesh, load_obj, sample_mesh
from mfmls.geometry.presets import sphere
from mfmls.geometry.sampling import sample_quasi_uniform

TETRA = """\
# simple tetrahedron
v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
f 1 2 3
f 1 2 4
f 1 3 4
f 2 3 4
"""


def _write(tmp_path, text, name="m.obj"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_tetrahedron(tmp_path):
    mesh = load_obj(_write(tmp_path, TETRA))
    assert mesh.vertices.shape == (4, 3)
    assert mesh.triangles.shape == (4, 3)
    # three right triangles of area 1/2 plus the diagonal face sqrt(3)/2
    assert np.isclose(sorted(mesh.areas)[-1], np.sqrt(3) / 2)
    assert np.isclose(mesh.total_area, 1.5 + np.sqrt(3) / 2)


def test_quad_fan_triangulation(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    mesh = load_obj(_write(tmp_path, text))
    assert mesh.triangles.shape == (2, 3)
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])
    assert np.isclose(mesh.total_area, 1.0)


def test_slash_and_negative_indices(tmp_path):
    text = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "vt 0 0\nvn 0 0 1\n"
        "f 1/1/1 2/1/1 3/1/1\n"
        "f -3//1 -2//1 -1//1\n"
    )
    mesh = load_obj(_write(tmp_path, text))
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 1, 2]])


def test_degenerate_faces_dropped(tmp_path):
    text = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 2 0 0\n"
        "f 1 2 2\n"  # repeated vertex
        "f 1 2 4\n"  # collinear
        "f 1 2 3\n"
    )
    mesh = load_obj(_write(tmp_path, text))
    assert mesh.triangles.shape == (1, 3)


def test_format_errors(tmp_path):
    with pytest.raises(MeshFormatError):
        load_obj(_write(tmp_path, "v 0 0\nf 1 2 3\n"))  # short vertex
    with pytest.raises(MeshFormatError):
        load_obj(_write(tmp_path, "v 0 0 0\nv 1 0 0\nf 1 2\n"))  # short face
    with pytest.raises(MeshFormatError):
        load_obj(_write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n"))
    with pytest.raises(MeshFormatError):
        load_obj(_write(tmp_path, "v a b c\nf 1 1 1\n"))
    with pytest.raises(MeshFormatError):
        load_obj(_write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n"))


def test_empty_mesh(tmp_path):
    with pytest.raises(EmptyMesh):
        load_obj(_write(tmp_path, "v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n"))
    with pytest.raises(EmptyMesh):
        load_obj(_write(tmp_path, "# nothing here\n"))


def test_trimesh_validation():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(MeshFormatError):
        TriMesh(v, np.array([[0, 1, 3]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    v[2, 1] = bad
    with pytest.raises(MeshFormatError, match="vertex 2 is not finite"):
        TriMesh(v, np.array([[0, 1, 3]]))


@pytest.mark.parametrize("oversample", [np.nan, np.inf])
def test_non_finite_oversample_rejected(oversample):
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    mesh = TriMesh(v, np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="oversample"):
        sample_mesh(mesh, 10, seed=0, oversample=oversample)


@pytest.mark.parametrize("oversample", [0.0, -5.0, 3.9])
def test_oversample_below_four_rejected(oversample):
    # The same rule and message as sample_quasi_uniform; the pool floor of 64
    # draws must not hide a nonsensical multiple.
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    mesh = TriMesh(v, np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="oversample must be finite and at least 4"):
        sample_mesh(mesh, 10, seed=0, oversample=oversample)
    with pytest.raises(ValueError, match="oversample must be finite and at least 4"):
        sample_quasi_uniform(sphere(), 10, seed=0, oversample=oversample)


def test_sample_single_triangle():
    v = np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0]])
    mesh = TriMesh(v, np.array([[0, 1, 2]]))
    cloud = sample_mesh(mesh, 1, seed=0)
    assert len(cloud) == 1
    x, y, z = cloud.points[0]
    assert z == 0.0 and x >= 0 and y >= 0 and x / 2 + y / 2 <= 1


def test_area_weighting():
    # two coplanar triangles with areas 1/2 and 3/2
    v = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [3, 0, 1], [4, 0, 1], [3, 3, 1]]
    )
    mesh = TriMesh(v, np.array([[0, 1, 2], [3, 4, 5]]))
    cloud = sample_mesh(mesh, 4000, seed=2)
    assert len(cloud) == 4000
    on_small = np.sum(cloud.points[:, 2] == 0.0)
    assert abs(on_small - 1000) <= 0.05 * 4000


def test_exact_cardinality_and_determinism():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    mesh = TriMesh(v, np.array([[0, 1, 2], [1, 3, 2]]))
    a = sample_mesh(mesh, 500, seed=9)
    b = sample_mesh(mesh, 500, seed=9)
    assert len(a) == 500
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, sample_mesh(mesh, 500, seed=10).points)


def test_sample_on_plane_and_spread():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    mesh = TriMesh(v, np.array([[0, 1, 2], [1, 3, 2]]))
    cloud = sample_mesh(mesh, 200, seed=3)
    assert np.all(cloud.points[:, 2] == 0.0)
    # thinning keeps the cloud from clumping: min spacing well above random
    d, _ = cloud.tree.query(cloud.points, k=2)
    assert d[:, 1].min() > 0.25 / np.sqrt(200)


def test_two_far_components_keep_exact_count_and_separation():
    # Two unit octahedra 3e5 apart: the thinning grid passes 2**21 cells
    # along x, so cell keys are Python ints.
    unit = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    faces = np.array([[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)])
    mesh = TriMesh(
        np.vstack([unit, unit + [3.0e5, 0, 0]]), np.vstack([faces, faces + 6])
    )
    cloud = sample_mesh(mesh, 600, seed=4)
    assert len(cloud) == 600
    assert (cloud.points[:, 0] > 1.0e5).sum() not in (0, 600)
    diff = cloud.points[:, None, :] - cloud.points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert cloud.separation == dist.min()


def test_oversample_too_small(monkeypatch):
    # A pool that holds too few well-spread points: every thinning pass
    # accepts half the request, so the radius shrinks past its floor and the
    # call gives up instead of packing points arbitrarily close.
    thin = mesh_module._greedy_thin
    monkeypatch.setattr(mesh_module, "_greedy_thin",
                        lambda pool, radius, limit: thin(pool, radius, limit)[: limit // 2])
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    mesh = TriMesh(v, np.array([[0, 1, 2]]))
    with pytest.raises(SamplingFailed, match="pool of 400 saturated"):
        sample_mesh(mesh, 100, seed=0, oversample=4.0)
