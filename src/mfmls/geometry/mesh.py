"""Triangle meshes: a minimal OBJ reader and on-mesh point sampling."""

from __future__ import annotations

import math
from os import PathLike

import numpy as np

from ..errors import EmptyMesh, MeshFormatError, SamplingFailed
from .cloud import PointCloud
from .sampling import _check_oversample, _greedy_thin, _packed_cloud, _packing_radius, _root


class TriMesh:
    """An indexed triangle mesh in R^3.

    Degenerate triangles (zero or near-zero area) are dropped on
    construction; an empty result raises :class:`EmptyMesh`. A non-finite
    vertex raises :class:`MeshFormatError`.
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.intp)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshFormatError(f"vertices must be (n, 3), got {vertices.shape}")
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise MeshFormatError(f"vertex {i} is not finite: {vertices[i]}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshFormatError(f"triangles must be (m, 3), got {triangles.shape}")
        if len(triangles) and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise MeshFormatError("triangle index out of range")
        a, b, c = vertices[triangles].transpose(1, 0, 2)
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
        scale = float(np.ptp(vertices, axis=0).max()) if len(vertices) else 1.0
        keep = areas > 1e-12 * scale * scale
        if not keep.any():
            raise EmptyMesh("mesh has no non-degenerate triangles")
        self.vertices = vertices
        self.triangles = triangles[keep]
        self.areas = areas[keep]
        self.total_area = float(self.areas.sum())

    def __len__(self) -> int:
        return len(self.triangles)


def _face_index(token: str, nv_so_far: int, lineno: int) -> tuple[int, bool]:
    """Resolve one face token to a 0-based index.

    Returns ``(index, final)`` where ``final`` is False for positive indices
    that still need a range check against the total vertex count.
    """
    head = token.split("/", 1)[0]
    try:
        idx = int(head)
    except ValueError:
        raise MeshFormatError(f"line {lineno}: bad face index {token!r}") from None
    if idx == 0:
        raise MeshFormatError(f"line {lineno}: face indices are 1-based, got 0")
    if idx < 0:
        resolved = nv_so_far + idx
        if resolved < 0:
            raise MeshFormatError(f"line {lineno}: negative index {idx} out of range")
        return resolved, True
    return idx - 1, False


def load_obj(path: str | PathLike) -> TriMesh:
    """Read a Wavefront OBJ file as a triangle mesh.

    Only ``v`` and ``f`` records are interpreted; texture/normal fields in
    face tokens are ignored, polygons are fan-triangulated, and negative
    (relative) indices are supported. Records other than ``v`` and ``f``
    are skipped.
    """
    vertices: list[list[float]] = []
    faces: list[tuple[int, ...]] = []
    pending: list[tuple[int, int]] = []  # (face_row, lineno) for range checks
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshFormatError(f"line {lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError:
                    raise MeshFormatError(f"line {lineno}: bad vertex coordinate") from None
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise MeshFormatError(f"line {lineno}: face needs at least 3 vertices")
                ring = []
                needs_check = False
                for token in parts[1:]:
                    idx, final = _face_index(token, len(vertices), lineno)
                    needs_check |= not final
                    ring.append(idx)
                for i in range(1, len(ring) - 1):
                    faces.append((ring[0], ring[i], ring[i + 1]))
                    if needs_check:
                        pending.append((len(faces) - 1, lineno))
    if not faces:
        raise EmptyMesh(f"{path}: no faces found")
    tri = np.asarray(faces, dtype=np.intp)
    for row, lineno in pending:
        if tri[row].max() >= len(vertices):
            raise MeshFormatError(f"line {lineno}: face index out of range")
    return TriMesh(np.asarray(vertices, dtype=np.float64), tri)


def sample_mesh(mesh: TriMesh, n: int, seed: int, *, oversample: float = 20.0) -> PointCloud:
    """Sample exactly ``n`` well-spread points on a triangle mesh.

    A pool of ``oversample * n`` area-weighted barycentric draws is thinned
    greedily at a separation radius calibrated from the mesh area, shrinking
    the radius until exactly ``n`` points are accepted. The radius is not
    allowed to collapse: if reaching ``n`` would require spacing below a
    quarter of the ideal packing radius, :class:`SamplingFailed` is raised
    (the pool is too small for the request). ``oversample`` must be finite
    and at least 4, as for :func:`sample_quasi_uniform`.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_oversample(oversample)
    rng = np.random.default_rng(seed)
    pool_size = max(int(math.ceil(oversample * n)), 64)
    tri_ids = rng.choice(len(mesh), size=pool_size, p=mesh.areas / mesh.total_area)
    uv = rng.random((pool_size, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    a, b, c = mesh.vertices[mesh.triangles[tri_ids]].transpose(1, 0, 2)
    pool = a + uv[:, :1] * (b - a) + uv[:, 1:] * (c - a)

    radius = _packing_radius(mesh.total_area, n, 2)
    floor = 0.25 * radius
    for _ in range(10):
        idx = _greedy_thin(pool, radius, limit=n)
        if len(idx) == n:
            return _packed_cloud(pool, idx)
        radius *= max(_root(len(idx) / n, 2) * 0.99, 0.5)
        if radius < floor:
            raise SamplingFailed(
                f"cannot place {n} points at reasonable spacing; "
                f"increase oversample (pool of {pool_size} saturated)"
            )
    raise SamplingFailed(f"spacing calibration did not reach {n} points")
