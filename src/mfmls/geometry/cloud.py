"""Point clouds with deterministic spatial queries.

All queries are Euclidean. Ball queries use strict inequality |p - x| < r,
which is what makes compactly supported weights vanish identically on
excluded points; that is contractual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..errors import SinglePointCloud


class PointCloud:
    """Immutable set of distinct, finite points in R^N with a lazy k-d tree index."""

    def __init__(self, points):
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2:
            raise ValueError(f"points must be (n, dim), got shape {pts.shape}")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"point {i} is not finite: {pts[i]}")
        if len(pts) > 1:
            # Exact duplicates would make separation zero and stencil weights
            # ambiguous; reject them up front.
            if len(np.unique(pts, axis=0)) != len(pts):
                raise ValueError("point cloud contains duplicate points")
        self.points = pts
        self.points.setflags(write=False)
        self._tree = None
        #: Set by the samplers: ``fill_distance`` is the pool fill (largest
        #: candidate-to-cloud distance), at most ``separation`` from
        #: ``sample_quasi_uniform``. ``density_stats`` measures h against probes.
        self.fill_distance = None
        self.separation = None

    def __len__(self):
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def ball(self, x, radius: float) -> np.ndarray:
        """Indices (ascending) of points with |p - x| strictly less than radius."""
        x = np.asarray(x, dtype=float).reshape(-1)
        idx = np.asarray(
            sorted(self.tree.query_ball_point(x, radius)), dtype=np.int64
        )
        if len(idx) == 0:
            return idx
        dist = np.linalg.norm(self.points[idx] - x, axis=1)
        return idx[dist < radius]

    def __repr__(self):
        return f"PointCloud(n={len(self)}, dim={self.dim})"


@dataclass(frozen=True)
class BallRestriction:
    """Open Euclidean ball used to cut out a patch of a cloud."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float).reshape(-1))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.linalg.norm(pts - self.center, axis=1) < self.radius


def restrict(cloud: PointCloud, ball: BallRestriction) -> PointCloud:
    """Sub-cloud strictly inside the ball. May be empty; that is not an error."""
    return PointCloud(cloud.points[ball.contains(cloud.points)])


def density_stats(cloud: PointCloud, probes) -> tuple[float, float]:
    """(fill distance h, separation q) of the cloud.

    h is estimated as the largest probe-to-cloud distance, so it is only as
    good as the probe set is dense. q is exact: the smallest nearest-neighbor
    distance within the cloud.
    """
    if len(cloud) < 2:
        raise SinglePointCloud("separation needs at least two points")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if len(probes) == 0:
        raise ValueError("probe set is empty")
    d_self, _ = cloud.tree.query(cloud.points, k=2)
    q = float(d_self[:, 1].min())
    d_probe, _ = cloud.tree.query(probes, k=1)
    h = float(np.max(d_probe))
    return h, q


# ---------------------------------------------------------------------------
# CSV persistence: 17 significant digits round-trips float64 exactly, which
# is what makes rerun outputs byte-comparable.
# ---------------------------------------------------------------------------

_AXIS_NAMES = ("x", "y", "z")


def _header(dim: int) -> str:
    if dim <= 3:
        return ",".join(_AXIS_NAMES[:dim])
    return ",".join(f"x{i + 1}" for i in range(dim))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path, header, rows) -> None:
    """Write the header names and rows as CSV, every float to 17 digits."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_csv(cloud, path) -> None:
    """Write a cloud (or bare coordinate array) as headered full-precision CSV."""
    pts = cloud.points if isinstance(cloud, PointCloud) else np.atleast_2d(cloud)
    _write_csv(path, [_header(pts.shape[1])], pts)


def load_csv(path) -> PointCloud:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        dim = len(header.split(","))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != dim:
        raise ValueError(f"CSV rows have {data.shape[1]} columns, header has {dim}")
    return PointCloud(data)
