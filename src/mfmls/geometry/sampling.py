"""Quasi-uniform sampling of algebraic surfaces.

Points are produced in three stages: rejection sampling of a thin shell
``|P| < band`` around the zero set (with an acceptance correction
proportional to ``|grad P|`` so that the projected candidates are close to
uniform with respect to surface area), damped-Newton projection onto the
surface, and greedy thinning to a maximal packing at a separation radius
calibrated against the requested cardinality. The shell draws come in
chunks; each chunk is drawn and tested in parts on the workers of
``_workers.worker_count``, every part from its own copy of the generator
jumped ahead (PCG64 ``advance``) to the part's first draw, and the parts'
in-shell rows then meet the acceptance test one part at a time, so no
array spans the chunk. The draws, the stream left behind and the cloud do
not depend on the number of workers. The k-d tree queries of the
calibration and of the packing statistics use the same workers. One
thinning scan, behind a batched k-d tree prefilter that drops clear
rejections in bulk, serves every dimension; ``sample_mesh`` shares it,
the packing rule (``_packing_radius``) and the epilogue (``_packed_cloud``).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from .. import _workers
from ..errors import SamplingFailed
from .cloud import BallRestriction, PointCloud
from .surface import AlgebraicSurface, project_points

# Relative half-width of the rejection shell |P| < band * coeff_scale.
_BAND_REL = 0.15
# Candidates drawn per chunk during rejection sampling, and chunk rows per
# part: a part is drawn, shell-tested and gradient-evaluated as one job.
_CHUNK = 1 << 21
_SHELL_PART = 1 << 18
# Accepted draws are Newton-projected this many at a time, in draw order,
# until the candidate pool is full.
_PROJECT_BATCH = 1 << 13
# Separation calibration: multiplicative radius updates, then bisection steps
# between bracketing radii if those did not settle.
_RESCALE_PASSES = 6
_BISECT_PASSES = 24
# Hard cap on raw draws, as a multiple of the candidate target, to guarantee
# termination when a surface barely intersects its bounding box.
_MAX_DRAW_FACTOR = 20_000
# Greedy thinning prefilters its candidates in batches against a k-d tree of
# the points accepted so far; batches double from the first size to the cap.
_THIN_BATCH_FIRST = 1 << 10
_THIN_BATCH_MAX = 1 << 14
# (kappa_d, c_d) of _calibrated_packing by intrinsic dimension d; larger d use
# the last row.
_PACKING = {1: (2.0, 0.7476), 2: (4.0, 0.69), 3: (5.883, 0.7336), 4: (7.311, 0.843),
            5: (8.067, 1.038)}


def _shell_candidates(
    surface: AlgebraicSurface,
    n_cand: int,
    rng: np.random.Generator,
    within: BallRestriction | None,
) -> np.ndarray:
    """Draw ``n_cand`` on-surface candidate points, roughly area-uniform.

    Each chunk is drawn, shell-tested and gradient-evaluated in parts of
    ``_SHELL_PART`` rows on the workers of ``_workers.worker_count``; only
    in-shell rows outlive a part. ``rng`` is then advanced past the chunk's
    draws, and each part in turn reads its acceptance numbers from it and is
    replaced by its accepted rows. The stream, the rows and the cloud are
    those of drawing the whole chunk and its acceptance numbers at once.
    """
    lo, hi = surface.bbox.copy()
    if within is not None:
        # Tangential drift during projection is tiny, so a modest margin
        # around the ball suffices for the raw draws.
        margin = 0.15 * within.radius
        lo = np.maximum(lo, within.center - within.radius - margin)
        hi = np.minimum(hi, within.center + within.radius + margin)
        if (lo >= hi).any():
            raise SamplingFailed("restriction ball does not meet the surface bounding box")

    band = _BAND_REL * surface.coeff_scale
    dim = surface.ambient_dim
    workers = _workers.worker_count()

    def shell_part(state, start):
        """In-shell rows of the chunk part that starts at row ``start``, and
        their |grad P|. The rows are the ones ``Generator.uniform(lo, hi)``
        would draw from the chunk-start ``state`` at that offset: a copy of
        the generator jumps past the ``start * dim`` draws before them, and
        ``random`` scaled by ``hi - lo`` and shifted by ``lo`` gives
        uniform's bits."""
        bit_gen = np.random.PCG64()
        bit_gen.state = state
        bit_gen.advance(start * dim)
        raw = np.random.Generator(bit_gen).random((min(_SHELL_PART, _CHUNK - start), dim))
        raw *= hi - lo
        raw += lo
        raw = raw[np.abs(surface.eval(raw)) < band]
        return raw, np.linalg.norm(surface.grad(raw), axis=1)

    max_draws = _MAX_DRAW_FACTOR * max(n_cand, 1)
    grad_cap = 0.0
    drawn = 0
    kept: list[np.ndarray] = []
    n_kept = 0
    while n_kept < n_cand:
        if drawn >= max_draws:
            raise SamplingFailed(
                f"rejection sampling exhausted {drawn} draws with only "
                f"{n_kept}/{n_cand} candidates; surface may not intersect the region"
            )
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        _workers.map_in_order(functools.partial(shell_part, rng.bit_generator.state),
                              range(0, _CHUNK, _SHELL_PART), parts.append, workers)
        in_shell = sum(len(rows) for rows, _ in parts)
        # One acceptance number per chunk row follows the chunk in the
        # stream; only the first in_shell are read, part by part.
        rng.bit_generator.advance(_CHUNK * dim)
        drawn += _CHUNK
        grad_cap = max(grad_cap, 1.05 * max(gnorm.max(initial=0.0) for _, gnorm in parts))
        # Shell thickness scales like 1/|grad P|; thin the thick (flat) parts
        # so the surface density of accepted draws is approximately constant.
        accepted = []
        while parts:
            rows, gnorm = parts.pop(0)
            accepted.append(rows[rng.random(len(rows)) * grad_cap < gnorm])
        rng.bit_generator.advance(_CHUNK - in_shell)
        raw = np.concatenate(accepted)
        # Projection is row-independent, so projecting the accepted draws in
        # order and stopping once the pool is full keeps the same prefix.
        for start in range(0, len(raw), _PROJECT_BATCH):
            pts, ok = project_points(
                surface, raw[start:start + _PROJECT_BATCH], on_fail="mask")
            pts = pts[ok]
            if within is not None:
                pts = pts[within.contains(pts)]
            if len(pts):
                kept.append(pts)
                n_kept += len(pts)
            if n_kept >= n_cand:
                break
    return np.concatenate(kept)[:n_cand]


def _prefiltered(points: np.ndarray, radius: float, accepted: list[int]):
    """Yield, in order, the indices of ``points`` that may still be accepted.

    Candidates are taken in batches. Before a batch is yielded, one k-d tree
    query drops every candidate that lies clearly closer than ``radius`` to
    an already accepted point, so the greedy scan would reject it anyway.
    ``accepted`` is the caller's list, read when each batch starts; the tree
    over it is rebuilt only once it has doubled since the last build.
    """
    n = len(points)
    cut = radius * (1.0 - 1e-9)
    tree, built = None, 0
    start, batch = 0, _THIN_BATCH_FIRST
    while start < n:
        stop = min(start + batch, n)
        if len(accepted) >= max(2 * built, 1):
            built = len(accepted)
            tree = cKDTree(points[accepted])
        if tree is None:
            yield from range(start, stop)
        else:
            d, _ = tree.query(points[start:stop], k=1, distance_upper_bound=radius)
            yield from (np.flatnonzero(d >= cut) + start).tolist()
        start = stop
        batch = min(2 * batch, _THIN_BATCH_MAX)


def _greedy_thin(points: np.ndarray, radius: float, limit: int | None = None) -> np.ndarray:
    """Indices of a greedy maximal packing of ``points`` at separation ``radius``.

    Points are visited in order; a point is accepted when no previously
    accepted point lies within ``radius``. Most candidates of a dense pool
    are rejected, and ``_prefiltered`` finds those in bulk: a k-d tree of
    the points accepted before the current batch drops every candidate
    whose tree distance is below ``radius * (1 - 1e-9)``. Such a candidate
    lies within ``radius`` of an accepted point in exact arithmetic too, so
    the in-order scan would reject it as well; the relative margin covers
    the tree's rounding, and ties or near-ties at ``radius`` always reach
    the exact test. Every surviving candidate, in order, goes through the
    exact test against all accepted points, including those accepted after
    the tree was built, so the indices are those of the plain scan.

    The exact test keeps accepted points in a uniform grid of cell size
    ``radius`` over the first three coordinates, so each query touches
    only the 27 neighbouring cells. Dimensions 1 and 2 are padded with
    zero coordinates, which add exactly 0 to every squared distance.
    Coordinates past the third join the squared distance in order, and
    only once the first three already fall below ``radius**2``; adding
    non-negative terms never lowers a sum, so the test is the plain
    in-order one. The scan is plain Python over flat coordinate lists.
    """
    n, dim = points.shape
    if n == 0:
        return np.empty(0, dtype=np.intp)
    r2 = radius * radius
    head = points[:, :3]
    if dim < 3:
        head = np.hstack([head, np.zeros((n, 3 - dim))])
    origin = head.min(axis=0) - 2.0 * radius
    cell = np.floor((head - origin) * (1.0 / radius)).astype(np.int64)
    # One integer key per cell; neighbour cells stay in [0, stride) per
    # axis, so keys never collide. Keys fit int64 while stride < 2**21;
    # larger grids key by Python ints.
    stride = int(cell.max()) + 2
    if stride >= 1 << 21:
        cell = cell.astype(object)
    keys = ((cell[:, 0] * stride + cell[:, 1]) * stride + cell[:, 2]).tolist()
    offsets = [
        (a * stride + b) * stride + c
        for a, b, c in itertools.product((-1, 0, 1), repeat=3)
    ]
    xs, ys, zs = (head[:, j].tolist() for j in range(3))
    rest = [points[:, j].tolist() for j in range(3, dim)]
    step = 3 + len(rest)
    accepted: list[int] = []
    cells: dict[int, list[float]] = {}
    get = cells.get
    for i in _prefiltered(points, radius, accepted):
        x, y, z = xs[i], ys[i], zs[i]
        base = keys[i]
        ok = True
        for off in offsets:
            lst = get(base + off)
            if lst is not None:
                for j in range(0, len(lst), step):
                    dx = lst[j] - x
                    dy = lst[j + 1] - y
                    dz = lst[j + 2] - z
                    d2 = dx * dx + dy * dy + dz * dz
                    if d2 < r2:
                        if rest:
                            for k, col in enumerate(rest, j + 3):
                                dw = lst[k] - col[i]
                                d2 += dw * dw
                            if d2 >= r2:
                                continue
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            accepted.append(i)
            lst = get(base)
            if lst is None:
                lst = cells[base] = []
            lst.extend((x, y, z, *[col[i] for col in rest]))
            if limit is not None and len(accepted) >= limit:
                break
    return np.asarray(accepted, dtype=np.intp)


def _packed_cloud(pool: np.ndarray, idx: np.ndarray) -> PointCloud:
    """Cloud of ``pool[idx]`` with ``fill_distance`` against the pool and
    ``separation`` (infinite for a single point) set."""
    pts = pool[idx]
    cloud = PointCloud(pts)
    workers = _workers.worker_count()
    d, _ = cloud.tree.query(pool, k=1, workers=workers)
    cloud.fill_distance = float(d.max())
    # A lone point's second neighbour is missing, at distance inf.
    dd, _ = cloud.tree.query(pts, k=2, workers=workers)
    cloud.separation = float(dd[:, 1].min())
    return cloud


def _root(x: float, d: int) -> float:
    """``x ** (1/d)``, by ``math.sqrt`` at d = 2, whose bits pow need not match."""
    return math.sqrt(x) if d == 2 else x ** (1.0 / d)


def _packing_radius(volume: float, n: int, d: int) -> float:
    """Radius at which a greedy packing of this d-volume holds about n points."""
    return _root(_PACKING[min(d, len(_PACKING))][1] * volume / n, d)


def _calibrated_packing(cands: np.ndarray, n_target: int, d: int) -> np.ndarray:
    """Greedy packing of ``cands`` with within 8% of ``n_target`` points.

    The first radius comes from the candidates' nearest-neighbour scale. N
    Poisson points on a d-manifold of volume V lie a mean ``dbar = Gamma(1 +
    1/d) (V / (omega_d N))**(1/d)`` from their nearest neighbours (``omega_d``:
    unit d-ball volume), so ``V = kappa_d N dbar**d``. A greedy packing of a
    dense pool covers about the random sequential addition fraction ``phi_d``
    of V: ``c_d V / q**d`` points at radius q, ``c_d = 2**d phi_d / omega_d``.
    ``phi_d`` is Renyi's 0.7476 at d = 1 and 0.3841, 0.2600, 0.1707 at d = 3,
    4, 5 (Torquato, Uche & Stillinger, Phys. Rev. E 74, 061308, 2006). At
    d = 2, ``kappa_2 = 4`` and ``c_2`` is measured (54% disk cover), and
    in R^3 the first pass keeps 0.83-0.97 n points, so two passes are usual.

    The radius is then rescaled by the d-th root of count / n_target, for up
    to ``_RESCALE_PASSES`` passes. When the count keeps jumping across the
    window instead, the radius is bisected between the largest radius that
    gave too many points and the smallest that gave too few.
    """
    sub = cands[: min(len(cands), 50_000)]
    # One expression, so no query array outlives it into the thinning passes.
    dbar = float(cKDTree(sub).query(sub, k=2, workers=_workers.worker_count())[0][:, 1].mean())
    # Left to right, so d = 2 multiplies 4.0 * N * dbar * dbar.
    volume = math.prod((_PACKING[min(d, len(_PACKING))][0], len(sub)) + (dbar,) * d)
    radius = _packing_radius(volume, n_target, d)
    too_small, too_large = 0.0, math.inf
    for calib_pass in range(_RESCALE_PASSES + _BISECT_PASSES):
        idx = _greedy_thin(cands, radius)
        if abs(len(idx) - n_target) <= 0.08 * n_target:
            return idx
        if len(idx) == len(cands):
            raise SamplingFailed(
                "candidate pool too small for the requested cardinality; "
                "increase oversample"
            )
        if len(idx) > n_target:
            too_small = max(too_small, radius)
        else:
            too_large = min(too_large, radius)
        if calib_pass + 1 < _RESCALE_PASSES:
            radius *= _root(len(idx) / n_target, d)
        elif 0.0 < too_small < too_large < math.inf:
            radius = 0.5 * (too_small + too_large)
        else:
            break
    raise SamplingFailed(f"separation calibration did not settle near {n_target} points")


def _check_oversample(oversample: float) -> None:
    """Reject a candidate-pool multiple that is not finite or is below 4."""
    if not (math.isfinite(oversample) and oversample >= 4):
        raise ValueError(f"oversample must be finite and at least 4, got {oversample}")


def sample_quasi_uniform(
    surface: AlgebraicSurface,
    n_target: int,
    seed: int,
    *,
    within: BallRestriction | None = None,
    oversample: float = 20.0,
) -> PointCloud:
    """Sample a quasi-uniform point cloud on an algebraic surface.

    Parameters
    ----------
    surface : AlgebraicSurface
        Surface to sample; its bounding box must enclose the zero set (or
        the requested patch of it).
    n_target : int
        Requested cardinality. The returned cloud has within 10% of this
        many points (exactly one when ``n_target == 1``).
    seed : int
        Seed for the draw stream. Identical ``(surface, n_target, seed,
        within, oversample)`` inputs reproduce the identical cloud.
    within : BallRestriction, optional
        Restrict sampling to the open ball; all returned points satisfy
        the strict inclusion test.
    oversample : float, optional
        Candidate pool size as a multiple of ``n_target`` (finite, at
        least 4).

    Returns
    -------
    PointCloud
        Cloud with ``separation`` and ``fill_distance``, the pool fill: the
        largest candidate-to-cloud distance. The packing drops a candidate
        only within its radius of a kept point and keeps points that radius
        apart, so ``fill_distance <= radius <= separation`` up to rounding.

    Raises
    ------
    SamplingFailed
        If rejection sampling cannot populate the candidate pool or the
        separation calibration does not converge.
    """
    if n_target < 1:
        raise ValueError(f"n_target must be positive, got {n_target}")
    _check_oversample(oversample)

    # A floor on the pool size keeps the area estimate and the fill probes
    # meaningful for small requests.
    n_cand = max(int(math.ceil(oversample * n_target)), 4000)
    cands = _shell_candidates(surface, n_cand, np.random.default_rng(seed), within)
    if n_target == 1:
        return _packed_cloud(cands, np.zeros(1, dtype=np.intp))
    return _packed_cloud(cands, _calibrated_packing(cands, n_target, surface.intrinsic_dim))
