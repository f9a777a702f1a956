"""Moving least squares approximation on point clouds.

The approximation at a point x is a weighted least-squares fit of a
polynomial of fixed degree to nearby cloud values, evaluated at x. With the
basis centred at x and scaled by the support radius, the value of the fit at
x is the first fit coefficient, so the whole scheme reduces to a set of
shape-function coefficients b*(x) obtained from one thin SVD per evaluation
point. Rank truncation of that SVD is what keeps the scheme stable when the
cloud lies on a lower-dimensional zero set and the ambient polynomial basis
is far from independent on it.

``build_stencil`` and ``local_fit`` are the per-point routines.
``shape_function_matrix`` does the same arithmetic for many points at once.
It walks the evaluation points in blocks whose stencil rows fit
``_FIT_BLOCK`` words of work space. Per block it makes one ball query, one
weight and one Vandermonde evaluation over all stencil rows, stacked SVDs of
equal-size stencils (at most ``_STACK_WORDS`` words each) and one stacked
product per stack and rank, and it writes the rows straight into the CSR
arrays. Every row is bit-identical to the per-point result, and the memory
beyond the output is bounded by the block, not by the number of points.

The fits are independent, so the blocks run on the W pool threads of
``_workers.map_in_order``, W = 1 unless BLAS is held to one thread and then
at most two. The workers share the work space, each block getting
``_FIT_BLOCK // W`` words. The calling thread hands the blocks out and
writes every block into the diagnostics and CSR arrays in block order.
Block boundaries never change a row, so the output is the same for every W.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from . import _workers
from .errors import (
    AllWeightsZero,
    DegenerateFit,
    EmptyStencil,
    TooFewPoints,
)
from .geometry.cloud import PointCloud
from .polybasis import MonomialBasis, eval_scaled_basis

_EPS = 2.0**-52
# Words of work space per block of evaluation points: each stencil row takes
# its Vandermonde row plus about _ROW_WORDS words of bookkeeping (indices,
# distances, weights, the ball query's lists).
_FIT_BLOCK = 2**18
_ROW_WORDS = 24
# Words of Vandermonde rows per stacked SVD: its input copy and factors stay
# small next to the block.
_STACK_WORDS = 2**13


@dataclass(frozen=True)
class MlsConfig:
    """Parameters of a moving least squares approximation.

    Parameters
    ----------
    degree : int
        Polynomial degree of the local fits.
    delta : float, optional
        Fixed support radius. When omitted, the radius is chosen from the
        data: the largest distance from any evaluation point to its
        ``neighbor_multiple * basis_size``-th nearest cloud point, padded by
        a relative 1e-9 so that stencil membership (strict inequality) is
        unambiguous.
    neighbor_multiple : int
        Multiplier applied to the basis size when choosing the automatic
        radius.
    rank_threshold_factor : float
        Multiplies the default singular-value cutoff
        ``n_rows * sigma_1 * 2**-52``.
    escalate_delta : bool
        When True, an evaluation point whose fit fails (no neighbours, all
        weights zero, degenerate system) retries with the radius doubled,
        up to three doublings, before being flagged as failed.
    """

    degree: int
    delta: float | None = None
    neighbor_multiple: int = 2
    rank_threshold_factor: float = 1.0
    escalate_delta: bool = False

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        if self.delta is not None and not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.neighbor_multiple < 1:
            raise ValueError("neighbor_multiple must be at least 1")
        if not self.rank_threshold_factor > 0:
            raise ValueError("rank_threshold_factor must be positive")


def wendland_weight(r, delta: float):
    """Compactly supported C^4 weight ``(1-t)^6 (1 + 6t + 35/3 t^2)``, t = r/delta."""
    t = np.asarray(r, dtype=np.float64) / delta
    inside = t < 1.0
    t = np.where(inside, t, 1.0)
    w = (1.0 - t) ** 6 * (1.0 + 6.0 * t + (35.0 / 3.0) * t * t)
    return np.where(inside, w, 0.0)


def select_delta(
    cloud: PointCloud, eval_points, basis_size: int, multiple: int = 2
) -> float:
    """Support radius covering ``multiple * basis_size`` neighbours everywhere.

    Returns the largest distance from an evaluation point to its
    ``multiple * basis_size``-th nearest cloud point, inflated by a relative
    1e-9 so that the strict-inequality stencil includes that neighbour.
    """
    k = multiple * basis_size
    if len(cloud) < k:
        raise TooFewPoints(
            f"cloud has {len(cloud)} points but the radius rule needs {k}"
        )
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    rows = max(1, _FIT_BLOCK // _ROW_WORDS)
    far = max(
        cloud.tree.query(eval_points[lo : lo + rows], k=[k])[0].max()
        for lo in range(0, len(eval_points), rows)
    )
    return float(far * (1.0 + 1e-9))


def build_stencil(cloud: PointCloud, x, delta: float) -> np.ndarray:
    """Indices of cloud points with ``|xi - x| < delta`` (strict)."""
    idx = cloud.ball(x, delta)
    if len(idx) == 0:
        raise EmptyStencil(f"no cloud points within {delta} of {np.asarray(x)}")
    return idx


@dataclass
class LocalFit:
    """Shape-function coefficients and diagnostics for one evaluation point."""

    weights: np.ndarray  # aligned with the stencil rows
    rank: int
    cond: float  # sigma_1 / sigma_rank of the retained block
    n_rows: int
    singular_values: np.ndarray


def local_fit(
    points: np.ndarray,
    center,
    delta: float,
    basis: MonomialBasis,
    rank_threshold_factor: float = 1.0,
) -> LocalFit:
    """Fit shape-function coefficients on one stencil.

    Builds the weighted Vandermonde matrix ``A = diag(sqrt(w)) V`` in the
    basis centred at ``center`` and scaled by ``delta``, truncates its SVD at
    ``rank_threshold_factor * n_rows * sigma_1 * 2**-52``, and returns the
    coefficients ``b* = sqrt(w) . U_K (V_K[0,:] / S_K)`` so that
    ``b* @ f`` is the value of the local weighted fit at ``center``.
    """
    points = np.asarray(points, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    r = np.linalg.norm(points - center, axis=1)
    w = wendland_weight(r, delta)
    if not (w > 0.0).any():
        raise AllWeightsZero(
            f"all {len(points)} stencil weights vanish at radius {delta}"
        )
    sw = np.sqrt(w)
    V = eval_scaled_basis(basis, center, delta, points)
    A = sw[:, None] * V
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    threshold = rank_threshold_factor * len(points) * S[0] * _EPS
    rank = int((S > threshold).sum())
    if rank == 0:
        raise DegenerateFit("weighted stencil matrix is numerically zero")
    b = sw * (U[:, :rank] @ (Vt[:rank, 0] / S[:rank]))
    return LocalFit(
        weights=b,
        rank=rank,
        cond=float(S[0] / S[rank - 1]),
        n_rows=len(points),
        singular_values=S,
    )


@dataclass
class FitDiagnostics:
    """Per-evaluation-point diagnostics from shape-function assembly.

    Failed points are never silent: they carry ``failed=True``, rank and
    neighbour counts of 0, and NaN in the float fields, and downstream
    evaluation returns NaN there.
    """

    base_delta: float
    delta: np.ndarray
    rank: np.ndarray
    n_neighbors: np.ndarray
    cond: np.ndarray
    lebesgue: np.ndarray
    failed: np.ndarray

    def summary(self) -> dict:
        ok = ~self.failed
        return {
            "base_delta": self.base_delta,
            "n_eval": int(len(self.failed)),
            "n_failed": int(self.failed.sum()),
            "median_rank": float(np.median(self.rank[ok])) if ok.any() else float("nan"),
            "max_rank": int(self.rank[ok].max()) if ok.any() else 0,
            "max_lebesgue": float(self.lebesgue[ok].max()) if ok.any() else float("nan"),
        }


def shape_function_matrix(
    cloud: PointCloud, eval_points, config: MlsConfig
) -> tuple[sparse.csr_matrix, FitDiagnostics]:
    """Assemble the sparse matrix of shape functions.

    Row i holds the coefficients b*(x_i) on the cloud, so ``B @ f``
    evaluates the approximation of samples ``f`` at all evaluation points.
    Each row equals what ``build_stencil`` and ``local_fit`` give for that
    point (with ``escalate_delta``, at the first radius whose fit succeeds),
    bit for bit.

    Returns
    -------
    (B, diagnostics) : (scipy.sparse.csr_matrix, FitDiagnostics)
        ``B`` has shape ``(n_eval, len(cloud))``.

    Raises
    ------
    ValueError
        If the evaluation points have the wrong dimension or one of them is
        not finite.
    """
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    if eval_points.shape[1] != cloud.dim:
        raise ValueError(
            f"evaluation points have dimension {eval_points.shape[1]}, "
            f"cloud has {cloud.dim}"
        )
    finite = np.isfinite(eval_points).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"evaluation point {i} is not finite: {eval_points[i]}")
    basis = MonomialBasis(cloud.dim, config.degree)
    n_eval = len(eval_points)
    if config.delta is not None:
        base_delta = float(config.delta)
    elif n_eval == 0:
        base_delta = float("nan")
    else:
        base_delta = select_delta(
            cloud, eval_points, basis.size, config.neighbor_multiple
        )

    diag = FitDiagnostics(
        base_delta=base_delta,
        delta=np.full(n_eval, np.nan),
        rank=np.zeros(n_eval, dtype=np.intp),
        n_neighbors=np.zeros(n_eval, dtype=np.intp),
        cond=np.full(n_eval, np.nan),
        lebesgue=np.full(n_eval, np.nan),
        failed=np.ones(n_eval, dtype=bool),
    )
    # Stencil sizes at the base radius plan the blocks and size the output;
    # only rows re-fitted at a doubled radius can outgrow them.
    counts = cloud.tree.query_ball_point(eval_points, base_delta, return_length=True)
    indptr = np.zeros(n_eval + 1, dtype=np.int32)
    indices = np.empty(int(counts.sum()), dtype=np.int32)
    data = np.empty(len(indices))
    max_attempts = 4 if config.escalate_delta else 1
    workers = _workers.worker_count()
    max_rows = max(1, _FIT_BLOCK // workers // (basis.size + _ROW_WORDS))

    def fit_block(span):
        lo, hi = span
        todo = np.arange(lo, hi)
        delta = np.full(hi - lo, base_delta)
        fits = []
        for _ in range(max_attempts):
            fit = _fit_many(
                cloud, eval_points[todo], delta, basis, config.rank_threshold_factor
            )
            ok = fit.rank > 0
            fits.append((todo[ok], delta[ok], ok, fit))
            todo, delta = todo[~ok], 2.0 * delta[~ok]
            if len(todo) == 0:
                break
        return lo, hi, fits

    def write_block(result):
        lo, hi, fits = result
        for done, delta, ok, fit in fits:
            diag.delta[done] = delta
            diag.rank[done] = fit.rank[ok]
            diag.n_neighbors[done] = fit.n_rows[ok]
            diag.cond[done] = fit.cond[ok]
            diag.lebesgue[done] = fit.lebesgue[ok]
            diag.failed[done] = False
        indptr[lo + 1 : hi + 1] = indptr[lo] + np.cumsum(diag.n_neighbors[lo:hi])
        if indptr[hi] > len(data):
            size = max(2 * len(data), int(indptr[hi]))
            indices.resize(size, refcheck=False)
            data.resize(size, refcheck=False)
        for done, _, ok, fit in fits:
            n_rows = fit.n_rows[ok]
            first = np.cumsum(n_rows) - n_rows
            dest = np.repeat(indptr[done] - first, n_rows) + np.arange(len(fit.cols))
            indices[dest] = fit.cols
            data[dest] = fit.weights

    _workers.map_in_order(fit_block, _blocks(counts, max_rows), write_block, workers)
    nnz = int(indptr[-1])
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    B = sparse.csr_matrix((data, indices, indptr), shape=(n_eval, len(cloud)))
    return B, diag


def _blocks(counts: np.ndarray, max_rows: int):
    """Consecutive ``(lo, hi)`` runs of points holding at most ``max_rows``
    stencil rows in all, or a single point if it alone holds more."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        before = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + max_rows, side="right")))
        yield lo, hi
        lo = hi


@dataclass
class _Fits:
    """``local_fit`` results for many centres; rank 0 marks a failed fit."""

    rank: np.ndarray
    n_rows: np.ndarray
    cond: np.ndarray
    lebesgue: np.ndarray
    cols: np.ndarray  # stencils of the successful centres, in centre order
    weights: np.ndarray  # aligned with cols


def _fit_many(
    cloud: PointCloud,
    centers: np.ndarray,
    delta: np.ndarray,
    basis: MonomialBasis,
    rank_threshold_factor: float,
) -> _Fits:
    """``build_stencil`` and ``local_fit`` at each centre with its own radius.

    Every floating-point step is the one ``local_fit`` takes, applied row by
    row to all stencils at once: the same distances, weights and Vandermonde
    rows, stacked SVDs of stencils of one size, and per stack and rank one
    stacked matrix-vector product for ``b*``. Lebesgue sums run over a contiguous
    axis, as the 1-D sum in the per-point loop does.
    """
    n_pts = len(centers)
    lists = cloud.tree.query_ball_point(centers, delta, return_sorted=True)
    n_rows = np.fromiter(map(len, lists), dtype=np.intp, count=n_pts)
    cols = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=n_rows.sum())
    owner = np.repeat(np.arange(n_pts), n_rows)
    diff = cloud.points[cols] - centers[owner]
    r = np.linalg.norm(diff, axis=1)
    inside = r < delta[owner]
    cols, owner, diff, r = cols[inside], owner[inside], diff[inside], r[inside]
    n_rows = np.bincount(owner, minlength=n_pts)
    row_delta = delta[owner]
    w = wendland_weight(r, row_delta)
    sw = np.sqrt(w)
    A = basis.eval(diff / row_delta[:, None])
    A *= sw[:, None]

    first = np.cumsum(n_rows) - n_rows
    fittable = np.bincount(owner[w > 0.0], minlength=n_pts) > 0
    rank = np.zeros(n_pts, dtype=np.intp)
    cond = np.full(n_pts, np.nan)
    leb = np.full(n_pts, np.nan)
    weights = np.empty(len(cols))
    for m in np.unique(n_rows[fittable]):
        same = np.flatnonzero(fittable & (n_rows == m))
        step = max(1, _STACK_WORDS // (m * basis.size))
        for lo in range(0, len(same), step):
            pts = same[lo : lo + step]
            rows = first[pts][:, None] + np.arange(m)
            U, S, Vt = np.linalg.svd(A[rows], full_matrices=False)
            threshold = rank_threshold_factor * m * S[:, 0] * _EPS
            k_all = (S > threshold[:, None]).sum(axis=1)
            for k in np.unique(k_all[k_all > 0]):
                sel = np.flatnonzero(k_all == k)
                coef = Vt[sel, :k, 0] / S[sel, :k]
                b = sw[rows[sel]] * (U[sel, :, :k] @ coef[:, :, None])[:, :, 0]
                weights[rows[sel]] = b
                rank[pts[sel]] = k
                cond[pts[sel]] = S[sel, 0] / S[sel, k - 1]
                leb[pts[sel]] = np.abs(b).sum(axis=1)
    kept = rank[owner] > 0
    return _Fits(rank, n_rows, cond, leb, cols[kept], weights[kept])


def mls_evaluate(
    cloud: PointCloud, values, eval_points, config: MlsConfig
) -> tuple[np.ndarray, FitDiagnostics]:
    """Approximate point-cloud samples at new points.

    Parameters
    ----------
    values : array of shape (len(cloud),)
        Samples of the target function on the cloud.

    Returns
    -------
    (approx, diagnostics)
        Approximation at each evaluation point; NaN where the fit failed.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(cloud),):
        raise ValueError(f"values must have shape ({len(cloud)},), got {values.shape}")
    B, diag = shape_function_matrix(cloud, eval_points, config)
    out = B @ values
    out[diag.failed] = np.nan
    return out, diag


def lebesgue_function(cloud: PointCloud, eval_points, config: MlsConfig) -> np.ndarray:
    """Sum of absolute shape functions at each evaluation point (NaN on failure)."""
    _, diag = shape_function_matrix(cloud, eval_points, config)
    return diag.lebesgue


def lebesgue_constant(cloud: PointCloud, eval_points, config: MlsConfig) -> float:
    """Maximum of the stability function over the evaluation points.

    NaN if any evaluation point failed, so instability is never masked.
    """
    leb = lebesgue_function(cloud, eval_points, config)
    return float(leb.max())


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal draws by the polar (Marsaglia) method.

    Pairs are drawn in fixed-size blocks and consumed in acceptance order,
    so the output stream is a pure function of the generator state.
    """
    out = np.empty(n)
    have = 0
    while have < n:
        m = max((n - have) * 3 // 4 + 16, 32)
        u = rng.uniform(-1.0, 1.0, size=(m, 2))
        s = np.einsum("ij,ij->i", u, u)
        ok = (s > 0.0) & (s < 1.0)
        us, ss = u[ok], s[ok]
        f = np.sqrt(-2.0 * np.log(ss) / ss)
        z = (us * f[:, None]).ravel()
        take = min(len(z), n - have)
        out[have : have + take] = z[:take]
        have += take
    return out


def gaussian_noise(seed: int, trial: int, size: int, sigma: float = 1.0) -> np.ndarray:
    """Deterministic Gaussian noise vector for one trial of a noise study.

    Each ``(seed, trial)`` pair owns an independent substream; the same pair
    always reproduces the same vector.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    return sigma * _standard_normal(rng, size)


def noise_study(
    cloud: PointCloud,
    clean_values,
    eval_points,
    config: MlsConfig,
    sigma: float,
    trials: int,
    seed: int,
    exact_values=None,
) -> tuple[float, float]:
    """Response of the approximant to i.i.d. Gaussian sample noise.

    Runs ``trials`` independent perturbations ``f + sigma * z`` of the cloud
    samples through one precomputed shape-function matrix and measures the
    maximum absolute deviation from the reference at the evaluation points
    each time. The reference is the clean approximant itself, so the default
    study isolates the noise response (which the stability function bounds
    by ``sigma * Lebesgue``); passing ``exact_values`` (the target at the
    evaluation points) switches the reference to the true function, folding
    the clean approximation error into the measurement.

    Returns
    -------
    (mean_max, std_max)
        Mean and sample standard deviation of the per-trial maxima. With
        ``sigma == 0`` every trial reduces to the clean run: the mean is the
        clean error against the chosen reference and the spread is zero.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a spread, got {trials}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    clean_values = np.asarray(clean_values, dtype=np.float64)
    B, diag = shape_function_matrix(cloud, eval_points, config)
    clean = B @ clean_values
    clean[diag.failed] = np.nan
    if exact_values is None:
        reference = clean
    else:
        reference = np.asarray(exact_values, dtype=np.float64)
        if reference.shape != (B.shape[0],):
            raise ValueError(
                f"exact_values must have shape ({B.shape[0]},), got {reference.shape}"
            )
    if sigma == 0.0:
        return float(np.abs(clean - reference).max()), 0.0
    maxima = np.empty(trials)
    for t in range(trials):
        noisy = clean + B @ gaussian_noise(seed, t, len(cloud), sigma)
        maxima[t] = np.abs(noisy - reference).max()
    return float(maxima.mean()), float(maxima.std(ddof=1))
