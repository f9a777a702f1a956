"""Moving least squares approximation on point clouds.

The approximation at a point x is a weighted least-squares fit of a
polynomial of fixed degree to nearby cloud values, evaluated at x. With the
basis centred at x and scaled by the support radius, the value of the fit at
x is the first fit coefficient, so the whole scheme reduces to a set of
shape-function coefficients b*(x) obtained from one thin SVD per evaluation
point. Rank truncation of that SVD is what keeps the scheme stable when the
cloud lies on a lower-dimensional zero set and the ambient polynomial basis
is far from independent on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import (
    AllWeightsZero,
    DegenerateFit,
    EmptyStencil,
    TooFewPoints,
)
from .geometry.cloud import PointCloud
from .polybasis import MonomialBasis, eval_scaled_basis

_EPS = 2.0**-52


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
    d, _ = cloud.tree.query(eval_points, k=k)
    d = d if d.ndim == 2 else d[:, None]
    return float(d[:, -1].max() * (1.0 + 1e-9))


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

    Returns
    -------
    (B, diagnostics) : (scipy.sparse.csr_matrix, FitDiagnostics)
        ``B`` has shape ``(n_eval, len(cloud))``.
    """
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
    if eval_points.shape[1] != cloud.dim:
        raise ValueError(
            f"evaluation points have dimension {eval_points.shape[1]}, "
            f"cloud has {cloud.dim}"
        )
    basis = MonomialBasis(cloud.dim, config.degree)
    if config.delta is not None:
        base_delta = float(config.delta)
    else:
        base_delta = select_delta(
            cloud, eval_points, basis.size, config.neighbor_multiple
        )

    n_eval = len(eval_points)
    delta_used = np.full(n_eval, np.nan)
    rank = np.zeros(n_eval, dtype=np.intp)
    nnb = np.zeros(n_eval, dtype=np.intp)
    cond = np.full(n_eval, np.nan)
    leb = np.full(n_eval, np.nan)
    failed = np.zeros(n_eval, dtype=bool)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    max_attempts = 4 if config.escalate_delta else 1
    for i, x in enumerate(eval_points):
        delta = base_delta
        fit = None
        idx = None
        for attempt in range(max_attempts):
            try:
                idx = build_stencil(cloud, x, delta)
                fit = local_fit(
                    cloud.points[idx], x, delta, basis, config.rank_threshold_factor
                )
                break
            except (EmptyStencil, AllWeightsZero, DegenerateFit):
                delta *= 2.0
        if fit is None:
            failed[i] = True
            continue
        delta_used[i] = delta if config.escalate_delta else base_delta
        rank[i] = fit.rank
        nnb[i] = fit.n_rows
        cond[i] = fit.cond
        leb[i] = np.abs(fit.weights).sum()
        rows.append(np.full(len(idx), i, dtype=np.intp))
        cols.append(idx)
        data.append(fit.weights)

    if rows:
        B = sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_eval, len(cloud)),
        )
    else:
        B = sparse.csr_matrix((n_eval, len(cloud)))
    diag = FitDiagnostics(
        base_delta=base_delta,
        delta=delta_used,
        rank=rank,
        n_neighbors=nnb,
        cond=cond,
        lebesgue=leb,
        failed=failed,
    )
    return B, diag


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
