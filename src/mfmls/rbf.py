"""Restricted Matern kernels, interpolation systems, and the power function.

The ambient kernel is the Matern family of integer order ``s``,

    phi(r) = r^(s-3/2) K_{s-3/2}(r),

whose half-integer Bessel index makes it available in closed form as an
exponential times a polynomial — no special-function dependency is needed.
Restricting phi to a surface gives a positive-definite kernel there, and the
power function of a site set measures the worst-case interpolation error
pointwise. Its probe blocks are independent, and their triangular solves go
to LAPACK through a call that releases the GIL, so they run on the workers
of ``_workers`` (two cores when BLAS is held to one thread).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cython_lapack
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import _workers
from .errors import (
    DuplicateSites,
    FactorizationFailed,
    KernelOrderError,
    TooFewLevels,
)
from .geometry.cloud import BallRestriction, PointCloud
from .geometry.sampling import sample_quasi_uniform
from .geometry.surface import AlgebraicSurface

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

#: Relative diagonal jitter ladder tried when the Gram factorization fails.
_JITTER_LADDER = (0.0, 1e-12, 1e-10)

#: Kernel entries (2 MB of floats) per row block when the Gram matrix is built
#: or probes are evaluated, so working memory does not grow with the rows.
_KERNEL_BLOCK = 2**18
#: Kernel entries per part of a probe block whose distances and kernel values
#: are evaluated at once, so that a worker holds little beyond its block.
_KERNEL_PART = 2**14


def _lapack_function(name: str, *argtypes):
    """LAPACK routine ``name`` from scipy's ``cython_lapack`` table as a
    ``ctypes`` function; calling it releases the GIL."""
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
#: dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)
_dtrtrs = _lapack_function("dtrtrs", *[ctypes.c_char_p] * 3, _INT, _INT,
                           ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT)


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Overwrite ``B`` with ``L^{-1} B`` and return it.

    LAPACK's ``dtrtrs`` on the lower triangle of ``L``: the routine that
    ``solve_triangular(L, B, lower=True)`` calls for a Fortran-ordered
    ``L``, so the result is the same bit for bit, but reached through
    ``ctypes`` the call releases the GIL. Both arrays must be
    Fortran-ordered float64, ``B`` writable.

    Raises
    ------
    LinAlgError
        If ``L`` has a zero on its diagonal (or LAPACK rejects an argument).
    """
    n, nrhs = B.shape
    if (L.shape != (n, n) or not B.flags.writeable
            or any(a.dtype != np.float64 or not a.flags.f_contiguous for a in (L, B))):
        raise ValueError(
            f"need a Fortran-ordered float64 ({n}, {n}) factor and writable "
            f"right-hand sides, got {L.shape} {L.dtype} and {B.shape} {B.dtype}"
        )
    ld = ctypes.c_int(max(1, n))
    info = ctypes.c_int()
    _dtrtrs(b"L", b"N", b"N", ctypes.byref(ctypes.c_int(n)),
            ctypes.byref(ctypes.c_int(nrhs)), L.ctypes.data, ctypes.byref(ld),
            B.ctypes.data, ctypes.byref(ld), ctypes.byref(info))
    if info.value > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info.value - 1}")
    if info.value < 0:
        raise LinAlgError(f"illegal value in argument {-info.value} of dtrtrs")
    return B


@dataclass(frozen=True)
class KernelSpec:
    """Matern kernel of integer order ``s >= 2``.

    The Bessel index is the half-integer ``s - 3/2``; the associated
    polynomial degree ``n = s - 2`` is exposed as :attr:`n`.
    """

    order: int

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or isinstance(
            self.order, bool
        ):
            raise KernelOrderError(f"kernel order must be an integer, got {self.order!r}")
        if self.order < 2:
            raise KernelOrderError(f"kernel order must be >= 2, got {self.order}")

    @property
    def n(self) -> int:
        return self.order - 2


@lru_cache(maxsize=32)
def _poly_coefficients(n: int) -> tuple[float, ...]:
    # Highest power first: coefficient of r^(n-k) is c_k / 2^k with
    # c_k = (n+k)! / (k! (n-k)!), from the half-integer Bessel expansion.
    coeffs = []
    for k in range(n + 1):
        c_k = math.factorial(n + k) // (math.factorial(k) * math.factorial(n - k))
        coeffs.append(c_k / 2.0**k)
    return tuple(coeffs)


def matern_eval(spec: KernelSpec, r):
    """Evaluate the Matern kernel at radii ``r >= 0``.

    Parameters
    ----------
    spec : KernelSpec
        Kernel order.
    r : array_like
        Radii; must be nonnegative. Scalars broadcast.

    Returns
    -------
    ndarray or scalar
        sqrt(pi/2) * exp(-r) * sum_k c_k 2^-k r^(n-k). At ``r = 0`` this is
        the finite limit (the ``k = n`` term). Strictly decreasing in ``r``.
    """
    r = np.array(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("matern_eval requires r >= 0")
    return _matern_inplace(spec, r)[()]


def _matern_inplace(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Overwrite the radii ``r >= 0`` with the kernel values and return ``r``.

    The arithmetic is that of sqrt(pi/2) * exp(-r) * polyval(coeffs, r) term
    by term (Horner from the leading coefficient), so for finite ``r`` the
    values are bit-identical to evaluating that expression, with one
    temporary of ``r``'s size instead of several.
    """
    coeffs = _poly_coefficients(spec.n)
    poly = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        poly *= r
        poly += c
    np.negative(r, out=r)
    np.exp(r, out=r)
    r *= _SQRT_HALF_PI
    r *= poly
    return r


def _phi_zero(spec: KernelSpec) -> float:
    return float(matern_eval(spec, 0.0))


def _as_site_array(sites) -> np.ndarray:
    pts = sites.points if isinstance(sites, PointCloud) else np.asarray(sites, float)
    if pts.ndim != 2:
        raise ValueError(f"sites must be (n, dim), got shape {pts.shape}")
    return pts


class InterpSystem:
    """Factorized kernel interpolation system on a fixed site set.

    Builds the symmetric Gram matrix ``K[i, j] = phi(|xi_i - xi_j|)`` and a
    Cholesky factorization of ``K + jitter * I``, escalating the diagonal
    jitter through ``0 -> 1e-12 phi(0) -> 1e-10 phi(0)`` if factorization
    fails. The applied jitter is recorded on :attr:`jitter`. One n x n array
    holds the factor below K's strict upper triangle, from which :attr:`gram`
    rebuilds K. Instances are immutable after construction; evaluation
    methods are pure and safe to call concurrently.

    Raises
    ------
    DuplicateSites
        If two sites coincide exactly.
    FactorizationFailed
        If no ladder step produces a usable factorization.
    """

    def __init__(self, spec: KernelSpec, sites):
        pts = _as_site_array(sites)
        n = len(pts)
        if n == 0:
            raise ValueError("InterpSystem needs at least one site")
        if n > 1 and cKDTree(pts).query(pts, k=2)[0][:, 1].min() == 0.0:
            raise DuplicateSites("two interpolation sites coincide")
        phi0 = _phi_zero(spec)
        diagonal = np.diag_indices(n)
        factor = None
        jitter = 0.0
        for rel in _JITTER_LADDER:
            jitter = rel * phi0
            # K is exactly symmetric, so its transpose is K in Fortran order,
            # which LAPACK factorizes in place.
            shifted = _symmetric_gram(spec, pts).T
            shifted[diagonal] += jitter
            try:
                factor = cho_factor(shifted, lower=True, overwrite_a=True)
                break
            except LinAlgError:
                continue
        if factor is None:
            raise FactorizationFailed(
                f"Gram matrix of {n} sites could not be factorized "
                f"even with jitter {_JITTER_LADDER[-1]:g} * phi(0)"
            )
        self.spec = spec
        self.sites = pts
        self.jitter = jitter
        self._factor = factor

    def __len__(self):
        return len(self.sites)

    @property
    def gram(self) -> np.ndarray:
        """K from the factor's strict upper triangle and phi(0) on the
        diagonal, as a fresh array at each call."""
        upper = np.triu(self._factor[0], 1)
        gram = upper + upper.T
        gram[np.diag_indices(len(gram))] = _phi_zero(self.spec)
        return gram

    @property
    def factor(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of ``gram + jitter * I``."""
        return self._factor[0]

    def solve(self, values) -> np.ndarray:
        """Interpolation coefficients alpha with ``K alpha = values``."""
        values = np.asarray(values, dtype=float)
        if values.shape[0] != len(self.sites):
            raise ValueError(
                f"expected {len(self.sites)} values, got {values.shape[0]}"
            )
        return cho_solve(self._factor, values)

    def power_values(self, eval_points) -> np.ndarray:
        """Power function at each row of ``eval_points``.

        In the Newton basis of the sites (Pazouki & Schaback 2011) the power
        function is

            P(x)^2 = phi(0) - |L^{-1} k_x|^2,

        with L the lower Cholesky factor of ``gram + jitter * I`` and k_x the
        kernel vector of x against the sites, so each point costs one
        triangular solve. The max(0, .) clamps round-off just below zero at
        (and near) the sites. Rows are solved in blocks of about
        ``_KERNEL_BLOCK`` kernel entries, whose kernel values are evaluated
        in parts of about ``_KERNEL_PART`` entries, so the memory beyond the
        output is about one block per worker, not growing with the number
        of rows. The blocks run on the workers of ``_workers.worker_count``
        (at most two, and one unless BLAS is held to one thread), each
        writing its own rows of the output. A row can change in the last
        digits with the size of its block, so the blocks are the same for
        every W, and so is the result.
        """
        evals = np.asarray(eval_points, dtype=float)
        if evals.ndim == 1:
            evals = evals[None, :]
        phi0 = _phi_zero(self.spec)
        n = len(self.sites)
        rows = max(1, _KERNEL_BLOCK // n)
        part = max(1, _KERNEL_PART // n)
        out = np.empty(len(evals))

        def block(start):
            chunk = evals[start:start + rows]
            kx = np.empty((len(chunk), n))
            for lo in range(0, len(chunk), part):
                kx[lo:lo + part] = matern_eval(self.spec, cdist(chunk[lo:lo + part], self.sites))
            v = _solve_lower(self.factor, kx.T)
            out[start:start + rows] = phi0 - np.einsum("ij,ij->j", v, v)

        _workers.map_in_order(block, range(0, len(evals), rows), lambda _: None,
                              _workers.worker_count())
        return np.sqrt(np.maximum(0.0, out, out=out), out=out)


def _symmetric_gram(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """Gram matrix phi(|p_i - p_j|) built in the distance buffer.

    Row blocks are evaluated in place; apart from the distances, only
    block-sized temporaries are allocated. K is exactly symmetric because
    the distances are, ``(a - b)**2`` being bitwise ``(b - a)**2``, and the
    kernel acts elementwise.
    """
    gram = cdist(pts, pts)
    n = len(gram)
    rows = max(1, _KERNEL_BLOCK // n)
    for start in range(0, n, rows):
        _matern_inplace(spec, gram[start:start + rows])
    return gram


def power_function(spec: KernelSpec, sites, x) -> float:
    """Power function of ``sites`` at a single point ``x``.

    An empty site set (or ``None``) carries no information, so the value is
    sqrt(phi(0)).
    """
    return float(power_field(spec, sites, np.atleast_2d(x))[0])


def power_field(spec: KernelSpec, sites, eval_points) -> np.ndarray:
    """Power function mapped over ``eval_points`` (one factorization)."""
    evals = np.asarray(eval_points, dtype=float)
    if sites is None or len(_as_site_array(sites)) == 0:
        return np.full(len(evals), math.sqrt(_phi_zero(spec)))
    return InterpSystem(spec, sites).power_values(evals)


@dataclass(frozen=True)
class PowerLevel:
    """One level of a rate study: its clouds and its power at sites and probes."""

    sites: PointCloud
    probes: PointCloud
    site_power: np.ndarray
    probe_power: np.ndarray


@dataclass(frozen=True)
class PowerRateStudy:
    """Least-squares fit of log sup-P against log fill distance."""

    site_counts: tuple[int, ...]
    fill_distances: np.ndarray
    sup_power: np.ndarray
    slope: float
    residual: float
    levels: tuple[PowerLevel, ...]


def power_rate_study(
    spec: KernelSpec,
    surface: AlgebraicSurface,
    density_ladder,
    seed: int,
    *,
    probe_factor: int = 8,
    within: BallRestriction | None = None,
) -> PowerRateStudy:
    """Measure the decay rate of the power function under site refinement.

    For each site count in ``density_ladder`` a quasi-uniform site cloud is
    sampled on ``surface`` and sup P is estimated over a probe cloud
    ``probe_factor`` times denser. The reported slope is the least-squares
    fit of log(sup P) against log(h) over the ladder, with h the fill
    distance of the site cloud; ``residual`` is the RMS of the log-log fit
    residuals. ``levels`` keeps each level's clouds and its power at the sites
    and probes; ``InterpSystem(spec, level.sites)`` rebuilds its system.

    Parameters
    ----------
    spec : KernelSpec
        Kernel to study.
    surface : AlgebraicSurface
        Surface carrying the sites and probes.
    density_ladder : sequence of int
        Site counts; at least three levels are required.
    seed : int
        Base seed: level ``i`` samples sites from ``seed + 1000 * i`` and
        probes from ``seed + 1000 * i + 500``, so the study is reproducible.
    within : BallRestriction, optional
        Restrict sites and probes to the open ball (a surface patch).

    Raises
    ------
    TooFewLevels
        If fewer than three densities are given.
    """
    counts = [int(n) for n in density_ladder]
    if len(counts) < 3:
        raise TooFewLevels(
            f"rate study needs at least 3 density levels, got {len(counts)}"
        )
    levels = []
    for i, n in enumerate(counts):
        sites = sample_quasi_uniform(surface, n, seed=seed + 1000 * i, within=within)
        probes = sample_quasi_uniform(
            surface, probe_factor * n, seed=seed + 1000 * i + 500, within=within
        )
        system = InterpSystem(spec, sites)
        levels.append(PowerLevel(sites, probes, system.power_values(sites.points),
                                 system.power_values(probes.points)))
        del system  # else its factor lives on through the next level's build
    fills = np.array([level.sites.fill_distance for level in levels])
    sups = np.array([level.probe_power.max() for level in levels])
    coeffs, ssr, *_ = np.polyfit(np.log(fills), np.log(sups), 1, full=True)
    residual = math.sqrt(float(ssr[0]) / len(counts)) if len(ssr) else 0.0
    return PowerRateStudy(
        site_counts=tuple(counts),
        fill_distances=fills,
        sup_power=sups,
        slope=float(coeffs[0]),
        residual=residual,
        levels=tuple(levels),
    )
