"""Multivariate monomial bases and their Vandermonde matrices.

The basis used everywhere in this package is the set of monomials of total
degree <= m in graded lexicographic order (constant first, then x1, x2, ...,
then the quadratics, and so on). Two properties of that ordering are load
bearing for the rest of the code:

* the constant monomial sits at position 0, so evaluating a basis centered at
  x, at the point x itself, gives the first unit vector;
* the degree-m basis is a prefix of the degree-(m+1) basis, so coefficient
  vectors for different degrees are directly comparable.

Evaluation always goes through shifted/scaled coordinates u = (x - center)/scale
to keep local least-squares problems well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

# Words of gathered powers per row chunk of a Vandermonde matrix.
_CHUNK_WORDS = 2**13


def basis_size(ambient_dim: int, degree: int) -> int:
    """Number of monomials of total degree <= degree in ambient_dim variables."""
    _check_dims(ambient_dim, degree)
    return comb(ambient_dim + degree, ambient_dim)


def monomial_exponents(ambient_dim: int, degree: int) -> np.ndarray:
    """Exponent multi-indices in graded lexicographic order.

    Returns an integer array of shape (basis_size, ambient_dim). Within each
    total degree the tuples are ordered lexicographically with x1 heaviest,
    e.g. for three variables at degree one: (1,0,0), (0,1,0), (0,0,1).
    """
    _check_dims(ambient_dim, degree)
    rows = []
    for d in range(degree + 1):
        rows.extend(_compositions(d, ambient_dim))
    return np.array(rows, dtype=np.int64).reshape(-1, ambient_dim)


def _compositions(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, nvars - 1):
            yield (first, *rest)


@dataclass(frozen=True)
class MonomialBasis:
    """Monomial basis of P_m(R^N), graded-lex ordered, constant first."""

    ambient_dim: int
    degree: int
    exponents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "exponents", monomial_exponents(self.ambient_dim, self.degree)
        )

    @property
    def size(self) -> int:
        return len(self.exponents)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Vandermonde matrix: row i holds every monomial evaluated at points[i]."""
        return _vandermonde(self.exponents, np.atleast_2d(np.asarray(points, dtype=float)))


def eval_scaled_basis(
    basis: MonomialBasis, center: np.ndarray, scale: float, points: np.ndarray
) -> np.ndarray:
    """Evaluate the basis in coordinates u = (x - center)/scale.

    Parameters
    ----------
    basis : MonomialBasis
    center : array, shape (N,)
        Expansion center; the returned row for ``points == center`` is e1.
    scale : float
        Positive length scale (typically the support radius delta).
    points : array, shape (n, N) or (N,)

    Returns
    -------
    array, shape (n, basis.size)
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.asarray(center, dtype=float).reshape(-1)
    if pts.shape[1] != basis.ambient_dim or center.shape[0] != basis.ambient_dim:
        raise ValueError(
            f"points/center dimension does not match basis ambient_dim="
            f"{basis.ambient_dim}"
        )
    return _vandermonde(basis.exponents, (pts - center) / scale)


def _vandermonde(exponents: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Power tables: one cumulative-product pass per variable instead of a
    # fresh u**alpha for each of the M monomials. Rows go in chunks of about
    # _CHUNK_WORDS words, so the gathered powers never hold a second copy of
    # V; every entry is the same product either way.
    npts, nvars = u.shape
    maxdeg = int(exponents.max()) if len(exponents) else 0
    V = np.ones((npts, len(exponents)))
    step = max(1, _CHUNK_WORDS // max(1, len(exponents)))
    for lo in range(0, npts, step):
        uT = u[lo : lo + step].T
        powers = np.ones((nvars, maxdeg + 1, uT.shape[1]))
        for e in range(1, maxdeg + 1):
            powers[:, e] = powers[:, e - 1] * uT
        for j in range(nvars):
            V[lo : lo + step] *= powers[j, exponents[:, j]].T
    return V


def hilbert_dim_hypersurface(ambient_dim: int, degree: int, surface_degree: int) -> int:
    """Dimension of degree-<=degree polynomials restricted to a degree-k surface.

    For an irreducible algebraic hypersurface of degree k in R^N, restricting
    P_m to the surface quotients out the multiples of the defining polynomial,
    so the dimension is C(N+m, N) - C(N+m-k, N) once m >= k, and the full
    ambient count below that. For a quartic surface in R^3 this is 2*m^2 + 2
    from degree four on.
    """
    _check_dims(ambient_dim, degree)
    if surface_degree < 1:
        raise ValueError(f"surface_degree must be >= 1, got {surface_degree}")
    full = comb(ambient_dim + degree, ambient_dim)
    if degree < surface_degree:
        return full
    return full - comb(ambient_dim + degree - surface_degree, ambient_dim)


def _check_dims(ambient_dim, degree):
    if ambient_dim < 1:
        raise ValueError(f"ambient_dim must be >= 1, got {ambient_dim}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
