"""Implicit algebraic surfaces: sparse polynomial evaluation and Newton projection.

A surface is the zero set of a multivariate polynomial stored as a sparse
coefficient map (exponent multi-index -> coefficient). Gradients come from
differentiating that map term by term, so they are exact up to rounding.
"""

from __future__ import annotations

import numpy as np

from ..errors import GradientTooSmall, ProjectionDiverged

#: Newton projection refuses to divide by gradients smaller than this.
GRADIENT_FLOOR = 1e-8


#: Rows per block in _poly_eval. Its scratch (the power table and one term
#: buffer) is sized to one block, a few MB, whatever the number of points.
_EVAL_BLOCK = 1 << 14


def _poly_eval(exponents, coeffs, pts, dtype=np.float64):
    """Evaluate sum_t c_t * prod_j x_j^a_tj at each point, via power tables.

    Rows are evaluated in blocks of ``_EVAL_BLOCK``. Every row sees the same
    terms in the same order and the same multiplications, so the result does
    not depend on the block size.
    """
    pts = np.asarray(pts, dtype=dtype)
    npts, nvars = pts.shape
    maxdeg = int(exponents.max())
    out = np.zeros(npts, dtype=dtype)
    rows = min(npts, _EVAL_BLOCK)
    # powers[j, e] holds x_j^e for the rows of the current block; powers[:, 1]
    # is the block itself, transposed to be contiguous per variable.
    powers = np.ones((nvars, maxdeg + 1, rows), dtype=dtype)
    term = np.empty(rows, dtype=dtype)
    factors = [[(j, int(a)) for j, a in enumerate(alpha) if a] for alpha in exponents]
    for start in range(0, npts, _EVAL_BLOCK):
        block = pts[start:start + _EVAL_BLOCK]
        b = len(block)
        pw, t = powers[:, :, :b], term[:b]
        if maxdeg:
            pw[:, 1] = block.T
        for e in range(2, maxdeg + 1):
            np.multiply(pw[:, e - 1], pw[:, 1], out=pw[:, e])
        acc = out[start:start + b]
        for factor, c in zip(factors, coeffs):
            t.fill(c)
            for j, a in factor:
                t *= pw[j, a]
            acc += t
    return out


class AlgebraicSurface:
    """Zero set of a sparse polynomial in R^N.

    Attributes
    ----------
    ambient_dim : int
        N, at least 2.
    intrinsic_dim : int
        N - 1, the dimension of the zero set where grad P does not vanish.
    exponents : (T, N) int array
        Exponent multi-indices of the nonzero terms.
    coeffs : (T,) float array
    bbox : (2, N) float array
        [lower, upper] corners of a box containing the surface. Used by the
        sampler; must genuinely cover the zero set.
    degree : int
        Total degree of the polynomial.
    """

    def __init__(self, ambient_dim, exponents, coeffs, bbox):
        if ambient_dim < 2:
            raise ValueError(f"ambient dimension must be at least 2, got {ambient_dim}")
        exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, ambient_dim)
        coeffs = np.asarray(coeffs, dtype=np.float64).reshape(-1)
        keep = coeffs != 0.0
        exponents, coeffs = exponents[keep], coeffs[keep]
        if len(coeffs) == 0:
            raise ValueError("surface polynomial is identically zero")
        order = np.lexsort(tuple(exponents.T[::-1]) + (exponents.sum(axis=1),))
        self.ambient_dim = int(ambient_dim)
        self.intrinsic_dim = self.ambient_dim - 1
        self.exponents = exponents[order]
        self.coeffs = coeffs[order]
        self.bbox = np.asarray(bbox, dtype=np.float64).reshape(2, ambient_dim)
        self.degree = int(self.exponents.sum(axis=1).max())
        self.coeff_scale = float(np.abs(self.coeffs).max())
        # d/dx_j of the coefficient map, precomputed once.
        self._grad_terms = []
        for j in range(self.ambient_dim):
            has = self.exponents[:, j] > 0
            ge = self.exponents[has].copy()
            gc = self.coeffs[has] * ge[:, j]
            ge[:, j] -= 1
            self._grad_terms.append((ge, gc))

    @classmethod
    def from_coefficients(cls, ambient_dim, coeff_map, bbox):
        """Build from a {exponent tuple: coefficient} mapping."""
        return cls(ambient_dim, list(coeff_map), list(coeff_map.values()), bbox)

    def eval(self, points) -> np.ndarray:
        """P at each point; shape (n,)."""
        return _poly_eval(self.exponents, self.coeffs, np.atleast_2d(points))

    def eval_longdouble(self, points) -> np.ndarray:
        """P evaluated in extended precision (for residual floors, not speed)."""
        return _poly_eval(self.exponents, self.coeffs,
                          np.atleast_2d(points), dtype=np.longdouble)

    def grad(self, points) -> np.ndarray:
        """grad P at each point; shape (n, N)."""
        pts = np.atleast_2d(points)
        out = np.empty((len(pts), self.ambient_dim))
        for j, (ge, gc) in enumerate(self._grad_terms):
            out[:, j] = _poly_eval(ge, gc, pts) if len(gc) else 0.0
        return out

    def __repr__(self):
        return (f"AlgebraicSurface(dim={self.ambient_dim}, degree={self.degree}, "
                f"terms={len(self.coeffs)})")


def project_to_surface(surface, x0, tol=None, max_iter=50):
    """Project one point onto the surface with damped Newton iteration.

    Iterates x <- x - P(x) grad P(x) / |grad P(x)|^2, halving the step while
    |P| fails to decrease. Convergence is declared at |P| <= tol (default
    1e-12 times the largest coefficient magnitude), after which a few extra
    steps with the residual evaluated in extended precision push |P| down to
    the evaluation noise floor -- downstream rank detection relies on
    on-surface residuals far below the nominal tolerance.

    Raises
    ------
    GradientTooSmall
        If |grad P| < 1e-8 at an iterate.
    ProjectionDiverged
        If the tolerance is not reached within max_iter iterations.
    """
    pts, ok = project_points(surface, np.asarray(x0, dtype=float)[None, :],
                             tol=tol, max_iter=max_iter, on_fail="raise")
    return pts[0]


def project_points(surface, points, tol=None, max_iter=50, on_fail="raise"):
    """Vectorized Newton projection of many points.

    Returns (projected, ok). With on_fail="raise" any failure raises; with
    on_fail="mask" failed rows are left at their last iterate and flagged
    False in ok (used by the sampler, where candidates are expendable).
    """
    if tol is None:
        tol = 1e-12 * surface.coeff_scale
    x = np.array(points, dtype=np.float64)
    p = surface.eval(x)
    ok = np.ones(len(x), dtype=bool)
    grad_failed = np.zeros(len(x), dtype=bool)

    for _ in range(max_iter):
        active = ok & (np.abs(p) > tol)
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xs, ps = x[idx], p[idx]
        g = surface.grad(xs)
        gn2 = np.einsum("ij,ij->i", g, g)
        bad = gn2 < GRADIENT_FLOOR**2
        if bad.any():
            grad_failed[idx[bad]] = True
            ok[idx[bad]] = False
            keep = ~bad
            idx, xs, ps, g, gn2 = idx[keep], xs[keep], ps[keep], g[keep], gn2[keep]
            if len(idx) == 0:
                continue
        full = (ps / gn2)[:, None] * g
        lam = np.ones(len(idx))
        undone = np.ones(len(idx), dtype=bool)
        trial = xs.copy()
        ptrial = ps.copy()
        for _halve in range(40):
            sub = np.flatnonzero(undone)
            if len(sub) == 0:
                break
            cand = xs[sub] - lam[sub, None] * full[sub]
            pc = surface.eval(cand)
            better = np.abs(pc) < np.abs(ps[sub])
            done = sub[better]
            trial[done] = cand[better]
            ptrial[done] = pc[better]
            undone[done] = False
            lam[sub[~better]] *= 0.5
        # Points whose residual would not budge at any step length are stuck
        # at the rounding floor; leave them where they are.
        x[idx[~undone]] = trial[~undone]
        p[idx[~undone]] = ptrial[~undone]

    converged = ok & (np.abs(p) <= tol)
    diverged = ok & ~converged
    ok &= converged

    # Extended-precision polish: the float64 loop stalls at the float64
    # evaluation noise of P, which is orders of magnitude above what exactly-
    # on-surface rank detection needs. Two corrected steps land near
    # |grad P| * ulp(coordinates).
    idx = np.flatnonzero(ok)
    if len(idx):
        pl = surface.eval_longdouble(x[idx])
        for _ in range(2):
            g = surface.grad(x[idx])
            gn2 = np.einsum("ij,ij->i", g, g)
            xn = x[idx] - (np.asarray(pl, dtype=float) / gn2)[:, None] * g
            pn = surface.eval_longdouble(xn)
            improve = np.abs(pn) < np.abs(pl)
            if not improve.any():
                break
            x[idx[improve]] = xn[improve]
            pl = np.where(improve, pn, pl)

    if on_fail == "raise":
        if grad_failed.any():
            raise GradientTooSmall(
                f"|grad P| < {GRADIENT_FLOOR} at {int(grad_failed.sum())} point(s)")
        if diverged.any():
            raise ProjectionDiverged(
                f"{int(diverged.sum())} point(s) above tol={tol:g} "
                f"after {max_iter} iterations")
    return x, ok
