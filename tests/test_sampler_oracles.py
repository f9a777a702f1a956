"""The blocked polynomial evaluation and the prefix-only projection of the
sampler against the whole-array routines they replaced, kept here as oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfmls.errors import SamplingFailed
from mfmls.geometry import presets, sampling, surface
from mfmls.geometry.cloud import BallRestriction
from mfmls.geometry.surface import project_points

B = surface._EVAL_BLOCK
SURFACES = {name: getattr(presets, name)() for name in ("sphere", "torus", "cyclide")}


def reference_poly_eval(exponents, coeffs, pts, dtype=np.float64):
    """Whole-array evaluation: one power table over all rows."""
    pts = np.asarray(pts, dtype=dtype)
    npts, nvars = pts.shape
    maxdeg = int(exponents.max())
    powers = np.ones((nvars, maxdeg + 1, npts), dtype=dtype)
    for e in range(1, maxdeg + 1):
        powers[:, e] = powers[:, e - 1] * pts.T
    out = np.zeros(npts, dtype=dtype)
    for alpha, c in zip(exponents, coeffs):
        term = np.full(npts, c, dtype=dtype)
        for j in range(nvars):
            if alpha[j]:
                term *= powers[j, alpha[j]]
        out += term
    return out


def reference_shell_candidates(surf, n_cand, rng, within):
    """Rejection sampling that Newton-projects every accepted draw of a chunk."""
    lo, hi = surf.bbox.copy()
    if within is not None:
        margin = 0.15 * within.radius
        lo = np.maximum(lo, within.center - within.radius - margin)
        hi = np.minimum(hi, within.center + within.radius + margin)
    band = sampling._BAND_REL * surf.coeff_scale
    max_draws = sampling._MAX_DRAW_FACTOR * max(n_cand, 1)
    grad_cap, drawn, kept, n_kept = 0.0, 0, [], 0
    while n_kept < n_cand:
        if drawn >= max_draws:
            raise SamplingFailed("exhausted")
        raw = rng.uniform(lo, hi, size=(sampling._CHUNK, surf.ambient_dim))
        u = rng.random(sampling._CHUNK)
        drawn += sampling._CHUNK
        raw = raw[np.abs(surf.eval(raw)) < band]
        if len(raw) == 0:
            continue
        u = u[: len(raw)]
        gnorm = np.linalg.norm(surf.grad(raw), axis=1)
        grad_cap = max(grad_cap, 1.05 * gnorm.max())
        raw = raw[u * grad_cap < gnorm]
        if len(raw) == 0:
            continue
        pts, ok = project_points(surf, raw, on_fail="mask")
        pts = pts[ok]
        if within is not None:
            pts = pts[within.contains(pts)]
        if len(pts):
            kept.append(pts)
            n_kept += len(pts)
    return np.ascontiguousarray(np.concatenate(kept)[:n_cand])


def _points(surf, n, seed, spread):
    lo, hi = surf.bbox
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * spread
    pts = np.random.default_rng(seed).uniform(mid - half, mid + half, size=(n, len(lo)))
    if n:
        pts[0, 0] = -0.0  # signed zero and an exact zero row go through too
        pts[-1] = 0.0
    return pts


rows = st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 7])
names = st.sampled_from(sorted(SURFACES))
seeds = st.integers(0, 2**32 - 1)
spreads = st.sampled_from([0.5, 1.0, 3.0])


@settings(max_examples=30, deadline=None)
@given(name=names, n=rows, seed=seeds, spread=spreads)
def test_eval_and_grad_match_whole_array_reference(name, n, seed, spread):
    surf = SURFACES[name]
    pts = _points(surf, n, seed, spread)
    assert np.array_equal(surf.eval(pts),
                          reference_poly_eval(surf.exponents, surf.coeffs, pts))
    grad = surf.grad(pts)
    for j, (ge, gc) in enumerate(surf._grad_terms):
        assert np.array_equal(grad[:, j], reference_poly_eval(ge, gc, pts))


@settings(max_examples=12, deadline=None)
@given(name=names, n=rows, seed=seeds)
def test_eval_longdouble_matches_whole_array_reference(name, n, seed):
    surf = SURFACES[name]
    pts = _points(surf, n, seed, 1.0)
    want = reference_poly_eval(surf.exponents, surf.coeffs, pts, dtype=np.longdouble)
    got = surf.eval_longdouble(pts)
    assert got.dtype == np.longdouble
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "name, n_cand, seed, ball",
    [
        ("torus", 4000, 1, False),
        ("torus", 4000, 2, False),
        ("cyclide", 4000, 3, False),
        ("cyclide", 50_000, 4, False),  # spans two chunks
        ("cyclide", 4000, 5, True),
        ("cyclide", 30_000, 6, True),
    ],
)
def test_shell_candidates_match_full_chunk_projection(name, n_cand, seed, ball):
    surf = SURFACES[name]
    within = BallRestriction(presets.cyclide_patch_center(), 1.0) if ball else None
    got = sampling._shell_candidates(surf, n_cand, np.random.default_rng(seed), within)
    want = reference_shell_candidates(surf, n_cand, np.random.default_rng(seed), within)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_eval_scratch_memory_is_bounded():
    surf = SURFACES["cyclide"]
    pts = _points(surf, 1 << 20, 0, 1.0)
    out_bytes = len(pts) * 8
    tracemalloc.start()
    try:
        surf.eval(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A whole-array power table alone would be 5x the input (15 rows of 2^20).
    assert peak <= pts.nbytes + out_bytes + (4 << 20)
