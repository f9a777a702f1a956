"""The blocked polynomial evaluation, the chunk parts drawn on workers and the
prefix-only projection of the sampler against the whole-array routines they
replaced, kept here as oracles."""

import functools
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfmls import _workers
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


@functools.cache
def _reference_shell(name, n_cand, seed, ball, chunk):
    """Reference candidates and the generator state they leave behind."""
    within = BallRestriction(presets.cyclide_patch_center(), 1.0) if ball else None
    rng = np.random.default_rng(seed)
    with mock.patch.object(sampling, "_CHUNK", chunk):
        out = reference_shell_candidates(SURFACES[name], n_cand, rng, within)
    return out, rng.bit_generator.state


@functools.cache
def _stuck_rows(name):
    """Projected points that the first extended-precision polish step of
    ``project_points`` moves none of, so the polish stops after it."""
    surf = SURFACES[name]
    pts, ok = project_points(surf, _points(surf, 200, 0, 3.0), on_fail="mask")
    pts = pts[ok]
    pl = surf.eval_longdouble(pts)
    g = surf.grad(pts)
    step = (np.asarray(pl, dtype=float) / np.einsum("ij,ij->i", g, g))[:, None] * g
    stuck = np.abs(surf.eval_longdouble(pts - step)) >= np.abs(pl)
    return pts[stuck][:8]


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_polish_stops_when_no_row_improves(name):
    surf = SURFACES[name]
    pts = _stuck_rows(name)
    assert len(pts) == 8
    with mock.patch.object(surf, "eval_longdouble", wraps=surf.eval_longdouble) as spy:
        got, ok = project_points(surf, pts)
    assert spy.call_count == 2  # the residual, then the one step that improved nothing
    assert ok.all() and np.array_equal(got, pts)


# 40 rows off the surface, among them a signed zero and a zero row (no
# gradient on the sphere and the torus), then the 8 stuck rows. Three
# iterations leave most off-surface rows failed.
@settings(max_examples=30, deadline=None)
@given(name=names, seed=seeds, cuts=st.lists(st.integers(0, 48), max_size=4),
       max_iter=st.sampled_from([3, 50]))
@example(name="sphere", seed=0, cuts=[40], max_iter=50)
@example(name="torus", seed=1, cuts=[40, 44], max_iter=50)
@example(name="cyclide", seed=2, cuts=[13, 40], max_iter=3)
def test_project_points_is_row_independent(name, seed, cuts, max_iter):
    surf = SURFACES[name]
    pts = np.vstack([_points(surf, 40, seed, 3.0), _stuck_rows(name)])
    whole, whole_ok = project_points(surf, pts, max_iter=max_iter, on_fail="mask")
    bounds = [0, *sorted(cuts), len(pts)]
    parts = [project_points(surf, pts[a:b], max_iter=max_iter, on_fail="mask")
             for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(whole, np.concatenate([p for p, _ in parts]))
    assert np.array_equal(whole_ok, np.concatenate([ok for _, ok in parts]))


_SHELL_CASES = [
    ("torus", 4000, 1, False, None, None),
    ("torus", 4000, 2, False, None, None),
    ("cyclide", 4000, 3, False, None, None),
    ("cyclide", 50_000, 4, False, None, None),  # spans two chunks
    ("cyclide", 4000, 5, True, None, None),
    ("cyclide", 30_000, 6, True, None, None),
    # Several small chunks, each ending in a short part.
    ("cyclide", 2000, 7, False, 1 << 14, 5000),
    # Tiny chunks of five parts: more than half the parts and some whole
    # chunks have no row in the shell, between ones that have some.
    ("cyclide", 150, 9, True, 24, 5),
]


def _shell_id(name, n_cand, seed, ball, chunk, part, workers):
    tags = [name, n_cand, seed, ball]
    if chunk:
        tags += [f"chunk{chunk}", f"part{part}"]
    if workers > 1:
        tags.append(f"w{workers}")
    return "-".join(map(str, tags))


@pytest.mark.parametrize(
    "name, n_cand, seed, ball, chunk, part, workers",
    [
        pytest.param(*case, workers, id=_shell_id(*case, workers))
        for case in _SHELL_CASES
        for workers in (1, 2, 3)
    ],
)
def test_shell_candidates_match_full_chunk_projection(
        name, n_cand, seed, ball, chunk, part, workers, monkeypatch):
    chunk = chunk or sampling._CHUNK
    monkeypatch.setattr(sampling, "_CHUNK", chunk)
    if part is not None:
        monkeypatch.setattr(sampling, "_SHELL_PART", part)
    within = BallRestriction(presets.cyclide_patch_center(), 1.0) if ball else None
    rng = np.random.default_rng(seed)
    with mock.patch.object(_workers, "worker_count", lambda: workers):
        got = sampling._shell_candidates(SURFACES[name], n_cand, rng, within)
    want, state = _reference_shell(name, n_cand, seed, ball, chunk)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name, workers", [
    pytest.param("cyclide", 1, id="1"),
    pytest.param("cyclide", 2, id="2"),
    pytest.param("torus", 1, id="torus-1"),
    pytest.param("torus", 2, id="torus-2"),
])
def test_shell_candidates_never_hold_a_whole_chunk(name, workers):
    # Only in-shell rows and their |grad P| (dim + 1 doubles a row) outlive
    # a part, and acceptance reads them part by part, so the chunk's
    # in-shell rows (about 6% of a cyclide chunk, half of a torus chunk)
    # and the draws of the parts started but not yet written bound the peak.
    surf = SURFACES[name]
    dim = surf.ambient_dim
    raw = np.random.default_rng(0).uniform(*surf.bbox, size=(sampling._CHUNK, dim))
    in_shell = np.count_nonzero(np.abs(surf.eval(raw)) < sampling._BAND_REL * surf.coeff_scale)
    del raw
    tracemalloc.start()
    try:
        with mock.patch.object(_workers, "worker_count", lambda: workers):
            sampling._shell_candidates(surf, 4000, np.random.default_rng(0), None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    started = _workers._QUEUED * workers
    assert peak < (in_shell * (dim + 1) + started * sampling._SHELL_PART * dim) * 8


def test_exhausted_draws_fail_alike_on_any_workers(monkeypatch):
    # The ball meets the bounding box inside the torus hole, away from the
    # surface, so no draw is ever kept.
    monkeypatch.setattr(sampling, "_MAX_DRAW_FACTOR", 1000)
    within = BallRestriction(np.zeros(3), 0.2)
    threads = threading.active_count()
    messages = []
    for workers in (1, 2):
        with mock.patch.object(_workers, "worker_count", lambda: workers), \
                pytest.raises(SamplingFailed) as failed:
            sampling._shell_candidates(SURFACES["torus"], 4000, np.random.default_rng(1), within)
        messages.append(str(failed.value))
    assert messages[0] == messages[1]
    assert "exhausted" in messages[0]
    assert threading.active_count() == threads


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
