"""The blocked one-solve power function and the in-place Gram build of
``InterpSystem`` against the whole-array routines they replaced, and the
power function on workers against the serial block loop it replaced, kept
here as oracles."""

import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular
from scipy.spatial.distance import cdist

import mfmls.rbf as rbf
from mfmls import _workers
from mfmls.errors import DuplicateSites, FactorizationFailed
from mfmls.geometry.presets import cyclide
from mfmls.geometry.sampling import sample_quasi_uniform
from mfmls.rbf import InterpSystem, KernelSpec

SITE_COUNTS = (1, 2, 17, 64, 300)
ORDERS = (2, 3, 4, 5)


def reference_matern(spec, r):
    """sqrt(pi/2) * exp(-r) * polyval(coeffs, r) on whole arrays."""
    r = np.asarray(r, dtype=float)
    coeffs = rbf._poly_coefficients(spec.n)
    return math.sqrt(math.pi / 2.0) * np.exp(-r) * np.polyval(coeffs, r)


def reference_system(spec, pts, ladder=rbf._JITTER_LADDER):
    """Whole-matrix build: eye-mask duplicate check, triu + mirror, copies per rung.

    Returns ``(gram, (factor, lower), jitter)``.
    """
    dists = cdist(pts, pts)
    if len(pts) > 1:
        off_diag = dists[~np.eye(len(pts), dtype=bool)]
        if off_diag.min() == 0.0:
            raise DuplicateSites("two interpolation sites coincide")
    upper = np.triu(reference_matern(spec, dists))
    gram = upper + np.triu(upper, 1).T
    phi0 = float(reference_matern(spec, 0.0))
    for rel in ladder:
        jitter = rel * phi0
        try:
            return gram, cho_factor(gram + jitter * np.eye(len(pts)), lower=True), jitter
        except LinAlgError:
            continue
    raise FactorizationFailed("reference ladder exhausted")


def reference_power_values(spec, sites, factor, eval_points):
    """Whole-array two-solve form phi(0) - k_x^T K^{-1} k_x."""
    evals = np.asarray(eval_points, dtype=float)
    if evals.ndim == 1:
        evals = evals[None, :]
    kx = reference_matern(spec, cdist(evals, sites))
    sol = cho_solve(factor, kx.T)
    quad = np.einsum("ij,ji->i", kx, sol)
    return np.sqrt(np.maximum(0.0, float(reference_matern(spec, 0.0)) - quad))


def serial_power_values(system, eval_points):
    """The serial block loop, one ``solve_triangular`` per block."""
    evals = np.asarray(eval_points, dtype=float)
    if evals.ndim == 1:
        evals = evals[None, :]
    phi0 = rbf._phi_zero(system.spec)
    rows = block_rows(len(system.sites))
    out = np.empty(len(evals))
    for start in range(0, len(evals), rows):
        kx = rbf.matern_eval(system.spec, cdist(evals[start:start + rows], system.sites))
        v = solve_triangular(system.factor, kx.T, lower=True, overwrite_b=True,
                             check_finite=False)
        out[start:start + rows] = phi0 - np.einsum("ij,ij->j", v, v)
    return np.sqrt(np.maximum(0.0, out, out=out), out=out)


def block_rows(n_sites):
    return max(1, rbf._KERNEL_BLOCK // n_sites)


def lattice_sites(n, seed, spacing=0.35):
    """n distinct, well-separated sites: a jittered 7x7x7 lattice subset."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    pts = grid[rng.permutation(len(grid))[:n]] * spacing
    return pts + rng.uniform(-0.1 * spacing, 0.1 * spacing, size=pts.shape)


def probe_points(sites, count, seed):
    rng = np.random.default_rng(seed + 1)
    lo, hi = sites.min(axis=0) - 0.5, sites.max(axis=0) + 0.5
    probes = rng.uniform(lo, hi, size=(count, 3))
    k = min(count, len(sites))
    probes[:k] = sites[:k]  # P = 0 up to round-off: the clamp at zero is exercised
    return probes


def assert_power_matches(spec, got, want):
    phi0 = float(reference_matern(spec, 0.0))
    assert got.shape == want.shape
    assert np.all(got >= 0.0)
    assert np.all(got <= math.sqrt(phi0))
    assert np.abs(got**2 - want**2).max(initial=0.0) <= 1e-12 * phi0


@given(
    order=st.sampled_from((2, 3, 4, 5, 6)),
    radii=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=0, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_matern_eval_matches_whole_expression(order, radii):
    spec = KernelSpec(order)
    r = np.array([0.0, *radii])
    np.testing.assert_array_equal(rbf.matern_eval(spec, r), reference_matern(spec, r))
    np.testing.assert_array_equal(
        rbf.matern_eval(spec, r.reshape(-1, 1)), reference_matern(spec, r.reshape(-1, 1)))
    assert rbf.matern_eval(spec, 0.0) == reference_matern(spec, 0.0)


@given(
    order=st.sampled_from(ORDERS),
    n=st.sampled_from(SITE_COUNTS),
    seed=st.integers(0, 10_000),
    duplicate=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_system_matches_reference(order, n, seed, duplicate):
    spec = KernelSpec(order)
    pts = lattice_sites(n, seed)
    if duplicate and n > 1:
        pts[seed % n] = pts[(seed + 1) % n]
        with pytest.raises(DuplicateSites):
            reference_system(spec, pts)
        with pytest.raises(DuplicateSites):
            InterpSystem(spec, pts)
        return
    gram, (factor, _), jitter = reference_system(spec, pts)
    system = InterpSystem(spec, pts)
    np.testing.assert_array_equal(system.gram, gram)
    np.testing.assert_array_equal(system.factor, factor)  # both triangles
    assert system.jitter == jitter


@pytest.mark.parametrize("order", ORDERS)
def test_second_rung_matches_reference(monkeypatch, order):
    real = rbf.cho_factor
    calls = []

    def fail_first(a, lower=False, **kwargs):
        calls.append(kwargs)
        if len(calls) == 1:
            raise LinAlgError("forced failure")
        return real(a, lower=lower, **kwargs)

    monkeypatch.setattr(rbf, "cho_factor", fail_first)
    spec = KernelSpec(order)
    pts = lattice_sites(64, order)
    system = InterpSystem(spec, pts)
    gram, factor, jitter = reference_system(spec, pts, ladder=rbf._JITTER_LADDER[1:])
    assert len(calls) == 2 and jitter > 0.0
    np.testing.assert_array_equal(system.gram, gram)
    np.testing.assert_array_equal(system.factor, factor[0])
    assert system.jitter == jitter
    probes = probe_points(pts, 200, order)
    assert_power_matches(spec, system.power_values(probes),
                         reference_power_values(spec, pts, factor, probes))


@given(
    order=st.sampled_from(ORDERS),
    n=st.sampled_from(SITE_COUNTS),
    seed=st.integers(0, 10_000),
    count=st.sampled_from(("0", "1", "B-1", "B", "B+1", "3B+7")),
)
@settings(max_examples=40, deadline=None)
def test_power_values_match_two_solve_reference(order, n, seed, count):
    spec = KernelSpec(order)
    pts = lattice_sites(n, seed)
    b = block_rows(n)
    rows = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "3B+7": 3 * b + 7}[count]
    probes = probe_points(pts, rows, seed)
    system = InterpSystem(spec, pts)
    _, factor, _ = reference_system(spec, pts)
    assert_power_matches(spec, system.power_values(probes),
                         reference_power_values(spec, pts, factor, probes))


def test_power_values_single_point():
    spec = KernelSpec(4)
    pts = lattice_sites(64, 3)
    system = InterpSystem(spec, pts)
    _, factor, _ = reference_system(spec, pts)
    for x in (pts[5], np.array([0.4, 1.1, -0.2])):
        got = system.power_values(x)
        assert got.shape == (1,)
        assert_power_matches(spec, got, reference_power_values(spec, pts, factor, x))


def test_power_values_on_cyclide_cloud():
    spec = KernelSpec(4)
    sites = sample_quasi_uniform(cyclide(), 300, seed=4).points
    probes = sample_quasi_uniform(cyclide(), 2400, seed=5).points
    system = InterpSystem(spec, sites)
    gram, factor, jitter = reference_system(spec, sites)
    np.testing.assert_array_equal(system.gram, gram)
    np.testing.assert_array_equal(system.factor, factor[0])
    assert system.jitter == jitter
    assert_power_matches(spec, system.power_values(probes),
                         reference_power_values(spec, sites, factor, probes))


def test_power_values_memory_does_not_grow_with_rows():
    spec = KernelSpec(4)
    pts = lattice_sites(300, 7)
    system = InterpSystem(spec, pts)
    block_bytes = block_rows(len(pts)) * len(pts) * 8
    for workers in (1, 2):
        peaks = []
        for count in (4_000, 40_000):
            probes = probe_points(pts, count, 7)
            tracemalloc.start()
            try:
                with mock.patch.object(_workers, "worker_count", lambda: workers):
                    out = system.power_values(probes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # A whole-array kernel block alone would be count * 300 floats (96 MB).
            assert peak <= out.nbytes + 4 * block_bytes
            peaks.append(peak - out.nbytes)
        assert peaks[1] <= peaks[0] + block_bytes // 4


@given(
    order=st.sampled_from(ORDERS),
    n=st.sampled_from(SITE_COUNTS),
    seed=st.integers(0, 10_000),
    b=st.sampled_from((1, 2, 9)),
    count=st.sampled_from(("0", "1", "B+1", "7B+3")),
    workers=st.sampled_from((1, 2, 3)),
)
@settings(max_examples=60, deadline=None)
def test_power_values_on_workers_match_serial_block_loop(order, n, seed, b, count, workers):
    # Blocks of b rows. One row takes another LAPACK path than two and can
    # differ in the last digits, so a block size split among the workers
    # would show at b = 2.
    system = InterpSystem(KernelSpec(order), lattice_sites(n, seed))
    rows = {"0": 0, "1": 1, "B+1": b + 1, "7B+3": 7 * b + 3}[count]
    probes = probe_points(system.sites, rows, seed)
    with mock.patch.object(rbf, "_KERNEL_BLOCK", b * n), \
            mock.patch.object(_workers, "worker_count", lambda: workers):
        want = serial_power_values(system, probes)
        got = system.power_values(probes)
    assert np.array_equal(got, want)


def test_solve_lower_rejects_a_zero_on_the_diagonal():
    rng = np.random.default_rng(0)
    L = np.asfortranarray(np.tril(rng.uniform(1.0, 2.0, size=(5, 5))))
    B = np.asfortranarray(rng.uniform(size=(5, 3)))
    assert np.array_equal(rbf._solve_lower(L, B.copy(order="F")),
                          solve_triangular(L, B, lower=True))
    L[2, 2] = 0.0
    with pytest.raises(LinAlgError, match="diagonal 2"):
        solve_triangular(L, B, lower=True)
    with pytest.raises(LinAlgError, match="diagonal 2"):
        rbf._solve_lower(L, B)
    with pytest.raises(ValueError):
        rbf._solve_lower(np.ascontiguousarray(L), B)


@pytest.mark.parametrize("workers", [2, 3])
def test_power_block_error_is_raised_in_block_order(workers):
    # One probe per block. The third block raises, after waiting (up to a
    # second) for a later block to raise another error first; with three
    # workers one does, in the second helper. The call raises the third
    # block's error, as the serial loop would, and leaves no thread behind.
    pts = lattice_sites(64, 5)
    probes = probe_points(pts, 12, 5)
    system = InterpSystem(KernelSpec(4), pts)
    first = LinAlgError("block 2")
    later_raised = threading.Event()
    real = rbf.cdist

    def failing_cdist(xa, xb):
        i = int(np.flatnonzero((probes == xa[0]).all(axis=1))[0])
        if i == 2:
            later_raised.wait(timeout=1)
            raise first
        if i > 2:
            later_raised.set()
            raise LinAlgError(f"block {i}")
        return real(xa, xb)

    threads = threading.active_count()
    with mock.patch.object(rbf, "_KERNEL_BLOCK", 1), \
            mock.patch.object(_workers, "worker_count", lambda: workers), \
            mock.patch.object(rbf, "cdist", failing_cdist):
        with pytest.raises(LinAlgError) as raised:
            system.power_values(probes)
    assert raised.value is first
    assert threading.active_count() == threads
