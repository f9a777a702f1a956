"""The block walk of ``shape_function_matrix`` against the per-point loop it
replaced (``build_stencil`` + ``local_fit`` + radius escalation), kept here as
the oracle, and the memory bound of the walk."""

import contextvars
import functools
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import mfmls.mls as mls
from mfmls import _workers
from mfmls.errors import AllWeightsZero, DegenerateFit, EmptyStencil, TooFewPoints
from mfmls.geometry.cloud import PointCloud
from mfmls.geometry.presets import cyclide
from mfmls.geometry.sampling import sample_quasi_uniform
from mfmls.mls import (
    FitDiagnostics,
    MlsConfig,
    build_stencil,
    local_fit,
    select_delta,
    shape_function_matrix,
)
from mfmls.polybasis import MonomialBasis

SPACING = 0.25  # lattice step: dyadic, so lattice distances are exact


def reference_shape_function_matrix(cloud, eval_points, config):
    """One ``build_stencil`` + ``local_fit`` per evaluation point, doubling
    the radius up to three times on failure when ``escalate_delta`` is set."""
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=np.float64))
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
    rows, cols, data = [], [], []

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


def assert_same_assembly(got, want):
    (B, diag), (B_ref, diag_ref) = got, want
    assert B.shape == B_ref.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(B, name), getattr(B_ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert diag.base_delta == diag_ref.base_delta
    for name in ("delta", "rank", "n_neighbors", "cond", "lebesgue", "failed"):
        a, b = getattr(diag, name), getattr(diag_ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


@functools.cache
def cyclide_cloud():
    surface = cyclide()
    cloud = sample_quasi_uniform(surface, 300, seed=11)
    return cloud, sample_quasi_uniform(surface, 60, seed=12).points


@st.composite
def lattice_case(draw):
    """A random subset of a dyadic 6x6x6 lattice and evaluation points on
    lattice nodes, half-steps and stencil boundaries, where ``|p - x| == delta``
    holds exactly for some cloud points."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1)
    grid = grid.reshape(-1, 3) * SPACING
    n = draw(st.integers(40, len(grid)))
    cloud = PointCloud(grid[rng.permutation(len(grid))[:n]])
    delta = SPACING * draw(st.sampled_from([1, 2, 3, 4]))
    nodes = cloud.points[rng.integers(0, n, size=draw(st.integers(1, 12)))]
    halves = nodes + SPACING / 2
    axis = np.eye(3)[rng.integers(0, 3, size=len(nodes))]
    boundary = nodes + delta * axis
    return cloud, np.vstack([nodes, halves, boundary]), delta


@st.composite
def assembly_case(draw):
    if draw(st.booleans()):
        cloud, evals, delta = draw(lattice_case())
    else:
        cloud, evals = cyclide_cloud()
        delta = draw(st.sampled_from([0.4, 0.8, 1.6]))
    degree = draw(st.integers(0, 5))
    escalate = draw(st.booleans())
    auto = draw(st.booleans())
    far = draw(st.integers(0, 3))
    if far:
        evals = np.vstack([evals, [[40.0, -30.0, 25.0]] * far])
    order = np.random.default_rng(draw(st.integers(0, 1000))).permutation(len(evals))
    config = MlsConfig(
        degree=degree,
        delta=None if auto else delta,
        escalate_delta=escalate,
        rank_threshold_factor=draw(st.sampled_from([1.0, 1e6])),
    )
    block = draw(st.sampled_from([1, 3000, mls._FIT_BLOCK]))
    workers = draw(st.sampled_from([1, 2, 3]))
    return cloud, evals[order], config, block, workers


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(assembly_case())
def test_block_walk_matches_per_point_loop(case):
    cloud, evals, config, block, workers = case
    with mock.patch.object(mls, "_FIT_BLOCK", block), \
            mock.patch.object(_workers, "worker_count", lambda: workers):
        try:
            want = reference_shape_function_matrix(cloud, evals, config)
        except TooFewPoints:
            with pytest.raises(TooFewPoints):
                shape_function_matrix(cloud, evals, config)
            return
        got = shape_function_matrix(cloud, evals, config)
    assert_same_assembly(got, want)


def test_escalated_rows_outgrow_the_planned_output():
    # Every point fails at the base radius, so all rows come from refits at
    # doubled radii and the output arrays must grow past their planned size.
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(200, 3)))
    evals = np.random.default_rng(1).uniform(1.3, 1.6, size=(25, 3))
    config = MlsConfig(degree=2, delta=0.3, escalate_delta=True)
    got = shape_function_matrix(cloud, evals, config)
    assert not got[1].failed.any()
    assert (got[1].delta > 0.3).all()
    assert_same_assembly(got, reference_shape_function_matrix(cloud, evals, config))


@pytest.mark.parametrize("workers", [2, 3])
def test_block_error_is_raised_in_block_order(workers):
    # One point per block. The third block raises, after waiting (up to a
    # second) for a later block to raise another error first; with three
    # workers one does, in the second helper. The call raises the third
    # block's error, as a serial walk would, and leaves no thread behind.
    cloud, evals = cyclide_cloud()
    first = np.linalg.LinAlgError("SVD did not converge")
    later_raised = threading.Event()
    real = mls._fit_many

    def failing_fit_many(cloud, centers, *args):
        i = int(np.flatnonzero((evals == centers[0]).all(axis=1))[0])
        if i == 2:
            later_raised.wait(timeout=1)
            raise first
        if i > 2:
            later_raised.set()
            raise np.linalg.LinAlgError(f"block {i}")
        return real(cloud, centers, *args)

    threads = threading.active_count()
    with mock.patch.object(mls, "_FIT_BLOCK", 1), \
            mock.patch.object(_workers, "worker_count", lambda: workers), \
            mock.patch.object(mls, "_fit_many", failing_fit_many):
        with pytest.raises(np.linalg.LinAlgError) as raised:
            shape_function_matrix(cloud, evals, MlsConfig(degree=2, delta=0.8))
    assert raised.value is first
    assert threading.active_count() == threads


def test_block_plan_error_stops_the_helpers():
    # The block plan itself fails after two blocks went to the workers.
    def failing_blocks(counts, max_rows):
        yield 0, 1
        yield 1, 2
        raise MemoryError("block plan")

    cloud, evals = cyclide_cloud()
    threads = threading.active_count()
    with mock.patch.object(_workers, "worker_count", lambda: 3), \
            mock.patch.object(mls, "_blocks", failing_blocks):
        with pytest.raises(MemoryError, match="block plan"):
            shape_function_matrix(cloud, evals, MlsConfig(degree=2, delta=0.8))
    assert threading.active_count() == threads


@pytest.mark.parametrize("openblas, omp, cpus, want", [
    (None, None, 8, 1),   # BLAS at its default threads
    ("4", "1", 8, 1),     # OpenBLAS reads its own variable first
    ("1", None, 8, 2),    # capped at the measured count
    (None, "1", 8, 2),
    ("1", "4", 1, 1),     # pinned to one CPU
])
def test_worker_count(monkeypatch, openblas, omp, cpus, want):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    monkeypatch.setattr(_workers.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert _workers.worker_count() == want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_in_order_jobs_see_the_callers_context(workers):
    marker = contextvars.ContextVar("marker", default=None)
    got = []
    token = marker.set("caller")
    try:
        _workers.map_in_order(lambda job: (job, marker.get(), threading.get_ident()),
                              range(12), got.append, workers)
    finally:
        marker.reset(token)
    assert [job for job, _, _ in got] == list(range(12))
    assert [value for _, value, _ in got] == ["caller"] * 12
    # Pool threads run every job, W = 1 included.
    assert threading.get_ident() not in {ident for _, _, ident in got}


def test_map_in_order_runs_two_jobs_on_two_workers_at_once():
    # Each job waits for the other; run one after the other, both time out.
    barrier = threading.Barrier(2, timeout=2)
    got = []
    _workers.map_in_order(lambda job: barrier.wait() >= 0, range(2), got.append, 2)
    assert got == [True, True]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_in_order_bounds_the_unwritten_jobs(workers):
    lock = threading.Lock()
    unwritten = most = 0
    got = []

    def work(job):
        nonlocal unwritten, most
        with lock:
            unwritten += 1
            most = max(most, unwritten)
        time.sleep(0.002 * (job % 3))
        return job

    def write(job):
        nonlocal unwritten
        with lock:
            unwritten -= 1
        got.append(job)

    _workers.map_in_order(work, range(50), write, workers)
    assert got == list(range(50))
    assert most <= _workers._QUEUED * workers


def test_more_workers_than_cores_write_every_block():
    # Six workers, blocks of about 30 stencil rows (one or two points) and a
    # short switch interval provoke many interleavings of claims and writes;
    # a lost or misplaced write would change a row or a diagnostic.
    cloud, evals = cyclide_cloud()
    config = MlsConfig(degree=2, delta=0.8, escalate_delta=True)
    want = reference_shape_function_matrix(cloud, evals, config)
    block = 6 * (MonomialBasis(3, 2).size + mls._ROW_WORDS) * 30
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(mls, "_FIT_BLOCK", block), \
                mock.patch.object(_workers, "worker_count", lambda: 6):
            caller = threading.Thread(
                target=lambda: got.append(shape_function_matrix(cloud, evals, config)))
            caller.start()
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert_same_assembly(got[0], want)


def _assembly_margin(cloud, evals, config):
    """Traced peak of one assembly minus the bytes of what it returns."""
    tracemalloc.start()
    try:
        B, diag = shape_function_matrix(cloud, evals, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = [B.data, B.indices, B.indptr, diag.delta, diag.rank, diag.n_neighbors,
           diag.cond, diag.lebesgue, diag.failed]
    return peak - sum(a.nbytes for a in out)


@pytest.mark.parametrize("degree, n_small, n_large", [(5, 500, 4000), (0, 4000, 32000)])
def test_assembly_memory_is_bounded_by_the_block(degree, n_small, n_large):
    cloud = sample_quasi_uniform(cyclide(), 600, seed=3)
    cloud.tree  # built outside the traced region
    # m=5 at a radius of about 40 neighbours keeps the fits cheap; m=0 at the
    # automatic radius has about 5, so bookkeeping, not SVDs, fills a block.
    delta = select_delta(cloud, cloud.points, 20) if degree else None
    config = MlsConfig(degree=degree, delta=delta)
    small = _assembly_margin(cloud, np.resize(cloud.points, (n_small, 3)), config)
    large = _assembly_margin(cloud, np.resize(cloud.points, (n_large, 3)), config)
    mb = 2.0**20
    assert small < 6 * mb, small / mb
    assert large < 6 * mb, large / mb
    # Only per-point arrays grow: the stencil counts, their running sum and
    # the finiteness mask, about 20 bytes a point.
    assert large - small < 0.25 * mb + 40 * (n_large - n_small), (large - small) / mb
