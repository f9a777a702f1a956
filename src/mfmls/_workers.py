"""The one in-order runner for independent jobs, and its worker policy.

Four callers run independent jobs through :func:`map_in_order`: MLS
assembly (``mls.shape_function_matrix``) and power-function evaluation
(``rbf.InterpSystem.power_values``) walk blocks, and the sampler
(``geometry.sampling._shell_candidates``) walks the parts of each draw
chunk, whose heavy steps run in native code that releases the GIL. These
three take their worker count from :func:`worker_count`, so they share one
rule for when a second core is used; the CLI table commands run their cells
with ``--threads`` workers.
Every job runs in the caller's ``contextvars`` context.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

# Most workers a call uses; more have not been measured.
_MAX_WORKERS = 2
# Blocks queued or running per helper thread, and started but unwritten
# blocks per worker. Three kept a helper busier (MLS m=3-5 fits about 5%
# faster) but let so many finished m=0 blocks wait that their memory grew
# with the number of points.
_QUEUED = 2


def worker_count() -> int:
    """Workers for one call, read at each call.

    One unless BLAS is held to one thread (``OPENBLAS_NUM_THREADS``, or
    failing that ``OMP_NUM_THREADS``, is 1): a multithreaded BLAS already
    spreads each factorization or solve over the cores, and small calls from
    two workers then queue inside it. Otherwise the CPUs the process may run
    on, at most ``_MAX_WORKERS``.
    """
    env = os.environ
    if env.get("OPENBLAS_NUM_THREADS", env.get("OMP_NUM_THREADS", "")).strip() != "1":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def map_in_order(work, jobs, write, workers: int) -> None:
    """``write(work(job))`` for every job, the writes in job order.

    The calling thread hands jobs to ``workers - 1`` helper threads until
    ``_QUEUED`` per helper are queued or running, and runs the next job
    itself otherwise; after each job it writes every finished job at the
    head of the line. At most ``_QUEUED * workers`` jobs are started but not
    written. Helper jobs run in a copy of the caller's ``contextvars``
    context, so every job sees the caller's context variables. The first
    error in job order is raised, the one a serial loop would raise, once the
    helpers have stopped.
    """
    pending: deque[Future] = deque()
    with ThreadPoolExecutor(max(1, workers - 1)) as helpers:
        try:
            for job in jobs:
                if sum(not f.done() for f in pending) < _QUEUED * (workers - 1):
                    context = contextvars.copy_context()
                    pending.append(helpers.submit(context.run, work, job))
                else:
                    pending.append(_run_here(work, job))
                while pending and (pending[0].done() or len(pending) > _QUEUED * workers):
                    write(pending.popleft().result())
            while pending:
                write(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()


def _run_here(work, job) -> Future:
    """A finished future holding ``work(job)``, run in the calling thread."""
    future: Future = Future()
    try:
        future.set_result(work(job))
    except Exception as exc:
        future.set_exception(exc)
    return future
