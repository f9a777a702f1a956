"""The one in-order runner for independent jobs, and its worker policy.

Four callers run independent jobs through :func:`map_in_order`: MLS
assembly (``mls.shape_function_matrix``) and power-function evaluation
(``rbf.InterpSystem.power_values``) walk blocks, and the sampler
(``geometry.sampling._shell_candidates``) walks the parts of each draw
chunk, whose heavy steps run in native code that releases the GIL. These
three take their worker count from :func:`worker_count`, so they share one
rule for when a second core is used; the CLI table commands run their cells
with ``--threads`` workers. Pool threads run every job, in the caller's
``contextvars`` context; the calling thread only hands jobs out and writes
their results in order.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

# Most workers a call uses; more have not been measured.
_MAX_WORKERS = 2
# Started but unwritten jobs per worker. Three kept the workers busier (MLS
# m=3-5 fits about 5% faster) but let so many finished m=0 blocks wait that
# their memory grew with the number of points.
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

    A pool of ``workers`` threads runs every job, W = 1 included, each in a
    copy of the caller's ``contextvars`` context. Before each submission the
    calling thread writes every finished job at the head of the line, and
    waits for the head while ``_QUEUED * workers`` jobs are started but not
    written. The first error in job order is raised, the one a serial loop
    would raise, once the running jobs have finished; an interrupt, too,
    waits for the running jobs, and the queued ones are cancelled.
    """
    pending: deque[Future] = deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for job in jobs:
                while pending and (pending[0].done() or len(pending) >= _QUEUED * workers):
                    write(pending.popleft().result())
                pending.append(pool.submit(contextvars.copy_context().run, work, job))
            while pending:
                write(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
