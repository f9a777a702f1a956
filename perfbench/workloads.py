"""Set-up and timed sections of the benchmark workloads.

Each section runs in a child process of ``run.py`` so that the timed
section's peak resident memory is its own::

    python3 perfbench/workloads.py setup --workload mls --seed 1 --dir D [--trace]
    python3 perfbench/workloads.py timed --workload mls --dir D --seconds 8 [--trace]

``setup`` derives the program's inputs from the benchmark seed and writes
them to ``D`` (``.npy`` arrays and ``inputs.json``), so that the timed
process reads them byte-exactly. ``timed`` repeats the workload until
``--seconds`` have passed (exactly once with ``--trace``), checks every
output, and writes ``timed.json``; an untraced run also samples the host's
speed with :class:`HostProbe`. Both call the library the way a user
does: public functions looked up on their modules, and the CLI through
``mfmls.cli.main.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import mfmls.cli.config as cli_config
import mfmls.geometry.sampling as sampling
import mfmls.mls as mls
import mfmls.rbf as rbf
from mfmls.errors import FactorizationFailed, SamplingFailed
from mfmls.geometry.cloud import BallRestriction, PointCloud
from mfmls.geometry.presets import cyclide, cyclide_patch_center, torus
from mfmls.polybasis import hilbert_dim_hypersurface

# mfmls.cli re-exports main(), which hides the submodule of that name.
cli_main = importlib.import_module("mfmls.cli.main")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402

SURFACES = {"torus": torus, "cyclide": cyclide}
# (label, preset, requested n, patch radius or None) of the sample workload.
SAMPLE_JOBS = [("torus_n200", "torus", 200, None),
               ("cyclide_n8192", "cyclide", 8192, None),
               ("cyclide_patch_n1399", "cyclide", 1399, 1.0)]
MLS_CLOUD_N = 4096
MLS_EVAL_N = 2000
MLS_DEGREES = range(6)
NOISE = {"degree": 2, "sigma": 0.01, "trials": 100}
KERNEL_ORDER = 4
KERNEL_SITES = 1399
PROBE_FACTOR = 8
POWER_CARDINALITIES = [100, 150, 200]


def _target(pts):
    # Smooth test function sampled on the clouds (mls noise study, kernel RHS).
    return np.cos(np.pi * pts[:, 0]) * np.sin(2.0 * pts[:, 1]) + 0.5 * pts[:, 2]


def program_seeds(seed: int, k: int) -> list[int]:
    """k decorrelated program seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


class Ledger:
    """Attempted/failed operations and the correctness checks behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, attempted: int, failed: int = 0, what: str = ""):
        self.attempted += attempted
        self.failed += failed
        message = f"{failed}/{attempted} failed: {what}"
        if failed and message not in self.messages:  # repetitions repeat failures
            self.messages.append(message)

    def check(self, ok, what: str):
        self.ops(1, 0 if ok else 1, what)


def _sample(ledger, surface, n, seed, within=None):
    try:
        cloud = sampling.sample_quasi_uniform(surface, n, seed, within=within)
    except SamplingFailed as exc:
        ledger.ops(1, 1, f"sample_quasi_uniform n={n}: {exc}")
        return None
    ledger.ops(1)
    return cloud


def _untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


# --- set-up -----------------------------------------------------------------------

def setup_sample(seed, ledger):
    seeds = program_seeds(seed, len(SAMPLE_JOBS))
    jobs = []
    for (label, preset, n, radius), s in zip(SAMPLE_JOBS, seeds):
        SURFACES[preset]()  # validates the preset and pays its construction
        center = cyclide_patch_center().tolist() if radius is not None else None
        jobs.append({"label": label, "preset": preset, "n": n, "seed": s,
                     "center": center, "radius": radius})
    return {"jobs": jobs}, {}


def setup_mls(seed, ledger):
    s_cloud, s_eval, s_noise = program_seeds(seed, 3)
    surface = cyclide()
    cloud = _sample(ledger, surface, MLS_CLOUD_N, s_cloud)
    # Ask for 10% more than needed so the calibrated count (within 8%)
    # always covers MLS_EVAL_N; the prefix is a uniform subsample.
    evals = _sample(ledger, surface, int(MLS_EVAL_N * 1.1), s_eval)
    if cloud is None or evals is None:
        return None, None
    return {"noise_seed": s_noise}, {"cloud": cloud.points,
                                     "evals": evals.points[:MLS_EVAL_N]}


def setup_kernel(seed, ledger):
    s_sites, s_probes = program_seeds(seed, 2)
    surface = cyclide()
    sites = _sample(ledger, surface, KERNEL_SITES, s_sites)
    probes = _sample(ledger, surface, PROBE_FACTOR * KERNEL_SITES, s_probes)
    if sites is None or probes is None:
        return None, None
    return {}, {"sites": sites.points, "probes": probes.points}


def setup_cli_power(seed, ledger, directory):
    (s_cfg,) = program_seeds(seed, 1)
    config = {"version": 1, "surface": {"preset": "cyclide"}, "degrees": [0],
              "cardinalities": POWER_CARDINALITIES, "seed": s_cfg,
              "kernel_order": KERNEL_ORDER}
    path = os.path.join(directory, "power_config.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(config, fh, indent=2)
    cli_config.load_config(path)  # the parse a user's run starts with
    return {"config": config}, {}


def run_setup(workload, seed, directory):
    ledger = Ledger()
    if workload == "cli_power":
        meta, arrays = setup_cli_power(seed, ledger, directory)
    else:
        meta, arrays = {"sample": setup_sample, "mls": setup_mls,
                        "kernel": setup_kernel}[workload](seed, ledger)
    if meta is None:
        return None, ledger
    for name, arr in arrays.items():
        np.save(os.path.join(directory, f"{name}.npy"), arr)
    meta["arrays"] = sorted(arrays)
    meta["inputs_digest"] = _digest(*(arrays[k] for k in sorted(arrays)),
                                    json.dumps(meta, sort_keys=True).encode())
    with open(os.path.join(directory, "inputs.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2)
    return meta, ledger


# --- timed sections ---------------------------------------------------------------

_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((60, 20))
_REF_SQUARE = _REF_RNG.standard_normal((150, 150))
_REF_VECTOR = _REF_RNG.standard_normal(20_000)


def reference_loop() -> float:
    """Seconds of a fixed mix of the library's kinds of work, in no mfmls code.

    Small SVDs (LAPACK, as in MLS fits), a dense product (BLAS 3, as in the
    Cholesky solves), an elementwise exp over a long vector (as in kernel and
    polynomial evaluation) and an interpreter loop, each near 0.6 ms.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(_REF_SMALL, full_matrices=False)
        _REF_SQUARE @ _REF_SQUARE
        np.exp(-2.0 * np.abs(_REF_VECTOR)).sum()
    acc = 0
    for i in range(8_000):
        acc += i * i
    return time.perf_counter() - t0


class HostProbe:
    """Times :func:`reference_loop` every ``period`` seconds of a timed section.

    The speed of the shared host's vCPUs drifts by up to 2x, over seconds
    to minutes, and whole runs are fast or slow together. A SIGALRM handler
    runs the loop; Python runs it in the main thread between bytecodes, so
    the samples spread evenly through the library calls, long ones too. The
    loop runs twice per sample and only the second pass is kept, so the
    library's own cache footprint does not slow the sample. The median
    sample tells how fast the host ran while a repetition ran.
    """

    def __init__(self, period: float = 0.25):
        self.period = period
        self.seconds = 0.0  # spent in the handler so far, both passes
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(reference_loop())
        self.seconds += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Rep:
    """Outputs of one timed repetition: wall time of named parts and a digest.

    With a :class:`HostProbe`, a part's time leaves out the reference loops
    that ran inside it.
    """

    def __init__(self, probe: HostProbe | None = None):
        self.parts: dict[str, float] = {}
        self.chunks: list = []
        self.probe = probe

    def timed(self, part, fn, *args, **kwargs):
        in_probe = self.probe.seconds if self.probe is not None else 0.0
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        if self.probe is not None:
            elapsed -= self.probe.seconds - in_probe
        self.parts[part] = elapsed
        return out


def timed_sample(inputs, ledger, directory, tracer, rep):
    for job in inputs["jobs"]:
        surface = SURFACES[job["preset"]]()
        within = (BallRestriction(np.array(job["center"]), job["radius"])
                  if job["radius"] is not None else None)
        cloud = rep.timed(job["label"], _sample, ledger, surface, job["n"],
                          job["seed"], within)
        if cloud is None:
            continue
        n, pts = job["n"], cloud.points
        ledger.check(abs(len(pts) - n) <= 0.1 * n, f"{job['label']}: {len(pts)} points")
        ledger.check(cloud.fill_distance / cloud.separation <= 4.0, f"{job['label']}: h/q")
        with _untraced(tracer):
            resid = np.abs(surface.eval(pts)).max()
        ledger.check(resid <= 1e-12 * surface.coeff_scale,
                     f"{job['label']}: |P| = {resid:g} off the surface")
        if within is not None:
            ledger.check(bool(within.contains(pts).all()), f"{job['label']}: outside ball")
        rep.chunks.append(pts)
    return rep


def timed_mls(inputs, ledger, directory, tracer, rep):
    cloud_pts, evals = inputs["cloud"], inputs["evals"]
    # A fresh cloud per repetition, so its k-d tree is built inside the timing.
    cloud = rep.timed("cloud", PointCloud, cloud_pts)
    for m in MLS_DEGREES:
        B, diag = rep.timed(f"m{m}", mls.shape_function_matrix, cloud, evals,
                            mls.MlsConfig(degree=m))
        n_failed = int(diag.failed.sum())
        ledger.ops(len(evals), n_failed, f"m={m}: failed eval points")
        rowsum_err = np.abs(np.asarray(B.sum(axis=1)).ravel() - 1.0)[~diag.failed].max()
        ledger.check(rowsum_err <= 1e-10, f"m={m}: row sums off by {rowsum_err:g}")
        if m >= 4:
            want = hilbert_dim_hypersurface(3, m, 4)
            got = float(np.median(diag.rank[~diag.failed]))
            ledger.check(got == want, f"m={m}: median rank {got} != {want}")
        rep.chunks += [B.data, B.indices, B.indptr]
    mean, std = rep.timed(
        "noise_study", mls.noise_study, cloud, _target(cloud_pts), evals,
        mls.MlsConfig(degree=NOISE["degree"]), sigma=NOISE["sigma"],
        trials=NOISE["trials"], seed=inputs["noise_seed"])
    ledger.check(np.isfinite(mean) and np.isfinite(std) and mean > 0,
                 f"noise_study returned ({mean}, {std})")
    rep.chunks.append(np.array([mean, std]))
    return rep


def timed_kernel(inputs, ledger, directory, tracer, rep):
    sites, probes = inputs["sites"], inputs["probes"]
    spec = rbf.KernelSpec(KERNEL_ORDER)
    values = _target(sites)
    try:
        system = rep.timed("InterpSystem", rbf.InterpSystem, spec, sites)
    except FactorizationFailed as exc:
        ledger.ops(1, 1, f"InterpSystem: {exc}")
        return rep
    ledger.ops(1)
    alpha = rep.timed("solve", system.solve, values)
    power = rep.timed("power_values", system.power_values, probes)
    ledger.ops(2)
    matrix = system.gram + system.jitter * np.eye(len(sites))
    resid = np.abs(matrix @ alpha - values).max() / np.abs(values).max()
    ledger.check(resid <= 1e-8, f"solve residual {resid:g}")
    with _untraced(tracer):
        cap = np.sqrt(float(rbf.matern_eval(spec, 0.0)))
    ledger.check(bool(np.all((power >= 0) & (power <= cap))),
                 "power values outside [0, sqrt(phi(0))]")
    rep.chunks += [alpha, power]
    return rep


def timed_cli_power(inputs, ledger, directory, tracer, rep):
    out = os.path.join(directory, "power_out")
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = rep.timed("mfmls power", cli_main.main,
                         ["power", "--config", os.path.join(directory, "power_config.json"),
                          "--out", out])
    ledger.ops(1, int(code != 0), f"mfmls power exited {code}")
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    files = {name: Path(out, name).read_bytes() for name in names}
    if "errors.json" in files:
        ledger.check(json.loads(files["errors.json"]) == [], "errors.json not empty")
    summary = json.loads(files.get("power_rate.json", b"{}"))
    ledger.check(summary.get("slope", 0.0) > 0.5, f"slope {summary.get('slope')}")
    sups = summary.get("sup_power", [])
    ledger.check(len(sups) == len(POWER_CARDINALITIES)
                 and all(b < a for a, b in zip(sups, sups[1:])),
                 f"sup_power {sups} not decreasing")
    for name in names:
        rep.chunks += [name.encode(), files[name]]
    if tracer is not None:
        tracer.count("cli.bytes_written", sum(len(b) for b in files.values()))
    return rep


TIMED = {"sample": timed_sample, "mls": timed_mls, "kernel": timed_kernel,
         "cli_power": timed_cli_power}


def machine_info() -> dict:
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps")
                   if "openblas" in line.lower() and line.split()[-1].endswith(".so")})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_timed(workload, directory, seconds, trace):
    with open(os.path.join(directory, "inputs.json"), encoding="ascii") as fh:
        inputs = json.load(fh)
    for name in inputs["arrays"]:
        inputs[name] = np.load(os.path.join(directory, f"{name}.npy"))
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    ledger = Ledger()
    walls, ref_s, parts, digests = [], [], [], []
    # The traced run keeps its spans free of reference loops.
    probe = HostProbe() if not trace else None
    started = time.perf_counter()
    with probe if probe is not None else contextlib.nullcontext():
        while True:
            gc.collect()
            if probe is not None:
                first_sample = len(probe.samples)
            rep = TIMED[workload](inputs, ledger, directory, tracer, Rep(probe))
            # Only the library calls count; the checks between them do not.
            walls.append(sum(rep.parts.values()))
            if probe is not None:
                if len(probe.samples) == first_sample:  # a repetition shorter than the period
                    probe.samples.append(reference_loop())
                ref_s.append(statistics.median(probe.samples[first_sample:]))
            if len(walls) == 1:
                # Later repetitions reuse (and fragment) the heap the first one
                # grew, so only the first peak is independent of the count.
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            parts.append(rep.parts)
            digests.append(_digest(*rep.chunks))
            if trace or time.perf_counter() - started >= seconds:
                break
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(directory, "spans_timed.json"), "timed")
    ledger.check(len(set(digests)) == 1, "outputs differ between repetitions")
    return {
        "walls": walls,
        "ref_s": ref_s,
        "parts": parts,
        "digest": digests[0],
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "messages": ledger.messages,
        "machine": machine_info(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("section", choices=["setup", "timed"])
    parser.add_argument("--workload", required=True, choices=sorted(TIMED))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.section == "setup":
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracing.install(tracer)
        meta, ledger = run_setup(args.workload, args.seed, args.dir)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(os.path.join(args.dir, "spans_setup.json"), "setup")
        result = {"attempted": ledger.attempted, "failed": ledger.failed,
                  "messages": ledger.messages,
                  "inputs_digest": meta and meta["inputs_digest"]}
    else:
        result = run_timed(args.workload, args.dir, args.seconds, args.trace)
    name = f"{args.section}{'_traced' if args.trace else ''}.json"
    with open(os.path.join(args.dir, name), "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
