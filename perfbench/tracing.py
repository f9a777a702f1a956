"""Spans and counts recorded around the library's public callables.

The benchmark installs thin wrappers at the attribute each caller looks up
(``mfmls.geometry.sampling.project_points``, ``AlgebraicSurface.eval``,
``mfmls.mls.local_fit`` ...). Each call becomes a span: name, start, end,
parent span and a few exact counts (rows, calls, bytes). Spans are kept in
memory and written once, when the traced process ends. Nothing is installed
in an untraced run, so end-to-end numbers never pay for tracing.

This module imports only the standard library at top level; the parent
process uses :func:`layer_metrics` without loading numpy or the library.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from collections import defaultdict

class Tracer:
    """In-memory span recorder; spans nest through a context variable."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, counts]
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False

    @property
    def current_name(self):
        sid = self._current.get()
        return None if sid is None else self.spans[sid][2]

    def span(self, name, fn, args, kwargs, counter=None):
        sid = len(self.spans)
        rec = [sid, self._current.get(), name, 0.0, 0.0, {}]
        self.spans.append(rec)
        token = self._current.set(sid)
        rec[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._current.reset(token)
        if counter is not None:
            rec[5] = counter(args, kwargs, result)
        return result

    def count(self, name, value):
        """Attach an exact count to a zero-length span under the current one."""
        now = time.perf_counter()
        self.spans.append([len(self.spans), self._current.get(), name, now, now,
                           {"value": value}])

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, owner, attr, name, counter=None, only_under=None):
        """Replace ``owner.attr`` by a recording wrapper (undone by :meth:`uninstall`).

        ``only_under`` restricts recording to calls made directly inside a
        span of that name; other callers go straight through.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self._paused or (only_under is not None
                                and self.current_name != only_under):
                return original(*args, **kwargs)
            return self.span(name, original, args, kwargs, counter)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_item(self, mapping, key, name):
        original = mapping[key]

        def wrapper(*args, **kwargs):
            return self.span(name, original, args, kwargs)

        self._undo.append((mapping, key, original))
        mapping[key] = wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path, process):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"process": process, "spans": self.spans}, fh,
                      separators=(",", ":"))


def _svd_flops(args, kwargs, result):
    # Golub & Van Loan's count for a thin R-SVD with U and V: 6pq^2 + 20q^3.
    rows, cols = args[0].shape[-2:]
    p, q = max(rows, cols), min(rows, cols)
    return {"rows": int(rows), "flops": 6 * p * q * q + 20 * q ** 3}


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the library (imports the library)."""
    import importlib

    import numpy as np

    import mfmls.cli.config as cli_config
    import mfmls.cli.runner as cli_runner
    import mfmls.geometry.cloud as cloud
    import mfmls.geometry.sampling as sampling
    import mfmls.geometry.surface as surface
    import mfmls.mls as mls
    import mfmls.rbf as rbf

    cli_main = importlib.import_module("mfmls.cli.main")

    def points_out(args, kwargs, result):
        return {"points_out": len(result)}

    def rows_arg(i):
        return lambda args, kwargs, result: {"rows": len(np.atleast_2d(args[i]))}

    for owner in (sampling, rbf, cli_config):
        tracer.wrap(owner, "sample_quasi_uniform", "sampling.sample_quasi_uniform",
                    points_out)
    tracer.wrap(
        sampling, "project_points", "surface.project_points",
        lambda args, kwargs, result: {"rows_in": len(args[1]),
                                      "ok": int(result[1].sum())})
    for meth in ("eval", "grad", "eval_longdouble"):
        tracer.wrap(surface.AlgebraicSurface, meth, f"surface.{meth}", rows_arg(1))
    tracer.wrap(cloud.PointCloud, "ball", "cloud.ball")
    tracer.wrap(cloud, "cKDTree", "cloud.kdtree_build")

    tracer.wrap(mls, "eval_scaled_basis", "polybasis.eval_scaled_basis", rows_arg(3))
    tracer.wrap(mls, "shape_function_matrix", "mls.shape_function_matrix",
                lambda args, kwargs, result: {"degree": args[2].degree})
    for fn in ("select_delta", "build_stencil", "local_fit", "noise_study",
               "gaussian_noise"):
        tracer.wrap(mls, fn, f"mls.{fn}")
    tracer.wrap(np.linalg, "svd", "mls.svd", _svd_flops, only_under="mls.local_fit")

    tracer.wrap(rbf.InterpSystem, "__init__", "rbf.InterpSystem")
    tracer.wrap(rbf.InterpSystem, "power_values", "rbf.power_values")
    tracer.wrap(
        rbf, "matern_eval", "rbf.matern_eval",
        lambda args, kwargs, result: {"bytes": int(result.nbytes) if result.ndim == 2 else 0})
    for fn in ("cdist", "cho_factor", "cho_solve"):
        tracer.wrap(rbf, fn, f"rbf.{fn}")
    tracer.wrap(cli_runner, "power_rate_study", "rbf.power_rate_study")

    tracer.wrap(cli_main, "load_config", "cli.load_config")
    for key in list(cli_runner.COMMANDS):
        tracer.wrap_item(cli_runner.COMMANDS, key, "cli.command")


# --- per-layer metrics ---------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("sampling.sample_quasi_uniform.s", "s"),
    ("sampling.sample_quasi_uniform.calls", "count"),
    ("sampling.sample_quasi_uniform.self_s", "s"),
    ("sampling.sample_quasi_uniform.points_out", "count"),
    ("sampling.kept_per_projected", "ratio"),
    ("surface.project_points.s", "s"),
    ("surface.project_points.calls", "count"),
    ("surface.project_points.rows_in", "count"),
    ("surface.project_points.ok_ratio", "ratio"),
    ("surface.eval.s", "s"),
    ("surface.eval.rows", "count"),
    ("surface.grad.s", "s"),
    ("surface.grad.rows", "count"),
    ("surface.eval_longdouble.s", "s"),
    ("surface.eval_longdouble.rows", "count"),
    ("cloud.ball.s", "s"),
    ("cloud.ball.calls", "count"),
    ("cloud.kdtree_build.s", "s"),
    ("cloud.kdtree_build.calls", "count"),
    ("polybasis.eval_scaled_basis.s", "s"),
    ("polybasis.eval_scaled_basis.calls", "count"),
    ("polybasis.eval_scaled_basis.rows", "count"),
    *[(f"mls.shape_function_matrix.s.m{m}", "s") for m in range(6)],
    ("mls.select_delta.s", "s"),
    ("mls.build_stencil.s", "s"),
    ("mls.local_fit.s", "s"),
    ("mls.local_fit.calls", "count"),
    ("mls.local_fit.self_s", "s"),
    ("mls.svd.s", "s"),
    ("mls.svd.calls", "count"),
    ("mls.svd.rows", "count"),
    ("mls.svd.flops_computed", "flop"),
    ("mls.assembly_self_s", "s"),
    ("mls.noise_study.s", "s"),
    ("mls.gaussian_noise.s", "s"),
    ("mls.gaussian_noise.calls", "count"),
    ("rbf.InterpSystem.s", "s"),
    ("rbf.cdist.s", "s"),
    ("rbf.matern_eval.s", "s"),
    ("rbf.cho_factor.s", "s"),
    ("rbf.cho_factor.calls", "count"),
    ("rbf.cho_solve.s", "s"),
    ("rbf.power_values.s", "s"),
    ("rbf.kernel_block_bytes_computed", "bytes"),
    ("cli.load_config.s", "s"),
    ("cli.command.s", "s"),
    ("cli.runner.self_s", "s"),
    ("cli.sample_calls", "count"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den):
    # A layer the workload never reaches has no ratio; report 0 for it.
    return num / den if den else 0.0


def layer_metrics(span_sets, wall_traced, wall_untraced) -> dict:
    """Aggregate the spans of each traced process into the per-layer metrics."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    sfm_by_degree = defaultdict(float)
    cli_samples = 0
    for spans in span_sets:
        names = [s[2] for s in spans]
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, cnt in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        for sid, parent, name, t0, t1, cnt in spans:
            dur = t1 - t0
            total[name] += dur
            self_time[name] += dur - child_time[sid]
            calls[name] += 1
            for key, value in cnt.items():
                counts[f"{name}.{key}"] += value
            if name == "mls.shape_function_matrix" and (
                    parent is None or names[parent] != "mls.noise_study"):
                sfm_by_degree[cnt["degree"]] += dur
            if name == "sampling.sample_quasi_uniform" and _under(spans, sid, "cli.command"):
                cli_samples += 1

    out = {}
    for name in ("sampling.sample_quasi_uniform", "surface.project_points",
                 "mls.local_fit"):
        out[f"{name}.s"] = total[name]
        out[f"{name}.calls"] = calls[name]
    out["sampling.sample_quasi_uniform.self_s"] = self_time["sampling.sample_quasi_uniform"]
    kept = counts["sampling.sample_quasi_uniform.points_out"]
    projected = counts["surface.project_points.rows_in"]
    out["sampling.sample_quasi_uniform.points_out"] = kept
    out["sampling.kept_per_projected"] = _ratio(kept, projected)
    out["surface.project_points.rows_in"] = projected
    out["surface.project_points.ok_ratio"] = _ratio(
        counts["surface.project_points.ok"], projected)
    for meth in ("eval", "grad", "eval_longdouble"):
        out[f"surface.{meth}.s"] = total[f"surface.{meth}"]
        out[f"surface.{meth}.rows"] = counts[f"surface.{meth}.rows"]
    for name in ("cloud.ball", "cloud.kdtree_build", "polybasis.eval_scaled_basis",
                 "mls.svd", "mls.gaussian_noise", "rbf.cho_factor"):
        out[f"{name}.s"] = total[name]
        out[f"{name}.calls"] = calls[name]
    out["polybasis.eval_scaled_basis.rows"] = counts["polybasis.eval_scaled_basis.rows"]
    for m in range(6):
        out[f"mls.shape_function_matrix.s.m{m}"] = sfm_by_degree[m]
    for name in ("mls.select_delta", "mls.build_stencil", "mls.noise_study",
                 "rbf.InterpSystem", "rbf.cdist", "rbf.matern_eval", "rbf.cho_solve",
                 "rbf.power_values", "cli.load_config", "cli.command"):
        out[f"{name}.s"] = total[name]
    out["mls.local_fit.self_s"] = self_time["mls.local_fit"]
    out["mls.svd.rows"] = counts["mls.svd.rows"]
    out["mls.svd.flops_computed"] = counts["mls.svd.flops"]
    out["mls.assembly_self_s"] = self_time["mls.shape_function_matrix"]
    out["rbf.kernel_block_bytes_computed"] = counts["rbf.matern_eval.bytes"]
    out["cli.runner.self_s"] = self_time["cli.command"]
    out["cli.sample_calls"] = cli_samples
    out["cli.bytes_written"] = counts["cli.bytes_written.value"]
    out["trace.wall_s"] = wall_traced
    out["trace.untraced_wall_s"] = wall_untraced
    out["trace.overhead_s"] = wall_traced - wall_untraced
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}


def _under(spans, sid, ancestor):
    parent = spans[sid][1]
    while parent is not None:
        if spans[parent][2] == ancestor:
            return True
        parent = spans[parent][1]
    return False
