"""Experiment runners behind the CLI commands.

Seed policy (all derived from the config seed, no wall clock anywhere):

* the cloud for cardinality index ``i`` uses ``seed + i``;
* the shared evaluation cloud uses ``seed + 999983``;
* noise trials stream from the config seed itself (per-trial substreams);
* ``power`` level ``i`` draws its sites from ``seed + 1000 * i`` and its
  probes from ``seed + 1000 * i + 500`` (``rbf.power_rate_study``).

Cells — one per (m, N) pair, or (m, N, sigma) for the noise study — run on
``--threads`` workers through ``_workers.map_in_order``, the runner MLS
assembly and power evaluation share, and are collected in label order, so
output files are byte-identical no matter how many workers ran them. Wall
times go to a separate ``timings.csv`` precisely so the data files stay
byte-comparable across machines and runs.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from .._workers import map_in_order
from ..errors import ConfigError, MfmlsError
from ..geometry.cloud import PointCloud, _header, _write_csv, save_csv
from ..geometry.mesh import TriMesh
from ..mls import MlsConfig, mls_evaluate, noise_study, shape_function_matrix
from ..polybasis import basis_size, hilbert_dim_hypersurface
from ..rbf import KernelSpec, power_rate_study
from .config import ExperimentConfig

_EVAL_SEED_OFFSET = 999983


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _field_csv(path, points: np.ndarray, values: np.ndarray) -> None:
    rows = [list(p) + [v] for p, v in zip(points, values)]
    _write_csv(path, [_header(points.shape[1]), "value"], rows)


#: Exceptions that fail one cell (and land in the manifest) instead of the run.
#: numpy's LinAlgError is the class scipy.linalg raises too.
_CELL_ERRORS = (MfmlsError, np.linalg.LinAlgError)


def _sample_clouds(cfg: ExperimentConfig) -> dict[int, PointCloud]:
    return {n: cfg.sample(n, cfg.seed + i) for i, n in enumerate(cfg.cardinalities)}


def _sample_evals(cfg: ExperimentConfig, count: int) -> PointCloud:
    return cfg.sample(count, cfg.seed + _EVAL_SEED_OFFSET)


def _rank_summary(diag) -> str:
    ok = ~diag.failed
    if not ok.any():
        return "0:0:0"
    ranks = diag.rank[ok]
    return f"{int(ranks.min())}:{int(np.median(ranks))}:{int(ranks.max())}"


def _cell_id(label) -> str:
    cell_id = "m{}_N{}".format(*label[:2])
    return cell_id if len(label) == 2 else f"{cell_id}_s{label[2]:g}"


def _run_table(cfg, out_dir, threads, labels, cell_fn, table, header):
    """Sample the clouds, run one cell per label and write the cell table.

    ``cell_fn(label, clouds, evals)`` returns ``(values, n_failed)``; a row
    is the cell id, the label and the values. Cells run on ``threads``
    workers and are written in label order. A cell that raises one of
    ``_CELL_ERRORS``, or that has failed evaluation points, lands in
    ``errors.json``; wall times go to ``timings.csv``. Returns the rows, the
    manifest and, keyed by ``header``, the rows of the cells without a
    failed point.
    """
    os.makedirs(out_dir, exist_ok=True)
    clouds = _sample_clouds(cfg)
    evals = _sample_evals(cfg, cfg.default_eval_count())

    def timed_cell(label):
        started = time.perf_counter()
        try:
            values, n_failed = cell_fn(label, clouds, evals)
        except _CELL_ERRORS as exc:
            return exc
        return values, n_failed, time.perf_counter() - started

    results = []
    map_in_order(timed_cell, labels, results.append, threads)
    rows, timing_rows, manifest, clean = [], [], [], []
    for label, res in zip(labels, results):
        cell_id = _cell_id(label)
        if isinstance(res, Exception):
            manifest.append(
                {"cell": cell_id, "error": type(res).__name__, "message": str(res)}
            )
            continue
        values, n_failed, wall = res
        row = [cell_id, *label, *values]
        rows.append(row)
        timing_rows.append([cell_id, wall])
        if n_failed:
            manifest.append(
                {
                    "cell": cell_id,
                    "error": "EvaluationFailed",
                    "message": f"{n_failed} evaluation point(s) failed",
                }
            )
        else:
            clean.append(dict(zip(header, row)))

    _write_csv(os.path.join(out_dir, table), header, rows)
    _write_csv(os.path.join(out_dir, "timings.csv"), ["cell", "seconds"], timing_rows)
    _write_json(os.path.join(out_dir, "errors.json"), manifest)
    return rows, manifest, clean


# --- sample -------------------------------------------------------------------

def cmd_sample(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    for n, cloud in _sample_clouds(cfg).items():
        path = os.path.join(out_dir, f"points_N{n}.csv")
        save_csv(cloud, path)
        ratio = cloud.fill_distance / cloud.separation
        print(
            json.dumps(
                {
                    "N": n,
                    "n_points": len(cloud),
                    "file": path,
                    "h": cloud.fill_distance,
                    "q": cloud.separation,
                    "h_over_q": ratio,
                }
            )
        )
    return 0


# --- convergence ----------------------------------------------------------------

def _fit_rates(degrees, clean):
    """Per-m least-squares slope of log(max_error) against log(delta)."""
    rates = []
    for m in degrees:
        cells = [c for c in clean if c["m"] == m]
        entry = {"m": m, "n_cells": len(cells), "exact": False, "slope": None}
        if not cells:
            entry["flag"] = "no-usable-cells"
        elif all(c["max_error"] <= 1e-9 for c in cells):
            entry["exact"] = True
            entry["flag"] = "exact"
        elif len(cells) < 2:
            entry["flag"] = "too-few-cells"
        else:
            logd = np.log([c["delta"] for c in cells])
            loge = np.log([c["max_error"] for c in cells])
            entry["slope"] = float(np.polyfit(logd, loge, 1)[0])
        rates.append(entry)
    return rates


def cmd_convergence(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    if len(cfg.cardinalities) < 3:
        raise ConfigError(
            f"convergence needs >= 3 cardinalities, got {len(cfg.cardinalities)}"
        )
    target = cfg.target()

    def cell(label, clouds, evals):
        m, n = label
        cloud = clouds[n]
        approx, diag = mls_evaluate(
            cloud, target(cloud.points), evals.points, MlsConfig(degree=m)
        )
        ok = ~diag.failed
        err = np.abs(approx[ok] - target(evals.points)[ok])
        values = [
            float(diag.base_delta),
            cloud.fill_distance,
            cloud.separation,
            float(err.max()) if ok.any() else float("nan"),
            float(np.sqrt(np.mean(err**2))) if ok.any() else float("nan"),
            diag.summary()["max_lebesgue"],
            _rank_summary(diag),
        ]
        return values, int(diag.failed.sum())

    header = ["cell", "m", "N", "delta", "h", "q", "max_error", "rms_error",
              "lebesgue_const", "rank_min_med_max"]
    labels = [(m, n) for m in cfg.degrees for n in cfg.cardinalities]
    _, manifest, clean = _run_table(
        cfg, out_dir, threads, labels, cell, "results.csv", header
    )
    rates = _fit_rates(cfg.degrees, clean)
    _write_json(os.path.join(out_dir, "rates.json"), {"rates": rates})
    print(json.dumps({"rates": rates}))
    return len(manifest)


# --- lebesgue -------------------------------------------------------------------

def cmd_lebesgue(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    def cell(label, clouds, evals):
        m, n = label
        _, diag = shape_function_matrix(clouds[n], evals.points, MlsConfig(degree=m))
        _field_csv(
            os.path.join(out_dir, f"lebesgue_field_m{m}_N{n}.csv"),
            evals.points,
            diag.lebesgue,
        )
        values = [float(diag.base_delta), diag.summary()["max_lebesgue"], len(evals)]
        return values, int(diag.failed.sum())

    header = ["cell", "m", "N", "delta", "lebesgue_const", "n_eval"]
    labels = [(m, n) for m in cfg.degrees for n in cfg.cardinalities]
    rows, manifest, _ = _run_table(
        cfg, out_dir, threads, labels, cell, "lebesgue_constants.csv", header
    )
    print(json.dumps({"cells": len(rows), "failed": len(manifest)}))
    return len(manifest)


# --- noise ----------------------------------------------------------------------

def cmd_noise(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    if cfg.sigma_list is None:
        raise ConfigError("noise needs a 'sigma_list'")
    if cfg.trials is None:
        raise ConfigError("noise needs 'trials' (>= 2)")
    target = cfg.target()

    def cell(label, clouds, evals):
        m, n, sigma = label
        cloud = clouds[n]
        exact = target(evals.points) if cfg.noise_reference == "exact" else None
        mean, std = noise_study(
            cloud,
            target(cloud.points),
            evals.points,
            MlsConfig(degree=m),
            sigma=sigma,
            trials=cfg.trials,
            seed=cfg.seed,
            exact_values=exact,
        )
        return [mean, std], 0

    header = ["cell", "m", "N", "sigma", "mean_max_diff", "std_max_diff"]
    labels = [
        (m, n, s) for m in cfg.degrees for n in cfg.cardinalities for s in cfg.sigma_list
    ]
    rows, manifest, _ = _run_table(
        cfg, out_dir, threads, labels, cell, "stability.csv", header
    )
    print(json.dumps({"cells": len(rows), "failed": len(manifest)}))
    return len(manifest)


# --- power ----------------------------------------------------------------------

def cmd_power(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    if cfg.kernel_order is None:
        raise ConfigError("power needs a 'kernel_order'")
    if isinstance(cfg.surface, TriMesh):
        raise ConfigError("power needs an algebraic surface, not a mesh")
    spec = KernelSpec(cfg.kernel_order)
    os.makedirs(out_dir, exist_ok=True)
    study = power_rate_study(
        spec, cfg.surface, cfg.cardinalities, cfg.seed, within=cfg.restriction
    )
    for n, level in zip(study.site_counts, study.levels):
        _field_csv(
            os.path.join(out_dir, f"power_field_N{n}.csv"),
            level.probes.points,
            level.probe_power,
        )
        _field_csv(
            os.path.join(out_dir, f"power_sites_N{n}.csv"),
            level.sites.points,
            level.site_power,
        )
    summary = {
        "kernel_order": cfg.kernel_order,
        "site_counts": list(study.site_counts),
        "fill_distances": [float(h) for h in study.fill_distances],
        "sup_power": [float(p) for p in study.sup_power],
        "slope": study.slope,
        "residual": study.residual,
    }
    _write_json(os.path.join(out_dir, "power_rate.json"), summary)
    print(json.dumps(summary))
    return 0


# --- info -----------------------------------------------------------------------

def cmd_info(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    surface = cfg.surface
    if isinstance(surface, TriMesh):
        raise ConfigError("info needs an algebraic surface, not a mesh")
    os.makedirs(out_dir, exist_ok=True)
    n = min(cfg.cardinalities)
    cloud = cfg.sample(n, cfg.seed + cfg.cardinalities.index(n))
    evals = _sample_evals(cfg, cfg.eval_count if cfg.eval_count is not None else 512)

    per_degree = []
    for m in cfg.degrees:
        _, diag = shape_function_matrix(cloud, evals.points, MlsConfig(degree=m))
        ok = ~diag.failed
        observed = int(np.median(diag.rank[ok])) if ok.any() else 0
        per_degree.append(
            {
                "m": m,
                "ambient_dim_poly": basis_size(surface.ambient_dim, m),
                "restricted_dim": hilbert_dim_hypersurface(
                    surface.ambient_dim, m, surface.degree
                ),
                "observed_median_rank": observed,
            }
        )

    info = {
        "ambient_dim": surface.ambient_dim,
        "surface_degree": surface.degree,
        "N": n,
        "per_degree": per_degree,
    }
    _write_json(os.path.join(out_dir, "info.json"), info)
    print(json.dumps(info))
    return 0


COMMANDS = {
    "sample": cmd_sample,
    "convergence": cmd_convergence,
    "lebesgue": cmd_lebesgue,
    "noise": cmd_noise,
    "power": cmd_power,
    "info": cmd_info,
}
