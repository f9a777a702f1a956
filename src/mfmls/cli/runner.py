"""Experiment runners behind the CLI commands.

Seed policy (all derived from the config seed, no wall clock anywhere):

* the cloud for cardinality index ``i`` uses ``seed + i``;
* the shared evaluation cloud uses ``seed + 999983``;
* noise trials stream from the config seed itself (per-trial substreams).

Cells — one per (m, N) pair, or (m, N, sigma) for the noise study — run in a
thread pool and are collected in submission order, so output files are
byte-identical no matter how many workers ran them. Wall times go to a
separate ``timings.csv`` precisely so the data files stay byte-comparable
across machines and runs.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ConfigError, MfmlsError
from ..geometry.cloud import PointCloud, save_csv
from ..mls import MlsConfig, mls_evaluate, noise_study, shape_function_matrix
from ..polybasis import basis_size, hilbert_dim_hypersurface
from ..rbf import KernelSpec, power_rate_study
from .config import ExperimentConfig

_EVAL_SEED_OFFSET = 999983


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _field_csv(path, points: np.ndarray, values: np.ndarray) -> None:
    names = ("x", "y", "z") if points.shape[1] == 3 else tuple(
        f"x{i + 1}" for i in range(points.shape[1])
    )
    rows = [list(p) + [v] for p, v in zip(points, values)]
    _write_csv(path, list(names) + ["value"], rows)


#: Exceptions that fail one cell (and land in the manifest) instead of the run.
#: numpy's LinAlgError is the class scipy.linalg raises too.
_CELL_ERRORS = (MfmlsError, np.linalg.LinAlgError)


def _run_cells(labels, fn, threads: int):
    """Run fn(label) for each label; return (result | exception) per label.

    Results come back in submission order regardless of worker count, which
    is what keeps multi-threaded runs byte-identical to serial ones.
    """
    if threads <= 1:
        out = []
        for label in labels:
            try:
                out.append(fn(label))
            except _CELL_ERRORS as exc:
                out.append(exc)
        return out
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, label) for label in labels]
        out = []
        for fut in futures:
            try:
                out.append(fut.result())
            except _CELL_ERRORS as exc:
                out.append(exc)
        return out


def _sample_clouds(cfg: ExperimentConfig) -> dict[int, PointCloud]:
    clouds = {}
    for i, n in enumerate(cfg.cardinalities):
        clouds[n] = cfg.surface.sample(n, cfg.seed + i, within=cfg.restriction)
    return clouds


def _sample_evals(cfg: ExperimentConfig) -> PointCloud:
    return cfg.surface.sample(
        cfg.default_eval_count(), cfg.seed + _EVAL_SEED_OFFSET, within=cfg.restriction
    )


def _rank_summary(diag) -> str:
    ok = ~diag.failed
    if not ok.any():
        return "0:0:0"
    ranks = diag.rank[ok]
    return f"{int(ranks.min())}:{int(np.median(ranks))}:{int(ranks.max())}"


# --- sample -------------------------------------------------------------------

def cmd_sample(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    for i, n in enumerate(cfg.cardinalities):
        cloud = cfg.surface.sample(n, cfg.seed + i, within=cfg.restriction)
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

def _mls_cell(cloud, evals, target, m):
    started = time.perf_counter()
    approx, diag = mls_evaluate(
        cloud, target(cloud.points), evals.points, MlsConfig(degree=m)
    )
    exact = target(evals.points)
    ok = ~diag.failed
    err = np.abs(approx[ok] - exact[ok])
    wall = time.perf_counter() - started
    return {
        "diag": diag,
        "max_error": float(err.max()) if ok.any() else float("nan"),
        "rms_error": float(np.sqrt(np.mean(err**2))) if ok.any() else float("nan"),
        "lebesgue": float(diag.lebesgue[ok].max()) if ok.any() else float("nan"),
        "n_failed": int(diag.failed.sum()),
        "wall": wall,
    }


def _fit_rates(degrees, cells_by_m):
    """Per-m least-squares slope of log(max_error) against log(delta)."""
    rates = []
    for m in degrees:
        cells = cells_by_m[m]
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
    os.makedirs(out_dir, exist_ok=True)
    clouds = _sample_clouds(cfg)
    evals = _sample_evals(cfg)

    labels = [(m, n) for m in cfg.degrees for n in cfg.cardinalities]
    results = _run_cells(
        labels, lambda mn: _mls_cell(clouds[mn[1]], evals, target, mn[0]), threads
    )

    rows, timing_rows, manifest = [], [], []
    cells_by_m = {m: [] for m in cfg.degrees}
    for (m, n), res in zip(labels, results):
        cell_id = f"m{m}_N{n}"
        if isinstance(res, Exception):
            manifest.append(
                {"cell": cell_id, "error": type(res).__name__, "message": str(res)}
            )
            continue
        cloud = clouds[n]
        delta = float(res["diag"].base_delta)
        rows.append(
            [
                cell_id,
                m,
                n,
                delta,
                cloud.fill_distance,
                cloud.separation,
                res["max_error"],
                res["rms_error"],
                res["lebesgue"],
                _rank_summary(res["diag"]),
            ]
        )
        timing_rows.append([cell_id, res["wall"]])
        if res["n_failed"]:
            manifest.append(
                {
                    "cell": cell_id,
                    "error": "EvaluationFailed",
                    "message": f"{res['n_failed']} evaluation point(s) failed",
                }
            )
        else:
            cells_by_m[m].append({"delta": delta, "max_error": res["max_error"]})

    _write_csv(
        os.path.join(out_dir, "results.csv"),
        [
            "cell",
            "m",
            "N",
            "delta",
            "h",
            "q",
            "max_error",
            "rms_error",
            "lebesgue_const",
            "rank_min_med_max",
        ],
        rows,
    )
    rates = _fit_rates(cfg.degrees, cells_by_m)
    _write_json(os.path.join(out_dir, "rates.json"), {"rates": rates})
    _write_csv(os.path.join(out_dir, "timings.csv"), ["cell", "seconds"], timing_rows)
    _write_json(os.path.join(out_dir, "errors.json"), manifest)
    print(json.dumps({"rates": rates}))
    return len(manifest)


# --- lebesgue -------------------------------------------------------------------

def cmd_lebesgue(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    clouds = _sample_clouds(cfg)
    evals = _sample_evals(cfg)

    def cell(mn):
        m, n = mn
        started = time.perf_counter()
        _, diag = shape_function_matrix(clouds[n], evals.points, MlsConfig(degree=m))
        return {"diag": diag, "wall": time.perf_counter() - started}

    labels = [(m, n) for m in cfg.degrees for n in cfg.cardinalities]
    results = _run_cells(labels, cell, threads)

    rows, timing_rows, manifest = [], [], []
    for (m, n), res in zip(labels, results):
        cell_id = f"m{m}_N{n}"
        if isinstance(res, Exception):
            manifest.append(
                {"cell": cell_id, "error": type(res).__name__, "message": str(res)}
            )
            continue
        diag = res["diag"]
        ok = ~diag.failed
        constant = float(diag.lebesgue[ok].max()) if ok.any() else float("nan")
        rows.append(
            [cell_id, m, n, float(diag.base_delta), constant, int(len(evals))]
        )
        _field_csv(
            os.path.join(out_dir, f"lebesgue_field_m{m}_N{n}.csv"),
            evals.points,
            diag.lebesgue,
        )
        timing_rows.append([cell_id, res["wall"]])
        if diag.failed.any():
            manifest.append(
                {
                    "cell": cell_id,
                    "error": "EvaluationFailed",
                    "message": f"{int(diag.failed.sum())} evaluation point(s) failed",
                }
            )

    _write_csv(
        os.path.join(out_dir, "lebesgue_constants.csv"),
        ["cell", "m", "N", "delta", "lebesgue_const", "n_eval"],
        rows,
    )
    _write_csv(os.path.join(out_dir, "timings.csv"), ["cell", "seconds"], timing_rows)
    _write_json(os.path.join(out_dir, "errors.json"), manifest)
    print(json.dumps({"cells": len(rows), "failed": len(manifest)}))
    return len(manifest)


# --- noise ----------------------------------------------------------------------

def cmd_noise(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    if cfg.sigma_list is None:
        raise ConfigError("noise needs a 'sigma_list'")
    if cfg.trials is None:
        raise ConfigError("noise needs 'trials' (>= 2)")
    target = cfg.target()
    os.makedirs(out_dir, exist_ok=True)
    clouds = _sample_clouds(cfg)
    evals = _sample_evals(cfg)

    def cell(mns):
        m, n, sigma = mns
        started = time.perf_counter()
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
        return {"mean": mean, "std": std, "wall": time.perf_counter() - started}

    labels = [
        (m, n, s) for m in cfg.degrees for n in cfg.cardinalities for s in cfg.sigma_list
    ]
    results = _run_cells(labels, cell, threads)

    rows, timing_rows, manifest = [], [], []
    for (m, n, sigma), res in zip(labels, results):
        cell_id = f"m{m}_N{n}_s{sigma:g}"
        if isinstance(res, Exception):
            manifest.append(
                {"cell": cell_id, "error": type(res).__name__, "message": str(res)}
            )
            continue
        rows.append([cell_id, m, n, sigma, res["mean"], res["std"]])
        timing_rows.append([cell_id, res["wall"]])

    _write_csv(
        os.path.join(out_dir, "stability.csv"),
        ["cell", "m", "N", "sigma", "mean_max_diff", "std_max_diff"],
        rows,
    )
    _write_csv(os.path.join(out_dir, "timings.csv"), ["cell", "seconds"], timing_rows)
    _write_json(os.path.join(out_dir, "errors.json"), manifest)
    print(json.dumps({"cells": len(rows), "failed": len(manifest)}))
    return len(manifest)


# --- power ----------------------------------------------------------------------

def cmd_power(cfg: ExperimentConfig, out_dir: str, threads: int) -> int:
    if cfg.kernel_order is None:
        raise ConfigError("power needs a 'kernel_order'")
    if not cfg.surface.is_algebraic:
        raise ConfigError("power needs an algebraic surface, not a mesh")
    spec = KernelSpec(cfg.kernel_order)
    os.makedirs(out_dir, exist_ok=True)
    study = power_rate_study(
        spec, cfg.surface.surface, cfg.cardinalities, cfg.seed, within=cfg.restriction
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
            level.system.power_values(level.sites.points),
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
    if not cfg.surface.is_algebraic:
        raise ConfigError("info needs an algebraic surface, not a mesh")
    surface = cfg.surface.surface
    os.makedirs(out_dir, exist_ok=True)
    n = min(cfg.cardinalities)
    cloud = cfg.surface.sample(n, cfg.seed, within=cfg.restriction)
    n_eval = cfg.eval_count if cfg.eval_count is not None else 512
    evals = cfg.surface.sample(
        n_eval, cfg.seed + _EVAL_SEED_OFFSET, within=cfg.restriction
    )

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
