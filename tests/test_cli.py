"""End-to-end tests for the config schema and the experiment commands.

Runs invoke ``main(argv)`` in-process; outputs are compared byte-for-byte
where determinism is the contract.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mfmls
from mfmls.cli.config import TARGETS, parse_config
from mfmls.cli.main import main, resolve_threads
from mfmls.errors import ConfigError
from mfmls.geometry.cloud import BallRestriction, load_csv
from mfmls.geometry.sampling import sample_quasi_uniform
from mfmls.geometry.presets import cyclide_patch_center
from mfmls.geometry.surface import AlgebraicSurface
from mfmls.mls import select_delta
from mfmls.polybasis import basis_size
from mfmls.rbf import KernelSpec, matern_eval


def base_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "surface": {"preset": "sphere"},
        "degrees": [0, 1],
        "cardinalities": [80, 160, 320],
        "seed": 5,
        "target": "trig",
        "eval_count": 300,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    cfg = base_config(tmp_path, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- schema strictness -------------------------------------------------------

def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cardnalities"):
        parse_config(base_config(tmp_path, cardnalities=[10]))


def test_unknown_surface_key_rejected(tmp_path):
    cfg = base_config(tmp_path)
    cfg["surface"] = {"preset": "sphere", "radis": 2.0}
    with pytest.raises(ConfigError, match="radis"):
        parse_config(cfg)


def test_version_checked(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["version"]
    with pytest.raises(ConfigError, match="version"):
        parse_config(cfg)
    with pytest.raises(ConfigError, match="version"):
        parse_config(base_config(tmp_path, version=7))


@pytest.mark.parametrize(
    "field,value",
    [
        ("degrees", []),
        ("cardinalities", []),
        ("cardinalities", [0]),
        ("degrees", [-1]),
        ("sigma_list", []),
        ("sigma_list", [-0.1]),
        ("trials", 1),
        ("target", "sinc"),
        ("noise_reference", "both"),
        ("eval_count", 0),
        ("seed", "five"),
        ("cardinalities", [80, 80, 160]),
        ("degrees", [0, 1, 0]),
        ("sigma_list", [10**400]),
        ("seed", -1),
    ],
)
def test_bad_field_values_rejected(tmp_path, field, value):
    with pytest.raises(ConfigError):
        parse_config(base_config(tmp_path, **{field: value}))


PATCH = {"center": "patch", "radius": 1.0}


@pytest.mark.parametrize(
    "surface,restriction",
    [
        ({"preset": "sphere", "radius": 0}, None),
        ({"preset": "sphere", "radius": -1.0}, None),
        ({"preset": "torus", "ring_radius": 1.0, "tube_radius": 1.5}, None),
        ({"preset": "torus", "tube_radius": 0}, None),
        ({"preset": "cyclide", "a": 1.0, "b": 2.0}, None),
        ({"preset": "cyclide", "d": 3.0}, None),
        ({"preset": "cyclide", "a": 3.0, "b": 2.9}, PATCH),
        ({"preset": "cyclide", "d": 0.5}, PATCH),
    ],
    ids=["sphere-zero", "sphere-negative", "torus-tube-above-ring", "torus-zero-tube",
         "cyclide-a-below-b", "cyclide-d-above-a", "patch-not-real", "patch-off-surface"],
)
def test_bad_preset_parameters_rejected(tmp_path, surface, restriction):
    cfg = base_config(tmp_path, surface=surface, restriction=restriction)
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_bad_preset_parameters_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, surface={"preset": "cyclide", "a": 1.0, "b": 2.0})
    assert main(["sample", "--config", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("sample", {"restriction": {"center": [0.0, 0.0, 1.0], "radius": math.nan}}),
        ("sample", {"restriction": {"center": [math.nan, 0.0, 0.0], "radius": 0.5}}),
        ("noise", {"sigma_list": [math.nan], "trials": 2}),
        ("sample", {"surface": {
            "coefficients": {"2,0,0": 1.0, "0,2,0": 1.0, "0,0,2": 1.0, "0,0,0": -1.0},
            "bbox": [[-math.inf, -1.1, -1.1], [1.1, 1.1, 1.1]]}}),
        ("power", {"kernel_order": 1}),
        ("sample", {"seed": -1}),
    ],
    ids=["nan-radius", "nan-center", "nan-sigma", "infinite-bbox", "kernel-order-1",
         "negative-seed"],
)
def test_bad_numbers_exit_2(tmp_path, capsys, command, overrides):
    cfg_path = write_config(tmp_path, **overrides)
    assert main([command, "--config", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_preset_rejected(tmp_path):
    cfg = base_config(tmp_path)
    cfg["surface"] = {"preset": "klein-bottle"}
    with pytest.raises(ConfigError, match="klein-bottle"):
        parse_config(cfg)


def test_preset_and_coefficients_exclusive(tmp_path):
    cfg = base_config(tmp_path)
    cfg["surface"] = {"preset": "sphere", "coefficients": {"2,0,0": 1.0}}
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_raw_coefficient_surface(tmp_path):
    cfg = base_config(tmp_path)
    cfg["surface"] = {
        "coefficients": {"2,0,0": 1.0, "0,2,0": 1.0, "0,0,2": 1.0, "0,0,0": -1.0},
        "bbox": [[-1.1, -1.1, -1.1], [1.1, 1.1, 1.1]],
    }
    parsed = parse_config(cfg)
    assert isinstance(parsed.surface, AlgebraicSurface)
    assert parsed.surface.degree == 2
    cloud = parsed.sample(50, seed=1)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-9


def test_bad_coefficient_key(tmp_path):
    cfg = base_config(tmp_path)
    cfg["surface"] = {
        "coefficients": {"two,0,0": 1.0},
        "bbox": [[-1, -1, -1], [1, 1, 1]],
    }
    with pytest.raises(ConfigError, match="exponent"):
        parse_config(cfg)


@pytest.mark.parametrize(
    "surface, message",
    [({"coefficients": {"2": 1.0, "0": -0.25}, "bbox": [[-1], [1]]}, "at least 2"),
     ({"coefficients": {"2,0,0": 0.0}, "bbox": [[-1, -1, -1], [1, 1, 1]]}, "identically zero")],
    ids=["one-variable", "all-zero"],
)
def test_polynomial_without_a_surface_exits_2(tmp_path, capsys, surface, message):
    # A polynomial in one variable vanishes at finitely many points, and the
    # zero polynomial everywhere: neither zero set is a manifold to sample.
    cfg_path = write_config(tmp_path, surface=surface)
    assert main(["sample", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_patch_restriction_needs_cyclide(tmp_path):
    cfg = base_config(tmp_path, restriction={"center": "patch", "radius": 1.0})
    with pytest.raises(ConfigError, match="cyclide"):
        parse_config(cfg)


def test_restriction_on_mesh_rejected(tmp_path, square_mesh):
    cfg = base_config(
        tmp_path,
        restriction={"center": [0.5, 0.5, 0.0], "radius": 0.3},
    )
    cfg["surface"] = {"preset": "mesh", "path": square_mesh}
    with pytest.raises(ConfigError, match="mesh"):
        parse_config(cfg)


def test_target_registry_has_documented_names():
    assert set(TARGETS) == {"trig", "affine", "quadratic"}


# --- thread resolution ---------------------------------------------------------

def test_resolve_threads_precedence():
    assert resolve_threads(None) == 1
    assert resolve_threads(3) == 3
    with pytest.raises(ConfigError):
        resolve_threads(0)


# --- sample ---------------------------------------------------------------------

def test_sample_deterministic_and_summarized(tmp_path, capsys):
    cfg_path = write_config(tmp_path, cardinalities=[100])
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sample", "--config", cfg_path, "--out", str(out_a)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["N"] == 100
    assert summary["h"] > 0 and summary["q"] > 0
    assert summary["h_over_q"] == pytest.approx(summary["h"] / summary["q"])
    assert main(["sample", "--config", cfg_path, "--out", str(out_b)]) == 0
    file_a = (out_a / "points_N100.csv").read_bytes()
    file_b = (out_b / "points_N100.csv").read_bytes()
    assert file_a == file_b
    assert len(file_a.splitlines()) == summary["n_points"] + 1


def test_sampling_failure_exits_1(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, restriction={"center": [100.0, 100.0, 100.0], "radius": 1.0}
    )
    assert main(["sample", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: SamplingFailed: restriction ball does not meet the surface bounding box\n"
    )


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["sample", "--config", cfg_path, "--seed", "-5"]) == 2
    assert "config error: --seed must be >= 0" in capsys.readouterr().err


def test_sample_seed_flag_changes_cloud(tmp_path, capsys):
    cfg_path = write_config(tmp_path, cardinalities=[60])
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["sample", "--config", cfg_path, "--out", str(out_a)])
    main(["sample", "--config", cfg_path, "--out", str(out_b), "--seed", "99"])
    capsys.readouterr()
    assert (out_a / "points_N60.csv").read_bytes() != (
        out_b / "points_N60.csv"
    ).read_bytes()


@pytest.fixture(scope="module")
def square_mesh(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "square.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 3 4\n"
    )
    return str(path)


def test_sample_from_mesh(tmp_path, capsys, square_mesh):
    cfg_path = write_config(tmp_path, cardinalities=[50])
    cfg = json.loads(open(cfg_path).read())
    cfg["surface"] = {"preset": "mesh", "path": square_mesh}
    open(cfg_path, "w").write(json.dumps(cfg))
    out = tmp_path / "meshout"
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["n_points"] == 50
    pts = np.loadtxt(out / "points_N50.csv", delimiter=",", skiprows=1)
    assert np.all(pts[:, 2] == 0.0)
    assert pts[:, :2].min() >= 0.0 and pts[:, :2].max() <= 1.0


def test_sample_missing_mesh_path(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    cfg = json.loads(open(cfg_path).read())
    cfg["surface"] = {"preset": "mesh", "path": str(tmp_path / "nope.obj")}
    open(cfg_path, "w").write(json.dumps(cfg))
    assert main(["sample", "--config", cfg_path]) == 2
    assert "nope.obj" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("v nan 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "vertex 0 is not finite"),
        ("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n", "no non-degenerate triangles"),
        ("v 0 0 0\nv 1 0 0\nf 1 2\n", "face needs at least 3 vertices"),
    ],
)
def test_bad_mesh_file_exits_2(tmp_path, capsys, text, message):
    mesh_path = tmp_path / "bad.obj"
    mesh_path.write_text(text)
    cfg_path = write_config(tmp_path, surface={"preset": "mesh", "path": str(mesh_path)})
    assert main(["sample", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.obj" in err and message in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["sample", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.slow
def test_sample_cyclide_at_ladder_scale(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, cardinalities=[16384], surface={"preset": "cyclide"}
    )
    out = tmp_path / "big"
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert abs(summary["n_points"] - 16384) <= 0.1 * 16384


# --- convergence -----------------------------------------------------------------

@pytest.fixture(scope="module")
def conv_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("conv")
    cfg_path = write_config(tmp)
    out = tmp / "out"
    code = main(["convergence", "--config", cfg_path, "--out", str(out)])
    return {"tmp": tmp, "cfg_path": cfg_path, "out": out, "code": code}


def _read_csv_rows(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_convergence_outputs(conv_run):
    assert conv_run["code"] == 0
    header, rows = _read_csv_rows(conv_run["out"] / "results.csv")
    assert header == [
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
    ]
    assert len(rows) == 6  # two degrees x three cardinalities
    for row in rows:
        assert float(row[3]) > 0 and float(row[4]) > 0 and float(row[5]) > 0
        assert float(row[6]) > 0 and math.isfinite(float(row[6]))
    manifest = json.loads((conv_run["out"] / "errors.json").read_text())
    assert manifest == []
    rates = json.loads((conv_run["out"] / "rates.json").read_text())["rates"]
    assert [r["m"] for r in rates] == [0, 1]
    for r in rates:
        assert r["n_cells"] == 3 and not r["exact"]
        assert r["slope"] > 0
    timings_header, timings = _read_csv_rows(conv_run["out"] / "timings.csv")
    assert timings_header == ["cell", "seconds"]
    assert len(timings) == 6


def test_convergence_deltas_rederivable(conv_run):
    # The emitted delta must equal the documented policy applied to the
    # deterministically re-derived cloud and eval set, digit for digit.
    cfg = parse_config(json.loads(open(conv_run["cfg_path"]).read()))
    evals = cfg.sample(cfg.eval_count, cfg.seed + 999983)
    _, rows = _read_csv_rows(conv_run["out"] / "results.csv")
    for row in rows:
        m, n = int(row[1]), int(row[2])
        idx = cfg.cardinalities.index(n)
        cloud = cfg.sample(n, cfg.seed + idx)
        delta = select_delta(cloud, evals.points, basis_size(3, m))
        assert row[3] == f"{delta:.17g}"


def test_convergence_needs_three_cardinalities(tmp_path, capsys):
    cfg_path = write_config(tmp_path, cardinalities=[100])
    out = tmp_path / "short"
    assert main(["convergence", "--config", cfg_path, "--out", str(out)]) == 2
    assert "3 cardinalities" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_convergence_exact_polynomial_flag(tmp_path):
    cfg_path = write_config(
        tmp_path, target="affine", degrees=[1], cardinalities=[60, 120, 240],
        eval_count=200,
    )
    out = tmp_path / "exact"
    assert main(["convergence", "--config", cfg_path, "--out", str(out)]) == 0
    _, rows = _read_csv_rows(out / "results.csv")
    assert all(float(row[6]) <= 1e-9 for row in rows)
    rates = json.loads((out / "rates.json").read_text())["rates"]
    assert rates[0]["exact"] is True
    assert rates[0]["slope"] is None


# --- lebesgue --------------------------------------------------------------------

def test_lebesgue_outputs(tmp_path):
    cfg_path = write_config(
        tmp_path, degrees=[0, 2], cardinalities=[150], eval_count=250
    )
    out = tmp_path / "leb"
    assert main(["lebesgue", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _read_csv_rows(out / "lebesgue_constants.csv")
    assert header == ["cell", "m", "N", "delta", "lebesgue_const", "n_eval"]
    by_m = {int(r[1]): r for r in rows}
    assert float(by_m[0][4]) == pytest.approx(1.0, abs=1e-12)
    assert float(by_m[2][4]) >= 1.0
    n_eval = int(rows[0][5])
    for m in (0, 2):
        _, field_rows = _read_csv_rows(out / f"lebesgue_field_m{m}_N150.csv")
        assert len(field_rows) == n_eval


def test_lebesgue_largest_near_patch_boundary(tmp_path):
    cfg_path = write_config(
        tmp_path,
        surface={"preset": "cyclide"},
        restriction={"center": "patch", "radius": 1.0},
        degrees=[2],
        cardinalities=[600],
        eval_count=400,
        seed=5,
    )
    out = tmp_path / "lebpatch"
    assert main(["lebesgue", "--config", cfg_path, "--out", str(out)]) == 0
    _, field_rows = _read_csv_rows(out / "lebesgue_field_m2_N600.csv")
    data = np.array([[float(v) for v in row] for row in field_rows])
    dist = np.linalg.norm(data[:, :3] - cyclide_patch_center(), axis=1)
    band = data[dist > 0.9, 3]
    interior = data[dist < 0.6, 3]
    assert band.size > 5 and interior.size > 5
    assert np.nanmax(band) >= np.nanmax(interior)


# --- noise -----------------------------------------------------------------------

def test_noise_sigma_ratio(tmp_path):
    cfg_path = write_config(
        tmp_path,
        degrees=[0],
        cardinalities=[200],
        sigma_list=[0.01, 0.1],
        trials=6,
        eval_count=150,
        seed=9,
    )
    out = tmp_path / "noise"
    assert main(["noise", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _read_csv_rows(out / "stability.csv")
    assert header == ["cell", "m", "N", "sigma", "mean_max_diff", "std_max_diff"]
    assert len(rows) == 2
    mean_small = float(rows[0][4])
    mean_big = float(rows[1][4])
    # the study is exactly linear in sigma against the clean reference
    assert mean_big / mean_small == pytest.approx(10.0, rel=1e-9)
    assert float(rows[0][5]) >= 0 and float(rows[1][5]) >= 0


def test_noise_sigma_zero_reproduces_convergence_error(tmp_path):
    shared = dict(degrees=[1], cardinalities=[100, 200, 300], eval_count=150, seed=7)
    conv_cfg = write_config(tmp_path, name="conv.json", **shared)
    out_conv = tmp_path / "conv"
    assert main(["convergence", "--config", conv_cfg, "--out", str(out_conv)]) == 0
    noise_cfg = write_config(
        tmp_path,
        name="noise.json",
        sigma_list=[0.0],
        trials=2,
        noise_reference="exact",
        **shared,
    )
    out_noise = tmp_path / "noisez"
    assert main(["noise", "--config", noise_cfg, "--out", str(out_noise)]) == 0
    _, conv_rows = _read_csv_rows(out_conv / "results.csv")
    _, noise_rows = _read_csv_rows(out_noise / "stability.csv")
    conv_by_n = {int(r[2]): float(r[6]) for r in conv_rows}
    for row in noise_rows:
        assert float(row[4]) == pytest.approx(conv_by_n[int(row[2])], rel=1e-12)
        assert float(row[5]) == 0.0


def test_noise_requires_sigma_and_trials(tmp_path, capsys):
    cfg_path = write_config(tmp_path, cardinalities=[100])
    assert main(["noise", "--config", cfg_path]) == 2
    assert "sigma_list" in capsys.readouterr().err


CIRCLE = {"coefficients": {"2,0": 1.0, "0,2": 1.0, "0,0": -1.0},
          "bbox": [[-1.1, -1.1], [1.1, 1.1]]}


def test_field_csvs_head_coordinates_like_point_csvs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, surface=CIRCLE, degrees=[1],
                            cardinalities=[40, 50, 120], eval_count=100,
                            kernel_order=3)
    out = tmp_path / "out"
    for command in ("sample", "lebesgue", "power"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "points_N40.csv").read_text().startswith("x,y\n")
    for name in ("lebesgue_field_m1_N40.csv", "power_field_N40.csv",
                 "power_sites_N40.csv"):
        assert (out / name).read_text().startswith("x,y,value\n"), name


@pytest.mark.parametrize("command", ["convergence", "noise"])
def test_named_target_outside_r3_exits_2(tmp_path, capsys, command):
    # The named targets read x, y and z; a plane curve has no z.
    cfg_path = write_config(tmp_path, surface=CIRCLE, sigma_list=[0.0], trials=2)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert "R^2" in capsys.readouterr().err
    assert not out.exists()


# --- power -----------------------------------------------------------------------

def test_power_outputs(tmp_path, monkeypatch):
    import mfmls.cli.config
    import mfmls.rbf

    sampled = []

    def counting_sampler(surface, n, seed, **kwargs):
        sampled.append((n, seed))
        return sample_quasi_uniform(surface, n, seed, **kwargs)

    for module in (mfmls.rbf, mfmls.cli.config):
        monkeypatch.setattr(module, "sample_quasi_uniform", counting_sampler)
    cfg_path = write_config(
        tmp_path,
        surface={"preset": "torus"},
        cardinalities=[30, 60, 120],
        kernel_order=4,
        seed=3,
    )
    out = tmp_path / "power"
    assert main(["power", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "power_rate.json").read_text())
    assert summary["site_counts"] == [30, 60, 120]
    assert summary["slope"] > 0.5
    assert np.all(np.diff(summary["sup_power"]) < 0)
    phi0 = float(matern_eval(KernelSpec(4), 0.0))
    _, site_rows = _read_csv_rows(out / "power_sites_N30.csv")
    site_vals = np.array([float(r[3]) for r in site_rows])
    assert site_vals.max() <= 1e-6 * math.sqrt(phi0)
    _, field_rows = _read_csv_rows(out / "power_field_N30.csv")
    assert len(field_rows) > 150  # probes are 8x denser than sites
    # One site and one probe cloud per level; the CSVs reuse the study's.
    assert len(sampled) == 6


def test_power_restricted_to_patch(tmp_path):
    cfg_path = write_config(
        tmp_path,
        surface={"preset": "cyclide"},
        restriction={"center": "patch", "radius": 1.0},
        cardinalities=[30, 45, 60],
        kernel_order=4,
        seed=3,
    )
    out = tmp_path / "power"
    assert main(["power", "--config", cfg_path, "--out", str(out)]) == 0
    patch = BallRestriction(cyclide_patch_center(), 1.0)
    for n in (30, 45, 60):
        for name in (f"power_sites_N{n}.csv", f"power_field_N{n}.csv"):
            _, rows = _read_csv_rows(out / name)
            pts = np.array([[float(v) for v in row[:3]] for row in rows])
            assert len(pts) > 0 and patch.contains(pts).all(), name


def test_power_requires_kernel_order(tmp_path, capsys):
    cfg_path = write_config(tmp_path, surface={"preset": "torus"})
    assert main(["power", "--config", cfg_path]) == 2
    assert "kernel_order" in capsys.readouterr().err


def test_power_rejects_mesh_surface(tmp_path, capsys, square_mesh):
    cfg_path = write_config(tmp_path, kernel_order=4)
    cfg = json.loads(open(cfg_path).read())
    cfg["surface"] = {"preset": "mesh", "path": square_mesh}
    open(cfg_path, "w").write(json.dumps(cfg))
    assert main(["power", "--config", cfg_path]) == 2
    assert "algebraic" in capsys.readouterr().err


# --- info ------------------------------------------------------------------------

def test_info_reports_dimensions(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        surface={"preset": "cyclide"},
        degrees=[3, 4],
        cardinalities=[400],
        eval_count=200,
        seed=11,
    )
    out = tmp_path / "info"
    assert main(["info", "--config", cfg_path, "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["ambient_dim"] == 3
    assert info["surface_degree"] == 4
    per = {entry["m"]: entry for entry in info["per_degree"]}
    # below the surface degree the restriction changes nothing: 20 = C(6,3)
    assert per[3]["restricted_dim"] == 20
    assert per[3]["restricted_dim"] == per[3]["ambient_dim_poly"]
    # at m=4 the quartic relation removes one dimension: 2 m^2 + 2 = 34
    assert per[4]["restricted_dim"] == 34
    assert per[4]["ambient_dim_poly"] == 35
    for entry in per.values():
        assert 0 < entry["observed_median_rank"] <= entry["restricted_dim"]
    on_disk = json.loads((out / "info.json").read_text())
    assert on_disk == info


def test_info_fits_the_cloud_sample_writes(tmp_path, monkeypatch):
    # info fits the smallest cardinality's cloud, drawn from seed + index as
    # for every other command, here from seed + 1.
    import mfmls.cli.runner as runner

    fitted = []
    real = runner.shape_function_matrix

    def recording(cloud, *args, **kwargs):
        fitted.append(cloud.points)
        return real(cloud, *args, **kwargs)

    monkeypatch.setattr(runner, "shape_function_matrix", recording)
    cfg_path = write_config(
        tmp_path, surface={"preset": "cyclide"}, degrees=[1],
        cardinalities=[800, 400], eval_count=100, seed=11,
    )
    out = tmp_path / "out"
    assert main(["info", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
    assert len(fitted) == 1
    assert np.array_equal(fitted[0], load_csv(out / "points_N400.csv").points)


def test_power_byte_deterministic_across_runs_and_threads(tmp_path):
    cfg_path = write_config(
        tmp_path, surface={"preset": "sphere"}, cardinalities=[30, 60, 120],
        kernel_order=3, seed=8,
    )
    outs = [tmp_path / "p1", tmp_path / "p2", tmp_path / "p3"]
    for out, threads in zip(outs, ("1", "1", "2")):
        assert main(["power", "--config", cfg_path, "--out", str(out),
                     "--threads", threads]) == 0
    names = sorted(os.listdir(outs[0]))
    assert "power_rate.json" in names and len(names) == 7
    for out in outs[1:]:
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


def test_python_dash_m_mfmls_runs_the_cli_without_warnings():
    src = os.path.dirname(os.path.dirname(mfmls.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mfmls", "--help"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mfmls")


def test_bad_out_directory_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, surface={"preset": "torus"}, kernel_order=4)
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("a regular file\n")
    assert main(["power", "--config", cfg_path, "--out", str(not_a_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "taken" in err
    assert len(err.strip().splitlines()) == 1
    assert not_a_dir.read_text() == "a regular file\n"


# --- cell tables: convergence, lebesgue, noise -----------------------------------

# Each table command's table file and the library call it makes once per cell.
TABLE_COMMANDS = {
    "convergence": ("results.csv", "mls_evaluate"),
    "lebesgue": ("lebesgue_constants.csv", "shape_function_matrix"),
    "noise": ("stability.csv", "noise_study"),
}


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_byte_deterministic_across_threads(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, sigma_list=[0.0, 0.05], trials=3)
    outs = [tmp_path / "t1", tmp_path / "t3"]
    stdouts = []
    for out, threads in zip(outs, ("1", "3")):
        assert main([command, "--config", cfg_path, "--out", str(out),
                     "--threads", threads]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    names = sorted(os.listdir(outs[0]))
    assert "errors.json" in names and "timings.csv" in names
    assert sorted(os.listdir(outs[1])) == names
    for name in names:
        if name != "timings.csv":
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_cell_linalg_error_lands_in_manifest(tmp_path, monkeypatch, command, threads):
    import mfmls.cli.runner as runner
    from mfmls.mls import MlsConfig

    table, cell_call = TABLE_COMMANDS[command]
    real = getattr(runner, cell_call)

    def failing_cell(cloud, *args, **kwargs):
        config = next(a for a in args if isinstance(a, MlsConfig))
        if config.degree == 1 and len(cloud) < 90:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(cloud, *args, **kwargs)

    monkeypatch.setattr(runner, cell_call, failing_cell)
    cfg_path = write_config(tmp_path, cardinalities=[60, 120, 240], eval_count=200,
                            sigma_list=[0.05], trials=2)
    out = tmp_path / "table"
    assert main([command, "--config", cfg_path, "--out", str(out),
                 "--threads", threads]) == 1
    suffix = "_s0.05" if command == "noise" else ""
    kept = ["m0_N60", "m0_N120", "m0_N240", "m1_N120", "m1_N240"]
    _, rows = _read_csv_rows(out / table)
    assert [row[0] for row in rows] == [cell + suffix for cell in kept]
    errors = json.loads((out / "errors.json").read_text())
    assert errors == [{"cell": "m1_N60" + suffix, "error": "LinAlgError",
                       "message": "SVD did not converge"}]
    _, timings = _read_csv_rows(out / "timings.csv")
    assert [row[0] for row in timings] == [row[0] for row in rows]
    if command == "lebesgue":
        fields = {name for name in os.listdir(out) if name.startswith("lebesgue_field_")}
        assert fields == {f"lebesgue_field_{cell}.csv" for cell in kept}


def test_failed_evaluation_points_keep_the_row(tmp_path, monkeypatch):
    # Every point fails at m=1, and the first point fails in two of the
    # three m=0 cells: the rows stay, the manifest names each cell, and
    # the slope fit sees no m=1 cell and one m=0 cell.
    import mfmls.cli.runner as runner

    real = runner.mls_evaluate
    n_eval = []

    def failing_points(cloud, values, points, config):
        approx, diag = real(cloud, values, points, config)
        n_eval.append(len(points))
        mask = np.zeros(len(points), dtype=bool)
        if config.degree == 1:
            mask[:] = True
        elif len(cloud) < 200:
            mask[0] = True
        diag.failed[mask] = True
        diag.rank[mask] = 0
        diag.lebesgue[mask] = np.nan
        approx[mask] = np.nan
        return approx, diag

    monkeypatch.setattr(runner, "mls_evaluate", failing_points)
    cfg_path = write_config(tmp_path, cardinalities=[60, 120, 240], eval_count=200)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg_path, "--out", str(out)]) == 1
    _, rows = _read_csv_rows(out / "results.csv")
    assert [row[0] for row in rows] == [
        "m0_N60", "m0_N120", "m0_N240", "m1_N60", "m1_N120", "m1_N240"]
    assert [row[9] for row in rows[3:]] == ["0:0:0"] * 3
    assert all(row[6] == "nan" for row in rows[3:])
    errors = json.loads((out / "errors.json").read_text())
    every = n_eval[0]
    assert errors == [
        {"cell": cell, "error": "EvaluationFailed",
         "message": f"{count} evaluation point(s) failed"}
        for cell, count in [("m0_N60", 1), ("m0_N120", 1), ("m1_N60", every),
                            ("m1_N120", every), ("m1_N240", every)]
    ]
    rates = json.loads((out / "rates.json").read_text())["rates"]
    assert rates == [
        {"m": 0, "n_cells": 1, "exact": False, "slope": None, "flag": "too-few-cells"},
        {"m": 1, "n_cells": 0, "exact": False, "slope": None, "flag": "no-usable-cells"},
    ]


def test_cells_run_in_the_callers_context(tmp_path, monkeypatch):
    import mfmls.cli.runner as runner

    marker = contextvars.ContextVar("marker", default=None)
    real = runner.mls_evaluate
    seen = []

    def recording_cell(*args, **kwargs):
        seen.append((marker.get(), threading.get_ident()))
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "mls_evaluate", recording_cell)
    cfg_path = write_config(tmp_path)
    token = marker.set("caller")
    try:
        assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "out"),
                     "--threads", "2"]) == 0
    finally:
        marker.reset(token)
    assert [value for value, _ in seen] == ["caller"] * 6
    assert any(ident != threading.get_ident() for _, ident in seen)
