"""Strict JSON experiment configuration.

Configs are plain JSON with an explicit ``version`` field. The schema is
closed: unknown keys anywhere raise :class:`ConfigError`, because a silently
ignored typo ("cardnalities") can corrupt a whole study. All randomness is
seeded from the config (or the ``--seed`` override); there is no wall-clock
seeding path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EmptyMesh, KernelOrderError, MeshFormatError
from ..geometry.cloud import BallRestriction, PointCloud
from ..geometry.mesh import TriMesh, load_obj, sample_mesh
from ..geometry.presets import cyclide, cyclide_patch_center, sphere, torus
from ..geometry.sampling import sample_quasi_uniform
from ..geometry.surface import AlgebraicSurface
from ..rbf import KernelSpec

CONFIG_VERSION = 1

_TOP_KEYS = {
    "version",
    "surface",
    "degrees",
    "cardinalities",
    "restriction",
    "target",
    "sigma_list",
    "trials",
    "seed",
    "output_dir",
    "eval_count",
    "kernel_order",
    "noise_reference",
}
_TOP_REQUIRED = {"version", "surface", "degrees", "cardinalities", "seed"}


# --- named target functions ---------------------------------------------------

def _target_trig(pts: np.ndarray) -> np.ndarray:
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return (
        np.cos(np.pi * (x - 0.3))
        * np.sin(2 * np.pi * (y - 0.2))
        * np.cos(3 * np.pi * (z - 0.1))
    )


def _target_affine(pts: np.ndarray) -> np.ndarray:
    return 0.5 + pts[:, 0] - 2.0 * pts[:, 1] + 0.25 * pts[:, 2]


def _target_quadratic(pts: np.ndarray) -> np.ndarray:
    return 1.0 + pts[:, 0] * pts[:, 1] - pts[:, 2] ** 2 + 0.5 * pts[:, 1]


#: Named test functions selectable via the config ``target`` field.
TARGETS = {
    "trig": _target_trig,
    "affine": _target_affine,
    "quadratic": _target_quadratic,
}


# Preset constructors and their config keys. The presets supply the
# defaults and reject invalid parameters themselves.
_PRESETS = {
    "sphere": (sphere, ("radius",)),
    "torus": (torus, ("ring_radius", "tube_radius")),
    "cyclide": (cyclide, ("a", "b", "d")),
}


def _check_keys(d: dict, allowed: set, required: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {where}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    # json reads NaN, Infinity and ints too large for a float.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _built(make, where: str, *args, **kwargs):
    """``make(*args, **kwargs)``, raising its ``ValueError`` as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _int_list(value, where: str, minimum: int) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list")
    out = tuple(_as_int(v, f"{where} entry") for v in value)
    if any(v < minimum for v in out):
        raise ConfigError(f"{where} entries must be >= {minimum}, got {list(out)}")
    if len(set(out)) != len(out):
        raise ConfigError(f"{where} entries must be distinct, got {list(out)}")
    return out


def _parse_surface(spec, where: str = "surface") -> AlgebraicSurface | TriMesh:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    if "preset" in spec and "coefficients" in spec:
        raise ConfigError(f"{where} cannot mix a preset with raw coefficients")
    if "preset" in spec:
        name = spec["preset"]
        if isinstance(name, str) and name in _PRESETS:
            make, params = _PRESETS[name]
            _check_keys(spec, {"preset", *params}, {"preset"}, where)
            kwargs = {
                key: _as_number(spec[key], f"{where}.{key}")
                for key in params if key in spec
            }
            return _built(make, where, **kwargs)
        if name == "mesh":
            _check_keys(spec, {"preset", "path"}, {"preset", "path"}, where)
            path = spec["path"]
            if not isinstance(path, str):
                raise ConfigError(f"{where}.path must be a string")
            try:
                mesh = load_obj(path)
            except OSError as exc:
                raise ConfigError(f"cannot read mesh file {path!r}: {exc}") from exc
            except (MeshFormatError, EmptyMesh) as exc:
                raise ConfigError(f"bad mesh file {path!r}: {exc}") from exc
            return mesh
        raise ConfigError(
            f"unknown surface preset {name!r}; "
            "expected sphere, torus, cyclide, or mesh"
        )
    if "coefficients" in spec:
        _check_keys(spec, {"coefficients", "bbox"}, {"coefficients", "bbox"}, where)
        coeff_map = spec["coefficients"]
        if not isinstance(coeff_map, dict) or not coeff_map:
            raise ConfigError(f"{where}.coefficients must be a nonempty object")
        parsed = {}
        dims = set()
        for key, val in coeff_map.items():
            try:
                exponent = tuple(int(part) for part in key.split(","))
            except ValueError:
                raise ConfigError(
                    f"{where}.coefficients key {key!r} is not a comma-separated "
                    "exponent tuple like '2,0,0'"
                ) from None
            if any(e < 0 for e in exponent):
                raise ConfigError(f"{where}.coefficients exponents must be >= 0")
            dims.add(len(exponent))
            parsed[exponent] = _as_number(val, f"{where}.coefficients[{key!r}]")
        if len(dims) != 1:
            raise ConfigError(f"{where}.coefficients keys have mixed lengths")
        dim = dims.pop()
        bbox = np.asarray(spec["bbox"], dtype=float)
        if bbox.shape != (2, dim):
            raise ConfigError(
                f"{where}.bbox must be [[lo...], [hi...]] with {dim} coordinates"
            )
        if not (np.isfinite(bbox).all() and np.all(bbox[0] < bbox[1])):
            raise ConfigError(f"{where}.bbox corners must be finite, the lower below the upper")
        return _built(AlgebraicSurface.from_coefficients, where, dim, parsed, bbox)
    raise ConfigError(f"{where} needs either a 'preset' or raw 'coefficients'")


def _parse_restriction(
    spec, surface: AlgebraicSurface | TriMesh, surface_spec: dict
) -> BallRestriction:
    where = "restriction"
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(spec, {"center", "radius"}, {"center", "radius"}, where)
    radius = _as_number(spec["radius"], f"{where}.radius")
    if radius <= 0:
        raise ConfigError(f"{where}.radius must be positive")
    if isinstance(surface, TriMesh):
        raise ConfigError("mesh surfaces do not support a restriction")
    center = spec["center"]
    if center == "patch":
        if surface_spec.get("preset") != "cyclide":
            raise ConfigError(
                f"{where}.center 'patch' is only defined for the cyclide preset"
            )
        params = {k: v for k, v in surface_spec.items() if k != "preset"}
        center = _built(cyclide_patch_center, f"{where}.center 'patch'", **params)
    else:
        if not isinstance(center, list):
            raise ConfigError(f"{where}.center must be 'patch' or a coordinate list")
        center = np.asarray(
            [_as_number(c, f"{where}.center entry") for c in center], dtype=float
        )
        if center.shape != (surface.ambient_dim,):
            raise ConfigError(f"{where}.center needs {surface.ambient_dim} coordinates")
    return BallRestriction(np.asarray(center, dtype=float), radius)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description shared by every CLI command."""

    surface: AlgebraicSurface | TriMesh
    degrees: tuple[int, ...]
    cardinalities: tuple[int, ...]
    seed: int
    restriction: BallRestriction | None
    target_name: str | None
    sigma_list: tuple[float, ...] | None
    trials: int | None
    output_dir: str
    eval_count: int | None
    kernel_order: int | None
    noise_reference: str

    def sample(self, n: int, seed: int) -> PointCloud:
        """Sample ``n`` points from ``seed``, inside the restriction if any."""
        if isinstance(self.surface, TriMesh):
            return sample_mesh(self.surface, n, seed)
        return sample_quasi_uniform(self.surface, n, seed, within=self.restriction)

    def target(self):
        """Resolve the named target function, or fail with ConfigError."""
        if self.target_name is None:
            raise ConfigError(
                f"this command needs a 'target'; known names: {sorted(TARGETS)}"
            )
        if not isinstance(self.surface, TriMesh) and self.surface.ambient_dim != 3:
            raise ConfigError(
                f"the named targets read x, y and z; this surface lies in "
                f"R^{self.surface.ambient_dim}"
            )
        return TARGETS[self.target_name]

    def default_eval_count(self) -> int:
        """Documented defaults: 2^16 globally, ~8000 on a restricted patch."""
        if self.eval_count is not None:
            return self.eval_count
        return 8192 if self.restriction is not None else 65536


def parse_config(data) -> ExperimentConfig:
    """Validate a decoded JSON object into an :class:`ExperimentConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, _TOP_REQUIRED, "config")
    version = _as_int(data["version"], "version")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {version}; expected {CONFIG_VERSION}"
        )
    surface = _parse_surface(data["surface"])
    degrees = _int_list(data["degrees"], "degrees", minimum=0)
    cardinalities = _int_list(data["cardinalities"], "cardinalities", minimum=1)
    seed = _as_int(data["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    restriction = None
    if data.get("restriction") is not None:
        restriction = _parse_restriction(data["restriction"], surface, data["surface"])

    target_name = data.get("target")
    if target_name is not None:
        if target_name not in TARGETS:
            raise ConfigError(
                f"unknown target {target_name!r}; known names: {sorted(TARGETS)}"
            )

    sigma_list = None
    if data.get("sigma_list") is not None:
        raw = data["sigma_list"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("sigma_list must be a nonempty list")
        sigma_list = tuple(_as_number(s, "sigma_list entry") for s in raw)
        if any(s < 0 for s in sigma_list):
            raise ConfigError("sigma_list entries must be >= 0")

    trials = None
    if data.get("trials") is not None:
        trials = _as_int(data["trials"], "trials")
        if trials < 2:
            raise ConfigError(
                f"trials must be >= 2 (std is undefined otherwise), got {trials}"
            )

    eval_count = None
    if data.get("eval_count") is not None:
        eval_count = _as_int(data["eval_count"], "eval_count")
        if eval_count < 1:
            raise ConfigError("eval_count must be >= 1")

    kernel_order = data.get("kernel_order")
    if kernel_order is not None:
        try:
            KernelSpec(kernel_order)
        except KernelOrderError as exc:
            raise ConfigError(f"kernel_order: {exc}") from None

    noise_reference = data.get("noise_reference", "clean")
    if noise_reference not in ("clean", "exact"):
        raise ConfigError(
            f"noise_reference must be 'clean' or 'exact', got {noise_reference!r}"
        )

    output_dir = data.get("output_dir", "mfmls_out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")

    return ExperimentConfig(
        surface=surface,
        degrees=degrees,
        cardinalities=cardinalities,
        seed=seed,
        restriction=restriction,
        target_name=target_name,
        sigma_list=sigma_list,
        trials=trials,
        output_dir=output_dir,
        eval_count=eval_count,
        kernel_order=kernel_order,
        noise_reference=noise_reference,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)
