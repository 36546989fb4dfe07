"""Run configuration: JSON file + flag overrides -> validated RunConfig."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .decomposition import CANDIDATE_COUNT, CANDIDATE_RANGE, default_candidates
from .dynamics import BenchmarkSystem, make_system, system_names
from .errors import ConfigError
from .manifolds import DataManifold, circle_manifold, point_manifold, segment_manifold

__all__ = ["RunConfig", "SpectrumSpec", "load_config_file"]


def load_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    return raw


def _expect(raw: dict, key: str, kind, where: str, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError("missing required field", field=f"{where}.{key}" if where else key)
        return default
    val = raw[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(
            f"expected {getattr(kind, '__name__', kind)}, got {type(val).__name__}",
            field=f"{where}.{key}" if where else key,
        )
    return val


def _pair(raw, where: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError("expected a [lo, hi] pair", field=where)
    try:
        return float(raw[0]), float(raw[1])
    except (TypeError, ValueError):
        raise ConfigError("entries must be numbers", field=where) from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _lattice_axis(spec, where: str) -> np.ndarray:
    """[lo, hi, count] -> the axis samples."""
    if not isinstance(spec, list) or len(spec) != 3:
        raise ConfigError("expected [lo, hi, count]", field=where)
    lo, hi, count = spec
    if not (_is_number(lo) and _is_number(hi)):
        raise ConfigError("lo and hi must be numbers", field=where)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ConfigError("count must be a positive integer", field=where)
    return np.linspace(float(lo), float(hi), count)


def _complex_of(entry, where: str) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_number, entry)):
        return complex(float(entry[0]), float(entry[1]))
    raise ConfigError("eigenvalues are numbers or [re, im] pairs", field=where)


@dataclass(frozen=True)
class SpectrumSpec:
    """The ``spectrum`` section: bump scaling on the annulus and the wedge check."""

    omega: float = 1.0
    t: float = 1.0
    n_list: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    annulus: tuple[float, float] = (0.25, 4.0)
    quad_points: int = 256
    re_range: tuple[float, float] = (-2.0, 2.0)  # wedge.lambda_grid
    im_range: tuple[float, float] = (-2.0, 2.0)  # wedge.lambda_grid
    count: int = 5  # wedge.lambda_grid
    alpha_window: tuple[float, float] = (0.2, 2.2)  # wedge
    h: str = "1"  # wedge

    @classmethod
    def from_dict(cls, raw: dict) -> "SpectrumSpec":
        d = cls()
        omega = float(_expect(raw, "omega", float, "spectrum", default=d.omega))
        t = float(_expect(raw, "t", float, "spectrum", default=d.t))
        n_list = raw.get("n_list", list(d.n_list))
        if not isinstance(n_list, list) or not n_list or not all(
            _is_number(n) and float(n).is_integer() and n >= 1 for n in n_list
        ):
            raise ConfigError(
                "n_list must be a non-empty list of positive integers", field="spectrum.n_list"
            )
        annulus = _pair(raw.get("annulus", d.annulus), "spectrum.annulus")
        # The widest bump, of the smallest n, must fit inside the annulus.
        half = 0.5 / int(min(n_list))
        if omega - half < annulus[0] or omega + half > annulus[1]:
            raise ConfigError(
                f"must contain the bump support [{omega - half:g}, {omega + half:g}]",
                field="spectrum.annulus",
            )
        quad_points = int(_expect(raw, "quad_points", int, "spectrum", default=d.quad_points))
        if quad_points < 64:
            raise ConfigError("must be >= 64", field="spectrum.quad_points")

        wedge = _expect(raw, "wedge", dict, "spectrum", default={})
        grid = _expect(wedge, "lambda_grid", dict, "spectrum.wedge", default={})
        where = "spectrum.wedge.lambda_grid"
        re_range = _pair(grid.get("re_range", d.re_range), f"{where}.re_range")
        im_range = _pair(grid.get("im_range", d.im_range), f"{where}.im_range")
        count = int(_expect(grid, "count", int, where, default=d.count))
        if count < 1:
            raise ConfigError("must be >= 1", field=f"{where}.count")
        alpha_window = _pair(
            wedge.get("alpha_window", d.alpha_window), "spectrum.wedge.alpha_window"
        )
        if not 0.0 <= alpha_window[1] - alpha_window[0] < 2.0 * math.pi:
            raise ConfigError(
                "angular width must lie in [0, 2*pi)", field="spectrum.wedge.alpha_window"
            )
        h = _expect(wedge, "h", str, "spectrum.wedge", default=d.h)
        return cls(
            omega, t, tuple(int(n) for n in n_list), annulus, quad_points,
            re_range, im_range, count, alpha_window, h,
        )


@dataclass
class RunConfig:
    system_name: str
    system_params: dict
    manifold_spec: Optional[dict]
    t_window: Optional[tuple[float, float]]
    grid_n: int
    grid_m: int
    eig_lambda: Optional[complex]
    eig_h: Optional[str]
    lattice: Optional[dict]
    target: Optional[str]
    lambda_sweep: Optional[dict]
    K: int
    stop_tol: float
    integrator_tol: float
    output_dir: str
    seed: int
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)
    echo: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        system = _expect(raw, "system", dict, "", default={"name": "lin2d"})
        name = _expect(system, "name", str, "system", required=True)
        if name not in system_names():
            raise ConfigError(
                f"unknown system {name!r}; available: {', '.join(system_names())}",
                field="system.name",
            )
        params = _expect(system, "params", dict, "system", default={})

        manifold_spec = _expect(raw, "manifold", dict, "")
        t_window = raw.get("t_window")
        if t_window is not None:
            t_window = _pair(t_window, "t_window")
            if not (t_window[0] <= 0.0 <= t_window[1]):
                raise ConfigError("must contain 0", field="t_window")

        grid = _expect(raw, "grid", dict, "", default={})
        grid_n = int(_expect(grid, "n", int, "grid", default=40))
        grid_m = int(_expect(grid, "m", int, "grid", default=40))
        if grid_n < 0 or grid_m < 0:
            raise ConfigError("n and m must be non-negative", field="grid")

        eig = _expect(raw, "eig", dict, "", default={})
        eig_lambda = (
            _complex_of(eig["lambda"], "eig.lambda") if "lambda" in eig else None
        )
        eig_h = _expect(eig, "h", str, "eig")

        lattice = _expect(raw, "lattice", dict, "")
        if lattice is not None:
            for axis, spec in lattice.items():
                _lattice_axis(spec, f"lattice.{axis}")

        target = _expect(raw, "target", str, "")
        lambda_sweep = _expect(raw, "lambda_sweep", dict, "")

        k_terms = int(_expect(raw, "K", int, "", default=8))
        if k_terms < 1:
            raise ConfigError("must be >= 1", field="K")
        stop_tol = float(_expect(raw, "stop_tol", (int, float), "", default=1e-9))
        integrator_tol = float(
            _expect(raw, "integrator_tol", (int, float), "", default=1e-10)
        )
        if integrator_tol <= 0 or not math.isfinite(integrator_tol):
            raise ConfigError("must be a positive number", field="integrator_tol")
        output_dir = _expect(raw, "output_dir", str, "", default="out")
        seed = int(_expect(raw, "seed", int, "", default=0))
        spectrum = SpectrumSpec.from_dict(_expect(raw, "spectrum", dict, "", default={}))

        # The echo captures the scientific configuration; where the files
        # land is environmental and would break byte-for-byte reproducibility.
        echo = {k: v for k, v in raw.items() if k != "output_dir"}

        return cls(
            system_name=name,
            system_params=params,
            manifold_spec=manifold_spec,
            t_window=t_window,
            grid_n=grid_n,
            grid_m=grid_m,
            eig_lambda=eig_lambda,
            eig_h=eig_h,
            lattice=lattice,
            target=target,
            lambda_sweep=lambda_sweep,
            K=k_terms,
            stop_tol=stop_tol,
            integrator_tol=integrator_tol,
            output_dir=output_dir,
            seed=seed,
            spectrum=spectrum,
            echo=echo,
        )

    def make_system(self) -> BenchmarkSystem:
        try:
            return make_system(self.system_name, **self.system_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), field="system.params") from exc

    def make_manifold(self, system: BenchmarkSystem) -> DataManifold:
        spec = self.manifold_spec
        if spec is None:
            if system.default_manifold is None:
                raise ConfigError("system has no default manifold", field="manifold")
            return system.default_manifold
        kind = _expect(spec, "type", str, "manifold", required=True)
        n = int(_expect(spec, "n", int, "manifold", default=121))
        if kind == "segment":
            p0 = _expect(spec, "from", list, "manifold", required=True)
            p1 = _expect(spec, "to", list, "manifold", required=True)
            s_range = spec.get("s_range")
            if s_range is not None:
                s_range = _pair(s_range, "manifold.s_range")
            try:
                return segment_manifold(p0, p1, n=n, s_range=s_range)
            except ValueError as exc:
                raise ConfigError(str(exc), field="manifold") from exc
        if kind == "circle":
            center = _expect(spec, "center", list, "manifold", required=True)
            radius = float(_expect(spec, "radius", (int, float), "manifold", required=True))
            arc = spec.get("arc")
            arc = _pair(arc, "manifold.arc") if arc is not None else (0.0, 2.0 * math.pi)
            try:
                return circle_manifold(center, radius, arc=arc, n=n)
            except ValueError as exc:
                raise ConfigError(str(exc), field="manifold") from exc
        if kind == "point":
            x0 = float(_expect(spec, "x0", (int, float), "manifold", required=True))
            return point_manifold(x0)
        raise ConfigError(f"unknown manifold type {kind!r}", field="manifold.type")

    def lattice_points(self, dim: int) -> np.ndarray:
        """The lattice as (N, dim) points, axis x1 outermost.

        A dim-dimensional system needs exactly the axes x1 .. x<dim>.
        """
        axes = [f"x{k + 1}" for k in range(dim)]
        if self.lattice is None:
            raise ConfigError("eval needs a lattice", field="lattice")
        if sorted(self.lattice) != sorted(axes):
            raise ConfigError(
                f"a {dim}-dimensional system needs the axes {', '.join(axes)}; "
                f"got {', '.join(sorted(self.lattice)) or 'none'}",
                field="lattice",
            )
        grids = np.meshgrid(
            *[_lattice_axis(self.lattice[a], f"lattice.{a}") for a in axes], indexing="ij"
        )
        return np.stack([g.ravel() for g in grids], axis=1)

    def window(self, system: BenchmarkSystem) -> tuple[float, float]:
        return self.t_window if self.t_window is not None else system.default_t_window

    def candidate_lambdas(self) -> np.ndarray:
        spec = self.lambda_sweep
        if spec is None:
            return default_candidates()
        if "values" in spec:
            vals = spec["values"]
            if not isinstance(vals, list) or not vals:
                raise ConfigError("values must be a non-empty list", field="lambda_sweep.values")
            return np.array(
                [_complex_of(v, "lambda_sweep.values") for v in vals], dtype=complex
            )
        re_lo, re_hi = _pair(spec.get("re_range", CANDIDATE_RANGE), "lambda_sweep.re_range")
        count = int(_expect(spec, "count", int, "lambda_sweep", default=CANDIDATE_COUNT))
        if count < 1:
            raise ConfigError("must be >= 1", field="lambda_sweep.count")
        re = np.linspace(re_lo, re_hi, count)
        if "im_range" in spec:
            im_lo, im_hi = _pair(spec["im_range"], "lambda_sweep.im_range")
            im_count = int(_expect(spec, "im_count", int, "lambda_sweep", default=count))
            im = np.linspace(im_lo, im_hi, im_count)
            grid_re, grid_im = np.meshgrid(re, im, indexing="ij")
            return (grid_re + 1j * grid_im).ravel()
        return re.astype(complex)
