"""Run configuration: JSON file + flag overrides -> validated RunConfig."""

from __future__ import annotations

import json
import math
import sys
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


def _expect(raw: dict, key: str, kind: type, where: str, default=None, required=False):
    """The dict, str or list at ``key``, or ``default`` when it is absent."""
    path = f"{where}.{key}" if where else key
    if key not in raw:
        if required:
            raise ConfigError("missing required field", field=path)
        return default
    if not isinstance(raw[key], kind):
        raise ConfigError(f"expected {kind.__name__}, got {type(raw[key]).__name__}", field=path)
    return raw[key]


def _known(raw: dict, keys: tuple[str, ...], where: str) -> None:
    """Refuse a key of ``raw`` that its reader does not read."""
    for key in raw:
        if key not in keys:
            raise ConfigError("unknown key", field=f"{where}.{key}" if where else key)


def _number(value, where: str, *, integer=False, minimum=None, positive=False):
    """The config number ``value`` as a float, or an int when ``integer``.

    It must be finite, not a bool, integral when ``integer`` (4 or 4.0), at
    least ``minimum`` and, when ``positive``, above 0. Anything else is a
    ConfigError at ``where``: the value's field or the field of its list.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {type(value).__name__}", field=where)
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity or an int past the floats
        raise ConfigError(f"must be finite, got {value!r}", field=where)
    x = float(value)
    if integer and not x.is_integer():
        raise ConfigError(f"expected an integer, got {value!r}", field=where)
    if minimum is not None and x < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", field=where)
    if positive and x <= 0.0:
        raise ConfigError(f"must be positive, got {value!r}", field=where)
    return int(value) if integer else x


def _pair(raw, where: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError("expected a [lo, hi] pair", field=where)
    return _number(raw[0], where), _number(raw[1], where)


def _lattice_axis(spec, where: str) -> np.ndarray:
    """[lo, hi, count] -> the axis samples."""
    if not isinstance(spec, list) or len(spec) != 3:
        raise ConfigError("expected [lo, hi, count]", field=where)
    lo, hi, count = spec
    return np.linspace(
        _number(lo, where), _number(hi, where), _number(count, where, integer=True, minimum=1)
    )


def _complex_of(entry, where: str) -> complex:
    """A number or an [re, im] pair -> the complex eigenvalue."""
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_number(entry[0], where), _number(entry[1], where))
    return complex(_number(entry, where))


def _vector(spec: dict, key: str) -> list[float]:
    """The required manifold vector ``key``, e.g. a segment's ``from``."""
    vec = _expect(spec, key, list, "manifold", required=True)
    return [_number(v, f"manifold.{key}") for v in vec]


# The keys of each manifold type besides "type" and "n".
_MANIFOLD_KEYS = {
    "segment": ("from", "to", "s_range"),
    "circle": ("center", "radius", "arc"),
    "point": ("x0",),
}


def _manifold(spec: dict) -> DataManifold:
    """The ``manifold`` section -> the data manifold it describes."""
    kind = _expect(spec, "type", str, "manifold", required=True)
    if kind not in _MANIFOLD_KEYS:
        raise ConfigError(f"unknown manifold type {kind!r}", field="manifold.type")
    _known(spec, ("type", "n") + _MANIFOLD_KEYS[kind], "manifold")
    n = _number(spec.get("n", 121), "manifold.n", integer=True, minimum=1)
    if kind == "segment":
        p0, p1 = _vector(spec, "from"), _vector(spec, "to")
        s_range = spec.get("s_range")
        if s_range is not None:
            s_range = _pair(s_range, "manifold.s_range")
        try:
            return segment_manifold(p0, p1, n=n, s_range=s_range)
        except ValueError as exc:
            raise ConfigError(str(exc), field="manifold") from exc
    if kind == "circle":
        center = _vector(spec, "center")
        radius = _number(spec.get("radius"), "manifold.radius", positive=True)
        arc = spec.get("arc")
        arc = _pair(arc, "manifold.arc") if arc is not None else (0.0, 2.0 * math.pi)
        try:
            return circle_manifold(center, radius, arc=arc, n=n)
        except ValueError as exc:
            raise ConfigError(str(exc), field="manifold") from exc
    return point_manifold(_number(spec.get("x0"), "manifold.x0"))


def _candidates(spec: Optional[dict]) -> np.ndarray:
    """The ``lambda_sweep`` section -> the candidate eigenvalues of decompose."""
    if spec is None:
        return default_candidates()
    if "values" in spec:
        if len(spec) > 1:
            raise ConfigError(
                "values lists the candidates; it takes no "
                + ", ".join(key for key in spec if key != "values"),
                field="lambda_sweep",
            )
        vals = spec["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError("values must be a non-empty list", field="lambda_sweep.values")
        return np.array([_complex_of(v, "lambda_sweep.values") for v in vals], dtype=complex)
    _known(spec, ("re_range", "count", "im_range", "im_count"), "lambda_sweep")
    re_lo, re_hi = _pair(spec.get("re_range", CANDIDATE_RANGE), "lambda_sweep.re_range")
    count = _number(
        spec.get("count", CANDIDATE_COUNT), "lambda_sweep.count", integer=True, minimum=1
    )
    re = np.linspace(re_lo, re_hi, count)
    if "im_range" not in spec:
        if "im_count" in spec:
            raise ConfigError("needs im_range", field="lambda_sweep.im_count")
        return re.astype(complex)
    im_lo, im_hi = _pair(spec["im_range"], "lambda_sweep.im_range")
    im_count = _number(
        spec.get("im_count", count), "lambda_sweep.im_count", integer=True, minimum=1
    )
    im = np.linspace(im_lo, im_hi, im_count)
    grid_re, grid_im = np.meshgrid(re, im, indexing="ij")
    return (grid_re + 1j * grid_im).ravel()


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
        _known(raw, ("omega", "t", "n_list", "annulus", "quad_points", "wedge"), "spectrum")
        omega = _number(raw.get("omega", d.omega), "spectrum.omega")
        t = _number(raw.get("t", d.t), "spectrum.t")
        n_list = _expect(raw, "n_list", list, "spectrum", default=list(d.n_list))
        if not n_list:
            raise ConfigError("must be a non-empty list", field="spectrum.n_list")
        n_list = tuple(_number(n, "spectrum.n_list", integer=True, minimum=1) for n in n_list)
        annulus = _pair(raw.get("annulus", d.annulus), "spectrum.annulus")
        # The widest bump, of the smallest n, must fit inside the annulus.
        half = 0.5 / min(n_list)
        if omega - half < annulus[0] or omega + half > annulus[1]:
            raise ConfigError(
                f"must contain the bump support [{omega - half:g}, {omega + half:g}]",
                field="spectrum.annulus",
            )
        quad_points = _number(
            raw.get("quad_points", d.quad_points), "spectrum.quad_points", integer=True, minimum=64
        )

        wedge = _expect(raw, "wedge", dict, "spectrum", default={})
        _known(wedge, ("lambda_grid", "alpha_window", "h"), "spectrum.wedge")
        grid = _expect(wedge, "lambda_grid", dict, "spectrum.wedge", default={})
        where = "spectrum.wedge.lambda_grid"
        _known(grid, ("re_range", "im_range", "count"), where)
        re_range = _pair(grid.get("re_range", d.re_range), f"{where}.re_range")
        im_range = _pair(grid.get("im_range", d.im_range), f"{where}.im_range")
        count = _number(grid.get("count", d.count), f"{where}.count", integer=True, minimum=1)
        alpha_window = _pair(
            wedge.get("alpha_window", d.alpha_window), "spectrum.wedge.alpha_window"
        )
        if not 0.0 <= alpha_window[1] - alpha_window[0] < 2.0 * math.pi:
            raise ConfigError(
                "angular width must lie in [0, 2*pi)", field="spectrum.wedge.alpha_window"
            )
        h = _expect(wedge, "h", str, "spectrum.wedge", default=d.h)
        return cls(
            omega, t, n_list, annulus, quad_points,
            re_range, im_range, count, alpha_window, h,
        )


# The top-level sections and values of a config.
_TOP_KEYS = (
    "system", "manifold", "t_window", "grid", "eig", "lattice", "target", "lambda_sweep",
    "K", "stop_tol", "integrator_tol", "output_dir", "seed", "spectrum",
)


@dataclass
class RunConfig:
    system_name: str
    system_params: dict
    manifold: Optional[DataManifold]  # None: the system's default manifold
    t_window: Optional[tuple[float, float]]
    grid_n: int
    grid_m: int
    eig_lambda: Optional[complex]
    eig_h: Optional[str]
    lattice: Optional[dict[str, np.ndarray]]  # axis name -> its samples
    target: Optional[str]
    candidates: np.ndarray  # of the lambda sweep
    K: int
    stop_tol: float
    integrator_tol: float
    output_dir: str
    seed: int
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)
    echo: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _known(raw, _TOP_KEYS, "")
        system = _expect(raw, "system", dict, "", default={"name": "lin2d"})
        _known(system, ("name", "params"), "system")
        name = _expect(system, "name", str, "system", required=True)
        if name not in system_names():
            raise ConfigError(
                f"unknown system {name!r}; available: {', '.join(system_names())}",
                field="system.name",
            )
        params = _expect(system, "params", dict, "system", default={})
        params = {key: _number(v, "system.params") for key, v in params.items()}

        manifold = _expect(raw, "manifold", dict, "")
        if manifold is not None:
            manifold = _manifold(manifold)
        t_window = raw.get("t_window")
        if t_window is not None:
            t_window = _pair(t_window, "t_window")
            if not (t_window[0] <= 0.0 <= t_window[1]):
                raise ConfigError("must contain 0", field="t_window")

        grid = _expect(raw, "grid", dict, "", default={})
        _known(grid, ("n", "m"), "grid")
        grid_n = _number(grid.get("n", 40), "grid.n", integer=True, minimum=0)
        grid_m = _number(grid.get("m", 40), "grid.m", integer=True, minimum=0)

        eig = _expect(raw, "eig", dict, "", default={})
        _known(eig, ("lambda", "h"), "eig")
        eig_lambda = (
            _complex_of(eig["lambda"], "eig.lambda") if "lambda" in eig else None
        )
        eig_h = _expect(eig, "h", str, "eig")

        lattice = _expect(raw, "lattice", dict, "")
        if lattice is not None:
            _known(lattice, tuple(f"x{k + 1}" for k in range(len(lattice))), "lattice")
            lattice = {a: _lattice_axis(spec, f"lattice.{a}") for a, spec in lattice.items()}

        target = _expect(raw, "target", str, "")
        candidates = _candidates(_expect(raw, "lambda_sweep", dict, ""))

        k_terms = _number(raw.get("K", 8), "K", integer=True, minimum=1)
        stop_tol = _number(raw.get("stop_tol", 1e-9), "stop_tol")
        integrator_tol = _number(raw.get("integrator_tol", 1e-10), "integrator_tol", positive=True)
        output_dir = _expect(raw, "output_dir", str, "", default="out")
        seed = _number(raw.get("seed", 0), "seed", integer=True, minimum=0)
        spectrum = SpectrumSpec.from_dict(_expect(raw, "spectrum", dict, "", default={}))

        # The echo captures the scientific configuration; where the files
        # land is environmental and would break byte-for-byte reproducibility.
        echo = {k: v for k, v in raw.items() if k != "output_dir"}

        return cls(
            system_name=name,
            system_params=params,
            manifold=manifold,
            t_window=t_window,
            grid_n=grid_n,
            grid_m=grid_m,
            eig_lambda=eig_lambda,
            eig_h=eig_h,
            lattice=lattice,
            target=target,
            candidates=candidates,
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
        """The configured manifold, else the system's default one."""
        if self.manifold is not None:
            return self.manifold
        if system.default_manifold is None:
            raise ConfigError("system has no default manifold", field="manifold")
        return system.default_manifold

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
        grids = np.meshgrid(*[self.lattice[a] for a in axes], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def window(self, system: BenchmarkSystem) -> tuple[float, float]:
        return self.t_window if self.t_window is not None else system.default_t_window
