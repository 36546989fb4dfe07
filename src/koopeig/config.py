"""Run configuration: JSON file -> validated RunConfig.

``RunConfig.from_dict`` reads every section for every command. It builds
the system, resolves the manifold and the window (the configured ones, else
the system's defaults), turns the lattice into points checked against the
system's dimension, and parses the expressions. A bad section is a
ConfigError naming its field before any command runs; the commands only
run what it built.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .decomposition import CANDIDATE_COUNT, CANDIDATE_RANGE, default_candidates
from .dynamics import DEFAULT_TOL, BenchmarkSystem, make_system
from .eigenfunctions import _window
from .errors import ConfigError, OutOfRangeError
from .manifolds import DataManifold, circle_manifold, point_manifold, segment_manifold
from .spectrum import ApproxEig, _wedge_window
from .targets import parse_data_fn, parse_target

__all__ = ["MAX_COUNT", "RunConfig", "SpectrumSpec", "load_config_file"]

# The most points a config may ask for: each count, and as one count the
# lattice's points, the grid's nodes and the eigenvalues of the sweep and of
# the wedge. It keeps a run within a 1 GB memory budget. write_csv formats at
# most WRITE_ROWS rows at a time: writing 10**6 rows of a 2-D lattice's six
# columns peaks at 0.16 GB.
MAX_COUNT = 10**6


def load_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError("invalid JSON: arrays or objects nested too deeply") from exc
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


def _number(value, where: str, *, integer=False, minimum=None, maximum=None, positive=False):
    """The config number ``value`` as a float, or an int when ``integer``.

    It must be finite, not a bool, integral when ``integer`` (4 or 4.0), at
    least ``minimum``, at most ``maximum`` and, when ``positive``, above 0.
    Anything else is a ConfigError at ``where``: the value's field or the
    field of its list.
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
    if maximum is not None and x > maximum:
        raise ConfigError(f"must be <= {maximum}, got {value!r}", field=where)
    if positive and x <= 0.0:
        raise ConfigError(f"must be positive, got {value!r}", field=where)
    return int(value) if integer else x


def _count(value, where: str, minimum: int = 1) -> int:
    """The config count ``value``, an integer in [minimum, MAX_COUNT]."""
    return _number(value, where, integer=True, minimum=minimum, maximum=MAX_COUNT)


def _points(total: int, where: str) -> None:
    """Refuse a product of counts past MAX_COUNT."""
    if total > MAX_COUNT:
        raise ConfigError(f"{total} points, more than {MAX_COUNT}", field=where)


def _pair(raw, where: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError("expected a [lo, hi] pair", field=where)
    return _number(raw[0], where), _number(raw[1], where)


def _lattice_axis(spec, where: str) -> np.ndarray:
    """[lo, hi, count] -> the axis samples."""
    if not isinstance(spec, list) or len(spec) != 3:
        raise ConfigError("expected [lo, hi, count]", field=where)
    lo, hi, count = spec
    return np.linspace(_number(lo, where), _number(hi, where), _count(count, where))


def _lattice(spec: dict, dim: int) -> np.ndarray:
    """The ``lattice`` section -> its (N, dim) points, axis x1 outermost.

    A dim-dimensional system needs exactly the axes x1 .. x<dim>.
    """
    names = tuple(f"x{k + 1}" for k in range(len(spec)))
    _known(spec, names, "lattice")
    axes = [_lattice_axis(spec[a], f"lattice.{a}") for a in names]
    if len(axes) != dim:
        needed = ", ".join(f"x{k + 1}" for k in range(dim))
        raise ConfigError(
            f"a {dim}-dimensional system needs the axes {needed}; got {', '.join(names) or 'none'}",
            field="lattice",
        )
    _points(math.prod(axis.size for axis in axes), "lattice")
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
    n = _count(spec.get("n", 121), "manifold.n")
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
    re_range = _pair(spec.get("re_range", CANDIDATE_RANGE), "lambda_sweep.re_range")
    count = _count(spec.get("count", CANDIDATE_COUNT), "lambda_sweep.count")
    if "im_range" not in spec:
        if "im_count" in spec:
            raise ConfigError("needs im_range", field="lambda_sweep.im_count")
        return np.linspace(*re_range, count).astype(complex)
    im_range = _pair(spec["im_range"], "lambda_sweep.im_range")
    im_count = _count(spec.get("im_count", count), "lambda_sweep.im_count")
    _points(count * im_count, "lambda_sweep")
    return _complex_grid(re_range, count, im_range, im_count)


def _complex_grid(re_range, re_count: int, im_range, im_count: int) -> np.ndarray:
    """Every re + i*im of the two evenly spaced axes, re-major."""
    re = np.linspace(*re_range, re_count)
    im = np.linspace(*im_range, im_count)
    grid_re, grid_im = np.meshgrid(re, im, indexing="ij")
    return (grid_re + 1j * grid_im).ravel()


# The defaults of spectrum.wedge.lambda_grid: re_range and im_range, and count.
_WEDGE_RANGE = (-2.0, 2.0)
_WEDGE_COUNT = 5


@dataclass(frozen=True)
class SpectrumSpec:
    """The ``spectrum`` section: bump scaling on the annulus and the wedge check."""

    omega: float = 1.0
    t: float = 1.0
    n_list: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    annulus: tuple[float, float] = (0.25, 4.0)
    lambdas: np.ndarray = field(  # wedge.lambda_grid: the tested eigenvalues, re-major
        default_factory=lambda: _complex_grid(_WEDGE_RANGE, _WEDGE_COUNT, _WEDGE_RANGE, _WEDGE_COUNT)
    )
    alpha_window: tuple[float, float] = (0.2, 2.2)  # wedge
    h: Callable[[np.ndarray], np.ndarray] = parse_data_fn("1")  # wedge: h(s)

    @classmethod
    def from_dict(cls, raw: dict) -> "SpectrumSpec":
        d = cls()
        _known(raw, ("omega", "t", "n_list", "annulus", "wedge"), "spectrum")
        omega = _number(raw.get("omega", d.omega), "spectrum.omega")
        t = _number(raw.get("t", d.t), "spectrum.t")
        n_list = _expect(raw, "n_list", list, "spectrum", default=list(d.n_list))
        if not n_list:
            raise ConfigError("must be a non-empty list", field="spectrum.n_list")
        n_list = tuple(_count(n, "spectrum.n_list") for n in n_list)
        annulus = _pair(raw.get("annulus", d.annulus), "spectrum.annulus")
        try:  # the widest bump, of the smallest n, must fit inside the annulus
            ApproxEig(omega, min(n_list), annulus)
        except OutOfRangeError as exc:
            raise ConfigError(str(exc), field="spectrum.annulus") from exc

        wedge = _expect(raw, "wedge", dict, "spectrum", default={})
        _known(wedge, ("lambda_grid", "alpha_window", "h"), "spectrum.wedge")
        grid = _expect(wedge, "lambda_grid", dict, "spectrum.wedge", default={})
        where = "spectrum.wedge.lambda_grid"
        _known(grid, ("re_range", "im_range", "count"), where)
        re_range = _pair(grid.get("re_range", _WEDGE_RANGE), f"{where}.re_range")
        im_range = _pair(grid.get("im_range", _WEDGE_RANGE), f"{where}.im_range")
        count = _count(grid.get("count", _WEDGE_COUNT), f"{where}.count")
        _points(count * count, where)
        alpha_window = _pair(
            wedge.get("alpha_window", d.alpha_window), "spectrum.wedge.alpha_window"
        )
        try:
            _wedge_window(alpha_window)
        except ValueError as exc:
            raise ConfigError(str(exc), field="spectrum.wedge.alpha_window") from exc
        h = _expect(wedge, "h", str, "spectrum.wedge")
        h = d.h if h is None else parse_data_fn(h, where="spectrum.wedge.h")
        lambdas = _complex_grid(re_range, count, im_range, count)
        return cls(omega, t, n_list, annulus, lambdas, alpha_window, h)


# The top-level sections and values of a config.
_TOP_KEYS = (
    "system", "manifold", "t_window", "grid", "eig", "lattice", "target", "lambda_sweep",
    "K", "stop_tol", "integrator_tol", "seed", "spectrum",
)


@dataclass
class RunConfig:
    system: BenchmarkSystem
    manifold: DataManifold  # the configured one, else the system's default
    t_window: tuple[float, float]  # the configured one, else the system's default
    grid_n: int
    grid_m: int
    eig_lambda: Optional[complex]
    eig_h: Optional[Callable[[np.ndarray], np.ndarray]]  # h(s) of the eigenfunction
    lattice: Optional[np.ndarray]  # (N, d) points, axis x1 outermost
    target: Optional[Callable[[np.ndarray], np.ndarray]]  # q(x) of the decomposition
    candidates: np.ndarray  # of the lambda sweep
    K: int
    stop_tol: float
    integrator_tol: float
    seed: int
    spectrum: SpectrumSpec
    echo: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _known(raw, _TOP_KEYS, "")
        system = _expect(raw, "system", dict, "", default={"name": "lin2d"})
        _known(system, ("name", "params"), "system")
        name = _expect(system, "name", str, "system", required=True)
        params = _expect(system, "params", dict, "system", default={})
        params = {key: _number(v, "system.params") for key, v in params.items()}
        try:
            system = make_system(name, **params)
        except KeyError as exc:  # its message names the available systems
            raise ConfigError(exc.args[0], field="system.name") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), field="system.params") from exc
        dim = system.field.dim

        manifold = _expect(raw, "manifold", dict, "")
        manifold = system.default_manifold if manifold is None else _manifold(manifold)
        t_window = raw.get("t_window")
        if t_window is None:
            t_window = system.default_t_window
        else:
            try:
                t_window = _window(_pair(t_window, "t_window"))
            except ValueError as exc:
                raise ConfigError(str(exc), field="t_window") from exc

        grid = _expect(raw, "grid", dict, "", default={})
        _known(grid, ("n", "m"), "grid")
        grid_n = _count(grid.get("n", 40), "grid.n", minimum=0)
        grid_m = _count(grid.get("m", 40), "grid.m", minimum=0)
        _points((grid_n + 1) * (grid_m + 1), "grid")

        eig = _expect(raw, "eig", dict, "", default={})
        _known(eig, ("lambda", "h"), "eig")
        eig_lambda = (
            _complex_of(eig["lambda"], "eig.lambda") if "lambda" in eig else None
        )
        eig_h = _expect(eig, "h", str, "eig")
        if eig_h is not None:
            eig_h = parse_data_fn(eig_h, where="eig.h")

        lattice = _expect(raw, "lattice", dict, "")
        if lattice is not None:
            lattice = _lattice(lattice, dim)
        target = _expect(raw, "target", str, "")
        if target is not None:
            target = parse_target(target, dim=dim, where="target")
        candidates = _candidates(_expect(raw, "lambda_sweep", dict, ""))

        k_terms = _count(raw.get("K", 8), "K")
        stop_tol = _number(raw.get("stop_tol", 1e-9), "stop_tol")
        integrator_tol = _number(
            raw.get("integrator_tol", DEFAULT_TOL), "integrator_tol", positive=True
        )
        seed = _number(raw.get("seed", 0), "seed", integer=True, minimum=0)
        spectrum = SpectrumSpec.from_dict(_expect(raw, "spectrum", dict, "", default={}))

        return cls(
            system=system,
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
            seed=seed,
            spectrum=spectrum,
            echo=raw,
        )

    # Accessors only because perfbench's traced runs wrap both (a tracer quirk).
    def make_system(self) -> BenchmarkSystem:
        return self.system

    def make_manifold(self, system: BenchmarkSystem) -> DataManifold:
        return self.manifold
