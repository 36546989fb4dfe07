"""Transverse data manifolds and the data functions defined on them.

A ``DataManifold`` is a parameterized codimension-one surface (a curve in
the plane, a point on the line) on which initial data lives.  It also
carries the signed distance to its supporting surface, which event
detection uses to locate flow crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from .errors import GridMismatchError, OutOfRangeError, ZeroFieldError

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import VectorField

__all__ = [
    "DataManifold",
    "DataFunction",
    "TransversalityReport",
    "segment_manifold",
    "circle_manifold",
    "point_manifold",
    "eval_h",
    "check_transversality",
    "check_injectivity",
    "data_compatibility",
]

EVAL_SLACK = 1e-9
TRANSVERSALITY_THRESHOLD = 1e-8
ZERO_FIELD_THRESHOLD = 1e-14


@dataclass(frozen=True)
class DataManifold:
    """Parameterized curve s in [s_min, s_max] -> state, transverse to a flow.

    ``surface`` is the signed distance to the supporting surface (the full
    line through a segment, the full circle through an arc): a float for one
    (d,) state, an (N,) array for a (d, N) batch of states; ``closed``
    marks manifolds whose parameterization wraps with period s_max - s_min.
    """

    embed: Callable[[float], np.ndarray]
    s_min: float
    s_max: float
    n_samples: int
    dim: int
    tangent: Optional[Callable[[float], np.ndarray]] = None
    surface: Optional[Callable[[np.ndarray], float]] = None
    closed: bool = False
    name: str = "manifold"

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.s_max < self.s_min:
            raise ValueError("s_max must be >= s_min")
        object.__setattr__(self, "_grid_cache", None)
        object.__setattr__(self, "_points_cache", None)

    @property
    def span(self) -> float:
        return self.s_max - self.s_min

    def parameter_grid(self) -> np.ndarray:
        if self._grid_cache is None:
            grid = (
                np.array([self.s_min])
                if self.n_samples == 1
                else np.linspace(self.s_min, self.s_max, self.n_samples)
            )
            object.__setattr__(self, "_grid_cache", grid)
        return self._grid_cache

    def sample_points(self) -> np.ndarray:
        if self._points_cache is None:
            pts = np.array([self.embed(s) for s in self.parameter_grid()], dtype=float)
            object.__setattr__(self, "_points_cache", pts)
        return self._points_cache

    def extent(self) -> float:
        """Diagonal of the bounding box of the sampled curve (>= tiny)."""
        pts = self.sample_points()
        diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        return max(diag, 1e-12)

    def tangent_at(self, s: float) -> np.ndarray:
        if self.tangent is not None:
            return np.asarray(self.tangent(s), dtype=float)
        ds = max(self.span, 1.0) * 1e-6
        lo, hi = s - ds, s + ds
        if not self.closed:
            lo, hi = max(lo, self.s_min), min(hi, self.s_max)
        return (np.asarray(self.embed(hi), float) - np.asarray(self.embed(lo), float)) / (hi - lo)

    def wrap(self, s: float) -> float:
        if self.closed and self.span > 0:
            return self.s_min + (s - self.s_min) % self.span
        return s

    def with_samples(self, n_samples: int) -> "DataManifold":
        return replace(self, n_samples=n_samples)


def _per_state(x: np.ndarray, value):
    """A surface value: a float for one (d,) state, an (N,) array for (d, N)."""
    return float(value) if x.ndim == 1 else value


def segment_manifold(
    p0: Sequence[float],
    p1: Sequence[float],
    n: int = 101,
    s_range: Optional[tuple[float, float]] = None,
    name: str = "segment",
) -> DataManifold:
    """Straight segment from p0 to p1; parameter defaults to arclength."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape or p0.ndim != 1:
        raise ValueError("p0 and p1 must be vectors of equal dimension")
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise ValueError("degenerate segment")
    if s_range is None:
        s_range = (0.0, length)
    s0, s1 = float(s_range[0]), float(s_range[1])
    if s1 <= s0:
        raise ValueError("s_range must be increasing")
    direction = (p1 - p0) / (s1 - s0)

    def embed(s):
        return p0 + (s - s0) * direction

    def tangent(_s):
        return direction.copy()

    if p0.size == 2:
        unit = (p1 - p0) / length
        normal = np.array([-unit[1], unit[0]])

        def surface(x):
            x = np.asarray(x, float)
            return _per_state(x, normal[0] * (x[0] - p0[0]) + normal[1] * (x[1] - p0[1]))

    else:
        u = (p1 - p0) / length

        def surface(x):  # distance along the segment axis complement
            x = np.asarray(x, float)
            v = x - p0.reshape((-1,) + (1,) * (x.ndim - 1))
            along = sum(u[k] * v[k] for k in range(u.size))
            return _per_state(x, np.sqrt(sum((v[k] - along * u[k]) ** 2 for k in range(u.size))))

    return DataManifold(
        embed=embed,
        s_min=s0,
        s_max=s1,
        n_samples=n,
        dim=p0.size,
        tangent=tangent,
        surface=surface,
        name=name,
    )


def circle_manifold(
    center: Sequence[float],
    radius: float,
    arc: tuple[float, float] = (0.0, 2.0 * math.pi),
    n: int = 181,
    name: str = "circle",
) -> DataManifold:
    """Circular arc parameterized by angle; a full turn wraps periodically."""
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise ValueError("circle manifolds live in the plane")
    if radius <= 0:
        raise ValueError("radius must be positive")
    a0, a1 = float(arc[0]), float(arc[1])
    if a1 <= a0:
        raise ValueError("arc must be increasing")
    closed = abs((a1 - a0) - 2.0 * math.pi) < 1e-12

    def embed(s):
        return c + radius * np.array([math.cos(s), math.sin(s)])

    def tangent(s):
        return radius * np.array([-math.sin(s), math.cos(s)])

    def surface(x):
        x = np.asarray(x, float)
        return _per_state(x, np.sqrt((x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2) - radius)

    return DataManifold(
        embed=embed,
        s_min=a0,
        s_max=a1,
        n_samples=n,
        dim=2,
        tangent=tangent,
        surface=surface,
        closed=closed,
        name=name,
    )


def point_manifold(x0: float, name: str = "point") -> DataManifold:
    """Codimension-one manifold of a one-dimensional state space: a point."""
    x0 = float(x0)

    def embed(_s):
        return np.array([x0])

    def surface(x):
        x = np.asarray(x, float)
        return _per_state(x, x[0] - x0)

    return DataManifold(
        embed=embed,
        s_min=0.0,
        s_max=0.0,
        n_samples=1,
        dim=1,
        tangent=None,
        surface=surface,
        name=name,
    )


@dataclass(frozen=True)
class DataFunction:
    """h: Lambda -> C, tabulated on the parameter grid with linear interpolation."""

    s_nodes: np.ndarray
    values: np.ndarray
    closed_form: Optional[Callable[[float], complex]] = None

    def __post_init__(self):
        s = np.asarray(self.s_nodes, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if s.ndim != 1 or v.shape != s.shape:
            raise ValueError("values must match the parameter grid")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("data values must be finite")
        if s.size > 1 and np.any(np.diff(s) <= 0):
            raise ValueError("parameter grid must be strictly increasing")
        object.__setattr__(self, "s_nodes", s)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_samples(cls, manifold: DataManifold, values) -> "DataFunction":
        values = np.asarray(values, dtype=complex)
        if values.shape != (manifold.n_samples,):
            raise GridMismatchError(
                f"expected {manifold.n_samples} samples, got {values.shape}"
            )
        return cls(manifold.parameter_grid(), values)

    @classmethod
    def from_callable(cls, manifold: DataManifold, fn: Callable[[float], complex]) -> "DataFunction":
        grid = manifold.parameter_grid()
        values = np.array([complex(fn(s)) for s in grid])
        return cls(grid, values, closed_form=fn)

    @property
    def s_min(self) -> float:
        return float(self.s_nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.s_nodes[-1])

    def __call__(self, s: float) -> complex:
        if self.closed_form is not None:
            return complex(self.closed_form(s))
        if s < self.s_min - EVAL_SLACK or s > self.s_max + EVAL_SLACK:
            raise OutOfRangeError(
                f"s={s:g} outside data grid [{self.s_min:g}, {self.s_max:g}]"
            )
        if self.s_nodes.size == 1:
            return complex(self.values[0])
        s = min(max(s, self.s_min), self.s_max)
        return complex(np.interp(s, self.s_nodes, self.values))


def eval_h(h: DataFunction, s: float) -> complex:
    return h(s)


@dataclass(frozen=True)
class TransversalityReport:
    min_margin: float
    passed: bool
    violations: np.ndarray  # parameter values where the margin is below threshold
    margins: np.ndarray


def _margin(tangent: np.ndarray, f: np.ndarray) -> float:
    nt, nf = np.linalg.norm(tangent), np.linalg.norm(f)
    if tangent.size == 2:
        det = tangent[0] * f[1] - tangent[1] * f[0]
        return abs(det) / (nt * nf)
    m = np.column_stack([tangent / nt, f / nf])
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def check_transversality(manifold: DataManifold, field: "VectorField") -> TransversalityReport:
    """Minimum normalized crossing margin of the field against the curve's tangent."""
    if manifold.dim != field.dim:
        raise ValueError("manifold and field dimensions differ")
    grid = manifold.parameter_grid()
    margins = np.empty(grid.size)
    for k, s in enumerate(grid):
        p = np.asarray(manifold.embed(s), dtype=float)
        f = np.asarray(field.rhs(p), dtype=float)
        if np.linalg.norm(f) < ZERO_FIELD_THRESHOLD:
            raise ZeroFieldError(
                f"vector field vanishes on the manifold at s={s:g}"
            )
        if field.dim == 1:
            margins[k] = 1.0
        else:
            margins[k] = _margin(manifold.tangent_at(s), f)
    bad = margins < TRANSVERSALITY_THRESHOLD
    return TransversalityReport(
        min_margin=float(margins.min()),
        passed=not bool(bad.any()),
        violations=grid[bad],
        margins=margins,
    )


def check_injectivity(manifold: DataManifold) -> bool:
    """Pairwise-distinct embeddings on the sample grid, at a spacing-scaled tolerance."""
    pts = manifold.sample_points()
    n = pts.shape[0]
    if n < 2:
        return True
    spacing = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    tol = 1e-6 * max(float(np.median(spacing)), 1e-300)
    for i in range(n):
        for j in range(i + 1, n):
            if manifold.closed and i == 0 and j == n - 1:
                continue  # wrap duplicate of a closed curve
            if np.linalg.norm(pts[i] - pts[j]) <= tol:
                return False
    return True


def data_compatibility(h: DataFunction, h_tilde: DataFunction) -> float:
    """Sup over the grid of |h h~' - h~ h'|; ~0 means shared level sets at equal eigenvalue."""
    if h.s_nodes.size != h_tilde.s_nodes.size:
        raise GridMismatchError(
            f"sample counts differ: {h.s_nodes.size} vs {h_tilde.s_nodes.size}"
        )
    if not np.allclose(h.s_nodes, h_tilde.s_nodes, rtol=0, atol=1e-12):
        raise GridMismatchError("parameter grids differ")
    if h.s_nodes.size == 1:
        return 0.0
    ds = float(h.s_nodes[1] - h.s_nodes[0])
    edge = 2 if h.s_nodes.size > 2 else 1
    dv = np.gradient(h.values, ds, edge_order=edge)
    dv_t = np.gradient(h_tilde.values, ds, edge_order=edge)
    return float(np.max(np.abs(h.values * dv_t - h_tilde.values * dv)))
