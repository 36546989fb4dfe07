"""Transverse data manifolds and the data functions defined on them.

A ``DataManifold`` is a parameterized codimension-one surface (a curve in
the plane, a point on the line) on which initial data lives.  It also
carries the signed distance to its supporting surface, which event
detection uses to locate flow crossings.

Every map takes a batch: ``embed`` and ``tangent`` map an (N,) array of
parameters to a (d, N) array, and ``surface`` and ``locate`` map a (d, N)
array of states to an (N,) array. A ``DataFunction`` h maps an (N,) array of
parameters to (N,) complex values, and the callable it is built from must
take the whole parameter grid at once.
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

    ``embed`` and its derivative ``tangent`` map an (N,) array of parameters
    to a (d, N) array. ``surface`` is the signed distance to the supporting
    surface (the full line through a segment, the full circle through an
    arc) and ``locate`` the inverse of ``embed``: the parameter of the
    manifold point nearest a state. Each maps a (d, N) array of states to an
    (N,) array. ``closed`` marks manifolds whose parameterization wraps with
    period s_max - s_min.
    """

    embed: Callable[[np.ndarray], np.ndarray]
    s_min: float
    s_max: float
    n_samples: int
    dim: int
    tangent: Optional[Callable[[np.ndarray], np.ndarray]] = None
    surface: Optional[Callable[[np.ndarray], np.ndarray]] = None
    locate: Optional[Callable[[np.ndarray], np.ndarray]] = None
    closed: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.s_max < self.s_min:
            raise ValueError("s_max must be >= s_min")
        object.__setattr__(self, "_extent_cache", None)

    @property
    def span(self) -> float:
        return self.s_max - self.s_min

    def parameter_grid(self) -> np.ndarray:
        """A new (n_samples,) array of evenly spaced parameters."""
        return np.linspace(self.s_min, self.s_max, self.n_samples)

    def sample_points(self) -> np.ndarray:
        """A new (n_samples, d) array of the manifold's points at the parameter grid."""
        return np.asarray(self.embed(self.parameter_grid()), dtype=float).T

    def extent(self) -> float:
        """Diagonal of the bounding box of the sampled curve (>= tiny)."""
        if self._extent_cache is None:
            pts = self.sample_points()
            diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
            object.__setattr__(self, "_extent_cache", max(diag, 1e-12))
        return self._extent_cache

    def with_samples(self, n_samples: int) -> "DataManifold":
        return replace(self, n_samples=n_samples)


def segment_manifold(
    p0: Sequence[float],
    p1: Sequence[float],
    n: int = 101,
    s_range: Optional[tuple[float, float]] = None,
) -> DataManifold:
    """Straight segment from p0 to p1 in the plane; parameter defaults to arclength.

    p0 and p1 must be 2-vectors: only in the plane is a segment
    codimension one, with a signed distance that changes sign where an
    orbit passes through it.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != (2,) or p1.shape != (2,):
        raise ValueError("segment manifolds live in the plane: p0 and p1 must be 2-vectors")
    with np.errstate(over="ignore"):
        length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise ValueError("degenerate segment")
    if not np.isfinite(length):
        raise ValueError("the segment's length overflows")
    if s_range is None:
        s_range = (0.0, length)
    s0, s1 = float(s_range[0]), float(s_range[1])
    if s1 <= s0:
        raise ValueError("s_range must be increasing")
    with np.errstate(over="ignore"):
        direction = (p1 - p0) / (s1 - s0)
        dir2 = float(direction @ direction)
    # locate divides by dir2: the squared length per unit of s.
    if not 0.0 < dir2 < np.inf:
        raise ValueError("s_range is too wide or too narrow for the segment's length")
    unit = (p1 - p0) / length
    normal = np.array([-unit[1], unit[0]])

    def embed(s):
        return (p0 + np.multiply.outer(np.subtract(s, s0), direction)).T

    def tangent(s):
        return np.multiply.outer(direction, np.ones_like(s, dtype=float))

    def surface(x):
        return normal[0] * (x[0] - p0[0]) + normal[1] * (x[1] - p0[1])

    def locate(x):  # orthogonal projection onto the segment
        along = (direction[0] * (x[0] - p0[0]) + direction[1] * (x[1] - p0[1])) / dir2
        return np.clip(s0 + along, s0, s1)

    return DataManifold(
        embed=embed,
        s_min=s0,
        s_max=s1,
        n_samples=n,
        dim=2,
        tangent=tangent,
        surface=surface,
        locate=locate,
    )


def circle_manifold(
    center: Sequence[float],
    radius: float,
    arc: tuple[float, float] = (0.0, 2.0 * math.pi),
    n: int = 181,
) -> DataManifold:
    """Circular arc parameterized by angle; a full turn wraps periodically.

    The arc must be increasing and at most one turn, to the 1e-12 within
    which a full turn counts as closed.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise ValueError("circle manifolds live in the plane")
    if radius <= 0:
        raise ValueError("radius must be positive")
    a0, a1 = float(arc[0]), float(arc[1])
    if a1 <= a0:
        raise ValueError("arc must be increasing")
    beyond = (a1 - a0) - 2.0 * math.pi
    if beyond >= 1e-12:
        raise ValueError("arc must be at most one turn")
    closed = abs(beyond) < 1e-12

    def embed(s):
        return (c + radius * np.stack([np.cos(s), np.sin(s)], axis=-1)).T

    def tangent(s):
        return radius * np.array([-np.sin(s), np.cos(s)])

    def surface(x):
        return np.sqrt((x[0] - c[0]) ** 2 + (x[1] - c[1]) ** 2) - radius

    def locate(x):  # polar angle in [a0, a0 + 2 pi); off an open arc, its nearer end
        s = a0 + (np.arctan2(x[1] - c[1], x[0] - c[0]) - a0) % (2.0 * math.pi)
        if not closed:
            s = np.where(s <= a1, s, np.where(s - a1 <= a0 + 2.0 * math.pi - s, a1, a0))
        return s

    return DataManifold(
        embed=embed,
        s_min=a0,
        s_max=a1,
        n_samples=n,
        dim=2,
        tangent=tangent,
        surface=surface,
        locate=locate,
        closed=closed,
    )


def point_manifold(x0: float) -> DataManifold:
    """Codimension-one manifold of a one-dimensional state space: a point."""
    x0 = float(x0)

    def embed(s):
        return np.full((1,) + np.shape(s), x0)

    def surface(x):
        return x[0] - x0

    def locate(x):  # the one parameter, s_min = 0
        return np.zeros(np.shape(x)[1:])

    return DataManifold(
        embed=embed,
        s_min=0.0,
        s_max=0.0,
        n_samples=1,
        dim=1,
        surface=surface,
        locate=locate,
    )


def as_values(values, shape: tuple, name: str) -> np.ndarray:
    """The values a function returned for a batch of inputs, as a complex array
    of ``shape``; a scalar broadcasts. A result that does not broadcast is a
    ValueError naming the function."""
    out = np.asarray(values, dtype=complex)
    if out.shape == shape:
        return out
    try:
        return np.broadcast_to(out, shape).copy()
    except ValueError:
        raise ValueError(
            f"{name} returned shape {out.shape} for a batch of shape {shape}; "
            "it must map a batch elementwise"
        ) from None


@dataclass(frozen=True)
class DataFunction:
    """h: Lambda -> C, tabulated on the parameter grid with linear interpolation.

    ``h(s)`` maps an (N,) array of parameters to (N,) complex values;
    ``closed_form``, when given, maps parameters the same way and is what
    ``h`` evaluates.
    """

    s_nodes: np.ndarray
    values: np.ndarray
    closed_form: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
    def from_callable(cls, manifold: DataManifold, fn: Callable[[np.ndarray], np.ndarray]) -> "DataFunction":
        """Tabulate fn with one call on the whole parameter grid."""
        grid = manifold.parameter_grid()
        return cls(grid, as_values(fn(grid), grid.shape, "data function"), closed_form=fn)

    @property
    def s_min(self) -> float:
        return float(self.s_nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.s_nodes[-1])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.closed_form is not None:
            return as_values(self.closed_form(s), s.shape, "data function")
        outside = (s < self.s_min - EVAL_SLACK) | (s > self.s_max + EVAL_SLACK)
        if outside.any():
            raise OutOfRangeError(
                f"s={s[outside].flat[0]:g} outside data grid [{self.s_min:g}, {self.s_max:g}]"
            )
        # Beyond the slack-wide margins np.interp holds the end values.
        return np.interp(s, self.s_nodes, self.values)


@dataclass(frozen=True)
class TransversalityReport:
    min_margin: float
    passed: bool
    violations: np.ndarray  # parameter values where the margin is below threshold
    margins: np.ndarray


def _refuse_overflow(values: np.ndarray, grid: np.ndarray, what: str) -> None:
    """ValueError at the first grid node where ``values`` is not finite."""
    off = ~np.isfinite(values)
    if off.any():
        raise ValueError(f"{what} on the manifold is not finite at s={grid[off][0]:g}")


def check_transversality(manifold: DataManifold, field: "VectorField") -> TransversalityReport:
    """Normalized crossing margin of the field against the manifold at every grid node.

    On the line a nonzero field always crosses the point (margin 1); in the
    plane the margin is |det[tangent, F]| / (|tangent| |F|). The field and
    the manifold maps each run once, on all nodes as one batch.
    """
    if manifold.dim != field.dim:
        raise ValueError("manifold and field dimensions differ")
    if field.dim > 2:
        raise ValueError("transversality is checked on the line and in the plane only")
    if field.dim == 2 and manifold.tangent is None:
        raise ValueError("a planar manifold needs a tangent to check transversality")
    grid = manifold.parameter_grid()
    pts = np.asarray(manifold.embed(grid), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.asarray(field.rhs(pts), dtype=float)
        if f.shape != pts.shape:
            raise ValueError(
                f"rhs of '{field.name}' returned shape {f.shape} for a batch of shape {pts.shape}"
            )
        norm_f = np.linalg.norm(f, axis=0)
    _refuse_overflow(norm_f, grid, "the field's norm")
    zero = norm_f < ZERO_FIELD_THRESHOLD
    if zero.any():
        raise ZeroFieldError(f"vector field vanishes on the manifold at s={grid[zero][0]:g}")
    if field.dim == 1:
        margins = np.ones(grid.size)
    else:
        tan = np.asarray(manifold.tangent(grid), dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            margins = np.abs(tan[0] * f[1] - tan[1] * f[0]) / (np.linalg.norm(tan, axis=0) * norm_f)
        _refuse_overflow(margins, grid, "the transversality margin")
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
    close = np.triu(np.linalg.norm(pts[:, None] - pts[None], axis=-1) <= tol, k=1)
    if manifold.closed:
        close[0, n - 1] = False  # wrap duplicate of a closed curve
    return not close.any()


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
