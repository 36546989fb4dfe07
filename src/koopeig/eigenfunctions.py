"""Eigenfunction construction by characteristic pullback and its consistency checks.

An open eigenfunction on the swept domain U = union_{t in [t1,t2]} rho_t(Lambda)
is evaluated pointwise as  phi(x) = h(s*(x)) * exp(lambda * r*(x)),  where
(r*, s*) locate the unique intersection of the orbit through x with the data
manifold.  Everything downstream (residual certification, the algebraic
semigroup of powers, data restatement, level-set transversality) builds on
that single evaluation primitive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import (
    DEFAULT_BLOWUP_BOUND,
    DEFAULT_TOL,
    VectorField,
    as_states,
    find_crossings,
    find_crossings_many,
    flow,
    flow_many,
    is_numeric,
)
from .errors import (
    AMBIGUOUS,
    NO_CROSSING,
    AmbiguousCrossingError,
    BlowUpError,
    BranchCutError,
    NotInDomainError,
    StepUnderflowError,
)
from .manifolds import DataFunction, DataManifold

__all__ = [
    "Pullback",
    "pullback",
    "pullback_many",
    "OpenEigenfunction",
    "ClosedFormEigenfunction",
    "ProductEigenfunction",
    "algebraic_combine",
    "eig_power",
    "koopman_residual",
    "orbit_scaling_defect",
    "restate_data",
    "levelset_transversality",
    "same_primary_class",
    "evaluate_points",
    "PointValue",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PRIMARY_CLASS_THRESHOLD = 1e-4


@dataclass(frozen=True)
class Pullback:
    """Time of flight r*, manifold parameter s* and foot point of a pullback."""

    r_star: float
    s_star: float
    foot: np.ndarray


def _golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 70) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _recover_parameter(manifold: DataManifold, foot: np.ndarray) -> float:
    """Nearest grid node, then golden-section refinement of |embed(s) - foot|."""
    grid = manifold.parameter_grid()
    if grid.size == 1:
        return float(grid[0])
    pts = manifold.sample_points()
    i = int(np.argmin(np.linalg.norm(pts - foot, axis=1)))
    ds = grid[1] - grid[0]
    lo, hi = grid[i] - ds, grid[i] + ds
    if not manifold.closed:
        lo, hi = max(lo, manifold.s_min), min(hi, manifold.s_max)

    def dist2(s):
        d = np.asarray(manifold.embed(s), float) - foot
        return float(d @ d)

    s = _golden_min(dist2, lo, hi)
    return manifold.wrap(s)


def _on_manifold(manifold: DataManifold, state: np.ndarray, on_tol: float) -> Optional[float]:
    """The foot's parameter when the state lies on the manifold itself, else None."""
    s = _recover_parameter(manifold, state)
    if np.linalg.norm(np.asarray(manifold.embed(s), float) - state) <= on_tol:
        return s
    return None


def _search_setup(manifold: DataManifold, t_window) -> tuple[float, float, float, float]:
    """(t1, t2, window slack, on-manifold tolerance) of a pullback."""
    if manifold.surface is None:
        raise ValueError("manifold carries no supporting-surface distance")
    t1, t2 = float(t_window[0]), float(t_window[1])
    if not (t1 <= 0.0 <= t2):
        raise ValueError("t_window must contain 0")
    slack = max(1e-9, 1e-3 * (t2 - t1))
    on_tol = max(1e-9, 1e-6 * manifold.extent())
    return t1, t2, slack, on_tol


def _feet(manifold, crossings, on_tol: float, check_ambiguity: bool) -> list:
    """The crossings whose state lies on the manifold, as (tau, state, s)."""
    hits = []
    for tau, state in crossings:
        s = _on_manifold(manifold, state, on_tol)
        if s is not None:
            hits.append((tau, state, s))
            if not check_ambiguity:
                break
    return hits


def _settle(hits: list, direction: float, escape: Optional[str], check_ambiguity: bool):
    """A Pullback, or the miss reason when there is not exactly one hit."""
    if not hits:
        return escape or NO_CROSSING
    if check_ambiguity and len(hits) > 1:
        return AMBIGUOUS
    tau, state, s = hits[0]
    return Pullback(direction * tau, s, state)


def _miss_error(reason: str) -> Exception:
    if reason == AMBIGUOUS:
        return AmbiguousCrossingError("orbit meets the data manifold more than once in one direction")
    return NotInDomainError(
        "orbit does not meet the data manifold inside the time window", reason=reason
    )


def _pull(
    field: VectorField,
    manifold: DataManifold,
    t_window,
    pts: np.ndarray,
    tol: float,
    method: str,
    check_ambiguity: bool,
    blowup_bound: float,
) -> list:
    """The search behind ``pullback`` and ``pullback_many`` for the (N, d) points."""
    t1, t2, slack, on_tol = _search_setup(manifold, t_window)
    numeric = is_numeric(field, method)
    max_count = 4 if check_ambiguity else 1

    def search(idx: list, sign: float, budget: float):
        """Feet and escape reason of the points idx along sign*F over [0, budget]."""
        if numeric:
            crossings, escapes = find_crossings_many(
                field, pts[idx], manifold.surface, sign, budget, tol,
                blowup_bound=blowup_bound, max_count=max_count,
            )
        else:
            crossings, escapes = [], []
            for i in idx:
                try:
                    found, escape = find_crossings(
                        field, pts[i], manifold.surface, sign, budget, tol,
                        method=method, blowup_bound=blowup_bound, max_count=max_count,
                    ), None
                except (BlowUpError, StepUnderflowError) as exc:
                    # Orbit escapes before meeting the manifold: nothing on this side.
                    found, escape = [], exc
                crossings.append(found)
                escapes.append(escape)
        feet = [_feet(manifold, c, on_tol, check_ambiguity) for c in crossings]
        return dict(zip(idx, feet)), {i: e.reason if e else None for i, e in zip(idx, escapes)}

    results: list = [None] * pts.shape[0]
    pending = []
    for i, x in enumerate(pts):
        s = _on_manifold(manifold, x, on_tol) if abs(manifold.surface(x)) < tol else None
        if s is None:
            pending.append(i)
        else:
            results[i] = Pullback(0.0, s, x.copy())

    # Backward over the downstream part of the window, then (t1 < 0) forward.
    hits, escapes = search(pending, -1.0, t2 + slack)
    direction = dict.fromkeys(pending, 1.0)
    retry = [i for i in pending if not hits[i]] if t1 < 0.0 else []
    if retry:
        hits_fwd, escapes_fwd = search(retry, 1.0, -t1 + slack)
        for i in retry:
            hits[i], direction[i] = hits_fwd[i], -1.0
            escapes[i] = escapes[i] or escapes_fwd[i]
    for i in pending:
        results[i] = _settle(hits[i], direction[i], escapes[i], check_ambiguity)
    return results


def pullback(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    x,
    tol: float = DEFAULT_TOL,
    *,
    method: str = "auto",
    check_ambiguity: bool = True,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
) -> Pullback:
    """Locate the in-window intersection of the orbit through x with the manifold.

    Searches backward over the downstream part of the window first and, when
    t1 < 0 and the backward search fails, forward over the upstream part.
    Raises NotInDomainError when no intersection exists in the window and
    AmbiguousCrossingError when the orbit meets the manifold more than once
    in the same direction (a nonrecurrence violation).
    """
    pts = as_states(field, [np.asarray(x, dtype=float).reshape(-1)])
    (result,) = _pull(field, manifold, t_window, pts, tol, method, check_ambiguity, blowup_bound)
    if isinstance(result, str):
        raise _miss_error(result)
    return result


def pullback_many(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    points,
    tol: float = DEFAULT_TOL,
    *,
    method: str = "auto",
    check_ambiguity: bool = True,
) -> list:
    """``pullback`` of N points: per point a Pullback or its miss reason.

    A miss reason is one of MISS_REASONS. A numerically integrated field
    marches every point as one lane of a batch, backward and then (when
    t1 < 0) forward, under the rules of ``pullback``; a closed-form flow runs
    the exact scan point by point.
    """
    pts = as_states(field, points)
    if is_numeric(field, method):
        return _pull(
            field, manifold, t_window, pts, tol, method, check_ambiguity, DEFAULT_BLOWUP_BOUND
        )
    # One ``pullback`` call per point, so that perfbench/tracing.py, which
    # patches eigenfunctions.pullback, times each exact scan.
    out: list = []
    for x in pts:
        try:
            out.append(pullback(
                field, manifold, t_window, x, tol, method=method, check_ambiguity=check_ambiguity,
            ))
        except (NotInDomainError, AmbiguousCrossingError) as exc:
            out.append(exc.reason)
    return out


class _EigenfunctionBase:
    """Pointwise-evaluable eigenfunction: has .eigenvalue, .field, __call__."""

    eigenvalue: complex
    field: VectorField

    def __call__(self, x) -> complex:  # pragma: no cover - abstract
        raise NotImplementedError

    def values(self, points) -> np.ndarray:
        """phi at N points, shaped (N,); raises like __call__ on the first miss."""
        return np.array([complex(self(x)) for x in as_states(self.field, points)], dtype=complex)


@dataclass(frozen=True)
class OpenEigenfunction(_EigenfunctionBase):
    """Eigenfunction defined by data on a transverse manifold over a time window."""

    eigenvalue: complex
    data: DataFunction
    manifold: DataManifold
    field: VectorField
    t_window: tuple[float, float]
    tol: float = DEFAULT_TOL
    method: str = "auto"
    check_ambiguity: bool = True
    name: str = ""

    def __post_init__(self):
        t1, t2 = self.t_window
        if not (t1 <= 0.0 <= t2):
            raise ValueError("t_window must contain 0")
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def pullback(self, x) -> Pullback:
        return pullback(
            self.field,
            self.manifold,
            self.t_window,
            x,
            self.tol,
            method=self.method,
            check_ambiguity=self.check_ambiguity,
        )

    def pullback_many(self, points) -> list:
        return pullback_many(
            self.field,
            self.manifold,
            self.t_window,
            points,
            self.tol,
            method=self.method,
            check_ambiguity=self.check_ambiguity,
        )

    def __call__(self, x) -> complex:
        return complex(self.values([np.asarray(x, dtype=float).reshape(-1)])[0])

    def values(self, points) -> np.ndarray:
        out = []
        for pb in self.pullback_many(points):
            if isinstance(pb, str):
                raise _miss_error(pb)
            out.append(self.data(pb.s_star) * cmath.exp(self.eigenvalue * pb.r_star))
        return np.array(out, dtype=complex)


@dataclass(frozen=True)
class ClosedFormEigenfunction(_EigenfunctionBase):
    eigenvalue: complex
    fn: Callable[[np.ndarray], complex]
    field: VectorField
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def __call__(self, x) -> complex:
        return complex(self.fn(np.asarray(x, dtype=float)))


def _safe_power(z: complex, alpha: float) -> complex:
    """Principal-branch-safe power; non-integer exponents need z on [0, inf)."""
    if alpha == 0.0:
        return 1.0 + 0.0j
    if float(alpha).is_integer():
        if z == 0 and alpha < 0:
            raise BranchCutError("negative integer power of zero")
        return complex(z) ** int(alpha)
    im_tol = 1e-12 * max(abs(z), 1.0)
    if abs(z.imag) > im_tol or z.real < 0.0:
        raise BranchCutError(
            f"non-integer power {alpha:g} of non-positive-real value {z:.6g}"
        )
    if z.real == 0.0:
        if alpha < 0:
            raise BranchCutError("negative power of zero")
        return 0.0 + 0.0j
    return complex(z.real ** alpha)


@dataclass(frozen=True)
class ProductEigenfunction(_EigenfunctionBase):
    """Pointwise product of powers of eigenfunctions; eigenvalues combine linearly."""

    factors: tuple[tuple[_EigenfunctionBase, float], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        base = self.factors[0][0].field
        for eig, _ in self.factors[1:]:
            if eig.field is not base:
                raise ValueError("factors must share the same vector field")

    @property
    def eigenvalue(self) -> complex:
        return sum(alpha * complex(eig.eigenvalue) for eig, alpha in self.factors)

    @property
    def field(self) -> VectorField:
        return self.factors[0][0].field

    def __call__(self, x) -> complex:
        return complex(self.values([np.asarray(x, dtype=float).reshape(-1)])[0])

    def values(self, points) -> np.ndarray:
        pts = as_states(self.field, points)
        out = np.ones(pts.shape[0], dtype=complex)
        for eig, alpha in self.factors:
            if alpha != 0.0:
                out *= [_safe_power(complex(v), alpha) for v in eig.values(pts)]
        return out


def algebraic_combine(
    eig1: _EigenfunctionBase, alpha1: float, eig2: _EigenfunctionBase, alpha2: float
) -> ProductEigenfunction:
    """Semigroup combinator: phi1^a1 * phi2^a2 with eigenvalue a1*l1 + a2*l2."""
    return ProductEigenfunction(((eig1, float(alpha1)), (eig2, float(alpha2))))


def eig_power(eig: _EigenfunctionBase, p: float) -> ProductEigenfunction:
    """phi^p with eigenvalue p*lambda."""
    return ProductEigenfunction(((eig, float(p)),))


def koopman_residual(
    eig: _EigenfunctionBase,
    points: Sequence,
    t: float = 0.1,
    *,
    tol: float = DEFAULT_TOL,
    method: str = "auto",
) -> float:
    """Worst relative defect of phi(rho_t(x)) = e^{lambda t} phi(x) over the points.

    This is the universal certificate that an object is a genuine
    eigenfunction; it propagates NotInDomainError when a point or its
    t-image leaves the domain. The points flow as one batch, and phi is
    evaluated at both ends of every orbit in one call.
    """
    pts = as_states(eig.field, points)
    if pts.shape[0] == 0:
        return 0.0
    factor = cmath.exp(complex(eig.eigenvalue) * t)
    ends = flow_many(eig.field, pts, [t], tol, method=method)[0]
    phi = eig.values(np.concatenate([pts, ends]))
    phi_x, phi_y = phi[: pts.shape[0]], phi[pts.shape[0]:]
    defect = np.abs(phi_y - factor * phi_x) / np.maximum(1.0, np.abs(phi_x))
    return float(defect.max())


def orbit_scaling_defect(
    eig: _EigenfunctionBase,
    x,
    r: float,
    *,
    tol: float = DEFAULT_TOL,
    method: str = "auto",
) -> float:
    """Absolute defect |phi(rho_r(x)) - phi(x) e^{lambda r}| for one orbit hop."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = flow(eig.field, x, r, tol, method=method).state
    phi_x, phi_y = eig.values([x, y])
    return abs(complex(phi_y) - complex(phi_x) * cmath.exp(complex(eig.eigenvalue) * r))


def restate_data(eig: OpenEigenfunction, target: DataManifold) -> DataFunction:
    """Read the eigenfunction on another transverse manifold as a new data function.

    The eigenfunction rebuilt from (lambda, restated data, target manifold)
    agrees with the original wherever their domains overlap.
    """
    return DataFunction.from_samples(target, eig.values(target.sample_points()))


def levelset_transversality(
    eig1: _EigenfunctionBase,
    eig2: _EigenfunctionBase,
    points: Sequence,
    fd_step: Optional[float] = None,
) -> np.ndarray:
    """|grad(phi1) . perp-grad(phi2)| at each point, by central differences.

    Each eigenfunction is evaluated on the whole stencil in one call.

    Near-zero everywhere means the two candidates share level sets (one
    primary class); systematically nonzero level-set crossings separate them.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("level-set transversality is defined for planar states")
    if fd_step is None:
        diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        fd_step = 1e-5 * max(diag, 1.0)
    # Central-difference stencil x + e1, x - e1, x + e2, x - e2 of every point.
    offsets = fd_step * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    stencil = (pts[:, None, :] + offsets).reshape(-1, 2)

    def grad(eig):
        v = eig.values(stencil).reshape(-1, 4)
        return (v[:, 0] - v[:, 1]) / (2.0 * fd_step), (v[:, 2] - v[:, 3]) / (2.0 * fd_step)

    g1, g2 = grad(eig1), grad(eig2)
    return np.abs(g1[0] * g2[1] - g1[1] * g2[0])


def same_primary_class(
    eig1: _EigenfunctionBase,
    eig2: _EigenfunctionBase,
    points: Sequence,
    threshold: float = PRIMARY_CLASS_THRESHOLD,
) -> bool:
    """Numerical level-set equivalence: transversality below threshold everywhere."""
    return bool(np.all(levelset_transversality(eig1, eig2, points) <= threshold))


@dataclass(frozen=True)
class PointValue:
    x: np.ndarray
    phi: complex
    r_star: float
    s_star: float


def evaluate_points(
    eig: OpenEigenfunction, points: Sequence
) -> tuple[list[Optional[PointValue]], list[str]]:
    """Evaluate on many points: the values, where None marks points outside
    the domain, and the miss reason (one of MISS_REASONS) of each None in
    point order.

    A numerically integrated field pulls every point back in one batch.
    """
    pts = as_states(eig.field, points)
    values: list[Optional[PointValue]] = []
    misses: list[str] = []
    for x, pb in zip(pts, eig.pullback_many(pts)):
        if isinstance(pb, str):
            values.append(None)
            misses.append(pb)
            continue
        phi = eig.data(pb.s_star) * cmath.exp(complex(eig.eigenvalue) * pb.r_star)
        values.append(PointValue(x, phi, pb.r_star, pb.s_star))
    return values, misses
