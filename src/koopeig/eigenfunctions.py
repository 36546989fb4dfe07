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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# ``find_crossings`` is not called here, but perfbench/tracing.py patches
# eigenfunctions.find_crossings.
from .dynamics import (  # noqa: F401
    DEFAULT_TOL,
    VectorField,
    as_states,
    find_crossings,
    find_crossings_many,
    flow,
    flow_many,
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
from .manifolds import DataFunction, DataManifold, as_values

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

PRIMARY_CLASS_THRESHOLD = 1e-4
# Crossings of the supporting surface a search collects in each direction.
# More than one of them on the manifold makes the pullback ambiguous.
AMBIGUITY_COUNT = 4


@dataclass(frozen=True)
class Pullback:
    """Time of flight r*, manifold parameter s* and foot point of a pullback."""

    r_star: float
    s_star: float
    foot: np.ndarray


def _on_manifold(
    manifold: DataManifold, states: np.ndarray, on_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The parameters s of the (d, M) states and whether each state lies on
    the manifold itself, at its parameter."""
    s = manifold.locate(states)
    gap = np.linalg.norm(np.asarray(manifold.embed(s), float) - states, axis=0)
    return s, gap <= on_tol


def _search_setup(manifold: DataManifold, t_window) -> tuple[float, float, float, float]:
    """(t1, t2, window slack, on-manifold tolerance) of a pullback."""
    if manifold.surface is None:
        raise ValueError("manifold carries no supporting-surface distance")
    if manifold.locate is None:
        raise ValueError("manifold carries no locate, the inverse of its embedding")
    t1, t2 = float(t_window[0]), float(t_window[1])
    if not (t1 <= 0.0 <= t2):
        raise ValueError("t_window must contain 0")
    slack = max(1e-9, 1e-3 * (t2 - t1))
    on_tol = max(1e-9, 1e-6 * manifold.extent())
    return t1, t2, slack, on_tol


def _settle(hits: list, direction: float, escape: Optional[str]):
    """A Pullback, or the miss reason when there is not exactly one hit."""
    if not hits:
        return escape or NO_CROSSING
    if len(hits) > 1:
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
) -> list:
    """The search behind ``pullback`` and ``pullback_many`` for the (N, d) points."""
    t1, t2, slack, on_tol = _search_setup(manifold, t_window)

    def search(idx: list, sign: float, budget: float):
        """Feet and escape reason of the points idx along sign*F over [0, budget];
        a foot is a crossing whose state lies on the manifold, as (tau, state, s)."""
        crossings, escapes = find_crossings_many(
            field, pts[idx], manifold.surface, sign, budget, tol, max_count=AMBIGUITY_COUNT
        )
        feet: dict = {i: [] for i in idx}
        flat = [(i, tau, state) for i, found in zip(idx, crossings) for tau, state in found]
        if flat:
            s, on = _on_manifold(manifold, np.column_stack([c[2] for c in flat]), on_tol)
            for (i, tau, state), s_k, on_k in zip(flat, s.tolist(), on.tolist()):
                if on_k:
                    feet[i].append((tau, state, s_k))
        return feet, {i: e.reason if e else None for i, e in zip(idx, escapes)}

    # A point on the manifold itself is its own foot, at r* = 0.
    results: list = [None] * pts.shape[0]
    near = np.flatnonzero(np.abs(manifold.surface(pts.T)) < tol)
    if near.size:
        s, on = _on_manifold(manifold, pts[near].T, on_tol)
        for i, s_i in zip(near[on].tolist(), s[on].tolist()):
            results[i] = Pullback(0.0, s_i, pts[i].copy())
    pending = [i for i, result in enumerate(results) if result is None]

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
        results[i] = _settle(hits[i], direction[i], escapes[i])
    return results


def pullback(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    x,
    tol: float = DEFAULT_TOL,
) -> Pullback:
    """Locate the in-window intersection of the orbit through x with the manifold.

    Searches backward over the downstream part of the window first and, when
    t1 < 0 and the backward search fails, forward over the upstream part.
    Raises NotInDomainError when no intersection exists in the window and
    AmbiguousCrossingError when the orbit meets the manifold more than once
    in the same direction (a nonrecurrence violation).
    """
    pts = as_states(field, [np.asarray(x, dtype=float).reshape(-1)])
    (result,) = _pull(field, manifold, t_window, pts, tol)
    if isinstance(result, str):
        raise _miss_error(result)
    return result


def pullback_many(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    points,
    tol: float = DEFAULT_TOL,
) -> list:
    """``pullback`` of N points: per point a Pullback or its miss reason.

    A miss reason is one of MISS_REASONS. A field without a closed form
    marches every point as one lane of a batch, backward and then (when
    t1 < 0) forward, under the rules of ``pullback``; a closed-form flow runs
    the exact scan point by point.
    """
    pts = as_states(field, points)
    if field.closed_form_flow is None:
        return _pull(field, manifold, t_window, pts, tol)
    # One ``pullback`` call per point, so that perfbench/tracing.py, which
    # patches eigenfunctions.pullback, times each exact scan.
    out: list = []
    for x in pts:
        try:
            out.append(pullback(field, manifold, t_window, x, tol))
        except (NotInDomainError, AmbiguousCrossingError) as exc:
            out.append(exc.reason)
    return out


class _EigenfunctionBase:
    """Pointwise-evaluable eigenfunction: has .eigenvalue, .field, values."""

    eigenvalue: complex
    field: VectorField

    def __call__(self, x) -> complex:
        return complex(self.values([np.asarray(x, dtype=float).reshape(-1)])[0])

    def values(self, points) -> np.ndarray:  # pragma: no cover - abstract
        """phi at N points, shaped (N,); raises on the first point it cannot evaluate."""
        raise NotImplementedError


@dataclass(frozen=True)
class OpenEigenfunction(_EigenfunctionBase):
    """Eigenfunction defined by data on a transverse manifold over a time window."""

    eigenvalue: complex
    data: DataFunction
    manifold: DataManifold
    field: VectorField
    t_window: tuple[float, float]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        t1, t2 = self.t_window
        if not (t1 <= 0.0 <= t2):
            raise ValueError("t_window must contain 0")
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def values(self, points) -> np.ndarray:
        found, misses = evaluate_points(self, points)
        if misses:
            raise _miss_error(misses[0])
        return np.array([v.phi for v in found], dtype=complex)


@dataclass(frozen=True)
class ClosedFormEigenfunction(_EigenfunctionBase):
    """Eigenfunction given by a formula: ``fn`` maps a (d, N) array of states
    to their (N,) values."""

    eigenvalue: complex
    fn: Callable[[np.ndarray], np.ndarray]
    field: VectorField

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def values(self, points) -> np.ndarray:
        pts = as_states(self.field, points)
        return as_values(self.fn(pts.T), pts.shape[:1], "fn of a closed-form eigenfunction")


def _safe_power(z: np.ndarray, alpha: float) -> np.ndarray:
    """Principal-branch-safe power of every value; non-integer exponents need
    every z on [0, inf)."""
    z = np.asarray(z, dtype=complex)
    if float(alpha).is_integer():
        if alpha < 0 and np.any(z == 0):
            raise BranchCutError("negative integer power of zero")
        return z ** int(alpha)
    off = (np.abs(z.imag) > 1e-12 * np.maximum(np.abs(z), 1.0)) | (z.real < 0.0)
    if off.any():
        raise BranchCutError(
            f"non-integer power {alpha:g} of non-positive-real value {z[off][0]:.6g}"
        )
    if alpha < 0 and np.any(z.real == 0.0):
        raise BranchCutError("negative power of zero")
    return (z.real ** alpha).astype(complex)


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

    def values(self, points) -> np.ndarray:
        pts = as_states(self.field, points)
        out = np.ones(pts.shape[0], dtype=complex)
        for eig, alpha in self.factors:
            if alpha != 0.0:
                out *= _safe_power(eig.values(pts), alpha)
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
) -> float:
    """Worst relative defect of phi(rho_t(x)) = e^{lambda t} phi(x) over the points.

    This is the universal certificate that an object is a genuine
    eigenfunction; it propagates NotInDomainError when a point or its
    t-image leaves the domain, also when its orbit escapes on the way there
    (with the escape's reason). The points flow as one batch, and phi is
    evaluated at both ends of every orbit in one call.
    """
    pts = as_states(eig.field, points)
    if pts.shape[0] == 0:
        return 0.0
    factor = cmath.exp(complex(eig.eigenvalue) * t)
    try:
        ends = flow_many(eig.field, pts, [t], tol)[0]
    except (BlowUpError, StepUnderflowError) as exc:
        raise NotInDomainError(str(exc), reason=exc.reason) from exc
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
) -> float:
    """Absolute defect |phi(rho_r(x)) - phi(x) e^{lambda r}| for one orbit hop."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = flow(eig.field, x, r, tol)
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
) -> np.ndarray:
    """|grad(phi1) . perp-grad(phi2)| at each point, by central differences.

    The difference step is 1e-5 of the points' bounding-box diagonal (at
    least 1e-5). Each eigenfunction is evaluated on the whole stencil in one
    call.

    Near-zero everywhere means the two candidates share level sets (one
    primary class); systematically nonzero level-set crossings separate them.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("level-set transversality is defined for planar states")
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
) -> bool:
    """Numerical level-set equivalence: transversality at most
    PRIMARY_CLASS_THRESHOLD everywhere."""
    return bool(np.all(levelset_transversality(eig1, eig2, points) <= PRIMARY_CLASS_THRESHOLD))


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

    A field without a closed form pulls every point back in one batch, and
    phi of every hit is one array expression.
    """
    pts = as_states(eig.field, points)
    pbs = pullback_many(eig.field, eig.manifold, eig.t_window, pts, eig.tol)
    hits = [i for i, pb in enumerate(pbs) if not isinstance(pb, str)]
    r_star = np.array([pbs[i].r_star for i in hits])
    s_star = np.array([pbs[i].s_star for i in hits])
    phi = eig.data(s_star) * np.exp(eig.eigenvalue * r_star)
    values: list[Optional[PointValue]] = [None] * len(pbs)
    for i, v in zip(hits, phi.tolist()):
        values[i] = PointValue(pts[i], v, pbs[i].r_star, pbs[i].s_star)
    return values, [pb for pb in pbs if isinstance(pb, str)]
