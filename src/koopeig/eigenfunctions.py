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
    _flow_lanes,
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
    BranchCutError,
    NotInDomainError,
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
    "orbit_misses",
    "orbit_scaling_defect",
    "restate_data",
    "levelset_transversality",
    "same_primary_class",
    "evaluate_points",
]

PRIMARY_CLASS_THRESHOLD = 1e-4
# The first cap on the crossings of the supporting surface that a search
# collects in each direction. A point that meets the cap with fewer than two
# feet is searched again under twice the cap; more than one foot in a
# direction makes the pullback ambiguous.
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


def _miss_error(reason: str) -> NotInDomainError:
    if reason == AMBIGUOUS:
        return AmbiguousCrossingError("orbit meets the data manifold more than once in one direction")
    return NotInDomainError("orbit does not meet the data manifold inside the time window", reason)


def _window(t_window) -> tuple[float, float]:
    """The window's ends t1 <= 0 <= t2, both finite, else ValueError."""
    t1, t2 = float(t_window[0]), float(t_window[1])
    if not (t1 <= 0.0 <= t2):
        raise ValueError("t_window must contain 0")
    if not (np.isfinite(t1) and np.isfinite(t2)):
        raise ValueError("t_window must be finite")
    return t1, t2


def _pull(
    field: VectorField,
    manifold: DataManifold,
    t_window,
    pts: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The search behind ``pullback`` and ``pullback_many`` on the (N, d)
    points: r* and s* as (N,) arrays, the feet as (d, N), all NaN at the
    misses, and the miss reasons in point order.

    A point on the manifold itself is its own foot, at r* = 0. The others are
    searched backward over the downstream part of the window, t2 plus a
    slack, and then, when t1 < 0, forward over the upstream part, -t1 plus
    the slack. A foot is a crossing of the supporting surface whose state
    lies on the manifold. A search collects up to AMBIGUITY_COUNT crossings;
    a point that meets that cap with fewer than two feet is searched again
    from its start under twice the cap, until it has two feet, finds fewer
    crossings than the cap or escapes. The rules that settle a point:

    - only a point with no backward foot is searched forward;
    - one foot in a direction is the pullback: r* = tau backward, and
      r* = -tau < 0 forward, where tau is the time of flight to the foot;
    - more than one foot in a direction is AMBIGUOUS;
    - a point with no foot in either direction misses with the reason of its
      first escape (blow-up or step underflow), else with NO_CROSSING.
    """
    if manifold.surface is None:
        raise ValueError("manifold carries no supporting-surface distance")
    if manifold.locate is None:
        raise ValueError("manifold carries no locate, the inverse of its embedding")
    t1, t2 = _window(t_window)
    slack = max(1e-9, 1e-3 * (t2 - t1))
    on_tol = max(1e-9, 1e-6 * manifold.extent())

    # Rows r*, s* and the foot's coordinates, one column per point.
    out = np.full((2 + pts.shape[1], pts.shape[0]), np.nan)
    reason = np.full(pts.shape[0], NO_CROSSING, dtype=object)
    near = np.flatnonzero(np.abs(manifold.surface(pts.T)) < tol)
    if near.size:
        s, on = _on_manifold(manifold, pts[near].T, on_tol)
        near = near[on]
        out[0, near], out[1, near], out[2:, near] = 0.0, s[on], pts[near].T
    passes = [(-1.0, t2 + slack)] + ([(1.0, -t1 + slack)] if t1 < 0.0 else [])
    for sign, budget in passes:
        idx = np.flatnonzero(np.isnan(out[0]) & (reason != AMBIGUOUS))
        cap = AMBIGUITY_COUNT
        while True:
            crossings, escaped = find_crossings_many(
                field, pts[idx], manifold.surface, sign, budget, tol, max_count=cap
            )
            # A lane that escapes has no crossings; its first escape names its miss.
            for i, exc in zip(idx.tolist(), escaped):
                if exc is not None and reason[i] == NO_CROSSING:
                    reason[i] = exc.reason
            counts = [len(found) for found in crossings]
            if not any(counts):
                break
            # Every crossing as a column r*, s, state, like the columns of out.
            lane = np.repeat(np.arange(idx.size), counts)
            flat = np.array([(-sign * tau, 0.0, *y) for found in crossings for tau, y in found]).T
            flat[1], on = _on_manifold(manifold, flat[2:], on_tol)
            feet = np.bincount(lane[on], minlength=idx.size)
            # A lane that met the cap with fewer than two feet is searched again.
            again = (np.array(counts) == cap) & (feet < 2)
            one = on & ((feet == 1) & ~again)[lane]
            out[:, idx[lane[one]]] = flat[:, one]
            reason[idx[feet > 1]] = AMBIGUOUS
            idx, cap = idx[again], 2 * cap
            if not idx.size:
                break
    r_star, s_star = out[0], out[1]
    return r_star, s_star, out[2:], reason[np.isnan(r_star)].tolist()


def pullback(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    x,
    tol: float = DEFAULT_TOL,
) -> Pullback:
    """Locate the in-window intersection of the orbit through x with the manifold.

    Searches backward over the downstream part of the window first and, when
    t1 < 0 and the point has no backward foot, forward over the upstream
    part; ``_pull`` states the rules that settle the point. A miss raises
    AmbiguousCrossingError when the orbit meets the manifold more than once
    in the same direction (nonrecurrence fails), else NotInDomainError with
    NO_CROSSING or the reason of the search's escape, BLOW_UP or STEP_UNDERFLOW.
    """
    pts = as_states(field, [np.asarray(x, dtype=float).reshape(-1)])
    r_star, s_star, feet, misses = _pull(field, manifold, t_window, pts, tol)
    if misses:
        raise _miss_error(misses[0])
    return Pullback(float(r_star[0]), float(s_star[0]), feet[:, 0].copy())


def pullback_many(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    points,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """``pullback`` of N points: r* and s* as (N,) arrays and the feet as a
    (d, N) array, all NaN at the misses, and the miss reason (one of
    MISS_REASONS) of each miss in point order.

    A field without a closed form marches every point as one lane of a
    batch, backward and then (when t1 < 0) forward, under the rules of
    ``_pull``; a closed-form flow runs the exact scan point by point. An
    empty batch goes through ``_pull`` on either kind of flow, so that its
    window and tol are checked.
    """
    pts = as_states(field, points)
    if field.closed_form_flow is None or not pts.shape[0]:
        return _pull(field, manifold, t_window, pts, tol)
    # One ``pullback`` call per point, so that perfbench/tracing.py, which
    # patches eigenfunctions.pullback, times each exact scan.
    out = np.full((2 + pts.shape[1], pts.shape[0]), np.nan)
    misses: list[str] = []
    for j, x in enumerate(pts):
        try:
            pb = pullback(field, manifold, t_window, x, tol)
        except NotInDomainError as exc:
            misses.append(exc.reason)
            continue
        out[0, j], out[1, j], out[2:, j] = pb.r_star, pb.s_star, pb.foot
    return out[0], out[1], out[2:], misses


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
    """Eigenfunction defined by data on a transverse manifold over a time window.

    The window must be finite and contain 0, as for ``pullback``; a window
    that is not is a ValueError when the eigenfunction is built.
    """

    eigenvalue: complex
    data: DataFunction
    manifold: DataManifold
    field: VectorField
    t_window: tuple[float, float]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        _window(self.t_window)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def values(self, points) -> np.ndarray:
        """phi at N points; the first miss raises its ``pullback`` NotInDomainError."""
        phi, _, _, misses = evaluate_points(self, points)
        if misses:
            raise _miss_error(misses[0])
        return phi


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
    eigenfunction. A point or t-image outside the domain raises its
    NotInDomainError: BlowUpError or StepUnderflowError when the orbit escapes
    on the way, else the miss of ``values``. The points flow as one batch, and
    phi is evaluated at both ends of every orbit in one call.
    """
    pts = as_states(eig.field, points)
    if pts.shape[0] == 0:
        return 0.0
    factor = cmath.exp(complex(eig.eigenvalue) * t)
    ends = flow_many(eig.field, pts, [t], tol)[0]
    phi = eig.values(np.concatenate([pts, ends]))
    phi_x, phi_y = phi[: pts.shape[0]], phi[pts.shape[0]:]
    defect = np.abs(phi_y - factor * phi_x) / np.maximum(1.0, np.abs(phi_x))
    return float(defect.max())


def orbit_misses(
    eig: OpenEigenfunction, points: Sequence, t: float, *, tol: float = DEFAULT_TOL
) -> list[Optional[str]]:
    """Why each point fails ``koopman_residual``'s certificate at time t, in
    point order: the point's own miss, else the escape of its orbit before
    t, else the miss of its t-image (each one of MISS_REASONS), or None
    when the point and its t-image are both in the domain. The points flow
    as one batch, and the points and their images pull back in one call.
    """
    pts = as_states(eig.field, points)
    n = pts.shape[0]
    ends, escapes = _flow_lanes(eig.field, pts, [t], tol)
    flowed = np.array([escape is None for escape in escapes], dtype=bool)
    r_star, _, _, misses = pullback_many(
        eig.field, eig.manifold, eig.t_window, np.concatenate([pts, ends[0][flowed]]), eig.tol
    )
    why = np.full(r_star.size, None, dtype=object)
    why[np.isnan(r_star)] = misses
    image = np.full(n, None, dtype=object)
    image[flowed] = why[n:]
    return [
        own or (escape.reason if escape is not None else end)
        for own, escape, end in zip(why[:n].tolist(), escapes, image.tolist())
    ]


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


def evaluate_points(
    eig: OpenEigenfunction, points: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Evaluate on many points: phi, r* and s*, each an (N,) array in point
    order with NaN at the points outside the domain, and the miss reason (one
    of MISS_REASONS) of each such point in point order.

    r*, s* and the misses are ``pullback_many``'s columns as they come. phi
    is one array expression over the hits, so ``eig.data`` never sees a miss.
    """
    r_star, s_star, _, misses = pullback_many(
        eig.field, eig.manifold, eig.t_window, points, eig.tol
    )
    hit = ~np.isnan(r_star)
    phi = np.full(r_star.shape, np.nan, dtype=complex)
    phi[hit] = eig.data(s_star[hit]) * np.exp(eig.eigenvalue * r_star[hit])
    return phi, r_star, s_star, misses
