"""Eigenfunction construction by characteristic pullback and its consistency checks.

An open eigenfunction on the swept domain U = union_{t in [t1,t2]} rho_t(Lambda)
is evaluated pointwise as  phi(x) = h(s*(x)) * exp(lambda * r*(x)),  where
(r*, s*) locate the unique intersection of the orbit through x with the data
manifold.  Everything downstream (residual certification, the algebraic
semigroup of powers, data restatement, level-set transversality) builds on
that single evaluation primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# ``find_crossings`` and ``flow`` are not called here, but
# perfbench/tracing.py patches eigenfunctions.find_crossings and
# eigenfunctions.flow.
from .dynamics import (  # noqa: F401
    DEFAULT_TOL,
    VectorField,
    _check_tol,
    _flow_lanes,
    as_states,
    find_crossings,
    find_crossings_many,
    flow,
)
from .errors import (
    AMBIGUOUS,
    BLOW_UP,
    NO_CROSSING,
    STEP_UNDERFLOW,
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
    "koopman_defects",
    "restate_data",
    "levelset_transversality",
    "same_primary_class",
    "evaluate_points",
]

PRIMARY_CLASS_THRESHOLD = 1e-4


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


# The error of each miss reason, and what it says.
_MISSES = {
    NO_CROSSING: (NotInDomainError, "orbit does not meet the data manifold inside the time window"),
    AMBIGUOUS: (AmbiguousCrossingError, "orbit meets the data manifold more than once in one direction"),
    BLOW_UP: (BlowUpError, "orbit blows up before it meets the data manifold"),
    STEP_UNDERFLOW: (StepUnderflowError, "orbit's step size underflows before it meets the data manifold"),
}


def _miss_error(reason: str) -> NotInDomainError:
    """The NotInDomainError subclass whose reason is ``reason``."""
    cls, message = _MISSES[reason]
    return cls(message)


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
    lies on the manifold. Each direction is one ``find_crossings_many``
    call, which returns every crossing in its budget. The rules that settle
    a point:

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
        crossings, escaped = find_crossings_many(field, pts[idx], manifold.surface, sign, budget, tol)
        # A lane that escapes has no crossings; its first escape names its miss.
        for i, exc in zip(idx.tolist(), escaped):
            if exc is not None and reason[i] == NO_CROSSING:
                reason[i] = exc.reason
        counts = [len(found) for found in crossings]
        if not any(counts):
            continue
        # Every crossing as a column r*, s, state, like the columns of out.
        lane = np.repeat(np.arange(idx.size), counts)
        flat = np.array([(-sign * tau, 0.0, *y) for found in crossings for tau, y in found]).T
        flat[1], on = _on_manifold(manifold, flat[2:], on_tol)
        feet = np.bincount(lane[on], minlength=idx.size)
        one = on & (feet == 1)[lane]
        out[:, idx[lane[one]]] = flat[:, one]
        reason[idx[feet > 1]] = AMBIGUOUS
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
    in the same direction (nonrecurrence fails), else BlowUpError or
    StepUnderflowError for the search's escape, else NotInDomainError with
    NO_CROSSING.
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
    """Pointwise-evaluable eigenfunction: has .eigenvalue, .field, columns."""

    eigenvalue: complex
    field: VectorField

    def __call__(self, x) -> complex:
        return complex(self.values([np.asarray(x, dtype=float).reshape(-1)])[0])

    def columns(self, points) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover - abstract
        """phi at N points, NaN at the misses, and each miss's reason (one of
        MISS_REASONS), else None: two (N,) arrays, the second of objects."""
        raise NotImplementedError

    def values(self, points) -> np.ndarray:
        """phi at N points, shaped (N,); the first miss raises the
        NotInDomainError subclass of its reason."""
        phi, why = self.columns(points)
        misses = why[np.not_equal(why, None)]
        if misses.size:
            raise _miss_error(misses[0])
        return phi


@dataclass(frozen=True)
class OpenEigenfunction(_EigenfunctionBase):
    """Eigenfunction defined by data on a transverse manifold over a time window.

    The window must be finite and contain 0 and tol finite and positive,
    as for ``pullback``; either that is not is a ValueError when the
    eigenfunction is built.
    """

    eigenvalue: complex
    data: DataFunction
    manifold: DataManifold
    field: VectorField
    t_window: tuple[float, float]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        _window(self.t_window)
        _check_tol(self.tol)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def columns(self, points) -> tuple[np.ndarray, np.ndarray]:
        phi, r_star, _, misses = evaluate_points(self, points)
        why = np.full(phi.shape, None, dtype=object)
        why[np.isnan(r_star)] = misses
        return phi, why


@dataclass(frozen=True)
class ClosedFormEigenfunction(_EigenfunctionBase):
    """Eigenfunction given by a formula: ``fn`` maps a (d, N) array of states
    to their (N,) values."""

    eigenvalue: complex
    fn: Callable[[np.ndarray], np.ndarray]
    field: VectorField

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    def columns(self, points) -> tuple[np.ndarray, np.ndarray]:
        pts = as_states(self.field, points)
        phi = as_values(self.fn(pts.T), pts.shape[:1], "fn of a closed-form eigenfunction")
        return phi, np.full(phi.shape, None, dtype=object)


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

    def columns(self, points) -> tuple[np.ndarray, np.ndarray]:
        """A point misses with its first missing factor's reason."""
        pts = as_states(self.field, points)
        factors = [(eig.columns(pts), alpha) for eig, alpha in self.factors if alpha != 0.0]
        why = np.full(pts.shape[0], None, dtype=object)
        for (_, miss), _ in factors:
            why = np.where(np.equal(why, None), miss, why)
        hit = np.equal(why, None)
        out = np.where(hit, 1.0 + 0.0j, np.nan)
        for (phi, _), alpha in factors:
            out[hit] *= _safe_power(phi[hit], alpha)
        return out, why


def algebraic_combine(
    eig1: _EigenfunctionBase, alpha1: float, eig2: _EigenfunctionBase, alpha2: float
) -> ProductEigenfunction:
    """Semigroup combinator: phi1^a1 * phi2^a2 with eigenvalue a1*l1 + a2*l2."""
    return ProductEigenfunction(((eig1, float(alpha1)), (eig2, float(alpha2))))


def eig_power(eig: _EigenfunctionBase, p: float) -> ProductEigenfunction:
    """phi^p with eigenvalue p*lambda."""
    return ProductEigenfunction(((eig, float(p)),))


def koopman_defects(
    eig: _EigenfunctionBase, points: Sequence, t: float, *, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, list[Optional[NotInDomainError]]]:
    """The relative defect of phi(rho_t(x)) = e^{lambda t} phi(x) at each
    point, an (N,) array, NaN where the point fails (and NaN or inf where phi
    or e^{lambda t} overflows), and each point's error: its own miss, else its
    orbit's escape before t as it is (BlowUpError or StepUnderflowError), else
    its t-image's miss, else None. One flow of the points, then one
    ``columns`` call on the points and the images that did not escape.
    """
    pts = as_states(eig.field, points)
    n = pts.shape[0]
    ends, escapes = _flow_lanes(eig.field, pts, [t], tol)
    flowed = np.array([escape is None for escape in escapes], dtype=bool)
    phi, why = eig.columns(np.concatenate([pts, ends[0][flowed]]))
    phi_y, why_y = np.full(n, np.nan, dtype=complex), np.full(n, None, dtype=object)
    phi_y[flowed], why_y[flowed] = phi[n:], why[n:]
    errors = [
        _miss_error(own) if own else escape or (_miss_error(end) if end else None)
        for own, escape, end in zip(why[:n].tolist(), escapes, why_y.tolist())
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(complex(eig.eigenvalue) * t)
        defects = np.abs(phi_y - factor * phi[:n]) / np.maximum(1.0, np.abs(phi[:n]))
    return defects, errors


def koopman_residual(
    eig: _EigenfunctionBase, points: Sequence, t: float = 0.1, *, tol: float = DEFAULT_TOL
) -> float:
    """The universal certificate that an object is a genuine eigenfunction:
    the max of ``koopman_defects`` (0.0 for no points). The first point that
    fails it raises its error."""
    defects, errors = koopman_defects(eig, points, t, tol=tol)
    error = next(filter(None, errors), None)
    if error is not None:
        raise error
    return float(defects.max(initial=0.0))


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

    A hit stays a hit where e^{lambda r*} overflows: its phi is not finite.
    There phi = h * e^{lambda r*} is formed part by part, and a term with an
    exactly zero factor is 0, so a real h with a real lambda gives (inf, 0)
    rather than the complex product's (inf, nan).
    """
    r_star, s_star, _, misses = pullback_many(
        eig.field, eig.manifold, eig.t_window, points, eig.tol
    )
    hit = ~np.isnan(r_star)
    phi = np.full(r_star.shape, np.nan, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        phi[hit] = _product(eig.data(s_star[hit]), np.exp(eig.eigenvalue * r_star[hit]))
    return phi, r_star, s_star, misses


def _product(h: np.ndarray, e: np.ndarray) -> np.ndarray:
    """h * e elementwise. Where the complex product is not finite, it is formed
    part by part, and a term with an exactly zero factor is 0."""
    out = h * e
    off = ~np.isfinite(out)
    if off.any():
        h, e = h[off], e[off]

        def term(a, b):
            return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)

        out.real[off] = term(h.real, e.real) - term(h.imag, e.imag)
        out.imag[off] = term(h.real, e.imag) + term(h.imag, e.real)
    return out
