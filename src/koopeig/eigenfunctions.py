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
from typing import Callable, Sequence

import numpy as np

# ``find_crossings`` and ``flow`` are not called here, but
# perfbench/tracing.py patches eigenfunctions.find_crossings and
# eigenfunctions.flow.
from .dynamics import (  # noqa: F401
    DEFAULT_TOL,
    VectorField,
    _batch_event,
    _check_tol,
    _flow_lanes,
    _search,
    _sum_sq,
    as_states,
    find_crossings,
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
from .manifolds import DataFunction, DataManifold, _as_batch, as_values

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
    the manifold itself, at its parameter: the Euclidean gap to its embedding
    is at most on_tol."""
    s = _as_batch(manifold.locate(states), states.shape[1:], "locate")
    feet = _as_batch(manifold.embed(s), (manifold.dim, s.size), "embed")
    with np.errstate(over="ignore"):  # a gap that overflows is inf: off the manifold
        gap = np.sqrt(_sum_sq(feet - states))
    return s, gap <= on_tol


# The error of each miss reason, and what it says of a search or a flow.
_MISSES = {
    NO_CROSSING: (NotInDomainError, "orbit does not meet the data manifold inside the time window"),
    AMBIGUOUS: (AmbiguousCrossingError, "orbit meets the data manifold more than once in one direction"),
    BLOW_UP: (BlowUpError, "orbit blows up"),
    STEP_UNDERFLOW: (StepUnderflowError, "orbit's step size underflows"),
}


def _miss_error(reason: str) -> NotInDomainError:
    """The NotInDomainError subclass whose reason is ``reason``."""
    cls, message = _MISSES[reason]
    return cls(message)


def _raise_first(why: np.ndarray) -> None:
    """Raise the error of the first miss reason in the ``why`` column, if any."""
    misses = why[np.not_equal(why, None)]
    if misses.size:
        raise _miss_error(misses[0])


def _window(t_window) -> tuple[float, float]:
    """The window's ends t1 <= 0 <= t2 with a finite width t2 - t1, else ValueError."""
    t1, t2 = float(t_window[0]), float(t_window[1])
    if not (t1 <= 0.0 <= t2):
        raise ValueError("t_window must contain 0")
    if not math.isfinite(t2 - t1):
        raise ValueError("t_window must be finite, and so must its width")
    return t1, t2


def _eigenvalue(value) -> complex:
    """The eigenvalue as a complex number, else ValueError when it is not finite."""
    lam = complex(value)
    if not cmath.isfinite(lam):
        raise ValueError(f"the eigenvalue must be finite, got {lam}")
    return lam


def _pull(
    field: VectorField,
    manifold: DataManifold,
    t_window,
    pts: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The search behind ``pullback`` and ``pullback_many`` on the (N, d)
    points: r* and s* as (N,) arrays, the feet as (d, N), all NaN at the
    misses, and the ``why`` column of ``pullback_many``.

    A point on the manifold itself is its own foot, at r* = 0. The others are
    searched backward over the downstream part of the window, t2 plus a
    slack, and then, when t1 < 0, forward over the upstream part, -t1 plus
    the slack. A foot is a crossing of the supporting surface whose state
    lies on the manifold. Each direction is one ``_search``, which returns
    every crossing in its budget and each raw escape, crossings or not; it
    starts from the surface values of the test for points on the manifold.
    The rules that settle a point:

    - only a point with no backward foot is searched forward;
    - one foot in a direction is the pullback: r* = tau backward, and
      r* = -tau < 0 forward, where tau is the time of flight to the foot;
    - more than one foot in a direction is AMBIGUOUS;
    - a point with no foot in either direction misses with the reason of its
      first escape, crossings or not, else with NO_CROSSING.
    """
    if manifold.surface is None:
        raise ValueError("manifold carries no supporting-surface distance")
    if manifold.locate is None:
        raise ValueError("manifold carries no locate, the inverse of its embedding")
    t1, t2 = _window(t_window)
    _check_tol(tol)
    slack = max(1e-9, 1e-3 * (t2 - t1))
    on_tol = max(1e-9, 1e-6 * manifold.extent)
    surface = _batch_event(manifold.surface, "surface event")

    # Rows r*, s* and the foot's coordinates, one column per point.
    out = np.full((2 + pts.shape[1], pts.shape[0]), np.nan)
    why = [NO_CROSSING] * pts.shape[0]
    g0 = surface(pts.T)
    near = np.abs(g0) < tol
    if near.any():
        near = near.nonzero()[0]
        s, on = _on_manifold(manifold, pts[near].T, on_tol)
        near = near[on]
        out[0, near], out[1, near], out[2:, near] = 0.0, s[on], pts[near].T
        for i in near.tolist():
            why[i] = None
    todo = [i for i, reason in enumerate(why) if reason is not None]  # the points not yet settled
    passes = [(-1.0, t2 + slack)] + ([(1.0, -t1 + slack)] if t1 < 0.0 else [])
    for sign, budget in passes:
        if not todo:
            break
        # With every point searched, a slice: views of the arrays, not copies.
        sel = slice(None) if len(todo) == pts.shape[0] else todo
        crossings, ends = _search(field, pts[sel], surface, g0[sel], sign, budget, tol)
        for j, (kind, _, _) in ends.items():
            if why[todo[j]] == NO_CROSSING:
                why[todo[j]] = kind
        if not any(crossings):
            continue
        # Every crossing as a column r*, s, state, like the columns of out.
        flat = np.empty((out.shape[0], sum(map(len, crossings))))
        for c, (tau, y) in enumerate(cross for found in crossings for cross in found):
            flat[0, c], flat[2:, c] = -sign * tau, y
        flat[1], on = _on_manifold(manifold, flat[2:], on_tol)
        # Each point's feet: the columns of its crossings that lie on the manifold.
        on, start = on.tolist(), 0
        hit, foot, left = [], [], []
        for i, found in zip(todo, crossings):
            feet = [c for c in range(start, start + len(found)) if on[c]]
            start += len(found)
            if len(feet) == 1:
                hit.append(i)
                foot += feet
                why[i] = None
            elif feet:
                why[i] = AMBIGUOUS
            else:
                left.append(i)
        out[:, hit] = flat[:, foot]
        todo = left
    return out[0], out[1], out[2:], np.array(why, dtype=object)


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
    pts = as_states(field, np.asarray(x, dtype=float).reshape(1, -1))
    r_star, s_star, feet, why = _pull(field, manifold, t_window, pts, tol)
    _raise_first(why)
    return Pullback(float(r_star[0]), float(s_star[0]), feet[:, 0].copy())


def pullback_many(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    points,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``pullback`` of N points: r* and s* as (N,) arrays and the feet as a
    (d, N) array, all NaN at the misses, and ``why``, each point's miss
    reason (one of MISS_REASONS) or None, as an (N,) object array.

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
    why = np.full(pts.shape[0], None, dtype=object)
    for j, x in enumerate(pts):
        try:
            pb = pullback(field, manifold, t_window, x, tol)
        except NotInDomainError as exc:
            why[j] = exc.reason
            continue
        out[0, j], out[1, j], out[2:, j] = pb.r_star, pb.s_star, pb.foot
    return out[0], out[1], out[2:], why


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
        _raise_first(why)
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
        object.__setattr__(self, "eigenvalue", _eigenvalue(self.eigenvalue))

    def columns(self, points) -> tuple[np.ndarray, np.ndarray]:
        phi, _, _, why = evaluate_points(self, points)
        return phi, why


@dataclass(frozen=True)
class ClosedFormEigenfunction(_EigenfunctionBase):
    """Eigenfunction given by a formula: ``fn`` maps a (d, N) array of states
    to their (N,) values."""

    eigenvalue: complex
    fn: Callable[[np.ndarray], np.ndarray]
    field: VectorField

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", _eigenvalue(self.eigenvalue))

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
        _eigenvalue(self.eigenvalue)  # also refuses a non-finite exponent
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
) -> tuple[np.ndarray, np.ndarray]:
    """The relative defect of phi(rho_t(x)) = e^{lambda t} phi(x) at each
    point, an (N,) array, NaN where the point fails (and NaN or inf where phi
    or e^{lambda t} overflows), and ``why``, each point's miss reason: its
    own, else the kind of its orbit's raw escape before t, else its
    t-image's, else None. One flow of the points, then one ``columns`` call
    on the points and the images that did not escape.
    """
    pts = as_states(eig.field, points)
    n = pts.shape[0]
    images, ends = _flow_lanes(eig.field, pts, [t], tol)
    why_y = np.full(n, None, dtype=object)
    why_y[list(ends)] = [kind for kind, _, _ in ends.values()]
    flowed = np.equal(why_y, None)
    phi, why = eig.columns(np.concatenate([pts, images[0][flowed]]))
    phi_y = np.full(n, np.nan, dtype=complex)
    phi_y[flowed], why_y[flowed] = phi[n:], why[n:]
    defects = _defects(phi[:n], phi_y, complex(eig.eigenvalue), t)
    return defects, np.where(np.equal(why[:n], None), why_y, why[:n])


def _defects(phi_x: np.ndarray, phi_y: np.ndarray, lam, t: float) -> np.ndarray:
    """The relative defects |phi_y - e^{lam t} phi_x| / max(1, |phi_x|) of
    the eigen-relation, elementwise under broadcasting: phi_x and phi_y are
    phi at points and at their t-images. NaN or inf where a value
    overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(phi_y - np.exp(lam * t) * phi_x) / np.maximum(1.0, np.abs(phi_x))


def koopman_residual(
    eig: _EigenfunctionBase, points: Sequence, t: float = 0.1, *, tol: float = DEFAULT_TOL
) -> float:
    """The universal certificate that an object is a genuine eigenfunction:
    the max of ``koopman_defects`` (0.0 for no points). The first point that
    fails it raises the NotInDomainError subclass of its reason."""
    defects, why = koopman_defects(eig, points, t, tol=tol)
    _raise_first(why)
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
    No points give an empty array.
    """
    pts = as_states(eig1.field, points)
    if pts.shape[1] != 2:
        raise ValueError("level-set transversality is defined for planar states")
    if not pts.shape[0]:
        return np.zeros(0)
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
    PRIMARY_CLASS_THRESHOLD everywhere (True for no points)."""
    return bool(np.all(levelset_transversality(eig1, eig2, points) <= PRIMARY_CLASS_THRESHOLD))


def evaluate_points(
    eig: OpenEigenfunction, points: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate on many points: phi, r* and s*, each an (N,) array in point
    order with NaN at the points outside the domain, and ``why``, each
    point's miss reason (one of MISS_REASONS) or None.

    r*, s* and ``why`` are ``pullback_many``'s columns as they come. phi
    is one array expression over the hits, so ``eig.data`` never sees a miss.

    A hit stays a hit where e^{lambda r*} overflows: its phi is not finite.
    There phi = h * e^{lambda r*} is formed part by part, and a term with an
    exactly zero factor is 0, so a real h with a real lambda gives (inf, 0)
    rather than the complex product's (inf, nan).
    """
    r_star, s_star, _, why = pullback_many(
        eig.field, eig.manifold, eig.t_window, points, eig.tol
    )
    hit = ~np.isnan(r_star)
    phi = np.full(r_star.shape, np.nan, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        phi[hit] = _product(eig.data(s_star[hit]), np.exp(eig.eigenvalue * r_star[hit]))
    return phi, r_star, s_star, why


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
