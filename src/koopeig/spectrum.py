"""Approximate eigenfunctions of the action-angle flow and wedge point spectrum.

On the full annulus the rotation I*t defeats exact eigenfunctions, but the
indicator bumps  phi_{omega,n}(I, theta) = e^{i theta} * n * 1[|I-omega| < 1/(2n)]
satisfy the eigen-relation up to a residual that decays like 1/n; on a
nonrecurrent wedge, closed-form eigenfunctions exist for every complex
eigenvalue.  Both facts are certified numerically here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import make_system
from .eigenfunctions import ClosedFormEigenfunction, koopman_residual
from .errors import OutOfRangeError

__all__ = [
    "ApproxEig",
    "SpectralResidual",
    "ScalingFit",
    "WedgeReport",
    "approx_eig_residual",
    "loglog_slope",
    "scaling_fit",
    "wedge_point_spectrum_check",
]

TWO_PI = 2.0 * math.pi
# The wedge check samples WEDGE_POINTS points of actions in WEDGE_ANNULUS and
# certifies the eigen-relation over the time WEDGE_T.
WEDGE_ANNULUS = (0.5, 2.5)
WEDGE_POINTS = 100
WEDGE_T = 0.1


@dataclass(frozen=True)
class ApproxEig:
    """Indicator-bump candidate eigenfunction of frequency omega and sharpness n."""

    omega: float
    n: int
    annulus: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        a, b = self.annulus
        lo, hi = self.support
        if lo < a or hi > b:
            raise OutOfRangeError(
                f"support [{lo:g}, {hi:g}] leaves the annulus [{a:g}, {b:g}]"
            )

    @property
    def support(self) -> tuple[float, float]:
        half = 0.5 / self.n
        return (self.omega - half, self.omega + half)


@dataclass(frozen=True)
class SpectralResidual:
    residual_norm: float
    phi_norm: float
    relative_residual: float


def approx_eig_residual(ae: ApproxEig, t: float, quad_points: int = 256) -> SpectralResidual:
    """|| K_t phi - e^{i omega t} phi ||_{L2} by exact angular integration and
    Gauss-Legendre quadrature in the action over the bump support."""
    if quad_points < 64:
        raise ValueError("quad_points must be >= 64")
    lo, hi = ae.support
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    action = mid + half * nodes
    w = half * weights
    # |e^{iIt} - e^{i omega t}|^2 on the support, scaled by the bump height^2
    defect = np.abs(np.exp(1j * action * t) - cmath.exp(1j * ae.omega * t)) ** 2
    res2 = TWO_PI * float(np.sum(w * ae.n**2 * defect))
    phi2 = TWO_PI * float(np.sum(w * ae.n**2))
    residual = math.sqrt(max(res2, 0.0))
    phi_norm = math.sqrt(phi2)
    return SpectralResidual(residual, phi_norm, residual / phi_norm)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    n_values: np.ndarray
    residual_norms: np.ndarray
    phi_norms: np.ndarray
    relative_residuals: np.ndarray


def loglog_slope(n_values, residuals) -> float:
    """Least-squares slope of log(residual) vs log(n); 0 for constant input."""
    n = np.asarray(n_values, dtype=float)
    r = np.asarray(residuals, dtype=float)
    if n.size < 2 or np.any(r <= 0):
        return float("nan")
    return float(np.polyfit(np.log(n), np.log(r), 1)[0])


def scaling_fit(
    omega: float,
    t: float,
    n_list: Sequence[int],
    annulus: tuple[float, float] = (0.25, 4.0),
    quad_points: int = 256,
) -> ScalingFit:
    """Least-squares slope of log(relative residual) against log(n); ~ -1."""
    n_values = np.asarray(sorted(n_list), dtype=int)
    if n_values.size < 1:
        raise ValueError("n_list must be non-empty")
    rows = [
        approx_eig_residual(ApproxEig(omega, int(n), annulus), t, quad_points)
        for n in n_values
    ]
    rel = np.array([r.relative_residual for r in rows])
    slope = loglog_slope(n_values, rel)
    return ScalingFit(
        slope,
        n_values,
        np.array([r.residual_norm for r in rows]),
        np.array([r.phi_norm for r in rows]),
        rel,
    )


@dataclass(frozen=True)
class WedgeReport:
    max_residual: float
    lambdas: np.ndarray
    residuals: np.ndarray


def wedge_point_spectrum_check(
    lambda_list: Sequence[complex],
    alpha_window: tuple[float, float],
    h: Callable[[np.ndarray], np.ndarray],
    *,
    seed: int = 0,
) -> WedgeReport:
    """Certify that every tested eigenvalue admits an eigenfunction on a wedge.

    The wedge WEDGE_ANNULUS x (alpha1, alpha2) of the annulus is nonrecurrent, so
    phi(I, theta) = h(I) e^{lambda (theta - alpha1)/I} solves the
    eigen-relation exactly; the check drives it through the residual
    certificate at sampled interior points. ``h`` maps an (N,) array of
    actions to (N,) values.
    """
    a1, a2 = float(alpha_window[0]), float(alpha_window[1])
    if not (0.0 <= a2 - a1 < TWO_PI):
        raise ValueError("wedge angular width must lie in [0, 2*pi)")
    system = make_system("action_angle")
    field = system.field
    rng = np.random.default_rng(seed)
    actions = rng.uniform(*WEDGE_ANNULUS, WEDGE_POINTS)
    # Keep theta + I*t inside the wedge so the flowed point stays evaluable.
    theta_hi = a2 - actions * WEDGE_T - 1e-9
    thetas = a1 + rng.uniform(0.0, 1.0, WEDGE_POINTS) * np.maximum(theta_hi - a1, 0.0)
    points = np.column_stack([actions, thetas])

    lams = np.asarray(list(lambda_list), dtype=complex)
    residuals = np.empty(lams.size)
    for k, lam in enumerate(lams):
        def phi(x, lam=lam):
            return h(x[0]) * np.exp(lam * (x[1] - a1) / x[0])

        residuals[k] = koopman_residual(ClosedFormEigenfunction(lam, phi, field), points, WEDGE_T)
    return WedgeReport(float(residuals.max()), lams, residuals)
