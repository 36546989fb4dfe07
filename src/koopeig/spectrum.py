"""Approximate eigenfunctions of the action-angle flow and wedge point spectrum.

On the full annulus the rotation I*t defeats exact eigenfunctions, but the
indicator bumps  phi_{omega,n}(I, theta) = e^{i theta} * n * 1[|I-omega| < 1/(2n)]
satisfy the eigen-relation up to a residual that decays like 1/n, here in
closed form; on a nonrecurrent wedge, closed-form eigenfunctions exist for
every complex eigenvalue, which the wedge check certifies numerically.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import flow_many, make_system
from .eigenfunctions import _defects
from .errors import OutOfRangeError
from .manifolds import as_values

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
# The wedge check forms its defects in blocks of about this many entries, so
# that its memory does not grow with the number of eigenvalues.
WEDGE_BLOCK = 2**14


@dataclass(frozen=True)
class ApproxEig:
    """Indicator-bump candidate eigenfunction of frequency omega and sharpness n,
    a positive integer within the float range: an int, a numpy integer or an
    integral float, not a bool."""

    omega: float
    n: int
    annulus: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self):
        n = self.n
        integral = isinstance(n, numbers.Real) and not isinstance(n, bool) and n % 1 == 0
        if not (integral and 1 <= n <= sys.float_info.max):
            raise ValueError(f"n must be a positive integer, got {n!r}")
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


def approx_eig_residual(ae: ApproxEig, t: float) -> SpectralResidual:
    """|| K_t phi - e^{i omega t} phi ||_{L2} of the bump, in closed form.

    ||phi|| = sqrt(2 pi n), and the squared relative residual is the mean of
    |e^{iIt} - e^{i omega t}|^2 = 2 - 2 cos((I - omega) t) over the support,
    2 (1 - sin x / x) with x = t / (2n): neither depends on omega.
    """
    x = abs(t) / (2 * ae.n)
    if x < 0.5:
        # Where 1 - sin x / x cancels, its series: 2 (1 - sin x / x) =
        # x^2/3 (1 - x^2/20 (1 - x^2/42 (1 - ...))) to x^12, whose remainder
        # is below 2e-15 of the sum here; 0 at t = 0.
        series = 1.0
        for m in (156, 110, 72, 42, 20):
            series = 1.0 - x * x / m * series
        relative = x * math.sqrt(series / 3.0)
    else:
        relative = math.sqrt(2.0 * (1.0 - math.sin(x) / x))
    phi_norm = math.sqrt(TWO_PI * ae.n)
    return SpectralResidual(relative * phi_norm, phi_norm, relative)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    n_values: np.ndarray
    residual_norms: np.ndarray
    phi_norms: np.ndarray
    relative_residuals: np.ndarray


def loglog_slope(n_values, residuals) -> float:
    """Least-squares slope of log(residual) vs log(n); 0 for constant input,
    NaN for fewer than two distinct n or a residual that is not positive."""
    n = np.asarray(n_values, dtype=float)
    r = np.asarray(residuals, dtype=float)
    if np.unique(n).size < 2 or np.any(r <= 0):
        return float("nan")
    return float(np.polyfit(np.log(n), np.log(r), 1)[0])


def scaling_fit(
    omega: float,
    t: float,
    n_list: Sequence[int],
    annulus: tuple[float, float] = (0.25, 4.0),
) -> ScalingFit:
    """Least-squares slope of log(relative residual) against log(n); ~ -1."""
    eigs = [ApproxEig(omega, n, annulus) for n in sorted(n_list)]
    if not eigs:
        raise ValueError("n_list must be non-empty")
    n_values = np.array([ae.n for ae in eigs], dtype=int)
    rows = [approx_eig_residual(ae, t) for ae in eigs]
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


def _wedge_window(alpha_window) -> tuple[float, float]:
    """The wedge's angles (alpha1, alpha2), of angular width in [0, 2*pi), else ValueError."""
    a1, a2 = float(alpha_window[0]), float(alpha_window[1])
    if not (0.0 <= a2 - a1 < TWO_PI):
        raise ValueError("wedge angular width must lie in [0, 2*pi)")
    return a1, a2


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
    eigen-relation exactly; the check measures it with the residual
    certificate's defects (``koopman_residual``) at sampled interior
    points, for every eigenvalue in one pass: one flow of the points, one
    call of ``h`` on the points and their images, and each eigenvalue's phi
    and defects as array expressions, WEDGE_BLOCK entries per block. ``h``
    maps an (N,) array of actions to (N,) values. An orbit that escapes
    raises its BlowUpError; an empty ``lambda_list`` is a ValueError.
    """
    a1, a2 = _wedge_window(alpha_window)
    lams = np.asarray(list(lambda_list), dtype=complex)
    if lams.size == 0:
        raise ValueError("lambda_list must be non-empty")
    system = make_system("action_angle")
    field = system.field
    rng = np.random.default_rng(seed)
    actions = rng.uniform(*WEDGE_ANNULUS, WEDGE_POINTS)
    # Keep theta + I*t inside the wedge so the flowed point stays evaluable.
    theta_hi = a2 - actions * WEDGE_T - 1e-9
    thetas = a1 + rng.uniform(0.0, 1.0, WEDGE_POINTS) * np.maximum(theta_hi - a1, 0.0)
    points = np.column_stack([actions, thetas])
    # The points, then their images, as (2, 2 WEDGE_POINTS) columns.
    x = np.concatenate([points, flow_many(field, points, [WEDGE_T])[0]]).T
    angle = x[1] - a1
    residuals = np.empty(lams.size)
    step = max(1, WEDGE_BLOCK // x.shape[1])
    # For a large lambda phi overflows, and the residual is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        h_x = as_values(h(x[0]), x[0].shape, "h of the wedge check")
        for lo in range(0, lams.size, step):
            lam = lams[lo : lo + step, None]
            phi = h_x * np.exp(lam * angle / x[0])
            defects = _defects(phi[:, :WEDGE_POINTS], phi[:, WEDGE_POINTS:], lam, WEDGE_T)
            residuals[lo : lo + step] = defects.max(axis=1, initial=0.0)
    return WedgeReport(float(residuals.max()), lams, residuals)
