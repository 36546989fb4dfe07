"""Greedy construction of least-squares-optimal eigenfunction dictionaries.

A characteristic grid S[i, j] = rho_{r_j}(embed(s_i)) turns the continuous
fit  min_{lambda, h} || phi_{lambda,h} - q ||  into a sequence of structured
least-squares problems: for fixed lambda the design matrix is E(lambda)
kron I, so the fit decouples into one scalar normal equation per manifold
node, and one product q @ conj(E)^T fits a whole block of candidate lambdas.
Repeatedly fitting the residual with the best candidate yields a small
dictionary of genuine eigenfunctions tailored to the target observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# ``flow`` is not called here, but perfbench/tracing.py patches decomposition.flow.
from .dynamics import DEFAULT_TOL, VectorField, flow, flow_many  # noqa: F401
from .eigenfunctions import OpenEigenfunction, _window
from .errors import EmptyTargetError
from .manifolds import DataFunction, DataManifold, _as_batch, as_values

__all__ = [
    "CharacteristicGrid",
    "TargetSample",
    "FitResult",
    "SweepResult",
    "Term",
    "DecompositionResult",
    "build_grid",
    "fit_h",
    "sweep_lambda",
    "greedy_decompose",
    "default_candidates",
]

COEFF_FLOOR = 1e-14
DEGENERATE_FLOOR = 1e-300
# The sweep's squared residuals cancel near the minimum; candidates within this
# fraction of ||q||^2 of it are refitted directly.
NEAR_BEST = 1e-12
# A real eigenvalue is refined over this many points between the argmin's neighbours.
REFINE_POINTS = 2001
# E is built in blocks of about this many entries: a decomposition holds all of
# E, and each block's products with the stage residual stay this small.
SWEEP_BLOCK = 2**14
# The default lambda sweep: this many real candidates over this range.
CANDIDATE_RANGE = (-5.0, 5.0)
CANDIDATE_COUNT = 101


@dataclass(frozen=True)
class CharacteristicGrid:
    """Flow images S[i, j] of the manifold nodes s_i at the time nodes r_j."""

    s_nodes: np.ndarray  # n+1 parameters on the manifold
    r_nodes: np.ndarray  # m+1 times spanning the window, r_nodes[0] = t1
    points: np.ndarray  # (n+1, m+1, d) states
    field: VectorField
    manifold: DataManifold
    t_window: tuple[float, float]

    @property
    def n_s(self) -> int:
        return self.s_nodes.size

    @property
    def n_r(self) -> int:
        return self.r_nodes.size


def build_grid(
    field: VectorField,
    manifold: DataManifold,
    t_window: tuple[float, float],
    n: int,
    m: int,
    tol: float = DEFAULT_TOL,
) -> CharacteristicGrid:
    """Uniform (n+1) x (m+1) characteristic grid over the window.

    Every node flows from its anchor, forward and then backward, through
    ``flow_many``: a numerically integrated field marches all n+1 nodes as
    one batch that lands exactly on each r_j, and a closed-form flow evaluates
    them all in one call per direction. t_window is checked as a pullback's.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    t1, t2 = _window(t_window)
    s_nodes = np.linspace(manifold.s_min, manifold.s_max, n + 1)
    r_nodes = np.linspace(t1, t2, m + 1)
    points = np.empty((s_nodes.size, r_nodes.size, manifold.dim))
    anchors = _as_batch(manifold.embed(s_nodes), (manifold.dim, s_nodes.size), "embed").T
    fwd = np.nonzero(r_nodes >= 0.0)[0]
    bwd = np.nonzero(r_nodes < 0.0)[0][::-1]  # walk 0 -> t1
    for cols in (fwd, bwd):
        points[:, cols] = flow_many(field, anchors, r_nodes[cols], tol).swapaxes(0, 1)
    return CharacteristicGrid(s_nodes, r_nodes, points, field, manifold, (t1, t2))


@dataclass(frozen=True)
class TargetSample:
    """Target observable sampled on a characteristic grid."""

    q_values: np.ndarray  # (n+1, m+1) complex

    def __post_init__(self):
        q = np.asarray(self.q_values, dtype=complex)
        if q.ndim != 2:
            raise ValueError("q_values must be a 2-d array")
        if not np.all(np.isfinite(q)):
            raise ValueError("target samples must be finite")
        object.__setattr__(self, "q_values", q)

    @classmethod
    def from_function(cls, grid: CharacteristicGrid, q: Callable[[np.ndarray], np.ndarray]) -> "TargetSample":
        """q on every grid node, with one call on the nodes as a (d, N) batch."""
        nodes = grid.points.reshape(-1, grid.points.shape[-1])  # row-major over (s_i, r_j)
        vals = as_values(q(nodes.T), nodes.shape[:1], "target")
        return cls(vals.reshape(grid.n_s, grid.n_r))

    @property
    def b(self) -> np.ndarray:
        """Column-major flattening matching the block structure of E kron I."""
        return self.q_values.flatten(order="F")


@dataclass(frozen=True)
class FitResult:
    lam: complex
    h_values: np.ndarray
    residual_norm: float
    degenerate: bool  # all-node e^{lambda r} column collapsed below floor


def fit_h(
    grid: CharacteristicGrid,
    target: TargetSample,
    lam: complex,
) -> FitResult:
    """Least-squares-optimal data values for one eigenvalue.

    The design matrix E kron I decouples the fit into the per-node normal
    equation h_i = sum_j conj(e^{lambda r_j}) q_ij / sum_j |e^{lambda r_j}|^2.
    An eigenvalue whose e^{lambda r} overflows, or the sum of whose squares
    does, fits nothing: its residual is infinite, so no sweep picks it.
    """
    q = target.q_values
    if q.shape != (grid.n_s, grid.n_r):
        raise ValueError(f"target shaped {q.shape}, grid is {(grid.n_s, grid.n_r)}")
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(complex(lam) * grid.r_nodes)
        denom = float(np.sum(np.abs(e) ** 2))
    if not math.isfinite(denom):
        return FitResult(complex(lam), np.zeros(grid.n_s, dtype=complex), math.inf, False)
    degenerate = denom < DEGENERATE_FLOOR
    if degenerate:
        h = np.zeros(grid.n_s, dtype=complex)
    else:
        h = (q @ np.conj(e)) / denom
    residual = float(np.linalg.norm(np.outer(h, e) - q))
    return FitResult(complex(lam), h, residual, degenerate)


@dataclass(frozen=True)
class SweepResult:
    best_fit: FitResult
    best_index: int
    candidates: np.ndarray
    residual_curve: np.ndarray


def default_candidates() -> np.ndarray:
    """CANDIDATE_COUNT real candidate eigenvalues spread evenly over CANDIDATE_RANGE."""
    return np.linspace(*CANDIDATE_RANGE, CANDIDATE_COUNT).astype(complex)


@dataclass(frozen=True)
class _Block:
    """The exponentials E[k, j] = e^{lambda_k r_j} of candidates lo, lo+1, ...

    Only the fitted rows are kept, conjugated and transposed for the product
    with q: a candidate whose sum of squares overflows or lies below
    DEGENERATE_FLOOR fits nothing.
    """

    lo: int
    denom: np.ndarray  # sum_j |E[k, j]|^2 of every candidate of the block
    finite: np.ndarray  # denom is finite
    fitted: np.ndarray  # denom is finite and at least DEGENERATE_FLOOR
    conj_t: np.ndarray  # conj(E[fitted]).T, shaped (m+1, fitted.sum())


def _exponentials(cands: np.ndarray, r_nodes: np.ndarray) -> list[_Block]:
    """E for the candidates at the time nodes, SWEEP_BLOCK entries per block."""
    blocks = []
    step = max(1, SWEEP_BLOCK // r_nodes.size)
    for lo in range(0, cands.size, step):
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(np.outer(cands[lo:lo + step], r_nodes))
            denom = np.sum(np.abs(e) ** 2, axis=1)
        finite = np.isfinite(denom)
        fitted = finite & (denom >= DEGENERATE_FLOOR)
        blocks.append(_Block(lo, denom, finite, fitted, np.conj(e[fitted]).T))
    return blocks


def sweep_lambda(
    grid: CharacteristicGrid,
    target: TargetSample,
    candidates: Sequence[complex],
    *,
    exponentials: Optional[list[_Block]] = None,
) -> SweepResult:
    """Fit every candidate eigenvalue with array operations and keep the argmin.

    With E[k, j] = e^{lambda_k r_j}, in blocks of SWEEP_BLOCK entries, every
    h is a column of q @ conj(E)^T scaled by 1 / sum_j |E[k, j]|^2, and every
    squared residual follows from ||q||^2 - sum_j |E[k, j]|^2 sum_i |h_i|^2.
    That identity cancels near the minimum, so the candidates within
    NEAR_BEST ||q||^2 of it are refitted by ``fit_h``.  Ties break toward the
    smallest |lambda|, then the smallest |Im lambda|, then the lowest index.
    An overflowing candidate gets an infinite residual; raises OverflowError
    when every candidate overflows.

    ``exponentials`` are the blocks of ``_exponentials(candidates,
    grid.r_nodes)``, for a caller that sweeps the same candidates against
    several targets; they are built here when omitted.  Blocks for another
    number of candidates or of time nodes raise ValueError.
    """
    cands = np.asarray(candidates, dtype=complex)
    if cands.size == 0:
        raise ValueError("candidate list is empty")
    if exponentials is None:
        exponentials = _exponentials(cands, grid.r_nodes)
    elif sum(blk.denom.size for blk in exponentials) != cands.size or any(
        blk.conj_t.shape[0] != grid.n_r for blk in exponentials
    ):
        raise ValueError("exponentials were built for other candidates or time nodes")
    q = target.q_values
    q_sq = float(np.linalg.norm(q)) ** 2
    sq = np.empty(cands.size)
    for blk in exponentials:
        h = (q @ blk.conj_t) / blk.denom[blk.fitted]
        block = sq[blk.lo:blk.lo + blk.denom.size]
        block[:] = np.where(blk.finite, q_sq, math.inf)
        block[blk.fitted] -= blk.denom[blk.fitted] * np.sum(np.abs(h) ** 2, axis=0)
    if not np.isfinite(sq).any():
        raise OverflowError("e^(lambda r) overflows over the time window for every candidate")
    near = np.flatnonzero(sq <= sq.min() + NEAR_BEST * q_sq)
    fits = [fit_h(grid, target, lam) for lam in cands[near]]
    curve = np.sqrt(np.maximum(sq, 0.0))
    curve[near] = [f.residual_norm for f in fits]
    k = np.lexsort((np.abs(cands[near].imag), np.abs(cands[near]), curve[near]))[0]
    return SweepResult(fits[k], int(near[k]), cands, curve)


@dataclass(frozen=True)
class Term:
    eigenvalue: complex
    data: DataFunction
    coefficient: float
    phi_grid: np.ndarray  # normalized eigenfunction samples, (n+1, m+1)
    eigenfunction: OpenEigenfunction


@dataclass(frozen=True)
class DecompositionResult:
    terms: list[Term]
    residual_norms: np.ndarray  # ||R_k|| for k = 0..K, residual_norms[0] = ||b||
    grid: CharacteristicGrid
    lambda_curves: list[SweepResult]
    b: np.ndarray  # flattened target
    final_residual: np.ndarray  # flattened R_K

    def reconstruction_defect(self) -> float:
        """|| b - sum_k c_k phi_k - R_K ||: bookkeeping exactness of the recursion."""
        total = np.zeros(self.grid.n_s * self.grid.n_r, dtype=complex)
        for term in self.terms:
            total += term.coefficient * term.phi_grid.flatten(order="F")
        return float(np.linalg.norm(self.b - total - self.final_residual))


def _refine_lambda(
    grid: CharacteristicGrid,
    target: TargetSample,
    cands: np.ndarray,
    best_idx: int,
) -> Optional[FitResult]:
    """Best fit of a fine sweep over real lambda between the argmin's neighbours.

    The neighbours are the nearest candidates below and above the argmin by
    value, so the order of the candidate list does not matter.
    """
    re = cands.real
    best = re[best_idx]
    below, above = re[re < best], re[re > best]
    lo = float(below.max()) if below.size else float(best)
    hi = float(above.min()) if above.size else float(best)
    if hi <= lo:
        return None
    return sweep_lambda(grid, target, np.linspace(lo, hi, REFINE_POINTS)).best_fit


def greedy_decompose(
    grid: CharacteristicGrid,
    target: TargetSample,
    candidates: Sequence[complex],
    K: int,
    stop_tol: float = 1e-9,
    *,
    eig_tol: float = DEFAULT_TOL,
) -> DecompositionResult:
    """Successively fit the residual with the best single eigenfunction.

    Per stage: sweep the candidate eigenvalues against the current residual,
    take p_k = E(lambda_k) kron h_k, normalize by c_k = ||p_k||, subtract.
    The candidates' exponentials are built once and shared by every stage.
    On an all-real candidate grid a finer sweep between the argmin's neighbours
    replaces it if it fits better.  Stops early when c_k underflows or
    ||R_k||/||b|| < stop_tol.  Every term is returned as a full eigenfunction
    object so the eigen-relation can be certified downstream.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    cands = np.asarray(candidates, dtype=complex)
    b = target.b
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise EmptyTargetError("target sample is identically zero")
    all_real = bool(np.all(cands.imag == 0.0))
    term_manifold = grid.manifold.with_samples(grid.n_s)

    # E depends only on the candidates and the time nodes: every stage shares it.
    exponentials = _exponentials(cands, grid.r_nodes)
    residual_q = target.q_values.copy()
    residual_norms = [b_norm]
    terms: list[Term] = []
    curves: list[SweepResult] = []
    for _ in range(K):
        stage_target = TargetSample(residual_q)
        sweep = sweep_lambda(grid, stage_target, cands, exponentials=exponentials)
        best = sweep.best_fit
        if all_real and cands.size > 1:
            polished = _refine_lambda(grid, stage_target, cands, sweep.best_index)
            if polished is not None and polished.residual_norm < best.residual_norm:
                best = polished
        curves.append(sweep)
        e = np.exp(best.lam * grid.r_nodes)
        p = np.outer(best.h_values, e)
        c = float(np.linalg.norm(p))
        if c < COEFF_FLOOR:
            break
        phi_bar = p / c
        residual_q = residual_q - p
        residual_norms.append(float(np.linalg.norm(residual_q)))
        data = DataFunction(grid.s_nodes.copy(), best.h_values.copy())
        eig = OpenEigenfunction(
            best.lam, data, term_manifold, grid.field, grid.t_window, tol=eig_tol
        )
        terms.append(Term(best.lam, data, c, phi_bar, eig))
        if residual_norms[-1] / b_norm < stop_tol:
            break
    return DecompositionResult(
        terms,
        np.array(residual_norms),
        grid,
        curves,
        b,
        residual_q.flatten(order="F"),
    )
