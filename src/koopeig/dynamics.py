"""Vector fields, a batched adaptive integrator, event detection, benchmark systems.

Numerical integration uses koopeig's own Dormand-Prince 8(5,3) method, the
eighth-order pair of DOP853 with its fifth- and third-order error estimate
and seventh-order dense output (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5, II.6 and II.10; the tables are in ``_dop853``). The ``RK45`` stepper
advances a (d, N) array whose columns are independent lanes. Each lane
keeps its own step size, error control and FSAL derivative, under the fixed
blow-up bound ``BLOWUP_BOUND``, step floor ``STEP_FLOOR`` and a budget of
``MAX_STEPS`` attempts per batch. A lane retires when it finishes its span,
blows up or underflows, and an escaped lane's (kind, tau, state) is
written once, as it retires, in ``RK45.escapes``; an event search records
every crossing on the way.
``flow_many`` and ``find_crossings_many`` march many states as one batch,
and crossings are refined by Illinois steps on the dense output.

Right-hand-side contract: ``VectorField.rhs`` maps a (d, N) array of states
to the (d, N) array of their derivatives. Every march, one lane included,
calls it once per stage with the whole batch, and a result of another shape
is a ValueError naming the field. An event likewise maps (d, N) states to
(N,) values.

The field chooses how it is flowed. A field with a ``closed_form_flow`` is
always flowed and scanned through it, and a field without one is marched by
``RK45``; ``dataclasses.replace(field, closed_form_flow=None)`` is its
marched twin. A closed-form flow maps (d, N) states and (N,) times to
(d, N), so the exact crossing scan samples one orbit at many times in one
call (see ``_scan_closed``). Both crossing searches start from their
caller's event values at the states, refine their brackets with the one
Illinois refiner ``_refine`` and return each escape as data (``_search``).

For both kinds of flow, a one-state call is the N = 1 case of its batch
call: ``flow`` of ``flow_many``, ``find_crossings`` of
``find_crossings_many``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, NotInDomainError, StepUnderflowError
from . import _dop853, manifolds
from .manifolds import _as_batch

__all__ = [
    "VectorField",
    "BenchmarkSystem",
    "RK45",
    "as_states",
    "flow",
    "flow_many",
    "find_crossings",
    "find_crossings_many",
    "make_system",
    "system_names",
    "DEFAULT_TOL",
    "BLOWUP_BOUND",
]

DEFAULT_TOL = 1e-10
BLOWUP_BOUND = 1e12
_BLOWUP_SQ = BLOWUP_BOUND**2  # the blow-up tests compare |y|^2 with it
STEP_FLOOR = 1e-14
# A lane whose step stalls while its growth rate rho = <y, f>/|y|^2 times its
# step h exceeds this escapes in finite time. Measured at the stall, rho * h
# read 0.017-0.18 on x' = x^3 and x' = x^5 at tol 1e-13 to 1e-6, and a
# chattering lane read |rho * h| of at most 4.2e-6 at those tols.
BLOWUP_GROWTH = 1e-3
MAX_STEPS = 1_000_000
# Illinois steps per event bracket at most (see ``_refine``).
REFINE_CAP = 80
# Sampling resolution of the event scan used on closed-form trajectories,
# and the fractions of its interval [lo, hi] at which a scan samples.
CLOSED_SCAN_POINTS = 128
_FRACS = np.linspace(0.0, 1.0, CLOSED_SCAN_POINTS + 1)

# Step-size control (see ``RK45``): a safety factor, the bounds of a step's
# change, and the exponents of Gustafsson's PI.3.4 rule (ACM TOMS 17, 1991).
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
PI_ALPHA, PI_BETA = 0.7 / 8, 0.4 / 8


# Entries of a row-sum product at most (see ``_RowSums.add``).
SUM_BLOCK = 1 << 16


class _RowSums:
    """The sums sum_j row[j] * k_j of several sparse rows of ``_dop853``,
    held as one (R, d, N) array and built as the stages k_j come in.

    ``start(k_0)`` makes the array, row[0] * k_0 for each row: every row
    uses stage 0. ``add(acc, j, k_j)`` adds stage j to the rows that use it,
    with one product and one in-place add per block of lanes. Those rows are
    a slice where they are contiguous, else an index array. Stages are
    added in ascending order, so each row adds its terms in stage order and
    elementwise, as the loop ``acc = w_0 * k_0; acc += w_j * k_j ...`` does:
    a lane's sums do not depend on the other lanes in its batch. A block
    holds at most ``SUM_BLOCK`` products, however many lanes there are.
    """

    def __init__(self, rows, n_stages: int):
        if not all(0 in row for row in rows):
            raise ValueError("every row must use stage 0")
        # For each stage: the rows that use it and their (r, 1, 1) weights,
        # or None when no row does.
        self.uses = []
        for j in range(n_stages):
            idx = [r for r, row in enumerate(rows) if j in row]
            if not idx:
                self.uses.append(None)
                continue
            weights = np.array([rows[r][j] for r in idx]).reshape(-1, 1, 1)
            contiguous = idx == list(range(idx[0], idx[-1] + 1))
            self.uses.append((slice(idx[0], idx[-1] + 1) if contiguous else np.array(idx), weights))

    def start(self, k0: np.ndarray) -> np.ndarray:
        return self.uses[0][1] * k0

    def add(self, acc: np.ndarray, j: int, k: np.ndarray) -> None:
        if self.uses[j] is None:
            return
        rows, weights = self.uses[j]
        if weights.size * k.size <= SUM_BLOCK:
            acc[rows] += weights * k
            return
        lanes = max(1, SUM_BLOCK // (weights.size * k.shape[0]))
        for a in range(0, k.shape[1], lanes):
            acc[rows, :, a : a + lanes] += weights * k[:, a : a + lanes]


# The stepper's row sums: the stages after the first (row 11 is the new
# state, whose derivative, stage 12, is FSAL) and the two error estimates,
# E5 in row 12 and E3 in row 13. Then the dense output's: its three extra
# stages, 13 to 15, in rows 0-2, and its last four coefficients in rows 3-6.
_STEP_SUMS = _RowSums((*_dop853.A[1:13], _dop853.E5, _dop853.E3), 13)
_DENSE_SUMS = _RowSums((*_dop853.A[13:], *_dop853.D), 16)

# Lane states, and the miss reason of each state that escapes: those after DONE.
RUNNING, DONE, BLOW_UP, UNDERFLOW = range(4)
_REASONS = {BLOW_UP: BlowUpError.reason, UNDERFLOW: StepUnderflowError.reason}


@dataclass(frozen=True)
class VectorField:
    """Right-hand side of an autonomous ODE on a d-dimensional state space.

    ``rhs`` maps a (d, N) batch of states to derivatives of the same shape.
    ``closed_form_flow(x, t)`` maps a (d, N) batch of states and an (N,)
    array of times to the (d, N) states, column j at time t[j]. A column
    whose orbit escapes before its time comes back non-finite rather than
    raising; koopeig calls the flow under ``np.errstate(all="ignore")``.
    A field that has one is always flowed through it, never marched.
    """

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    name: str = "field"
    closed_form_flow: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


@dataclass(frozen=True)
class BenchmarkSystem:
    """A named vector field bundled with a default data manifold and time window."""

    field: VectorField
    default_manifold: "manifolds.DataManifold"
    default_t_window: tuple[float, float]


def as_states(field: VectorField, states) -> np.ndarray:
    """States as an (N, d) array; an empty input gives (0, d). Every state
    must be finite: one with a NaN or infinite coordinate has no orbit, and
    the first such state is a ValueError that names it."""
    x = np.array(states, dtype=float)
    if x.size == 0:
        return x.reshape(0, field.dim)
    if x.ndim != 2 or x.shape[1] != field.dim:
        raise ValueError(f"states shaped {x.shape}, field expects (N, {field.dim})")
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise ValueError(f"states must be finite; state {i} is {x[i].tolist()}")
    return x


def _closed_flow(field: VectorField, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form flow of the (d, N) states x at the (N,) times t, and
    which of its columns are blown: non-finite or beyond ``BLOWUP_BOUND``."""
    with np.errstate(all="ignore"):
        # Positional arguments: a wrapper of the flow may take *args only.
        y = _as_batch(field.closed_form_flow(x, t), x.shape, "closed_form_flow", field.name)
        return y, ~(_sum_sq(y) <= _BLOWUP_SQ)


def _escape(field: VectorField, sign: float, kind: str, tau: float, state) -> NotInDomainError:
    """The error of an orbit's raw escape (kind, tau, state) along sign*F: for
    kind "blow_up" a BlowUpError at the time sign*tau (past ``BLOWUP_BOUND``,
    or a step that collapsed as the state grew), else a StepUnderflowError.
    Built only where an escape leaves: in ``flow_many``, ``find_crossings_many``."""
    if kind != BlowUpError.reason:
        return StepUnderflowError(
            f"step size of '{field.name}' fell below {STEP_FLOOR:g}, or the march "
            f"exceeded {MAX_STEPS} attempts, at tau={tau:g}"
        )
    time = sign * tau
    size = math.hypot(*state.tolist())
    how = (
        f"its step collapsed at |x| = {size:.3g}"
        if size <= BLOWUP_BOUND
        else f"it left the bound {BLOWUP_BOUND:g}"
    )
    return BlowUpError(
        f"orbit of '{field.name}' escapes: {how} at t={time:g}",
        time=time,
        state=state.copy(),
    )


# ---------------------------------------------------------------------------
# Batched Dormand-Prince 8(5,3) stepper
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-lane inner product of two (d, N) arrays, in a fixed order so that
    a lane's value does not depend on the other lanes in its batch."""
    acc = a[0] * b[0]
    for row_a, row_b in zip(a[1:], b[1:]):
        acc += row_a * row_b
    return acc


def _sum_sq(z: np.ndarray) -> np.ndarray:
    """Per-lane sum of squares of a (d, N) array, in a fixed order."""
    return _dot(z, z)


def _crossed(g_lo: np.ndarray, g_hi: np.ndarray) -> np.ndarray:
    """The k over which the event crosses from g_lo[k] to g_hi[k]: its sign
    changes, or it reaches zero at the end. A zero counts once, in the
    interval it ends, so a start on the surface is not a crossing."""
    return ((g_lo * g_hi <= 0.0) & (g_lo != 0.0)).nonzero()[0]


def _rms(z: np.ndarray) -> np.ndarray:
    return np.sqrt(_sum_sq(z) / z.shape[0])


def _status(status: Optional[np.ndarray], n: int) -> np.ndarray:
    """status, or the status of n running lanes when it is None."""
    return np.full(n, RUNNING) if status is None else status


# The name predates the eighth-order tables; the benchmark's tracer wraps
# ``dynamics.RK45``, so it stays until the benchmark reads library counters.
class RK45:
    """Dormand-Prince 8(5,3) (DOP853) marching a (d, N) batch of lanes along tau >= 0.

    An attempt takes 12 stages, the last of them the FSAL derivative at the
    new state, so 12 RHS calls. Its error norm is DOP853's combined fifth-
    and third-order estimate. Each lane's step is set by PI control: after
    an accepted step it is scaled by ``SAFETY * err ** -PI_ALPHA *
    err_prev ** PI_BETA``, err_prev being the lane's last accepted error
    norm, and after a rejected one by ``SAFETY * err ** (-1/8)``, within
    [MIN_FACTOR, MAX_FACTOR]; it does not grow right after a rejection. A
    step that brackets a crossing builds three more stages for its
    seventh-order dense output. The stage sums and the two error estimates
    are the rows of one array, and each stage is added to the rows that use
    it as soon as it is computed (``_RowSums``): each row adds its terms
    elementwise in stage order, so a lane's bits do not depend on its batch.
    A lane whose step falls below ``STEP_FLOOR`` (or 10 ulps of its tau)
    blows up when its state is beyond 1e-2 ``BLOWUP_BOUND`` or would grow
    by more than ``BLOWUP_GROWTH`` of itself over the step, and underflows
    otherwise. Every running lane makes one attempt per ``step()``, so the
    batch's attempt count is each lane's: after attempt ``MAX_STEPS`` + 1,
    every lane still running underflows.

    ``fun`` maps the (d, N) state to its derivative. Every lane must land on
    each tau in ``stops`` (positive, increasing); its state there is kept in
    ``at_stops``. An ``event`` (a (d, M) array to (M,) values) comes with
    ``g0``, its (N,) values at y0 from the caller, and is called only at
    accepted states: each accepted step that changes its sign (``_crossed``:
    a zero counts once, and a start on the surface is not a crossing)
    records a bracket with the step's dense output; a crossing does not
    retire its lane. A lane's record of how it ended is written once, as it
    retires: a finished lane's states are in ``at_stops``, and an escaped
    lane's raw escape (kind, tau, state), kind its miss reason, is
    ``escapes[lane]``; ``at_stops`` reads NaN from its escape on. When the
    batch has run out, ``crossings(tol)`` refines the brackets.

    Every attempt does each lane's arithmetic: the stages, the error norm,
    the next step size, the blow-up test and, with an event, the event at
    each accepted state. The bookkeeping around it runs only for the lanes
    that need it. Step sizes and growth caps are merged lane by lane only
    when some lane was rejected or stalled. The next stop is looked up only
    when a lane lands on one. The event's values are gathered and scattered
    only when some lane is not live. The dense output is built only when a
    lane brackets a crossing. The retirement status is built, and the
    working arrays shrunk, only when a lane stalls, lands on its last stop
    or blows up, or the batch runs out of attempts.
    """

    def __init__(
        self,
        fun: Callable[[np.ndarray], np.ndarray],
        y0: np.ndarray,
        stops,
        tol: float,
        *,
        event: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        g0: Optional[np.ndarray] = None,
    ):
        y = np.array(y0, dtype=float)
        d, n = y.shape
        if event is not None and np.shape(g0) != (n,):
            raise ValueError(f"g0 must hold the event's {n} values at y0")
        self.fun, self.tol, self.event = fun, tol, event
        self.stops = np.asarray(stops, dtype=float)
        if self.stops.ndim != 1 or self.stops.size == 0 or not (
            self.stops[0] > 0.0 and np.all(np.diff(self.stops) > 0.0)
        ):
            raise ValueError("stops must be positive and increasing")
        # How each lane ended: its states at the stops, and its escape by lane.
        self.at_stops = np.full((self.stops.size, d, n), np.nan)
        self.escapes: dict[int, tuple[str, float, np.ndarray]] = {}
        self.brackets: list[tuple] = []
        # Working arrays of the running lanes only.
        self._lanes = np.arange(n)
        self._y = y
        self._tau = np.zeros(n)
        self._next = np.zeros(n, dtype=int)
        self._target = np.full(n, self.stops[0])  # stops[_next]
        self._cap = None  # growth cap, 1 right after a rejection; None: MAX_FACTOR for all
        self._err_prev = np.ones(n)  # error norm of the last accepted step, at least 1e-4
        self._attempts = 0
        with np.errstate(all="ignore"):
            self._f = fun(y)
            self._h = self._initial_step(y, self._f)
        # A copy: g0 may be a view of the states or the caller's, and _g is written in place.
        self._g = np.array(g0, dtype=float) if event is not None else None

    @property
    def running(self) -> bool:
        return self._lanes.size > 0

    def _initial_step(self, y0: np.ndarray, f0: np.ndarray) -> np.ndarray:
        """Per-lane starting step (Hairer, Norsett & Wanner, II.4), for an
        error estimate of order 7."""
        span = self.stops[-1]
        scale = self.tol + np.abs(y0) * self.tol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        d2 = _rms((self.fun(y0 + h0 * f0) - f0) / scale) / h0
        peak = np.maximum(d1, d2)
        h1 = np.where(peak <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / peak) ** 0.125)
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    def step(self) -> None:
        """One attempted step of every running lane; retire the lanes that end."""
        self._attempts += 1
        with np.errstate(all="ignore"):
            self._attempt()

    def _attempt(self) -> None:
        y, f, tau, h, tol = self._y, self._f, self._tau, self._h, self.tol
        n = tau.size
        steady = h >= np.maximum(STEP_FLOOR, 10.0 * np.spacing(tau))  # False for NaN: it stalls
        stalled = np.count_nonzero(steady) < n
        tau_new = np.minimum(tau + h, self._target)
        clipped = tau_new == self._target
        landing = np.count_nonzero(clipped) > 0
        hs = tau_new - tau
        hs_y = np.empty_like(y)  # hs in the shape of y: products without broadcasting
        hs_y[...] = hs

        # Kept for after the sums: every stage for an event, else f and FSAL.
        k = [f]
        acc = _STEP_SUMS.start(f)
        for r in range(12):  # row r gives stage r + 1; the last is y_new, whose derivative is FSAL
            # Out of place: a view of acc kept as y_new would hold it past this attempt.
            y_stage = acc[r] * hs_y
            y_stage += y
            stage = self.fun(y_stage)
            _STEP_SUMS.add(acc, r + 1, stage)
            if self.event is not None or r == 11:
                k.append(stage)
        y_new = y_stage
        scale = np.abs(y)
        np.maximum(scale, np.abs(y_new), out=scale)
        scale *= tol
        scale += tol
        # The combined fifth- and third-order estimate of DOP853 (Hairer,
        # Norsett & Wanner, II.10): hs * |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2),
        # with |.| the RMS norm of the scaled error.
        err = acc[12:]  # e5 and e3
        err /= scale
        sq5, denom = _sum_sq(err.swapaxes(0, 1))
        denom *= 0.01
        denom += sq5
        err_norm = hs * sq5 / np.sqrt(denom * y.shape[0])
        exact = denom == 0.0  # both estimates vanish
        if np.count_nonzero(exact):
            err_norm[exact] = 0.0

        accept = err_norm < 1.0
        if stalled:
            accept &= steady
        n_acc = np.count_nonzero(accept)
        # No growth right after a rejection; a step cut short to land on a
        # stop says nothing against the longer one.
        growth = SAFETY * err_norm**-PI_ALPHA * self._err_prev**PI_BETA
        h_acc = hs * np.minimum(MAX_FACTOR if self._cap is None else self._cap, growth)
        if landing:
            h_acc = np.where(clipped, np.maximum(h, h_acc), h_acc)
        err_acc = np.maximum(err_norm, 1e-4)
        if n_acc == n:
            self._h, self._cap, self._err_prev = h_acc, None, err_acc
            self._tau, self._y, self._f = tau_new, y_new, k[-1]
        else:
            h_rej = h * np.fmax(MIN_FACTOR, SAFETY * err_norm**-0.125)
            self._h = np.where(accept, h_acc, h_rej)
            self._cap = np.where(accept, MAX_FACTOR, 1.0)
            self._err_prev = np.where(accept, err_acc, self._err_prev)
            if n_acc:
                self._tau = np.where(accept, tau_new, tau)
                self._y = np.where(accept, y_new, y)
                self._f = np.where(accept, k[-1], f)

        status = None
        if stalled:
            status = np.where(steady, RUNNING, UNDERFLOW)
            # A collapsing step with an enormous state, or one over which the
            # state would grow by more than BLOWUP_GROWTH of itself, is
            # finite-time blow-up: rho * h > BLOWUP_GROWTH, rho = <y, f>/|y|^2.
            sq = _sum_sq(y)
            escaping = (sq > (1e-2 * BLOWUP_BOUND) ** 2) | (h * _dot(y, f) > BLOWUP_GROWTH * sq)
            status[~steady & escaping] = BLOW_UP
        if n_acc:
            live = accept & (_sum_sq(y_new) <= _BLOWUP_SQ)
            n_live = np.count_nonzero(live)
            if landing:
                landed = live & clipped
                if np.count_nonzero(landed):
                    self.at_stops[self._next[landed], :, self._lanes[landed]] = y_new[:, landed].T
                    self._next = self._next + landed
                    last = self.stops.size
                    finished = self._next == last
                    if np.count_nonzero(finished):
                        status = _status(status, n)
                        status[finished] = DONE
                    self._target = self.stops[np.minimum(self._next, last - 1)]
            if self.event is not None:  # scan None: every lane's step is searched
                self._detect(k, tau, tau_new, y, None if n_live == n else live)
            if n_live < n_acc:
                status = _status(status, n)
                status[accept & ~live] = BLOW_UP
        if self._attempts > MAX_STEPS:  # each running lane has made this many attempts
            status = _status(status, n)
            status[status == RUNNING] = UNDERFLOW
        if status is not None:
            self._retire(status)

    def _detect(self, k, tau, tau_new, y, scan):
        """Bracket the sign changes of the event over the accepted steps of
        the lanes in the mask scan, or of every lane when scan is None."""
        if scan is None:
            g_old, g_new = self._g, self.event(self._y)
            self._g = g_new.copy()  # not a view of the states, which _g[idx] = ... would write
        else:
            idx = np.flatnonzero(scan)
            if idx.size == 0:
                return
            g_old, g_new = self._g[idx], self.event(self._y[:, idx])
            self._g[idx] = g_new
        sel = _crossed(g_old, g_new)
        if sel.size == 0:
            return
        c = sel if scan is None else idx[sel]
        # The seventh-order dense output of these lanes' steps: three more
        # stages, then its seven coefficients (Hairer, Norsett & Wanner, II.6).
        y_old, h = y[:, c], tau_new[c] - tau[c]
        f_old, f_new = k[0][:, c], k[12][:, c]
        acc = _DENSE_SUMS.start(f_old)
        for j in range(1, 13):
            _DENSE_SUMS.add(acc, j, k[j][:, c])
        for r in range(3):  # row r gives stage 13 + r
            y_stage = acc[r] * h
            y_stage += y_old
            _DENSE_SUMS.add(acc, 13 + r, self.fun(y_stage))
        dy = self._y[:, c] - y_old
        q = np.concatenate(
            [np.stack([dy, h * f_old - dy, 2.0 * dy - h * (f_old + f_new)]), h * acc[3:]]
        )
        self.brackets.append(
            (self._lanes[c], tau[c], tau_new[c], y_old, q, g_old[sel], g_new[sel])
        )

    def _retire(self, status: np.ndarray) -> None:
        """Retire the lanes that status marks, and record each escape."""
        for j in np.flatnonzero(status > DONE).tolist():
            self.escapes[int(self._lanes[j])] = (
                _REASONS[int(status[j])], float(self._tau[j]), self._y[:, j].copy()
            )
        keep = status == RUNNING
        self._lanes = self._lanes[keep]
        self._y, self._f = self._y[:, keep], self._f[:, keep]
        for name in ("_tau", "_h", "_err_prev", "_next", "_target"):
            setattr(self, name, getattr(self, name)[keep])
        if self._cap is not None:
            self._cap = self._cap[keep]
        if self._g is not None:
            self._g = self._g[keep]

    def crossings(self, tol: float) -> list[list[tuple[float, np.ndarray]]]:
        """Each lane's bracketed crossings, refined to |event| < tol, in time order.

        Each bracket starts from its secant root. A bracket narrower than
        1e-15 of the span is taken at its right end.
        """
        found: list[list[tuple[float, np.ndarray]]] = [[] for _ in range(self.at_stops.shape[2])]
        if not self.brackets:
            return found
        lanes, lo, hi, y_lo, q, g_lo, g_hi = (
            np.concatenate(part, axis=-1) for part in zip(*self.brackets)
        )
        hs = hi - lo

        def state_at(tau, j):
            """The steps' dense output of the brackets j at the times tau:
            y_lo + x (q0 + (1-x) (q1 + x (q2 + (1-x) (q3 + ... q6)))) at the
            step fraction x."""
            x = (tau - lo[j]) / hs[j]
            factors = (x, 1.0 - x)
            acc = q[6][:, j] * x
            for p in range(5, -1, -1):
                acc += q[p][:, j]
                acc *= factors[p % 2]
            return y_lo[:, j] + acc

        floor, first = 1e-15 * self.stops[-1], np.full(lo.size, np.nan)  # NaN: secant roots
        tau, y = _refine(self.event, state_at, lo, hi, g_lo, g_hi, tol, floor, first)
        for j in np.argsort(lanes, kind="stable"):
            found[lanes[j]].append((float(tau[j]), y[:, j].copy()))
        return found


def _refine(event, state_at, lo, hi, g_lo, g_hi, tol, floor, first):
    """Refine M event brackets at once to |event| < tol by Illinois steps.

    Bracket j holds a sign change of the event between lo[j], where it is
    g_lo[j], and hi[j], where it is g_hi[j]. ``state_at(tau, j)`` gives the
    (d, K) states of the K brackets j at their times tau. Each step takes
    the secant root of the bracket's ends (the midpoint when that is not
    strictly inside) and keeps the half with the sign change; an end kept
    twice in a row has its value halved, so that neither end sticks
    (modified regula falsi, Dowell & Jarratt, BIT 11, 1971). ``first``
    holds the (M,) first iterates, NaN where a bracket has none. A first
    iterate replaces its bracket's first secant root where it lies strictly
    inside; when every one does, the refinement starts from ``first`` as it
    is, with no secant root formed.
    A bracket narrower than ``floor``, or still open after
    ``REFINE_CAP`` steps, is taken at its right end. A bracket whose
    iterate has a non-finite event value (a blown state) stops with a NaN
    time and NaN state, for the caller to search otherwise.

    Returns the (M,) times and (d, M) states. Arithmetic is elementwise, so
    a bracket's result does not depend on the others. When every bracket
    reaches |event| < tol at the same step, the outputs are that step's
    iterates and states as they come, with no update of the brackets'
    ends; otherwise they are allocated when a bracket first stops.
    """
    a, b, fa, fb = lo, hi, g_lo, g_hi
    tau = y = None  # the outputs, NaN until a bracket stops
    j = np.arange(a.size)  # the open brackets
    last = None  # whether lo was kept at the last step
    landed = (first > a) & (first < b)  # False for NaN
    if landed.all():
        c = first
    else:
        c = _within(np.where(landed, first, b - fb * (b - a) / (fb - fa)), a, b)
    for _ in range(REFINE_CAP):
        y_c = state_at(c, j)
        g_c = event(y_c)
        g_abs = np.abs(g_c)
        done = g_abs < tol
        if tau is None and done.all():
            return c, y_c
        keep_lo = fa * g_c <= 0.0
        if last is not None:  # Illinois: halve the value of an end kept twice
            scale = np.where(keep_lo == last, 0.5, 1.0)
            fa, fb = fa * scale, fb * scale
        a, b = np.where(keep_lo, a, c), np.where(keep_lo, c, b)
        fa, fb = np.where(keep_lo, fa, g_c), np.where(keep_lo, g_c, fb)
        last = keep_lo
        go = (g_abs >= tol) & (b - a >= floor)  # False for NaN too
        if not go.all():
            if tau is None:
                tau, y = np.full(lo.size, np.nan), np.full((y_c.shape[0], lo.size), np.nan)
            tau[j[done]], y[:, j[done]] = c[done], y_c[:, done]
            narrow = ~(go | done) & np.isfinite(g_c)
            if narrow.any():
                tau[j[narrow]], y[:, j[narrow]] = b[narrow], state_at(b[narrow], j[narrow])
            if not go.any():
                return tau, y
            j, a, b, fa, fb, last = j[go], a[go], b[go], fa[go], fb[go], last[go]
        c = _within(b - fb * (b - a) / (fb - fa), a, b)
    if tau is None:
        return b, state_at(b, j)
    tau[j], y[:, j] = b, state_at(b, j)
    return tau, y


def _within(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The iterates c where they lie strictly inside their brackets (a, b),
    else the brackets' midpoints."""
    inside = (c > a) & (c < b)
    return c if inside.all() else np.where(inside, c, 0.5 * (a + b))


def _batch_rhs(field: VectorField, sign: float):
    rhs, name = field.rhs, field.name

    def fun(y):
        out = _as_batch(rhs(y), y.shape, "rhs", name)
        return out if sign > 0 else -out

    return fun


def _batch_event(event, name: str = "event"):
    return lambda y: _as_batch(event(y), y.shape[1:], name)


def _march(
    field: VectorField, y0: np.ndarray, sign: float, stops, tol: float, event=None, g0=None
) -> RK45:
    """Run the stepper over the (d, N) lanes y0 along sign*F until every
    lane retires; an event comes with g0, its (N,) values at y0."""
    solver = RK45(_batch_rhs(field, sign), y0, stops, tol, event=event, g0=g0)
    while solver.running:
        solver.step()
    return solver


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def flow(field: VectorField, x0, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The (d,) state x0 advanced by time t along the field: ``flow_many`` of
    one state. Negative t integrates the reversed field."""
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    return flow_many(field, x0, [t], tol)[-1, 0]


def flow_many(field: VectorField, states, times, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Images of N states at several times, shaped (len(times), N, d).

    The times share one sign and grow in magnitude. A field without a closed
    form marches all states as one batch that lands exactly on each time;
    a closed-form flow takes every state at every time in one call. The
    first state that blows up or underflows raises its BlowUpError or
    StepUnderflowError. tol must be finite and positive, else ValueError.
    """
    images, ends = _flow_lanes(field, states, times, tol)
    if ends:  # times are checked: the last is nonzero
        last = np.asarray(times, dtype=float).reshape(-1)[-1]
        raise _escape(field, 1.0 if last > 0 else -1.0, *ends[min(ends)])
    return images


def _flow_lanes(
    field: VectorField, states, times, tol: float
) -> tuple[np.ndarray, dict[int, tuple[str, float, np.ndarray]]]:
    """``flow_many`` lane by lane: the images, NaN at the times a state did
    not reach, and each escaped state's raw escape (kind, tau, state) by
    lane, as in ``RK45.escapes``; a closed form escapes at its first blown time."""
    x = as_states(field, states)
    times = np.asarray(times, dtype=float).reshape(-1)
    mags = np.abs(times)
    if not np.all(np.isfinite(times)) or np.any(np.diff(mags) <= 0.0):
        raise ValueError("times must be finite and grow strictly in magnitude")
    if np.any(times > 0.0) and np.any(times < 0.0):
        raise ValueError("times must share one sign")
    _check_tol(tol)
    n = x.shape[0]
    out = np.empty((times.size, n, field.dim))
    moving = mags > 0.0
    out[~moving] = x
    if not moving.any() or n == 0:
        return out, {}
    taus = mags[moving]
    if field.closed_form_flow is not None:
        y, blown = _closed_flow(field, np.tile(x.T, taus.size), np.repeat(times[moving], n))
        y, blown = y.T.reshape(taus.size, n, field.dim), blown.reshape(taus.size, n)
        ends = {  # each lane's first blown time, from which its images are NaN
            i: (BlowUpError.reason, float(taus[k]), y[k, i].copy())
            for i, k in enumerate(blown.argmax(axis=0).tolist()) if blown[k, i]
        }
        y[np.logical_or.accumulate(blown)] = np.nan
        out[moving] = y
        return out, ends
    solver = _march(field, x.T, 1.0 if times[-1] > 0 else -1.0, taus, tol)
    out[moving] = solver.at_stops.transpose(0, 2, 1)
    return out, solver.escapes


def _inverse_interp(taus: np.ndarray, g: np.ndarray, k: int, last: int) -> float:
    """A first iterate for the sign change between samples k and k+1: the
    zero of the inverse interpolant tau(g) through the samples k-2 .. k+3
    that lie within 0 .. last. NaN unless their values are finite and
    strictly monotone, so that tau is a function of g: strictly monotone
    values lie between their ends, so finite ends make them all finite."""
    lo, hi = max(k - 2, 0), min(k + 3, last)
    gs = g[lo : hi + 1].tolist()
    order = operator.lt if gs[0] < gs[-1] else operator.gt
    if not (math.isfinite(gs[0]) and math.isfinite(gs[-1]) and all(map(order, gs, gs[1:]))):
        return np.nan
    ts = taus[lo : hi + 1].tolist()
    t_k = ts[k - lo]
    root = 0.0  # Lagrange form at g = 0, in times relative to sample k
    for i, g_i in enumerate(gs):
        t_i = ts[i] - t_k
        for g_m in gs[:i] + gs[i + 1 :]:
            t_i *= g_m / (g_m - g_i)
        root += t_i
    return t_k + root


def find_crossings(
    field: VectorField,
    x0,
    event: Callable[[np.ndarray], np.ndarray],
    sign: float,
    budget: float,
    tol: float = DEFAULT_TOL,
) -> list[tuple[float, np.ndarray]]:
    """Locate every sign change of event along sign*F over [0, budget], in time order.

    ``find_crossings_many`` of one state: sign is 1 (forward) or -1
    (backward). ``event`` maps (d, N) states to (N,) values. An escape
    before any crossing is raised; one after a crossing ends the search.
    """
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    (found,), (escape,) = find_crossings_many(field, x0, event, sign, budget, tol)
    if escape is not None:
        raise escape
    return found


def _scan_closed(
    field: VectorField, x0: np.ndarray, g0: float, event, sign: float, budget: float, tol: float
) -> tuple[list[tuple[float, np.ndarray]], Optional[tuple[float, np.ndarray]]]:
    """The exact crossing scan of the closed-form orbit of the (d,) state
    x0, at which the event is g0.

    Each scan samples (lo, hi] at ``CLOSED_SCAN_POINTS`` uniform times with
    one closed-form call and one event call; a scan with no sign change
    (``_crossed``: a zero sample counts once, and a start on the surface is
    not a crossing) and no blown sample ends there. A sign change is a
    crossing at its right sample when |event| < tol there. The others are
    refined together by ``_refine`` on the closed-form orbit, each from the
    inverse interpolant through the samples around it (``_inverse_interp``);
    one whose iterate is blown is scanned again, and so is one in the
    interval right before a blown sample, where the event is too steep for
    its samples to give a first iterate. The orbit ends at its first blown
    sample; the interval before it is scanned again, so that crossings
    right before a finite-time escape are found, until the next scan's
    samples would lie closer than the floor 1e-15 * budget; the orbit
    escapes at that interval's right end. A sign change narrower than the
    floor is taken at its right sample, and so is a refined bracket.

    Returns every crossing over [0, budget] in time order and the raw
    escape (tau, state) at which the orbit ends, else None, whether or not
    it crossed first.
    """
    floor = 1e-15 * budget
    lanes = np.repeat(x0[:, None], CLOSED_SCAN_POINTS, axis=1)

    def state_at(tau, _j):
        """The orbit at the times tau; NaN where it is blown."""
        y, blown = _closed_flow(field, lanes[:, : tau.size], sign * tau)
        return np.where(blown, np.nan, y)

    def scan(lo: float, g_lo: float, hi: float):
        """The crossings over (lo, hi], and the blown sample that ends the
        orbit there as (tau, state), or None."""
        taus = lo + (hi - lo) * _FRACS
        y, blown = _closed_flow(field, lanes, sign * taus[1:])
        end = int(blown.argmax())  # the first blown sample, else CLOSED_SCAN_POINTS
        if not blown[end]:
            end = CLOSED_SCAN_POINTS
        g = np.empty(end + 1)
        g[0] = g_lo
        if end:
            g[1:] = event(y[:, :end])
        ks = _crossed(g[:-1], g[1:]).tolist()
        if not ks and end == CLOSED_SCAN_POINTS:
            return [], None
        # A sign change is a crossing at its right sample when |event| < tol
        # there. One right before a blown sample is scanned again: so close
        # to the escape, its samples give no usable first iterate. The
        # others are refined together.
        k_in = [k for k in ks if not (abs(g[k + 1]) < tol or taus[k + 1] - taus[k] < floor)]
        steep = end - 1 if end < CLOSED_SCAN_POINTS and end - 1 in k_in else None
        if steep is not None:
            k_in.remove(steep)
        refined = {}
        if k_in:
            first = np.array([_inverse_interp(taus, g, k, end) for k in k_in])
            k_lo = np.array(k_in)
            tau_in, y_in = _refine(
                event, state_at, taus[k_lo], taus[k_lo + 1], g[k_lo], g[k_lo + 1],
                tol, floor, first,
            )
            refined = dict(zip(k_in, zip(tau_in.tolist(), y_in.T)))
        hits: list[tuple[float, np.ndarray]] = []
        for k in ks:
            tau, state = refined[k] if k in refined else (float(taus[k + 1]), y[:, k])
            if k == steep or math.isnan(tau):  # or a blown iterate: sample the bracket again
                hits += scan(taus[k], g[k], taus[k + 1])[0]
            else:
                hits.append((tau, state.copy()))
        if end == CLOSED_SCAN_POINTS:
            return hits, None
        if taus[end + 1] - taus[end] < CLOSED_SCAN_POINTS * floor:
            return hits, (float(taus[end + 1]), y[:, end])
        more, escape = scan(taus[end], g[end], taus[end + 1])
        return hits + more, escape

    return scan(0.0, g0, budget)


def find_crossings_many(
    field: VectorField,
    states,
    event: Callable[[np.ndarray], np.ndarray],
    sign: float,
    budget: float,
    tol: float = DEFAULT_TOL,
) -> tuple[list[list[tuple[float, np.ndarray]]], list[Optional[NotInDomainError]]]:
    """Every crossing of event along sign*F over [0, budget], in time order, for N states.

    ``event`` maps a (d, M) array to M values, else ValueError; it is taken
    at the states in one call, and both kinds of flow start from those
    values and count a crossing by ``_crossed``: a zero counts once, and a
    start on the surface is not a crossing. A field without a closed form
    marches every state as one lane of a batch, its crossings refined by
    ``_refine`` on the steps' dense output to |event| < tol. A closed-form
    flow is scanned exactly, state by state (``_scan_closed``). Returns, per
    state, its crossings and its escape: the BlowUpError or
    StepUnderflowError that ends the orbit before any crossing, else None;
    an escape after a crossing ends the search. sign must be 1 (forward in
    time) or -1 (backward), tol finite and positive and budget finite, else
    ValueError; a budget <= 0 finds no crossings.
    """
    x = as_states(field, states)
    n = x.shape[0]
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    _check_tol(tol)
    if not np.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget!r}")
    if n == 0 or budget <= 0.0:
        return [[] for _ in range(n)], [None] * n
    event = _batch_event(event)
    found, ends = _search(field, x, event, event(x.T), sign, budget, tol)
    return found, [
        _escape(field, sign, *ends[i]) if i in ends and not hits else None
        for i, hits in enumerate(found)
    ]


def _search(
    field: VectorField, x: np.ndarray, event, g0: np.ndarray, sign: float, budget: float, tol: float
) -> tuple[list[list[tuple[float, np.ndarray]]], dict[int, tuple[str, float, np.ndarray]]]:
    """``find_crossings_many`` of the (N, d) states x, N >= 1, on checked
    arguments: ``event`` is wrapped by ``_batch_event``, g0 holds its (N,)
    values at the states and budget > 0. Both kinds of flow start from g0
    and return each orbit's crossings and, as in ``RK45.escapes``, the raw
    escape of each orbit that escaped, crossings or not: each caller applies
    its own escape rule."""
    if field.closed_form_flow is not None:
        scans = [
            _scan_closed(field, x0, g, event, sign, budget, tol) for x0, g in zip(x, g0.tolist())
        ]
        ends = {i: (BlowUpError.reason, *end) for i, (_, end) in enumerate(scans) if end is not None}
        return [hits for hits, _ in scans], ends
    solver = _march(field, x.T, sign, [budget], tol, event, g0)
    return solver.crossings(tol), solver.escapes


# ---------------------------------------------------------------------------
# Benchmark systems
# ---------------------------------------------------------------------------


def _lin1d(a: float = 1.0) -> BenchmarkSystem:
    a = float(a)

    def rhs(x):
        return a * x

    def closed(x, t):
        return x * np.exp(a * t)

    fld = VectorField(1, rhs, name=f"lin1d(a={a:g})", closed_form_flow=closed)
    return BenchmarkSystem(fld, manifolds.point_manifold(1.0), (-1.0, 1.0))


def _lin2d(a1: float = 1.0, a2: float = 2.0) -> BenchmarkSystem:
    a = np.array([float(a1), float(a2)])

    def rhs(x):
        return (a * x.T).T  # component k scales by a[k] in every lane

    def closed(x, t):
        return x * np.exp(np.multiply.outer(a, t))

    fld = VectorField(2, rhs, name=f"lin2d(a=({a1:g},{a2:g}))", closed_form_flow=closed)
    mani = manifolds.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))
    return BenchmarkSystem(fld, mani, (0.0, 1.2))


def _hopf(mu: float = 1.0) -> BenchmarkSystem:
    mu = float(mu)

    def rhs(x):
        gap = mu - (x[0] * x[0] + x[1] * x[1])
        return np.array([-x[1] + x[0] * gap, x[0] + x[1] * gap])

    closed = None
    if mu > 0:

        def closed(x, t):
            """The start vector rotated by t and scaled by r / r0, where
            (r0 / r)^2 = e^a - q expm1(a), a = -2 mu t, q = r0^2 / mu, for
            either sign of t. It is summed as e^min(a, 0) + (max(em, 0) - q em)
            with em = expm1(a), so that no term cancels: forward it is
            e^a + q (1 - e^a), two terms >= 0; backward 1 + (em - q em), which
            is <= 0 once the orbit has escaped and exactly 1 on the cycle. At
            t = +-0 it is 1, so every state maps to itself.

            a is clamped to [-745, 709], where exp is finite and positive: the
            cycle never forms 0 * inf, and forward the sum stays > 0, so the
            origin stays put. Backward past a = 709 a state inside the cycle
            stops shrinking, at about 1e-154 / sqrt(1 - q) of r0.
            """
            a = np.maximum(-2.0 * mu * t, -745.0)
            em = np.expm1(np.minimum(a, 709.0))
            q = (x[0] * x[0] + x[1] * x[1]) / mu
            ratio = np.exp(np.minimum(a, 0.0)) + (np.maximum(em, 0.0) - q * em)
            scale = 1.0 / np.sqrt(np.maximum(ratio, 0.0))  # inf once escaped
            c, s = scale * np.cos(t), scale * np.sin(t)
            return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    fld = VectorField(2, rhs, name=f"hopf(mu={mu:g})", closed_form_flow=closed)
    mani = manifolds.circle_manifold((0.0, 0.0), 5.0, n=257)
    return BenchmarkSystem(fld, mani, (0.0, 4.0))


def _vdp() -> BenchmarkSystem:
    def rhs(x):
        return np.array([x[1], x[1] * (1.0 - x[0] * x[0]) - x[0]])

    fld = VectorField(2, rhs, name="vdp")
    mani = manifolds.segment_manifold((1.0, 0.5), (2.0, 1.5), n=121)
    return BenchmarkSystem(fld, mani, (0.0, 2.0))


def _blowup() -> BenchmarkSystem:
    def rhs(x):
        return x * x

    def closed(x, t):
        denom = 1.0 - x[0] * t
        return np.where(denom > 0.0, x / denom, np.inf)  # past t = 1/x it has escaped

    fld = VectorField(1, rhs, name="blowup", closed_form_flow=closed)
    return BenchmarkSystem(fld, manifolds.point_manifold(1.0), (-1.0, 0.5))


def _action_angle() -> BenchmarkSystem:
    def rhs(x):
        return np.stack([np.zeros_like(x[0]), x[0]])

    def closed(x, t):
        return np.stack([x[0], x[1] + x[0] * t])

    fld = VectorField(2, rhs, name="action_angle", closed_form_flow=closed)
    mani = manifolds.segment_manifold((0.5, 0.2), (2.5, 0.2), n=121, s_range=(0.5, 2.5))
    return BenchmarkSystem(fld, mani, (0.0, 0.8))


_REGISTRY: dict[str, Callable[..., BenchmarkSystem]] = {
    "lin1d": _lin1d,
    "lin2d": _lin2d,
    "hopf": _hopf,
    "vdp": _vdp,
    "blowup": _blowup,
    "action_angle": _action_angle,
}


def system_names() -> list[str]:
    return sorted(_REGISTRY)


def make_system(name: str, **params) -> BenchmarkSystem:
    """Instantiate a benchmark system by name with optional parameters."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {', '.join(system_names())}"
        ) from None
    return factory(**params)
