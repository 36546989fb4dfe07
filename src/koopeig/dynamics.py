"""Vector fields, a batched adaptive integrator, event detection, benchmark systems.

Numerical integration uses koopeig's own Dormand-Prince 8(5,3) method, the
eighth-order pair of DOP853 with its fifth- and third-order error estimate
and seventh-order dense output (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.5, II.6 and II.10; the tables are in ``_dop853``). The ``RK45`` stepper
advances a (d, N) array whose columns are independent lanes. Each lane
keeps its own step size, error control and FSAL derivative, under the fixed
blow-up bound ``BLOWUP_BOUND``, step floor ``STEP_FLOOR`` and step budget
``MAX_STEPS``. A lane retires when it finishes its span, blows up,
underflows, or has met ``max_count`` event crossings. ``flow_many`` and
``find_crossings_many`` march many states as one batch, and crossings are
refined by Illinois steps on the dense output.

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
call (see ``_scan_closed``). Both crossing searches refine their brackets
with the one Illinois refiner ``_refine``.

For both kinds of flow, a one-state call is the N = 1 case of its batch
call: ``flow`` of ``flow_many``, ``find_crossings`` of
``find_crossings_many``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, NotInDomainError, StepUnderflowError
from . import _dop853, manifolds

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
STEP_FLOOR = 1e-14
MAX_STEPS = 1_000_000
# Illinois steps per event bracket at most (see ``_refine``).
REFINE_CAP = 80
# Sampling resolution of the event scan used on closed-form trajectories,
# and the fractions of its interval [lo, hi] at which a scan samples.
CLOSED_SCAN_POINTS = 128
_FRACS = np.linspace(0.0, 1.0, CLOSED_SCAN_POINTS + 1)

# Step-size control: the factor SAFETY * err ** (-1/8), within these bounds.
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _terms(row: dict) -> tuple:
    """The (weight, stage index) pairs of a sparse row of ``_dop853``, in
    stage order. Each weight is a 0-d array: numpy multiplies an array by
    one in about half the time it takes for a Python float, with the same
    product."""
    return tuple((np.array(w), j) for j, w in row.items())


# The DOP853 terms of each stage after the first (the last is the new
# state), of the two error estimates, of the dense output's extra stages and
# of its last four coefficients.
_STAGE_TERMS = tuple(_terms(a) for a in _dop853.A[1:13])
_E5_TERMS, _E3_TERMS = _terms(_dop853.E5), _terms(_dop853.E3)
_EXTRA_TERMS = tuple(_terms(a) for a in _dop853.A[13:])
_D_TERMS = tuple(_terms(row) for row in _dop853.D)

# Lane states.
RUNNING, DONE, CROSSED, BLOW_UP, UNDERFLOW = range(5)


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
    """A named vector field bundled with a default data manifold and, when
    one is known in closed form, a reference eigenfunction for certification."""

    field: VectorField
    default_manifold: "manifolds.DataManifold"
    default_t_window: tuple[float, float]
    oracle_eigenfunction: Optional[object] = None


def as_states(field: VectorField, states) -> np.ndarray:
    """States as an (N, d) array; an empty input gives (0, d)."""
    x = np.array(states, dtype=float)
    if x.size == 0:
        return x.reshape(0, field.dim)
    if x.ndim != 2 or x.shape[1] != field.dim:
        raise ValueError(f"states shaped {x.shape}, field expects (N, {field.dim})")
    return x


def _closed_flow(field: VectorField, x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form flow of the (d, N) states x at the (N,) times t, and
    which of its columns are blown: non-finite or beyond ``BLOWUP_BOUND``."""
    with np.errstate(all="ignore"):
        # Positional arguments: a wrapper of the flow may take *args only.
        y = np.asarray(field.closed_form_flow(x, t), dtype=float)
        if y.shape != x.shape:
            raise ValueError(
                f"closed_form_flow of '{field.name}' returned shape {y.shape} for a batch "
                f"of shape {x.shape}; a closed-form flow must map (d, N) states and (N,) "
                f"times to (d, N)"
            )
        return y, ~(_sum_sq(y) <= BLOWUP_BOUND**2)


def _blow_up(field: VectorField, time: float, state: np.ndarray) -> BlowUpError:
    """The escape of an orbit of the field past ``BLOWUP_BOUND`` at the
    signed time ``time``, at its (d,) last state."""
    return BlowUpError(
        f"orbit of '{field.name}' left the bound {BLOWUP_BOUND:g} at t={time:g}",
        time=time,
        state=state.copy(),
    )


# ---------------------------------------------------------------------------
# Batched Dormand-Prince 8(5,3) stepper
# ---------------------------------------------------------------------------


def _sum_sq(z: np.ndarray) -> np.ndarray:
    """Per-lane sum of squares of a (d, N) array, in a fixed order so that a
    lane's value does not depend on the other lanes in its batch."""
    acc = z[0] * z[0]
    for row in z[1:]:
        acc += row * row
    return acc


def _sign_change(g_old: np.ndarray, g_new: np.ndarray) -> np.ndarray:
    """Where an event crosses zero between two samples; a zero counts once."""
    return (g_old * g_new <= 0.0) & ((g_old != 0.0) | (g_new != 0.0))


def _rms(z: np.ndarray) -> np.ndarray:
    return np.sqrt(_sum_sq(z) / z.shape[0])


def _status(status: Optional[np.ndarray], n: int) -> np.ndarray:
    """status, or the status of n running lanes when it is None."""
    return np.full(n, RUNNING) if status is None else status


def _combine(terms, stages) -> np.ndarray:
    """sum w * stages[j] over the (w, j) terms.

    Elementwise in a fixed order rather than a matrix product, so that a
    lane's result does not depend on the other lanes in its batch.
    """
    (w, j), *rest = terms
    acc = w * stages[j]
    for w, j in rest:
        acc += w * stages[j]
    return acc


# The name predates the eighth-order tables; the benchmark's tracer wraps
# ``dynamics.RK45``, so it stays until the benchmark reads library counters.
class RK45:
    """Dormand-Prince 8(5,3) (DOP853) marching a (d, N) batch of lanes along tau >= 0.

    An attempt takes 12 stages, the last of them the FSAL derivative at the
    new state, so 12 RHS calls. Its error norm is DOP853's combined fifth-
    and third-order estimate, and its step grows or shrinks by
    ``SAFETY * err ** (-1/8)`` within [MIN_FACTOR, MAX_FACTOR]. A step that
    brackets a crossing builds three more stages for its seventh-order dense
    output. Stage sums are elementwise, in a fixed order.

    ``fun`` maps the (d, N) state to its derivative. Every lane must land on
    each tau in ``stops`` (positive, increasing); its state there is kept in
    ``at_stops``. When ``event`` (a (d, M) array to (M,) values) is given,
    each accepted step that changes its sign records a bracket with the
    step's dense output, and a lane retires after ``max_count`` (at least
    1) of them. ``step()`` makes one attempt for every running lane. When
    the batch has run out, ``status``, ``tau`` and ``y`` hold each lane's
    retirement state, and ``crossings(tol)`` refines the brackets.

    Every attempt does each lane's arithmetic: the stages, the error norm,
    the next step size, the blow-up test and, with an event, the event at
    each accepted state. The bookkeeping around it runs only for the lanes
    that need it. Step sizes and growth caps are merged lane by lane only
    when some lane was rejected or stalled. The next stop is looked up only
    when a lane lands on one. The event's values are gathered and scattered
    only when some lane is not live. The dense output and the ``max_count``
    test run only when a lane brackets a crossing. The retirement status
    is built, and the working arrays shrunk, only when a lane stalls, lands
    on its last stop, blows up, runs out of steps or meets its last
    crossing.
    """

    def __init__(
        self,
        fun: Callable[[np.ndarray], np.ndarray],
        y0: np.ndarray,
        stops,
        tol: float,
        *,
        event: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        max_count: int = 1,
    ):
        y = np.array(y0, dtype=float)
        d, n = y.shape
        self.fun, self.tol = fun, tol
        self.event, self.max_count = event, max_count
        self.stops = np.asarray(stops, dtype=float)
        if self.stops.ndim != 1 or self.stops.size == 0 or not (
            self.stops[0] > 0.0 and np.all(np.diff(self.stops) > 0.0)
        ):
            raise ValueError("stops must be positive and increasing")
        if max_count < 1:
            raise ValueError("max_count must be at least 1")
        # Retirement state of every lane.
        self.status = np.full(n, RUNNING)
        self.tau = np.zeros(n)
        self.y = y.copy()
        self.at_stops = np.full((self.stops.size, d, n), np.nan)
        self.brackets: list[tuple] = []
        # Working arrays of the running lanes only.
        self._lanes = np.arange(n)
        self._y = y
        self._tau = np.zeros(n)
        self._steps = np.zeros(n, dtype=int)
        self._next = np.zeros(n, dtype=int)
        self._target = np.full(n, self.stops[0])  # stops[_next]
        self._count = np.zeros(n, dtype=int)
        self._cap = None  # growth cap, 1 right after a rejection; None: MAX_FACTOR for all
        self._attempts = 0
        with np.errstate(all="ignore"):
            self._f = fun(y)
            self._h = self._initial_step(y, self._f)
        # A copy: an event may return a view of its input, and _g is written in place.
        self._g = np.array(event(y), dtype=float) if event is not None else None

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

        k = [f]
        for terms in _STAGE_TERMS:  # the last is y_new, whose derivative is FSAL
            y_stage = _combine(terms, k)
            y_stage *= hs_y
            y_stage += y  # y + hs * sum, in place
            k.append(self.fun(y_stage))
        y_new = y_stage
        scale = np.abs(y)
        np.maximum(scale, np.abs(y_new), out=scale)
        scale *= tol
        scale += tol
        # The combined fifth- and third-order estimate of DOP853 (Hairer,
        # Norsett & Wanner, II.10): hs * |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2),
        # with |.| the RMS norm of the scaled error.
        err5 = _combine(_E5_TERMS, k)
        err5 /= scale
        sq5 = _sum_sq(err5)
        err3 = _combine(_E3_TERMS, k)
        err3 /= scale
        denom = _sum_sq(err3)
        denom *= 0.01
        denom += sq5
        err_norm = hs * sq5 / np.sqrt(denom * y.shape[0])
        exact = denom == 0.0  # both estimates vanish
        if np.count_nonzero(exact):
            err_norm[exact] = 0.0

        growth = SAFETY * err_norm**-0.125
        accept = err_norm < 1.0
        if stalled:
            accept &= steady
        n_acc = np.count_nonzero(accept)
        # No growth right after a rejection; a step cut short to land on a
        # stop says nothing against the longer one.
        h_acc = hs * np.minimum(MAX_FACTOR if self._cap is None else self._cap, growth)
        if landing:
            h_acc = np.where(clipped, np.maximum(h, h_acc), h_acc)
        if n_acc == n:
            self._h, self._cap = h_acc, None
        else:
            self._h = np.where(accept, h_acc, h * np.fmax(MIN_FACTOR, growth))
            self._cap = np.where(accept, MAX_FACTOR, 1.0)

        status = None
        if stalled:
            status = np.where(steady, RUNNING, UNDERFLOW)
            # A collapsing step with an enormous state is finite-time blow-up.
            status[~steady & (_sum_sq(y) > (1e-2 * BLOWUP_BOUND) ** 2)] = BLOW_UP
        if n_acc:
            status = self._advance(
                accept, n_acc, clipped if landing else None, status, tau_new, y_new, k
            )
        if status is not None:
            self._retire(status)

    def _advance(self, accept, n_acc, clipped, status, tau_new, y_new, k):
        """Move the n_acc accepted lanes. Mark in status, made when first
        needed, those that land on their last stop, blow up, run out of steps
        or meet their last crossing, and return it. clipped is None when no
        step was cut short to land on a stop."""
        tau, y = self._tau, self._y
        n = accept.size
        if n_acc == n:
            self._tau, self._y, self._f = tau_new, y_new, k[-1]
        else:
            self._tau = np.where(accept, tau_new, tau)
            self._y = np.where(accept, y_new, y)
            self._f = np.where(accept, k[-1], self._f)
        self._steps += accept
        live = accept & (_sum_sq(y_new) <= BLOWUP_BOUND**2)
        n_live = np.count_nonzero(live)
        if clipped is not None:
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
        # The lanes whose step is searched for a crossing; None for all.
        scan = None if n_live == n else live
        if self._attempts > MAX_STEPS:  # no lane has more steps than attempts
            over = live & (self._steps > MAX_STEPS)
            if np.count_nonzero(over):
                status = _status(status, n)
                over &= status == RUNNING
                status[over] = UNDERFLOW
                scan = live & ~over
        if self.event is not None:
            crossed = self._detect(k, tau, tau_new, y, scan)
            if crossed is not None:
                full = crossed[self._count[crossed] >= self.max_count]
                if full.size:
                    status = _status(status, n)
                    full = full[status[full] == RUNNING]
                    status[full] = CROSSED
        if n_live < n_acc:
            status = _status(status, n)
            status[accept & ~live] = BLOW_UP
        return status

    def _detect(self, k, tau, tau_new, y, scan):
        """Bracket the sign changes of the event over the accepted steps of
        the lanes in the mask scan, or of every lane when scan is None.
        Returns the positions of the lanes that crossed, or None."""
        if scan is None:
            g_old, g_new = self._g, self.event(self._y)
            self._g = g_new.copy()  # not a view of the states, which _g[idx] = ... would write
        else:
            idx = np.flatnonzero(scan)
            if idx.size == 0:
                return None
            g_old, g_new = self._g[idx], self.event(self._y[:, idx])
            self._g[idx] = g_new
        cand = g_old * g_new <= 0.0
        if not np.count_nonzero(cand):  # no sign change and no zero
            return None
        sel = np.flatnonzero(cand & ((g_old != 0.0) | (g_new != 0.0)))  # a zero counts once
        if sel.size == 0:
            return None
        c = sel if scan is None else idx[sel]
        # The seventh-order dense output of these lanes' steps: three more
        # stages, then its seven coefficients (Hairer, Norsett & Wanner, II.6).
        ks = [stage[:, c] for stage in k]
        y_old, h = y[:, c], tau_new[c] - tau[c]
        for terms in _EXTRA_TERMS:
            y_stage = _combine(terms, ks)
            y_stage *= h
            y_stage += y_old
            ks.append(self.fun(y_stage))
        dy = self._y[:, c] - y_old
        f_old, f_new = ks[0], ks[12]
        q = np.stack(
            [dy, h * f_old - dy, 2.0 * dy - h * (f_old + f_new)]
            + [h * _combine(terms, ks) for terms in _D_TERMS]
        )
        self.brackets.append(
            (self._lanes[c], tau[c], tau_new[c], y_old, q, g_old[sel], g_new[sel])
        )
        self._count[c] += 1
        return c

    def _retire(self, status: np.ndarray) -> None:
        out = status != RUNNING
        if not out.any():
            return
        lanes = self._lanes[out]
        self.status[lanes] = status[out]
        self.tau[lanes] = self._tau[out]
        self.y[:, lanes] = self._y[:, out]
        keep = ~out
        self._lanes = self._lanes[keep]
        self._y, self._f = self._y[:, keep], self._f[:, keep]
        for name in ("_tau", "_h", "_steps", "_next", "_target", "_count"):
            setattr(self, name, getattr(self, name)[keep])
        if self._cap is not None:
            self._cap = self._cap[keep]
        if self._g is not None:
            self._g = self._g[keep]

    def crossings(self, tol: float) -> list[list[tuple[float, np.ndarray]]]:
        """Each lane's bracketed crossings, refined to |event| < tol, in time order.

        A bracket narrower than 1e-15 of the span is taken at its right end.
        """
        found: list[list[tuple[float, np.ndarray]]] = [[] for _ in range(self.status.size)]
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

        tau, y = _refine(self.event, state_at, lo, hi, g_lo, g_hi, tol, 1e-15 * self.stops[-1])
        for j in np.argsort(lanes, kind="stable"):
            found[lanes[j]].append((float(tau[j]), y[:, j].copy()))
        return found


def _refine(event, state_at, lo, hi, g_lo, g_hi, tol, floor, first=None):
    """Refine M event brackets at once to |event| < tol by Illinois steps.

    Bracket j holds a sign change of the event between lo[j], where it is
    g_lo[j], and hi[j], where it is g_hi[j]. ``state_at(tau, j)`` gives the
    (d, K) states of the K brackets j at their times tau. Each step takes
    the secant root of the bracket's ends (the midpoint when that is not
    strictly inside) and keeps the half with the sign change; an end kept
    twice in a row has its value halved, so that neither end sticks
    (modified regula falsi, Dowell & Jarratt, BIT 11, 1971). ``first``
    replaces the first secant root of a bracket where it lies strictly
    inside. A bracket narrower than ``floor``, or still open after
    ``REFINE_CAP`` steps, is taken at its right end. A bracket whose
    iterate has a non-finite event value (a blown state) stops with a NaN
    time and NaN state, for the caller to search otherwise.

    Returns the (M,) times and (d, M) states. Arithmetic is elementwise, so
    a bracket's result does not depend on the others.
    """
    a, b, fa, fb = lo, hi, g_lo, g_hi
    tau = np.empty_like(a)
    tau.fill(np.nan)
    y = None
    j = np.arange(a.size)  # the open brackets
    last = None  # whether lo was kept at the last step
    c = b - fb * (b - a) / (fb - fa)
    if first is not None:
        c = np.where((first > a) & (first < b), first, c)
    for _ in range(REFINE_CAP):
        inside = (c > a) & (c < b)
        if not inside.all():
            c = np.where(inside, c, 0.5 * (a + b))
        y_c = state_at(c, j)
        g_c = event(y_c)
        if y is None:
            y = np.empty((y_c.shape[0], tau.size))
            y.fill(np.nan)
        keep_lo = fa * g_c <= 0.0
        if last is not None:  # Illinois: halve the value of an end kept twice
            scale = np.where(keep_lo == last, 0.5, 1.0)
            fa, fb = fa * scale, fb * scale
        a, b = np.where(keep_lo, a, c), np.where(keep_lo, c, b)
        fa, fb = np.where(keep_lo, fa, g_c), np.where(keep_lo, g_c, fb)
        last = keep_lo
        go = (np.abs(g_c) >= tol) & (b - a >= floor)  # False for NaN too
        if not go.all():
            done = np.abs(g_c) < tol
            tau[j[done]], y[:, j[done]] = c[done], y_c[:, done]
            narrow = ~(go | done) & np.isfinite(g_c)
            if narrow.any():
                tau[j[narrow]], y[:, j[narrow]] = b[narrow], state_at(b[narrow], j[narrow])
            if not go.any():
                return tau, y
            j, a, b, fa, fb, last = j[go], a[go], b[go], fa[go], fb[go], last[go]
        c = b - fb * (b - a) / (fb - fa)
    tau[j], y[:, j] = b, state_at(b, j)
    return tau, y


def _batch_rhs(field: VectorField, sign: float):
    rhs = field.rhs

    def fun(y):
        out = np.asarray(rhs(y), dtype=float)
        if out.shape != y.shape:
            raise ValueError(
                f"rhs of '{field.name}' returned shape {out.shape} for a batch of shape "
                f"{y.shape}; a vector field must map (d, N) states to (d, N)"
            )
        return out if sign > 0 else -out

    return fun


def _batch_event(event):
    def g(y):
        out = np.asarray(event(y), dtype=float)
        if out.shape != (y.shape[1],):
            raise ValueError(f"event returned shape {out.shape} for a batch of shape {y.shape}")
        return out

    return g


def _march(
    field: VectorField,
    y0: np.ndarray,
    sign: float,
    stops,
    tol: float,
    event=None,
    max_count: int = 1,
) -> RK45:
    """Run the stepper over the (d, N) lanes y0 along sign*F until every lane retires."""
    solver = RK45(_batch_rhs(field, sign), y0, stops, tol, event=event, max_count=max_count)
    while solver.running:
        solver.step()
    return solver


def _lane_error(field: VectorField, solver: RK45, lane: int, sign: float) -> NotInDomainError:
    tau = float(solver.tau[lane])
    if solver.status[lane] == BLOW_UP:
        return _blow_up(field, sign * tau, solver.y[:, lane])
    return StepUnderflowError(
        f"step size of '{field.name}' fell below {STEP_FLOOR:g}, or the march "
        f"exceeded {MAX_STEPS} steps, at tau={tau:g}"
    )


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
    images, escapes = _flow_lanes(field, states, times, tol)
    for escape in escapes:
        if escape is not None:
            raise escape
    return images


def _flow_lanes(
    field: VectorField, states, times, tol: float
) -> tuple[np.ndarray, list[Optional[NotInDomainError]]]:
    """``flow_many`` lane by lane: the images, NaN at the times a state did
    not reach, and each state's escape, its BlowUpError or
    StepUnderflowError, else None."""
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
    escapes: list[Optional[NotInDomainError]] = [None] * n
    moving = mags > 0.0
    out[~moving] = x
    if not moving.any() or n == 0:
        return out, escapes
    if field.closed_form_flow is not None:
        t = times[moving]
        y, blown = _closed_flow(field, np.tile(x.T, t.size), np.repeat(t, n))
        y, blown = y.T.reshape(t.size, n, field.dim), blown.reshape(t.size, n)
        for i in np.flatnonzero(blown.any(axis=0)).tolist():
            k = int(np.argmax(blown[:, i]))
            escapes[i] = _blow_up(field, float(t[k]), y[k, i])
            y[k:, i] = np.nan
        out[moving] = y
        return out, escapes
    sign = 1.0 if times[-1] > 0 else -1.0
    solver = _march(field, x.T, sign, mags[moving], tol)
    for i in np.flatnonzero(solver.status != DONE).tolist():
        escapes[i] = _lane_error(field, solver, i, sign)
    out[moving] = solver.at_stops.transpose(0, 2, 1)
    return out, escapes


def _inverse_interp(taus: np.ndarray, g: np.ndarray, k: int, last: int) -> float:
    """A first iterate for the sign change between samples k and k+1: the
    zero of the inverse interpolant tau(g) through the samples k-2 .. k+3
    that lie within 0 .. last. NaN unless their values are finite and
    strictly monotone, so that tau is a function of g."""
    lo, hi = max(k - 2, 0), min(k + 3, last)
    ts = (taus[lo : hi + 1] - taus[k]).tolist()
    gs = g[lo : hi + 1].tolist()
    steps = [g1 - g0 for g0, g1 in zip(gs, gs[1:])]
    finite = all(-np.inf < v < np.inf for v in gs)
    if not (finite and (all(v > 0.0 for v in steps) or all(v < 0.0 for v in steps))):
        return np.nan
    root = 0.0  # Lagrange form at g = 0, in times relative to sample k
    for i, (t_i, g_i) in enumerate(zip(ts, gs)):
        for m, g_m in enumerate(gs):
            if m != i:
                t_i *= g_m / (g_m - g_i)
        root += t_i
    return float(taus[k]) + root


def find_crossings(
    field: VectorField,
    x0,
    event: Callable[[np.ndarray], np.ndarray],
    sign: float,
    budget: float,
    tol: float = DEFAULT_TOL,
    *,
    max_count: int = 1,
) -> list[tuple[float, np.ndarray]]:
    """Locate up to max_count sign changes of event along sign*F over [0, budget].

    ``find_crossings_many`` of one state: sign is 1 (forward) or -1
    (backward). ``event`` maps (d, N) states to (N,) values. Blow-up or
    step underflow occurring after at least one crossing means the orbit
    left the domain and simply ends the scan; before any crossing it
    propagates.
    """
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    (found,), (escape,) = find_crossings_many(
        field, x0, event, sign, budget, tol, max_count=max_count
    )
    if escape is not None:
        raise escape
    return found


def _scan_closed(
    field: VectorField, x0: np.ndarray, event, sign: float, budget: float, tol: float, max_count: int
) -> tuple[list[tuple[float, np.ndarray]], Optional[BlowUpError]]:
    """The exact crossing scan of the closed-form orbit of the (d,) state x0.

    Each scan samples (lo, hi] at ``CLOSED_SCAN_POINTS`` uniform times with
    one closed-form call and one event call. A sign change is a crossing at
    its right sample when |event| < tol there. The scan's other sign changes
    are refined together by ``_refine`` on the closed-form orbit, each from
    the inverse interpolant through the samples around it
    (``_inverse_interp``); one whose iterate is blown is scanned again, and
    so is one in the interval right before a blown sample, where the event
    is too steep for its samples to give a first iterate. The orbit ends
    at its first blown sample; the interval before it is scanned
    again, so that crossings right before a finite-time escape are found,
    until the next scan's samples would lie closer than the floor
    1e-15 * budget; the orbit escapes at that interval's right end. A sign
    change narrower than the floor is taken at its right sample, and so is
    a refined bracket.

    Returns the crossings and, when the orbit escapes before any of them,
    the BlowUpError of the escape, else None.
    """
    floor = 1e-15 * budget
    lanes = np.repeat(x0[:, None], CLOSED_SCAN_POINTS, axis=1)

    def state_at(tau, _j):
        """The orbit at the times tau; NaN where it is blown."""
        y, blown = _closed_flow(field, lanes[:, : tau.size], sign * tau)
        return np.where(blown, np.nan, y)

    def scan(lo: float, g_lo: float, hi: float, count: int):
        """Up to count crossings over (lo, hi], and the blown sample that
        ends the orbit there as (tau, state), or None."""
        taus = lo + (hi - lo) * _FRACS
        y, blown = _closed_flow(field, lanes, sign * taus[1:])
        end = int(np.argmax(blown)) if blown.any() else CLOSED_SCAN_POINTS
        g = np.empty(CLOSED_SCAN_POINTS + 1)
        g[0] = g_lo
        if end:
            g[1 : end + 1] = event(y[:, :end])
        ks = _sign_change(g[:end], g[1 : end + 1]).nonzero()[0][:count].tolist()
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
            tau, state = refined.get(k, (float(taus[k + 1]), y[:, k]))
            if k == steep or np.isnan(tau):  # or a blown iterate: sample the bracket again
                hits += scan(taus[k], g[k], taus[k + 1], 1)[0]
            else:
                hits.append((tau, state.copy()))
        if len(hits) >= count or end == CLOSED_SCAN_POINTS:
            return hits, None
        if taus[end + 1] - taus[end] < CLOSED_SCAN_POINTS * floor:
            return hits, (float(taus[end + 1]), y[:, end])
        more, escape = scan(taus[end], g[end], taus[end + 1], count - len(hits))
        return hits + more, escape

    found, escape = scan(0.0, float(event(x0[:, None])[0]), budget, max_count)
    if escape is None or found:
        return found, None
    tau, state = escape
    return found, _blow_up(field, sign * tau, state)


def find_crossings_many(
    field: VectorField,
    states,
    event: Callable[[np.ndarray], np.ndarray],
    sign: float,
    budget: float,
    tol: float = DEFAULT_TOL,
    *,
    max_count: int = 1,
) -> tuple[list[list[tuple[float, np.ndarray]]], list[Optional[NotInDomainError]]]:
    """Up to max_count crossings of event along sign*F over [0, budget] for N states.

    sign is 1 to search forward in time and -1 to search backward.
    ``event`` maps a (d, M) array to M values. A field without a closed
    form marches every state as one lane of a batch, and its crossings are
    refined by ``_refine`` on the steps' dense output to |event| < tol. A
    closed-form flow is scanned exactly, state by state (``_scan_closed``).
    Returns, per state, its crossings and its escape: the BlowUpError or
    StepUnderflowError that ends the orbit before any crossing, else None.
    sign must be 1 or -1, tol finite and positive, budget finite and
    max_count at least 1, else ValueError; a budget <= 0 finds no crossings.
    """
    x = as_states(field, states)
    n = x.shape[0]
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    _check_tol(tol)
    if not np.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget!r}")
    if max_count < 1:
        raise ValueError(f"max_count must be at least 1, got {max_count!r}")
    if n == 0 or budget <= 0.0:
        return [[] for _ in range(n)], [None] * n
    event = _batch_event(event)
    if field.closed_form_flow is not None:
        scans = [_scan_closed(field, x0, event, sign, budget, tol, max_count) for x0 in x]
        return [found for found, _ in scans], [escape for _, escape in scans]
    solver = _march(field, x.T, sign, [budget], tol, event=event, max_count=max_count)
    found = solver.crossings(tol)
    escapes = [
        _lane_error(field, solver, i, sign)
        if not found[i] and solver.status[i] in (BLOW_UP, UNDERFLOW)
        else None
        for i in range(n)
    ]
    return found, escapes


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
    mani = manifolds.point_manifold(1.0)
    from .eigenfunctions import ClosedFormEigenfunction

    oracle = ClosedFormEigenfunction(complex(a), lambda x: x[0], fld)
    return BenchmarkSystem(fld, mani, (-1.0, 1.0), oracle)


def _lin2d(a1: float = 1.0, a2: float = 2.0) -> BenchmarkSystem:
    a = np.array([float(a1), float(a2)])

    def rhs(x):
        return (a * x.T).T  # component k scales by a[k] in every lane

    def closed(x, t):
        return x * np.exp(np.multiply.outer(a, t))

    fld = VectorField(2, rhs, name=f"lin2d(a=({a1:g},{a2:g}))", closed_form_flow=closed)
    mani = manifolds.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))
    from .eigenfunctions import ClosedFormEigenfunction

    oracle = ClosedFormEigenfunction(complex(a2), lambda x: x[1], fld)
    return BenchmarkSystem(fld, mani, (0.0, 1.2), oracle)


def _hopf(mu: float = 1.0) -> BenchmarkSystem:
    mu = float(mu)

    def rhs(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        return np.array([-x[1] + x[0] * (mu - r2), x[0] + x[1] * (mu - r2)])

    closed = None
    if mu > 0:

        def closed(x, t):
            # The start vector rotated by t and scaled by r / r0.
            r2 = x[0] * x[0] + x[1] * x[1]
            gap = mu - r2
            fwd = t >= 0.0
            e2 = np.exp(-2.0 * mu * np.abs(t))  # exp(-2 mu t) forward, exp(2 mu t) backward
            denom = np.where(fwd, gap * e2 + r2, gap + e2 * r2)
            scale = np.exp(mu * np.minimum(t, 0.0)) * np.sqrt(mu) / np.sqrt(denom)
            # denom <= 0: backward, the orbit has escaped in finite time;
            # forward, it is the origin after exp(-2 mu t) underflows.
            scale = np.where(denom > 0.0, scale, np.where(fwd, 0.0, np.inf))
            c, s = scale * np.cos(t), scale * np.sin(t)
            return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    fld = VectorField(2, rhs, name=f"hopf(mu={mu:g})", closed_form_flow=closed)
    mani = manifolds.circle_manifold((0.0, 0.0), 5.0, n=257)
    return BenchmarkSystem(fld, mani, (0.0, 4.0), None)


def _vdp() -> BenchmarkSystem:
    def rhs(x):
        return np.array([x[1], x[1] * (1.0 - x[0] * x[0]) - x[0]])

    fld = VectorField(2, rhs, name="vdp")
    mani = manifolds.segment_manifold((1.0, 0.5), (2.0, 1.5), n=121)
    return BenchmarkSystem(fld, mani, (0.0, 2.0), None)


def _blowup() -> BenchmarkSystem:
    def rhs(x):
        return x * x

    def closed(x, t):
        denom = 1.0 - x[0] * t
        return np.where(denom > 0.0, x / denom, np.inf)  # past t = 1/x it has escaped

    fld = VectorField(1, rhs, name="blowup", closed_form_flow=closed)
    mani = manifolds.point_manifold(1.0)
    from .eigenfunctions import ClosedFormEigenfunction

    oracle = ClosedFormEigenfunction(1.0 + 0.0j, lambda x: np.exp(-1.0 / x[0]), fld)
    return BenchmarkSystem(fld, mani, (-1.0, 0.5), oracle)


def _action_angle() -> BenchmarkSystem:
    def rhs(x):
        return np.stack([np.zeros_like(x[0]), x[0]])

    def closed(x, t):
        return np.stack([x[0], x[1] + x[0] * t])

    fld = VectorField(2, rhs, name="action_angle", closed_form_flow=closed)
    mani = manifolds.segment_manifold((0.5, 0.2), (2.5, 0.2), n=121, s_range=(0.5, 2.5))
    return BenchmarkSystem(fld, mani, (0.0, 0.8), None)


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
