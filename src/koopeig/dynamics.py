"""Vector fields, a batched adaptive integrator, event detection, benchmark systems.

Numerical integration uses koopeig's own Dormand-Prince 5(4) embedded pair
(Dormand & Prince 1980; Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.6). The ``RK45`` stepper advances a (d, N) array whose columns are
independent lanes. Each lane keeps its own step size, error control and FSAL
derivative, under the fixed blow-up bound ``BLOWUP_BOUND``, step floor
``STEP_FLOOR`` and step budget ``MAX_STEPS``. A lane retires when it
finishes its span, blows up, underflows, or has met ``max_count`` event
crossings. ``flow_many`` and ``find_crossings_many`` march many states as
one batch, and crossings are refined by Illinois steps on the dense output.

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

from .errors import BlowUpError, KoopeigError, StepUnderflowError
from . import manifolds

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

# Dormand-Prince 5(4): stage coefficients, fifth-order weights, error weights
# (fifth minus fourth order, FSAL stage included) and the coefficients of the
# fourth-order continuous extension, powers x..x^4 of the step fraction x.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869441 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _terms(weights) -> tuple:
    """The (weight, stage index) pairs of the nonzero weights."""
    return tuple((w, j) for j, w in enumerate(weights) if w != 0.0)


_A_TERMS = tuple(_terms(a) for a in _A[1:])
_B_TERMS, _E_TERMS = _terms(_B), _terms(_E)
_P_TERMS = tuple(_terms([row[p] for row in _P]) for p in range(4))

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


def _closed_at(field: VectorField, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``_closed_flow`` that raises BlowUpError for the first blown column."""
    y, blown = _closed_flow(field, x, t)
    if blown.any():
        j = int(np.argmax(blown))
        raise BlowUpError(
            f"closed-form flow of '{field.name}' left the bound {BLOWUP_BOUND:g} at t={t[j]:g}",
            time=float(t[j]),
            state=y[:, j].copy(),
        )
    return y


# ---------------------------------------------------------------------------
# Batched Dormand-Prince stepper
# ---------------------------------------------------------------------------


def _sum_sq(z: np.ndarray) -> np.ndarray:
    """Per-lane sum of squares of a (d, N) array, in a fixed order so that a
    lane's value does not depend on the other lanes in its batch."""
    acc = z[0] * z[0]
    for row in z[1:]:
        acc = acc + row * row
    return acc


def _sign_change(g_old: np.ndarray, g_new: np.ndarray) -> np.ndarray:
    """Where an event crosses zero between two samples; a zero counts once."""
    return (g_old * g_new <= 0.0) & ((g_old != 0.0) | (g_new != 0.0))


def _rms(z: np.ndarray) -> np.ndarray:
    return np.sqrt(_sum_sq(z) / z.shape[0])


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


class RK45:
    """Dormand-Prince 5(4) pair marching a (d, N) batch of lanes along tau >= 0.

    ``fun`` maps the (d, N) state to its derivative. Every lane must land on
    each tau in ``stops`` (positive, increasing); its state there is kept in
    ``at_stops``. When ``event`` (a (d, M) array to (M,) values) is given,
    each accepted step that changes its sign records a bracket with the
    step's dense output, and a lane retires after ``max_count`` of them.
    ``step()`` makes one attempt for every running lane. When the batch has
    run out, ``status``, ``tau`` and ``y`` hold each lane's retirement
    state, and ``crossings(tol)`` refines the brackets.
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
        self._count = np.zeros(n, dtype=int)
        self._cap = np.full(n, MAX_FACTOR)  # growth cap: 1 right after a rejection
        self._attempts = 0
        with np.errstate(all="ignore"):
            self._f = fun(y)
            self._h = self._initial_step(y, self._f)
        self._g = event(y) if event is not None else None

    @property
    def running(self) -> bool:
        return self._lanes.size > 0

    def _initial_step(self, y0: np.ndarray, f0: np.ndarray) -> np.ndarray:
        """Per-lane starting step (Hairer, Norsett & Wanner, II.4)."""
        span = self.stops[-1]
        scale = self.tol + np.abs(y0) * self.tol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        d2 = _rms((self.fun(y0 + h0 * f0) - f0) / scale) / h0
        peak = np.maximum(d1, d2)
        h1 = np.where(peak <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / peak) ** 0.2)
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    def step(self) -> None:
        """One attempted step of every running lane; retire the lanes that end."""
        self._attempts += 1
        with np.errstate(all="ignore"):
            self._attempt()

    def _attempt(self) -> None:
        y, f, tau, h, tol = self._y, self._f, self._tau, self._h, self.tol
        target = self.stops[self._next]
        tau_new = np.minimum(tau + h, target)
        clipped = tau_new == target
        hs = tau_new - tau
        stalled = ~(h >= np.maximum(STEP_FLOOR, 10.0 * np.spacing(tau)))  # NaN stalls too

        k = [f]
        for terms in _A_TERMS:
            k.append(self.fun(y + hs * _combine(terms, k)))
        y_new = y + hs * _combine(_B_TERMS, k)
        k.append(self.fun(y_new))
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err_norm = _rms(hs * _combine(_E_TERMS, k) / scale)

        growth = SAFETY * err_norm**-0.2
        accept = (err_norm < 1.0) & ~stalled
        every = accept.all()
        # No growth right after a rejection; a step cut short to land on a
        # stop says nothing against the longer one.
        h_acc = hs * np.minimum(self._cap, growth)
        h_acc = np.where(clipped, np.maximum(h, h_acc), h_acc)
        self._h = h_acc if every else np.where(accept, h_acc, h * np.fmax(MIN_FACTOR, growth))
        self._cap = np.where(accept, MAX_FACTOR, 1.0)

        status = np.where(stalled, UNDERFLOW, RUNNING)
        if stalled.any():
            # A collapsing step with an enormous state is finite-time blow-up.
            status[stalled & (_sum_sq(y) > (1e-2 * BLOWUP_BOUND) ** 2)] = BLOW_UP
        if every or accept.any():
            self._advance(accept, every, clipped, status, tau_new, y_new, k)
        self._retire(status)

    def _advance(self, accept, every, clipped, status, tau_new, y_new, k) -> None:
        """Move the accepted lanes; mark in status those that land on their
        last stop, blow up, run out of steps or meet their last crossing."""
        tau, y = self._tau, self._y
        if every:
            self._tau, self._y, self._f = tau_new, y_new, k[-1]
        else:
            self._tau = np.where(accept, tau_new, tau)
            self._y = np.where(accept, y_new, y)
            self._f = np.where(accept, k[-1], self._f)
        self._steps = self._steps + accept
        blown = accept & ~(_sum_sq(y_new) <= BLOWUP_BOUND**2)
        live = accept & ~blown
        landed = live & clipped
        if landed.any():
            self.at_stops[self._next[landed], :, self._lanes[landed]] = y_new[:, landed].T
            self._next = self._next + landed
            status[landed & (self._next == self.stops.size)] = DONE
        if self._attempts > MAX_STEPS:  # no lane has more steps than attempts
            status[live & (status == RUNNING) & (self._steps > MAX_STEPS)] = UNDERFLOW
        if self.event is not None:
            self._detect(k, tau, tau_new, y, np.nonzero(live & (status != UNDERFLOW))[0])
            status[(status == RUNNING) & (self._count >= self.max_count)] = CROSSED
        status[blown] = BLOW_UP

    def _detect(self, k, tau, tau_new, y, idx) -> None:
        """Bracket the sign changes of the event over the accepted steps idx."""
        if idx.size == 0:
            return
        g_new = self.event(self._y[:, idx])
        g_old = self._g[idx]
        sel = _sign_change(g_old, g_new)
        self._g[idx] = g_new
        if not sel.any():
            return
        c = idx[sel]
        ks = [stage[:, c] for stage in k]
        q = np.stack([_combine(terms, ks) for terms in _P_TERMS])
        self.brackets.append(
            (self._lanes[c], tau[c], tau_new[c], y[:, c], q, g_old[sel], g_new[sel])
        )
        self._count[c] += 1

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
        for name in ("_tau", "_h", "_steps", "_next", "_count", "_cap"):
            setattr(self, name, getattr(self, name)[keep])
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
            """The steps' dense output of the brackets j at the times tau."""
            x = (tau - lo[j]) / hs[j]
            x2 = x * x
            x3 = x2 * x
            poly = q[0][:, j] * x + q[1][:, j] * x2 + q[2][:, j] * x3 + q[3][:, j] * (x3 * x)
            return y_lo[:, j] + hs[j] * poly

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


def _lane_error(field: VectorField, solver: RK45, lane: int, sign: float) -> KoopeigError:
    tau = float(solver.tau[lane])
    if solver.status[lane] == BLOW_UP:
        return BlowUpError(
            f"trajectory of '{field.name}' left the bound {BLOWUP_BOUND:g} "
            f"near tau={tau:g}",
            time=sign * tau,
            state=solver.y[:, lane].copy(),
        )
    return StepUnderflowError(
        f"step size of '{field.name}' fell below {STEP_FLOOR:g}, or the march "
        f"exceeded {MAX_STEPS} steps, at tau={tau:g}"
    )


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
    StepUnderflowError.
    """
    x = as_states(field, states)
    times = np.asarray(times, dtype=float).reshape(-1)
    mags = np.abs(times)
    if not np.all(np.isfinite(times)) or np.any(np.diff(mags) <= 0.0):
        raise ValueError("times must be finite and grow strictly in magnitude")
    if np.any(times > 0.0) and np.any(times < 0.0):
        raise ValueError("times must share one sign")
    if tol <= 0:
        raise ValueError("tol must be positive")
    out = np.empty((times.size, x.shape[0], field.dim))
    moving = mags > 0.0
    out[~moving] = x
    if not moving.any() or x.shape[0] == 0:
        return out
    if field.closed_form_flow is not None:
        n, t = x.shape[0], times[moving]
        y = _closed_at(field, np.tile(x.T, t.size), np.repeat(t, n))
        out[moving] = y.T.reshape(t.size, n, field.dim)
        return out
    sign = 1.0 if times[-1] > 0 else -1.0
    solver = _march(field, x.T, sign, mags[moving], tol)
    failed = np.nonzero(solver.status != DONE)[0]
    if failed.size:
        raise _lane_error(field, solver, int(failed[0]), sign)
    out[moving] = solver.at_stops.transpose(0, 2, 1)
    return out


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

    ``find_crossings_many`` of one state. ``event`` maps (d, N) states to
    (N,) values. Blow-up or step underflow occurring after at least one
    crossing means the orbit left the domain and simply ends the scan;
    before any crossing it propagates.
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
    (``_inverse_interp``); one whose iterate is blown is scanned again. The
    orbit ends at its first blown sample; the interval before it is scanned
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
        # there; the others are refined together.
        k_in = [k for k in ks if not (abs(g[k + 1]) < tol or taus[k + 1] - taus[k] < floor)]
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
            if np.isnan(tau):  # a blown iterate: sample the bracket again
                hits += scan(taus[k], g[k], taus[k + 1], 1)[0]
            else:
                hits.append((tau, state.copy()))
        if len(hits) >= count or end == CLOSED_SCAN_POINTS:
            return hits, None
        if taus[end + 1] - taus[end] < CLOSED_SCAN_POINTS * floor:
            return hits, (float(taus[end + 1]), y[:, end].copy())
        more, escape = scan(taus[end], g[end], taus[end + 1], count - len(hits))
        return hits + more, escape

    found, escape = scan(0.0, float(event(x0[:, None])[0]), budget, max_count)
    if escape is None or found:
        return found, None
    tau, state = escape
    return found, BlowUpError(
        f"closed-form orbit of '{field.name}' escapes the bound {BLOWUP_BOUND:g} "
        f"near tau={tau:g}",
        time=sign * tau,
        state=state,
    )


def find_crossings_many(
    field: VectorField,
    states,
    event: Callable[[np.ndarray], np.ndarray],
    sign: float,
    budget: float,
    tol: float = DEFAULT_TOL,
    *,
    max_count: int = 1,
) -> tuple[list[list[tuple[float, np.ndarray]]], list[Optional[KoopeigError]]]:
    """Up to max_count crossings of event along sign*F over [0, budget] for N states.

    ``event`` maps a (d, M) array to M values. A field without a closed
    form marches every state as one lane of a batch, and its crossings are
    refined by ``_refine`` on the steps' dense output to |event| < tol. A
    closed-form flow is scanned exactly, state by state (``_scan_closed``).
    Returns, per state, its crossings and its escape: the BlowUpError or
    StepUnderflowError that ends the orbit before any crossing, else None.
    """
    x = as_states(field, states)
    n = x.shape[0]
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
