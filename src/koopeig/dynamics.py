"""Vector fields, a batched adaptive integrator, event detection, benchmark systems.

Numerical integration uses koopeig's own Dormand-Prince 5(4) embedded pair
(Dormand & Prince 1980; Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.6). The ``RK45`` stepper advances a (d, N) array whose columns are
independent lanes. Each lane keeps its own step size, error control and FSAL
derivative, under the fixed blow-up bound ``BLOWUP_BOUND``, step floor
``STEP_FLOOR`` and step budget ``MAX_STEPS``. A lane retires when it
finishes its span, blows up, underflows, or has met ``max_count`` event
crossings. A single ``flow`` or ``find_crossings`` is the N = 1 case;
``flow_many`` and ``find_crossings_many`` march many states as one batch,
and crossings are refined by vectorized bisection on the dense output.

Right-hand-side contract: ``VectorField.rhs`` maps a (d, N) array of states
to the (d, N) array of their derivatives. Every march, one lane included,
calls it once per stage with the whole batch, and a result of another shape
is a ValueError naming the field. An event likewise maps (d, N) states to
(N,) values.

Systems that admit a closed-form flow expose it on the ``VectorField``;
``method="auto"`` prefers it when present. A closed-form flow maps (d, N)
states and (N,) times to (d, N), so the exact crossing scan samples one
orbit at many times in one call (see ``find_crossings``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, KoopeigError, StepUnderflowError
from . import manifolds

__all__ = [
    "VectorField",
    "FlowResult",
    "BenchmarkSystem",
    "RK45",
    "as_states",
    "flow",
    "flow_many",
    "find_crossings",
    "find_crossings_many",
    "is_numeric",
    "make_system",
    "system_names",
    "DEFAULT_TOL",
    "BLOWUP_BOUND",
]

DEFAULT_TOL = 1e-10
BLOWUP_BOUND = 1e12
STEP_FLOOR = 1e-14
MAX_STEPS = 1_000_000
BISECT_CAP = 80
# Sampling resolution of the event scan used on closed-form trajectories.
CLOSED_SCAN_POINTS = 128

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
    """

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    name: str = "field"
    closed_form_flow: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


@dataclass(frozen=True)
class FlowResult:
    state: np.ndarray
    time_elapsed: float
    steps_taken: int


@dataclass(frozen=True)
class BenchmarkSystem:
    """A named vector field bundled with a default data manifold and, when
    one is known in closed form, a reference eigenfunction for certification."""

    field: VectorField
    default_manifold: Optional["manifolds.DataManifold"]
    default_t_window: tuple[float, float]
    oracle_eigenfunction: Optional[object] = None


def _check_state(field: VectorField, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (field.dim,):
        raise ValueError(f"state has dimension {x0.shape[0]}, field expects {field.dim}")
    return x0


def as_states(field: VectorField, states) -> np.ndarray:
    """States as an (N, d) array; an empty input gives (0, d)."""
    x = np.array(states, dtype=float)
    if x.size == 0:
        return x.reshape(0, field.dim)
    if x.ndim != 2 or x.shape[1] != field.dim:
        raise ValueError(f"states shaped {x.shape}, field expects (N, {field.dim})")
    return x


def is_numeric(field: VectorField, method: str) -> bool:
    """Whether ``method`` integrates the field numerically: "rk45", or "auto"
    on a field without a closed-form flow. "exact" needs the closed form."""
    if method == "auto":
        return field.closed_form_flow is None
    if method == "exact":
        if field.closed_form_flow is None:
            raise ValueError(f"field '{field.name}' has no closed-form flow")
        return False
    if method == "rk45":
        return True
    raise ValueError(f"unknown method {method!r}")


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
    run out, ``status``, ``tau``, ``y`` and ``steps`` hold each lane's
    retirement state, and ``crossings(tol)`` refines the brackets.
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
        self.steps = np.zeros(n, dtype=int)
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
        self.brackets.append((self._lanes[c], tau[c], tau_new[c], y[:, c], q, g_old[sel]))
        self._count[c] += 1

    def _retire(self, status: np.ndarray) -> None:
        out = status != RUNNING
        if not out.any():
            return
        lanes = self._lanes[out]
        self.status[lanes] = status[out]
        self.tau[lanes] = self._tau[out]
        self.y[:, lanes] = self._y[:, out]
        self.steps[lanes] = self._steps[out]
        keep = ~out
        self._lanes = self._lanes[keep]
        self._y, self._f = self._y[:, keep], self._f[:, keep]
        for name in ("_tau", "_h", "_steps", "_next", "_count", "_cap"):
            setattr(self, name, getattr(self, name)[keep])
        if self._g is not None:
            self._g = self._g[keep]

    def crossings(self, tol: float) -> list[list[tuple[float, np.ndarray]]]:
        """Each lane's bracketed crossings, refined to |event| < tol, in time order."""
        found: list[list[tuple[float, np.ndarray]]] = [[] for _ in range(self.status.size)]
        if not self.brackets:
            return found
        lanes, lo, hi, y_lo, q, g_lo = (
            np.concatenate(part, axis=-1) for part in zip(*self.brackets)
        )
        tau, y = _bisect_dense(self.event, lo, hi, y_lo, q, g_lo, tol)
        for j in np.argsort(lanes, kind="stable"):
            found[lanes[j]].append((float(tau[j]), y[:, j].copy()))
        return found


def _bisect_dense(event, lo, hi, y_lo, q, g_lo, tol) -> tuple[np.ndarray, np.ndarray]:
    """Bisect M brackets at once on their steps' dense output until |event| < tol.

    Each bracket starts from its step's end and halves the side without the
    sign change, for at most ``BISECT_CAP`` halvings.
    """
    t0, hs = lo.copy(), hi - lo
    lo, hi, g_lo = lo.copy(), hi.copy(), g_lo.copy()

    def state_at(tau, j):
        x = (tau - t0[j]) / hs[j]
        x2 = x * x
        x3 = x2 * x
        poly = q[0][:, j] * x + q[1][:, j] * x2 + q[2][:, j] * x3 + q[3][:, j] * (x3 * x)
        return y_lo[:, j] + hs[j] * poly

    every = np.arange(lo.size)
    tau, y = hi.copy(), state_at(hi, every)
    g = event(y)
    for _ in range(BISECT_CAP):
        j = np.nonzero(~(np.abs(g) < tol))[0]
        if j.size == 0:
            break
        mid = 0.5 * (lo[j] + hi[j])
        y_mid = state_at(mid, j)
        g_mid = event(y_mid)
        left = g_lo[j] * g_mid <= 0.0
        hi[j] = np.where(left, mid, hi[j])
        lo[j] = np.where(left, lo[j], mid)
        g_lo[j] = np.where(left, g_lo[j], g_mid)
        tau[j], y[:, j], g[j] = mid, y_mid, g_mid
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
    if event is not None:
        event = _batch_event(event)
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


def flow(
    field: VectorField,
    x0,
    t: float,
    tol: float = DEFAULT_TOL,
    *,
    method: str = "auto",
) -> FlowResult:
    """Advance x0 by time t along the field.

    Negative t integrates the reversed field.  ``method`` is "auto"
    (closed form when the field has one, else numeric), "rk45", or "exact".
    """
    x0 = _check_state(field, x0)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    numeric = is_numeric(field, method)
    if t == 0.0:
        return FlowResult(x0.copy(), 0.0, 0)
    if not numeric:
        return FlowResult(_closed_at(field, x0[:, None], np.array([t]))[:, 0], t, 0)
    sign = 1.0 if t > 0 else -1.0
    solver = _march(field, x0[:, None], sign, [abs(t)], tol)
    if solver.status[0] != DONE:
        raise _lane_error(field, solver, 0, sign)
    return FlowResult(solver.at_stops[-1, :, 0].copy(), t, int(solver.steps[0]))


def flow_many(
    field: VectorField,
    states,
    times,
    tol: float = DEFAULT_TOL,
    *,
    method: str = "auto",
) -> np.ndarray:
    """Images of N states at several times, shaped (len(times), N, d).

    The times share one sign and grow in magnitude. A numerically integrated
    field marches all states as one batch that lands exactly on each time;
    a closed-form flow takes every state at every time in one call. The
    first state that blows up or underflows raises, as in ``flow``.
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
    numeric = is_numeric(field, method)
    out = np.empty((times.size, x.shape[0], field.dim))
    moving = mags > 0.0
    out[~moving] = x
    if not moving.any() or x.shape[0] == 0:
        return out
    if not numeric:
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


def find_crossings(
    field: VectorField,
    x0,
    event: Callable[[np.ndarray], np.ndarray],
    sign: float,
    budget: float,
    tol: float = DEFAULT_TOL,
    *,
    method: str = "auto",
    max_count: int = 1,
) -> list[tuple[float, np.ndarray]]:
    """Locate up to max_count sign changes of event along sign*F over [0, budget].

    ``event`` maps (d, N) states to (N,) values. Blow-up or step underflow
    occurring after at least one crossing means the orbit left the domain
    and simply ends the scan; before any crossing it propagates. A numeric
    field is the one-state case of ``find_crossings_many``, whose crossings
    are bisected to |event| < tol.

    A closed-form flow is scanned exactly: each scan samples (lo, hi] at
    ``CLOSED_SCAN_POINTS`` uniform times with one closed-form call and one
    event call. A sign change is a crossing at its right sample when
    |event| < tol there, else its interval is scanned again for one
    crossing. The orbit ends at its first blown sample; the interval before
    it is scanned again, so that crossings right before a finite-time
    escape are found, until it is narrower than 1e-15 * budget, where the
    orbit escapes. A sign change that narrow is taken at its right sample.
    """
    x0 = _check_state(field, x0)
    found: list[tuple[float, np.ndarray]] = []
    if budget <= 0.0:
        return found

    if is_numeric(field, method):
        (found,), (escape,) = find_crossings_many(
            field, x0[None], event, sign, budget, tol, max_count=max_count
        )
        if escape is not None:
            raise escape
        return found

    event = _batch_event(event)
    floor = 1e-15 * budget
    lanes = np.repeat(x0[:, None], CLOSED_SCAN_POINTS, axis=1)

    def scan(lo: float, g_lo: float, hi: float, count: int):
        """Up to count crossings over (lo, hi], and the blown sample that
        ends the orbit there as (tau, state), or None."""
        taus = np.linspace(lo, hi, CLOSED_SCAN_POINTS + 1)
        y, blown = _closed_flow(field, lanes, sign * taus[1:])
        end = int(np.argmax(blown)) if blown.any() else CLOSED_SCAN_POINTS
        g = np.concatenate([[g_lo], event(y[:, :end]) if end else []])
        hits: list[tuple[float, np.ndarray]] = []
        for k in np.flatnonzero(_sign_change(g[:-1], g[1:])):
            if abs(g[k + 1]) < tol or taus[k + 1] - taus[k] < floor:
                hits.append((float(taus[k + 1]), y[:, k].copy()))
            else:
                hits += scan(taus[k], g[k], taus[k + 1], 1)[0]
            if len(hits) >= count:
                return hits, None
        if end == CLOSED_SCAN_POINTS:
            return hits, None
        if taus[end + 1] - taus[end] < floor:
            return hits, (float(taus[end + 1]), y[:, end].copy())
        more, escape = scan(taus[end], g[end], taus[end + 1], count - len(hits))
        return hits + more, escape

    found, escape = scan(0.0, float(event(x0[:, None])[0]), budget, max_count)
    if escape is not None and not found:
        tau, state = escape
        raise BlowUpError(
            f"closed-form orbit of '{field.name}' escapes the bound {BLOWUP_BOUND:g} "
            f"near tau={tau:g}",
            time=sign * tau,
            state=state,
        )
    return found


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
    """``find_crossings`` of the numeric flow for N states, marched as one batch.

    ``event`` maps a (d, M) array to M values.
    Returns, per state, its crossings and its escape: the BlowUpError or
    StepUnderflowError that ends the orbit before any crossing, else None.
    """
    x = as_states(field, states)
    n = x.shape[0]
    if n == 0 or budget <= 0.0:
        return [[] for _ in range(n)], [None] * n
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
            r0 = np.hypot(x[0], x[1])
            th = np.arctan2(x[1], x[0]) + t
            fwd = t >= 0.0
            e2 = np.exp(-2.0 * mu * np.abs(t))  # exp(-2 mu t) forward, exp(2 mu t) backward
            denom = np.where(fwd, (mu - r0 * r0) * e2 + r0 * r0, mu - r0 * r0 + e2 * r0 * r0)
            r = np.exp(mu * np.minimum(t, 0.0)) * np.sqrt(mu) * r0 / np.sqrt(denom)
            # denom <= 0: backward, the orbit has escaped in finite time;
            # forward, it is the origin after exp(-2 mu t) underflows.
            r = np.where(denom > 0.0, r, np.where(fwd, 0.0, np.inf))
            return np.stack([r * np.cos(th), r * np.sin(th)])

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
