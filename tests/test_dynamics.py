import dataclasses
import math

import numpy as np
import pytest

import koopeig as ke
from koopeig import _dop853, dynamics
from koopeig.dynamics import find_crossings


def _rk45(field):
    """The field's twin without its closed form, which RK45 marches."""
    return dataclasses.replace(field, closed_form_flow=None)


def test_flow_identity_at_t0(lin2d):
    assert np.array_equal(ke.flow(lin2d.field, [1.0, 1.0], 0.0), [1.0, 1.0])


def test_flow_lin2d_closed_form_values(lin2d):
    assert np.allclose(ke.flow(lin2d.field, [1.0, 1.0], math.log(2.0)), [2.0, 4.0], atol=1e-8)


def test_flow_numeric_matches_closed_form(lin2d):
    r = ke.flow(_rk45(lin2d.field), [1.0, 1.0], math.log(2.0), 1e-10)
    assert np.allclose(r, [2.0, 4.0], atol=1e-8)


def test_flow_blowup_both_methods():
    sysb = ke.make_system("blowup")
    with pytest.raises(ke.BlowUpError):
        ke.flow(sysb.field, [1.0], 1.0)
    # The orbit escapes at t = 1; the march's escape time lies within its
    # tolerance of that, so it is flowed a little past.
    with pytest.raises(ke.BlowUpError):
        ke.flow(_rk45(sysb.field), [1.0], 1.01)


def test_flow_dimension_and_argument_checks(lin2d):
    with pytest.raises(ValueError):
        ke.flow(lin2d.field, [1.0], 1.0)
    with pytest.raises(ValueError):
        ke.flow(lin2d.field, [1.0, 1.0], math.inf)
    with pytest.raises(ValueError):
        ke.flow(lin2d.field, [1.0, 1.0], 1.0, tol=0.0)


@pytest.mark.parametrize("name", ["vdp", "lin2d", "hopf"])
def test_marches_refuse_a_tol_budget_or_window_that_makes_no_sense(name):
    # vdp is marched by RK45; lin2d and hopf are scanned in closed form.
    system = ke.make_system(name)
    field, mani = system.field, system.default_manifold
    x = [[6.0, 0.0]] if name == "hopf" else [[1.5, 1.0]]
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            ke.flow_many(field, x, [0.5], tol)
        with pytest.raises(ValueError, match="tol"):
            dynamics.find_crossings_many(field, x, mani.surface, -1.0, 2.0, tol)
        with pytest.raises(ValueError, match="tol"):
            ke.pullback(field, mani, (0.0, 2.0), x[0], tol)
        with pytest.raises(ValueError, match="tol"):
            ke.pullback_many(field, mani, (0.0, 2.0), x, tol)
    for sign in (-2.0, 0.5, 0.0):
        for budget in (2.0, 0.0):
            with pytest.raises(ValueError, match="sign"):
                dynamics.find_crossings_many(field, x, mani.surface, sign, budget)
        with pytest.raises(ValueError, match="sign"):
            dynamics.find_crossings(field, x[0], mani.surface, sign, 2.0)
    for window in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t_window"):
            ke.pullback(field, mani, window, x[0])
    assert dynamics.find_crossings_many(field, x, mani.surface, -1.0, 0.0) == ([[]], [None])
    assert dynamics.find_crossings_many(field, x, mani.surface, -1.0, -1.0) == ([[]], [None])
    for budget in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="budget"):
            dynamics.find_crossings_many(field, x, mani.surface, -1.0, budget)


def _dense(row: dict, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[list(row)] = list(row.values())
    return out


def test_stepper_tables_are_dop853s_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as ref

    tables = [
        (np.array([_dense(row, 16) for row in _dop853.A]), ref.A),
        (_dense(_dop853.B, ref.N_STAGES), ref.B),
        (_dense(_dop853.E5, ref.N_STAGES + 1), ref.E5),
        (_dense(_dop853.E3, ref.N_STAGES + 1), ref.E3),
        (np.array([_dense(row, 16) for row in _dop853.D]), ref.D),
    ]
    for ours, theirs in tables:
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
    # Sparse rows: nonzero weights only, in stage order, which is the order
    # of every stage sum.
    for row in (*_dop853.A, _dop853.E5, _dop853.E3, *_dop853.D):
        assert list(row) == sorted(row) and 0.0 not in row.values()


def _combine(row: dict, stages) -> np.ndarray:
    """The reference stage sum: sum row[j] * stages[j], one term at a time
    in stage order."""
    (j, w), *rest = row.items()
    acc = np.array(w) * stages[j]
    for j, w in rest:
        acc += np.array(w) * stages[j]
    return acc


def _lanes(rng, d, n):
    """(d, n) random lanes spanning many magnitudes, with +-inf, NaN, +-0.0
    and subnormals among them."""
    z = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-300, 300, (d, n))
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -1e308]
    pick = rng.random((d, n)) < 0.2
    z[pick] = rng.choice(special, np.count_nonzero(pick))
    return z


def _bits(z: np.ndarray) -> bytes:
    """The bytes of z with every NaN made the one quiet NaN. IEEE 754 leaves
    open which operand's NaN a sum of two NaNs keeps, and numpy's SIMD loops
    and their scalar tails choose differently, so a NaN's sign may follow
    the lane's place in its loop."""
    return np.where(np.isnan(z), np.nan, z).tobytes()


# Each accumulator of the stepper, the DOP853 rows it sums, in its row
# order, and its number of stages.
_ROW_SUMS = [
    (dynamics._STEP_SUMS, (*_dop853.A[1:13], _dop853.E5, _dop853.E3), 13),
    (dynamics._DENSE_SUMS, (*_dop853.A[13:], *_dop853.D), 16),
]


@pytest.mark.parametrize("block", [dynamics.SUM_BLOCK, 7])
def test_row_sums_equal_the_one_term_at_a_time_sums_bit_for_bit(monkeypatch, block):
    # A block of 7 products splits the lanes into several blocks and a rest.
    # Every bit is equal, -0.0 and +-inf included; a NaN is a NaN in both.
    monkeypatch.setattr(dynamics, "SUM_BLOCK", block)
    rng = np.random.default_rng(11)
    with np.errstate(all="ignore"):
        for sums, rows, n_stages in _ROW_SUMS:
            for d, n in ((1, 1), (1, 23), (2, 37), (3, 45), (2, 300)):
                stages = [_lanes(rng, d, n) for _ in range(n_stages)]
                acc = sums.start(stages[0])
                for j in range(1, n_stages):
                    sums.add(acc, j, stages[j])
                assert acc.shape == (len(rows), d, n)
                for r, row in enumerate(rows):
                    assert _bits(acc[r]) == _bits(_combine(row, stages))


def test_row_sums_use_the_rows_of_the_dop853_tables():
    for sums, rows, n_stages in _ROW_SUMS:
        assert len(sums.uses) == n_stages
        for j, use in enumerate(sums.uses):
            users = [r for r, row in enumerate(rows) if j in row]
            if not users:
                assert use is None
                continue
            sel, weights = use
            assert np.arange(len(rows))[sel].tolist() == users
            assert weights.ravel().tolist() == [rows[r][j] for r in users]
    # In the stepper every stage's rows are contiguous, so an attempt's 12
    # stage sums and two error estimates take 1 + 2 * 11 = 23 ufunc calls.
    step = dynamics._STEP_SUMS.uses
    assert all(isinstance(use[0], slice) for use in step[:12]) and step[12] is None
    assert [(use[0].start, use[0].stop) for use in step[:12]] == [
        (0, 14), (1, 2), (2, 4), (3, 11), (4, 11), (5, 14),
        (6, 14), (7, 14), (8, 14), (9, 14), (10, 14), (11, 14),
    ]


def test_rhs_calls_per_attempt():
    # 2 at construction (the derivative and the starting-step probe), 12 per
    # attempt, and 3 more for each bracket the attempt records.
    system = ke.make_system("vdp")
    base, calls = dynamics._batch_rhs(system.field, -1.0), [0]

    def fun(y):
        calls[0] += 1
        return base(y)

    x1, x2 = np.meshgrid(np.linspace(-0.2, 2.2, 8), np.linspace(-1.9, 1.5, 8))
    event = dynamics._batch_event(system.default_manifold.surface)
    y0 = np.stack([x1.ravel(), x2.ravel()])
    solver = dynamics.RK45(fun, y0, [2.0], 1e-10, event=event, g0=event(y0))
    assert calls[0] == 2
    attempts = 0
    while solver.running:
        before, brackets = calls[0], len(solver.brackets)
        solver.step()
        attempts += 1
        assert calls[0] - before == 12 + 3 * (len(solver.brackets) - brackets)
    assert attempts > 100 and solver.brackets


def test_a_bracket_is_refined_on_dop853s_dense_output():
    # One step of vdp from (1.5, 0.5) with the event crossing mid-step: the
    # refined state is scipy's DOP853 dense output of the same step, whose
    # degree-7 term alone is some 5e-13 there.
    from scipy.integrate import DOP853

    field = ke.make_system("vdp").field
    x0, tol = np.array([1.5, 0.5]), 1e-10
    probe = dynamics.RK45(dynamics._batch_rhs(field, 1.0), x0[:, None], [2.0], tol)
    ref = DOP853(
        lambda _t, y: field.rhs(y), 0.0, x0, 2.0, rtol=tol, atol=tol, first_step=float(probe._h[0])
    )
    ref.step()
    dense = ref.dense_output()
    level = dense(0.5 * ref.t)[0]
    solver = dynamics.RK45(
        dynamics._batch_rhs(field, 1.0), x0[:, None], [2.0], tol,
        event=lambda y: y[0] - level, g0=x0[:1] - level,
    )
    solver.step()
    ((tau, y),) = solver.crossings(1e-14)[0]
    # The lane runs on from the end of its one step, which is scipy's.
    assert solver._tau[0] == ref.t and 0.0 < tau < ref.t
    assert np.max(np.abs(y - dense(tau))) <= 1e-15


def test_a_marched_event_needs_its_values_at_the_start_states():
    fun = dynamics._batch_rhs(ke.make_system("vdp").field, 1.0)
    y0 = np.array([[1.5, 0.5], [0.5, 1.0]])
    for g0 in (None, np.zeros(1)):
        with pytest.raises(ValueError, match="g0 must hold the event's 2 values"):
            dynamics.RK45(fun, y0, [2.0], 1e-10, event=lambda y: y[0], g0=g0)


def test_a_lane_at_an_equilibrium_stays_there():
    # Every stage derivative is zero, so both error estimates vanish: the
    # step is exact and grows, rather than 0/0 rejecting it until underflow.
    field = ke.make_system("vdp").field
    images = ke.flow_many(field, [[0.0, 0.0], [0.5, 0.5]], [1.0, 2.0])
    assert np.array_equal(images[:, 0], np.zeros((2, 2)))
    assert np.all(np.isfinite(images[:, 1]))


def test_convergence_order_monotone(lin2d):
    rng = np.random.default_rng(42)
    samples = [(rng.uniform(0.5, 2.0, 2), rng.uniform(0.2, 1.5)) for _ in range(100)]

    marched = _rk45(lin2d.field)

    def max_rel_err(tol):
        worst = 0.0
        for x0, t in samples:
            num = ke.flow(marched, x0, t, tol)
            ref = ke.flow(lin2d.field, x0, t)
            worst = max(worst, float(np.max(np.abs(num - ref) / np.abs(ref))))
        return worst

    prev = None
    for tol in [1e-6, 5e-7, 2.5e-7, 1.25e-7, 1e-9, 5e-10]:
        err = max_rel_err(tol)
        assert err <= 10.0 * tol
        if prev is not None:
            assert err <= prev + 1e-16, "halving tol must not increase the error"
        prev = err


@pytest.mark.parametrize(
    "name,x0,t",
    [
        ("lin1d", [0.7], 1.5),
        ("lin2d", [1.2, 0.8], 1.5),
        ("hopf", [1.4, 0.3], 2.0),
        ("vdp", [0.5, 0.5], 2.0),
        ("blowup", [1.0], 0.3),
        ("action_angle", [1.1, 0.4], 2.0),
    ],
)
def test_reversibility(name, x0, t):
    field = _rk45(ke.make_system(name).field)
    tol = 1e-10
    fwd = ke.flow(field, x0, t, tol)
    back = ke.flow(field, fwd, -t, tol)
    assert np.max(np.abs(back - np.asarray(x0))) <= 100 * tol


@pytest.mark.parametrize("name", ["lin1d", "lin2d", "hopf", "blowup", "action_angle"])
def test_closed_form_group_property(name):
    system = ke.make_system(name)
    rng = np.random.default_rng(1)
    # Keep Hopf samples inside the limit cycle, where the backward flow
    # exists for all time.
    lo, hi = (0.1, 0.6) if name == "hopf" else (0.5, 1.5)
    for _ in range(20):
        x0 = rng.uniform(lo, hi, system.field.dim)
        t, s = rng.uniform(-0.4, 0.4, 2)
        once = ke.flow(system.field, x0, t + s)
        twice = ke.flow(system.field, ke.flow(system.field, x0, s), t)
        assert np.allclose(once, twice, rtol=1e-10, atol=1e-12)


def test_closed_form_matches_rk45_on_hopf():
    system = ke.make_system("hopf", mu=1.0)
    for x0, t in [([2.0, 0.5], 1.2), ([0.4, -0.3], 2.0), ([1.2, 0.3], -0.4)]:
        exact = ke.flow(system.field, x0, t)
        num = ke.flow(_rk45(system.field), x0, t, 1e-12)
        assert np.allclose(exact, num, atol=1e-9)


def test_find_crossings_backward_linear(lin2d):
    ((tau, state),) = find_crossings(
        lin2d.field, [2.0, 4.0], lambda x: x[1] - 1.0, -1.0, 5.0, 1e-10
    )
    assert abs(tau - math.log(2.0)) < 1e-8
    assert np.allclose(state, [1.0, 1.0], atol=1e-8)


def test_find_crossings_vdp_against_tight_oracle():
    # From (0.5, 0.5) the x2 = 2 surface is reached forward (the backward
    # orbit spirals into the origin and never gets there).
    system = ke.make_system("vdp")
    event = lambda x: x[1] - 2.0
    tau, state = find_crossings(system.field, [0.5, 0.5], event, 1.0, 10.0, 1e-10)[0]
    oracle_tau, oracle_state = find_crossings(
        system.field, [0.5, 0.5], event, 1.0, 10.0, 1e-12
    )[0]
    assert abs(tau - oracle_tau) < 1e-6
    assert np.max(np.abs(state - oracle_state)) < 1e-6
    assert find_crossings(system.field, [0.5, 0.5], event, -1.0, 10.0, 1e-10) == []


def test_find_crossings_roundtrip():
    system = ke.make_system("vdp")
    tol = 1e-10
    tau, state = find_crossings(
        system.field, [0.5, 0.5], lambda x: x[1] - 2.0, 1.0, 10.0, tol
    )[0]
    back = ke.flow(system.field, state, -tau, tol)
    assert np.max(np.abs(back - [0.5, 0.5])) <= 100 * tol


def test_find_crossings_counts_multiple():
    # Pure rotation meets the positive x1 axis once per revolution.
    def rhs(x):
        return np.array([-x[1], x[0]])

    field = ke.VectorField(2, rhs, name="rotation")
    hits = find_crossings(
        field, np.array([0.0, 1.0]), lambda x: x[1], sign=1.0, budget=13.0, tol=1e-10
    )
    assert len(hits) == 4  # two full revolutions: x2 vanishes four times


@pytest.mark.parametrize("method", ["exact", "rk45"])
def test_find_crossings_right_before_an_escape(method):
    # x' = x^2 from x = 1 escapes at t = 1 and passes X at t = 1 - 1/X: for
    # X = 1e9 that is within 1e-9 of the escape. Beyond BLOWUP_BOUND the
    # orbit counts as escaped before it gets there.
    field = ke.make_system("blowup").field
    if method == "rk45":
        field = _rk45(field)
    for level in (1e3, 1e6, 1e9):
        ((tau, _),) = find_crossings(field, [1.0], lambda x: x[0] - level, 1.0, 2.0)
        assert abs(tau - (1.0 - 1.0 / level)) <= 1e-9
    with pytest.raises(ke.BlowUpError):
        find_crossings(field, [1.0], lambda x: x[0] - 1e13, 1.0, 2.0)


@pytest.mark.parametrize("method", ["exact", "rk45"])
def test_an_escape_after_a_crossing_ends_the_search(sink_off_segment, method):
    # Back from (0.5, 1.5) the orbit crosses x1 = 0 at tau = 0.5, at x2 = 6,
    # and escapes at tau = 2/3: the crossing stands and no escape is raised.
    field, mani = sink_off_segment
    if method == "rk45":
        field = _rk45(field)
    # The exact scan samples tau = 0.5 itself, where the event is exactly 0:
    # that zero is one crossing, not two.
    (found,), (escape,) = dynamics.find_crossings_many(field, [[0.5, 1.5]], mani.surface, -1.0, 1.0)
    assert escape is None
    ((tau, state),) = found
    assert abs(tau - 0.5) <= 1e-9 and np.max(np.abs(state - [0.0, 6.0])) <= 1e-8


@pytest.mark.parametrize("method", ["exact", "rk45"])
def test_a_start_on_the_surface_is_not_a_crossing(sink_off_segment, method):
    # (0, 3) lies on the line x1 = 0, off the segment, and its orbit leaves
    # the line both ways: its own zero at tau = 0 is no crossing.
    field, mani = sink_off_segment
    if method == "rk45":
        field = _rk45(field)
    for sign in (1.0, -1.0):
        (found,), _ = dynamics.find_crossings_many(field, [[0.0, 3.0]], mani.surface, sign, 1.0)
        assert found == [], sign


def test_a_vdp_start_on_the_segments_line_first_crosses_later():
    # (-0.04, -0.54) lies exactly on the default segment's supporting line,
    # off the segment. Backward its orbit meets the line again at tau ~ 0.157;
    # forward it does not within 2.002.
    system = ke.make_system("vdp")
    surface, x0 = system.default_manifold.surface, [-0.04, -0.54]
    assert surface(np.array([x0]).T).tolist() == [0.0]
    (back,), _ = dynamics.find_crossings_many(system.field, [x0], surface, -1.0, 2.002)
    assert [round(tau, 3) for tau, _ in back] == [0.157]
    assert dynamics.find_crossings_many(system.field, [x0], surface, 1.0, 2.002)[0] == [[]]


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: ke.VectorField(0, lambda x: x), "dim must be a positive integer"),
        (
            lambda: dynamics.RK45(lambda y: y, np.ones((1, 1)), [1.0, 0.5], 1e-10),
            "stops must be positive and increasing",
        ),
        (
            lambda: ke.flow_many(ke.make_system("lin1d").field, [[1.0]], [-1.0, 2.0]),
            "times must share one sign",
        ),
    ],
    ids=["zero_dim", "stops_decrease", "times_of_both_signs"],
)
def test_bad_dynamics_arguments_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_registry_names_and_unknown():
    assert set(ke.system_names()) == {
        "action_angle", "blowup", "hopf", "lin1d", "lin2d", "vdp",
    }
    with pytest.raises(KeyError):
        ke.make_system("nope")


def test_registry_parameters():
    system = ke.make_system("lin2d", a1=0.5, a2=3.0)
    assert np.allclose(system.field.rhs(np.array([1.0, 1.0])), [0.5, 3.0])


@pytest.mark.parametrize("name", ["lin1d", "lin2d", "hopf", "vdp", "blowup", "action_angle"])
def test_rhs_output_dimension(name):
    system = ke.make_system(name)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(0.3, 1.5, system.field.dim)
        assert np.asarray(system.field.rhs(x)).shape == (system.field.dim,)


# Each system's eigenvalue and eigenfunction in closed form, at its default
# parameters: x on lin1d (a = 1), x2 on lin2d (a2 = 2), e^{-1/x} on blowup.
ORACLES = {
    "lin1d": (1.0, lambda x: x[0]),
    "lin2d": (2.0, lambda x: x[1]),
    "blowup": (1.0, lambda x: np.exp(-1.0 / x[0])),
}


@pytest.mark.parametrize("name", ["lin1d", "lin2d", "blowup"])
def test_benchmark_oracles_satisfy_eigen_relation(name):
    system = ke.make_system(name)
    oracle = ke.ClosedFormEigenfunction(*ORACLES[name], system.field)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.6, 1.8, size=(100, system.field.dim))
    assert ke.koopman_residual(oracle, pts, 0.1) <= 1e-6


def test_step_underflow_is_reported(monkeypatch):
    # Chattering across a discontinuity stalls the stepper without growth;
    # the failure surfaces as step underflow, not blow-up. A smaller step
    # budget keeps the test fast.
    def rhs(x):
        return np.where(x < 1.0, 1.0, -1.0)

    monkeypatch.setattr(ke.dynamics, "MAX_STEPS", 2_000)
    field = ke.VectorField(1, rhs, name="chatter")
    with pytest.raises(ke.StepUnderflowError):
        ke.flow(field, [0.0], 5.0, 1e-10)


@pytest.mark.parametrize("power", [3, 5])
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_a_stalled_finite_time_escape_is_blow_up(power, tol):
    # x' = x^p escapes at t = 1/(p - 1). Its step collapses far inside the
    # bound (near |x| = 3e6 for p = 3), where one step would still grow the
    # state by some 2-18% of itself: the lane blows up, it does not underflow.
    field = ke.VectorField(1, lambda x: x**power, name="power")
    with pytest.raises(ke.BlowUpError, match="step collapsed") as escape:
        ke.flow(field, [1.0], 1.0, tol)
    assert abs(escape.value.time - 1.0 / (power - 1)) < 1e-6
    assert abs(escape.value.state[0]) < 1e-2 * dynamics.BLOWUP_BOUND


# ---------------------------------------------------------------------------
# Illinois bracket refiner shared by the RK45 and closed-form crossing searches
# ---------------------------------------------------------------------------


def _counted_state_at(state_at):
    calls = []

    def wrapped(tau, j):
        calls.append(np.array(tau))
        return state_at(tau, j)

    return wrapped, calls


def _refine_one(event, state_at, lo, hi, tol=1e-10, floor=1e-15, first=math.nan):
    lo, hi = np.array([lo]), np.array([hi])
    g_lo, g_hi = event(state_at(lo, [0])), event(state_at(hi, [0]))
    tau, y = dynamics._refine(event, state_at, lo, hi, g_lo, g_hi, tol, floor, np.array([first]))
    return float(tau[0]), y[:, 0]


def test_refine_quartic_dense_output_bracket():
    # A dense-output step of two lanes: y(x) = y0 + h * sum_p q_p x^(p+1) on [0, 1].
    rng = np.random.default_rng(5)
    t0, h = 0.4, 0.3
    y0 = np.array([[0.2, -0.1], [1.0, 0.5]])
    q = rng.normal(size=(4, 2, 2)) * 0.2
    q[0, 0] = [2.0, 3.0]  # x1 rises through the level in both lanes

    def state_at(tau, j):
        x = (np.asarray(tau) - t0) / h
        poly = sum(q[p][:, j] * x ** (p + 1) for p in range(4))
        return y0[:, j] + h * poly

    event = lambda y: y[0] - 0.35
    lo, hi = np.full(2, t0), np.full(2, t0 + h)
    every = np.arange(2)
    g_lo, g_hi = event(state_at(lo, every)), event(state_at(hi, every))
    assert np.all(g_lo < 0.0) and np.all(g_hi > 0.0)
    counted, calls = _counted_state_at(state_at)
    tau, y = dynamics._refine(event, counted, lo, hi, g_lo, g_hi, 1e-10, 1e-15, np.full(2, np.nan))
    assert np.all((tau > lo) & (tau < hi))
    assert np.all(np.abs(event(y)) < 1e-10)
    assert np.array_equal(y, state_at(tau, every))
    assert len(calls) < 15  # bisection from a 0.3-wide step would take about 32


@pytest.mark.parametrize("lo,hi,evaluations", [(0.68, 0.70, 5), (0.0, 1.05, 10)])
def test_refine_closed_form_lin2d_bracket(lin2d, lo, hi, evaluations):
    # Backward lin2d from (1.5, 4): x2 = 4 exp(-2 tau) meets x2 = 1 at ln(2).
    # On the wide bracket, regula falsi without the Illinois halving keeps
    # one end and takes 37 evaluations; bisection would take about 33.
    x0 = np.array([[1.5], [4.0]])
    state_at = lambda tau, j: lin2d.field.closed_form_flow(x0, -np.asarray(tau))
    event = lambda y: y[1] - 1.0
    counted, calls = _counted_state_at(state_at)
    tau, y = _refine_one(event, counted, lo, hi)
    assert lo < tau < hi
    assert abs(y[1] - 1.0) < 1e-10
    assert abs(tau - math.log(2.0)) < 1e-10
    assert len(calls) - 2 <= evaluations  # after the two end values of _refine_one


def test_refine_ignores_a_first_iterate_outside_its_bracket(lin2d):
    x0 = np.array([[1.5], [4.0]])
    state_at = lambda tau, j: lin2d.field.closed_form_flow(x0, -np.asarray(tau))
    event = lambda y: y[1] - 1.0
    plain = _refine_one(event, state_at, 0.6, 0.8)
    for first in (0.6, 0.8, 0.9, -1.0, np.nan):
        tau, y = _refine_one(event, state_at, 0.6, 0.8, first=first)
        assert tau == plain[0] and np.array_equal(y, plain[1])
    # A first iterate inside its bracket is the first state evaluated.
    counted, calls = _counted_state_at(state_at)
    _refine_one(event, counted, 0.6, 0.8, first=0.69)
    assert calls[2][0] == 0.69  # after the two end values of _refine_one
    # When every first iterate lands inside its bracket and closes there,
    # the refinement evaluates the states once, and returns first and them.
    lo, hi = np.array([0.6, 0.5, 0.68]), np.array([0.8, 0.9, 0.7])
    g_lo, g_hi = event(state_at(lo, None)), event(state_at(hi, None))
    first = np.full(3, math.log(2.0))
    counted, calls = _counted_state_at(state_at)
    tau, y = dynamics._refine(event, counted, lo, hi, g_lo, g_hi, 1e-10, 1e-15, first)
    assert len(calls) == 1
    assert np.array_equal(tau, first) and np.array_equal(y, state_at(first, None))
    # A batch with one first iterate outside its bracket and one NaN settles
    # each bracket as it is settled alone.
    lo, hi = np.array([0.6, 0.5, 0.68, 0.0]), np.array([0.8, 0.9, 0.7, 1.05])
    g_lo, g_hi = event(state_at(lo, None)), event(state_at(hi, None))
    first = np.array([0.69, 0.95, np.nan, 0.7])
    tau, y = dynamics._refine(event, state_at, lo, hi, g_lo, g_hi, 1e-10, 1e-15, first)
    for k in range(4):
        alone = _refine_one(event, state_at, lo[k], hi[k], first=first[k])
        assert tau[k] == alone[0] and np.array_equal(y[:, k], alone[1])
    # An all-NaN first starts every bracket from its secant root: the same
    # bits as passing those roots.
    secant = hi - g_hi * (hi - lo) / (g_hi - g_lo)
    counted, calls = _counted_state_at(state_at)
    tau, y = dynamics._refine(event, counted, lo, hi, g_lo, g_hi, 1e-10, 1e-15, np.full(4, np.nan))
    assert np.array_equal(calls[0], secant)  # the first iterates
    given = dynamics._refine(event, state_at, lo, hi, g_lo, g_hi, 1e-10, 1e-15, secant)
    assert np.array_equal(tau, given[0]) and np.array_equal(y, given[1])


def test_refine_stops_a_blown_iterate_with_nan():
    # x' = x^2 from x = 1 escapes at t = 1. The bracket's right end is past the
    # escape, and its small value (standing in for a sample) puts the secant
    # root past the escape as well.
    field = ke.make_system("blowup").field
    x0 = np.array([[1.0]])

    def state_at(tau, j):
        y, blown = dynamics._closed_flow(field, x0, np.asarray(tau))
        return np.where(blown, np.nan, y)

    event = lambda y: y[0] - 1e3
    lo, hi = np.array([0.5]), np.array([1.5])
    g_lo, g_hi = event(state_at(lo, [0])), np.array([1.0])
    tau, y = dynamics._refine(event, state_at, lo, hi, g_lo, g_hi, 1e-10, 1e-15, np.array([np.nan]))
    assert np.isnan(tau[0]) and np.all(np.isnan(y))
    tau, y = dynamics._refine(event, state_at, lo, hi, g_lo, g_hi, 1e-10, 1e-15, np.array([1.2]))
    assert np.isnan(tau[0]) and np.all(np.isnan(y))


def test_refine_takes_a_sign_jump_at_the_floor():
    # The event jumps from -1 to 1 at 0.3 and never vanishes.
    state_at = lambda tau, j: np.asarray(tau, float)[None, :].copy()
    event = lambda y: np.where(y[0] < 0.3, -1.0, 1.0)
    floor = 1e-15
    counted, calls = _counted_state_at(state_at)
    tau, y = _refine_one(event, counted, 0.0, 1.0, floor=floor)
    assert 0.3 <= tau <= 0.3 + floor
    assert y[0] == tau and event(y[:, None])[0] == 1.0  # the right end of the last bracket
    assert len(calls) <= dynamics.REFINE_CAP + 3


def test_refine_takes_an_open_bracket_at_its_right_end_after_the_cap(lin2d, monkeypatch):
    # The wide lin2d bracket needs about 10 steps; after 3 it is still open.
    monkeypatch.setattr(dynamics, "REFINE_CAP", 3)
    x0 = np.array([[1.5], [4.0]])
    state_at = lambda tau, j: lin2d.field.closed_form_flow(x0, -np.asarray(tau))
    event = lambda y: y[1] - 1.0
    counted, calls = _counted_state_at(state_at)
    tau, y = _refine_one(event, counted, 0.0, 1.05)
    assert len(calls) == 2 + 3 + 1  # the two end values, 3 steps, the right end
    assert calls[-1][0] == tau and np.array_equal(y, state_at(np.array([tau]), [0])[:, 0])
    assert math.log(2.0) < tau <= 1.05  # the root lies left of the right end
    assert event(y[:, None])[0] <= -1e-10  # the sign of the event at hi, not converged


def test_refine_settles_each_bracket_of_a_mixed_batch_as_alone(monkeypatch):
    # One state per bracket, the event's value itself, on five orbits:
    # 0 closes at its first iterate, 1 after a few Illinois steps, 2 is a
    # sign jump narrower than the floor, 3 is still open after the cap and 4
    # is blown past t = 1, where its iterate lands.
    monkeypatch.setattr(dynamics, "REFINE_CAP", 4)
    orbits = [
        lambda t: t - 0.3,
        lambda t: 4.0 * math.exp(-2.0 * t) - 1.0,
        lambda t: -1.0 if t < 0.3 else 1.0,
        lambda t: 4.0 * math.exp(-2.0 * t) - 1.0,
        lambda t: t - 1.2 if t <= 1.0 else math.nan,
    ]
    calls = []

    def refine(ks):
        """_refine of the brackets ks, bracket j on orbit ks[j]."""

        def state_at(tau, j):
            calls.append(len(tau))
            return np.array([[orbits[ks[i]](t) for t, i in zip(tau.tolist(), j.tolist())]])

        del calls[:]
        return dynamics._refine(
            lambda y: y[0], state_at, lo[ks], hi[ks], g_lo[ks], g_hi[ks], tol, floor, first[ks]
        )

    lo = np.array([0.0, 0.68, 0.3 - 3e-13, 0.0, 0.5])
    hi = np.array([1.0, 0.70, 0.3 + 3e-13, 1.05, 1.5])
    g_lo = np.array([orbits[k](t) for k, t in enumerate(lo.tolist())])
    g_hi = np.array([orbits[k](t) for k, t in enumerate(hi.tolist())])
    g_hi[4] = 1e-3  # a small value past the escape, standing in for a sample
    first = np.array([0.3, np.nan, np.nan, np.nan, np.nan])
    tol, floor = 1e-10, 1e-12
    tau, y = refine([0, 1, 2, 3, 4])
    alone = [(refine([k]), len(calls)) for k in range(5)]
    for k, ((tau_k, y_k), _) in enumerate(alone):
        assert np.array_equal(tau[k : k + 1], tau_k, equal_nan=True), k
        assert np.array_equal(y[:, k : k + 1], y_k, equal_nan=True), k
    (tau0, y0), n0 = alone[0]
    assert tau0[0] == 0.3 and y0[0, 0] == 0.0 and n0 == 1
    (tau1, y1), n1 = alone[1]
    assert abs(y1[0, 0]) < tol and 1 < n1 <= 4
    assert tau1[0] == pytest.approx(math.log(2.0), abs=1e-10)
    (tau2, y2), _ = alone[2]
    assert 0.3 <= tau2[0] <= 0.3 + 3e-13 and y2[0, 0] == 1.0
    (tau3, y3), n3 = alone[3]
    assert math.log(2.0) < tau3[0] <= 1.05 and abs(y3[0, 0]) >= tol and n3 == 4 + 1
    (tau4, y4), _ = alone[4]
    assert np.isnan(tau4[0]) and np.isnan(y4[0, 0])


@pytest.mark.parametrize(
    "g",
    [
        [-3.0, -2.0, -1.0, -0.5, 0.5, 0.2, 1.0, 2.0],  # a fold inside the samples
        [-3.0, -2.0, -np.inf, -0.5, 0.5, 1.0, 1.5, 2.0],  # a blown sample
        [-3.0, -2.0, -1.0, -0.5, 0.5, np.nan, 1.5, 2.0],
    ],
)
def test_inverse_interp_is_nan_unless_finite_and_monotone(g):
    taus = np.linspace(0.0, 0.7, 8)
    assert np.isnan(dynamics._inverse_interp(taus, np.array(g), 3, 7))
    # The same samples made finite and monotone: the zero of the line g = tau - 0.35.
    line = taus - 0.35
    assert dynamics._inverse_interp(taus, line, 3, 7) == pytest.approx(0.35, abs=1e-12)


def test_find_crossings_scans_a_bracket_again_after_a_blown_iterate(monkeypatch):
    # x(t) = x0 + t, blown on the narrow hole (0.50599, 0.50601), which lies
    # inside the first scan's bracket (0.5, 0.5078] around the crossing at
    # 0.503 but between two samples of the bracket's own scan.
    times = []

    def closed(x, t):
        times.append(t.copy())
        return np.where((t > 0.50599) & (t < 0.50601), np.inf, x + t)

    field = ke.VectorField(1, lambda x: np.ones_like(x), name="drift", closed_form_flow=closed)
    monkeypatch.setattr(dynamics, "_inverse_interp", lambda taus, g, k, last: 0.506)
    ((tau, state),) = find_crossings(field, [0.0], lambda x: x[0] - 0.503, 1.0, 1.0)
    assert abs(tau - 0.503) < 1e-10 and abs(state[0] - 0.503) < 1e-10
    sizes = [t.size for t in times]
    assert sizes[:3] == [dynamics.CLOSED_SCAN_POINTS, 1, dynamics.CLOSED_SCAN_POINTS]
    assert times[1][0] == 0.506  # the blown iterate, then the bracket's own scan


def test_closed_form_pullback_makes_few_flow_calls(lin2d):
    # The benchmark's lin2d lattice. Re-scanning each bracket until
    # |event| < tol took about 4.9 closed-form calls per point; one scan and
    # one refinement from a four-sample first iterate take 2.9, and from the
    # six-sample one 1.9. A point evaluates the surface at most three times:
    # the test for points on the manifold, whose values the scan starts
    # from, one scan and one refinement. Scanning from the start state's own
    # surface value took four.
    calls, surfaces = [], []

    def closed(x, t):
        calls.append(t.size)
        return lin2d.field.closed_form_flow(x, t)

    field = dataclasses.replace(lin2d.field, closed_form_flow=closed)
    mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=161, s_range=(0.3, 2.2))
    segment = mani.surface

    def surface(x):
        surfaces.append(x.shape[1])
        return segment(x)

    mani = dataclasses.replace(mani, surface=surface)
    x1, x2 = np.meshgrid(np.linspace(1.0, 2.0, 30), np.linspace(1.0, math.e**2, 30))
    points = np.column_stack([x1.ravel(), x2.ravel()])
    r_star, _, _, why = ke.pullback_many(field, mani, (0.0, 1.05), points)
    assert np.equal(why, None).all() and not np.isnan(r_star).any()
    assert len(calls) / len(points) <= 2.5
    assert len(surfaces) <= 3 * len(points)


def test_closed_form_crossing_right_before_an_escape_takes_one_evaluation(monkeypatch):
    # Backward from (-4.03, -0.37), the hopf orbit crosses the circle of
    # radius 5 at tau = 0.0111 and escapes soon after: the scan's first
    # interval (0, 4.004 / 128] holds the crossing and ends at its last
    # finite sample, where the event is 49. Refined from that interval's two
    # samples, the crossing took 12 evaluations; scanned again, it takes one.
    system = ke.make_system("hopf")
    field, mani = system.field, system.default_manifold
    calls = []
    refine = dynamics._refine

    def counted(event, state_at, *args):
        wrapped, seen = _counted_state_at(state_at)
        result = refine(event, wrapped, *args)
        calls.extend(seen)
        return result

    monkeypatch.setattr(dynamics, "_refine", counted)
    ((tau, state),) = find_crossings(field, [-4.03, -0.37], mani.surface, -1.0, 4.004)
    assert len(calls) == 1
    assert abs(mani.surface(state[:, None])[0]) < 1e-10
    ((tau_rk45, _),) = find_crossings(_rk45(field), [-4.03, -0.37], mani.surface, -1.0, 4.004)
    assert abs(tau - tau_rk45) <= 1e-9
