"""The batched Dormand-Prince stepper: accuracy against scipy, the
vectorized-RHS contract, the elementwise contract of data functions,
closed-form eigenfunctions and targets, and agreement of batched and
one-point pullbacks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import koopeig as ke
from koopeig.dynamics import find_crossings_many, flow_many
from koopeig.targets import parse_data_fn, parse_target

SRC = Path(__file__).resolve().parents[1] / "src"


def _dop853(field, x0, t):
    sign = 1.0 if t > 0 else -1.0
    sol = solve_ivp(
        lambda _t, y: sign * field.rhs(y), (0.0, abs(t)), np.asarray(x0, float),
        method="DOP853", rtol=1e-12, atol=1e-12,
    )
    assert sol.success
    return sol.y[:, -1]


# (system, start points, time): backward Hopf orbits stay inside the limit
# cycle, where they exist for all time.
ORACLE_CASES = [
    ("vdp", [[0.5, 0.5], [2.0, 0.0], [-1.2, 0.8]], 2.0),
    ("vdp", [[0.5, 0.5], [1.5, 1.0], [-0.4, -0.9]], -1.0),
    ("hopf", [[2.0, 0.5], [0.4, -0.3], [-3.0, 1.0]], 1.5),
    ("hopf", [[0.4, -0.3], [0.1, 0.6], [-0.5, 0.2]], -1.2),
]


@pytest.mark.parametrize("name,starts,t", ORACLE_CASES)
def test_stepper_matches_dop853(name, starts, t):
    field = ke.make_system(name).field
    tol = 1e-10
    batch = flow_many(field, starts, [t], tol, method="rk45")[0]
    for x0, got in zip(starts, batch):
        ref = _dop853(field, x0, t)
        one = ke.flow(field, x0, t, tol, method="rk45").state
        assert np.max(np.abs(one - ref)) <= 100 * tol
        assert np.max(np.abs(got - ref)) <= 100 * tol


def test_flow_many_lands_on_every_time():
    field = ke.make_system("vdp").field
    starts = np.array([[1.0, 0.5], [2.0, 1.5], [1.5, 1.0]])
    times = np.array([0.0, 0.25, 0.5, 1.0, 1.75])
    images = flow_many(field, starts, times, 1e-10)
    assert images.shape == (5, 3, 2)
    assert np.array_equal(images[0], starts)
    for j, t in enumerate(times[1:], start=1):
        for i, x0 in enumerate(starts):
            assert np.max(np.abs(images[j, i] - _dop853(field, x0, t))) <= 1e-8


def test_flow_many_reports_blow_up():
    field = ke.make_system("blowup").field
    with pytest.raises(ke.BlowUpError):
        flow_many(field, [[0.5], [1.0]], [1.5], method="rk45")


def test_batched_crossings_match_one_lane():
    def rhs(x):
        return np.array([-x[1], x[0]])

    field = ke.VectorField(2, rhs, name="rotation")
    starts = np.array([[0.0, 1.0], [1.0, 0.5], [-2.0, 0.1]])
    found, escapes = find_crossings_many(
        field, starts, lambda x: x[1], 1.0, 13.0, 1e-10, max_count=4
    )
    assert escapes == [None, None, None]
    for x0, lane in zip(starts, found):
        one = ke.dynamics.find_crossings(
            field, x0, lambda x: x[1], 1.0, 13.0, 1e-10, max_count=4
        )
        assert len(lane) == len(one) == 4
        for (tau_b, y_b), (tau_1, y_1) in zip(lane, one):
            assert tau_b == tau_1 and np.array_equal(y_b, y_1)


def test_batched_escape_is_the_one_lane_error():
    field = ke.make_system("blowup").field
    starts = [[1.0], [-1.0]]  # x' = x^2: the first escapes at t = 1, the second decays
    found, escapes = find_crossings_many(field, starts, lambda x: x[0] + 2.0, 1.0, 1.5)
    assert found[0] == [] and isinstance(escapes[0], ke.BlowUpError)
    assert escapes[0].reason == "blow_up" and escapes[1] is None
    with pytest.raises(ke.BlowUpError):
        ke.dynamics.find_crossings(field, [1.0], lambda x: x[0] + 2.0, 1.0, 1.5, method="rk45")


# ---------------------------------------------------------------------------
# vectorized-RHS contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ke.system_names())
def test_registry_rhs_is_vectorized(name):
    field = ke.make_system(name).field
    batch = np.random.default_rng(3).uniform(0.3, 1.5, (field.dim, 7))
    out = field.rhs(batch)
    assert out.shape == batch.shape
    for j in range(batch.shape[1]):
        assert np.array_equal(out[:, j], field.rhs(batch[:, j]))


CLOSED_FORMS = [n for n in ke.system_names() if ke.make_system(n).field.closed_form_flow]
# A state and a time its orbit has escaped by: exp overflows, x' = x^2 past
# t = 1/x, and the backward Hopf orbit outside the limit cycle.
ESCAPES = {"lin1d": ([1.0], 800.0), "blowup": ([1.0], 1.5), "hopf": ([2.0, 0.0], -1.0)}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_registry_closed_form_is_vectorized(name):
    field = ke.make_system(name).field
    closed = field.closed_form_flow
    batch = np.random.default_rng(3).uniform(0.3, 1.5, (field.dim, 7))
    times = np.array([0.3, -0.1, 0.0, 0.5, -0.05, 0.2, -0.02])
    out = closed(batch, times)
    assert out.shape == batch.shape and np.all(np.isfinite(out))
    for j in range(batch.shape[1]):
        assert np.array_equal(out[:, j : j + 1], closed(batch[:, j : j + 1], times[j : j + 1]))
    if name in ESCAPES:
        x, t = ESCAPES[name]
        with np.errstate(all="ignore"):  # as koopeig calls it
            y = closed(np.array(x)[:, None], np.array([t]))
        assert not np.linalg.norm(y) <= ke.dynamics.BLOWUP_BOUND


@pytest.mark.parametrize(
    "mani",
    [
        ke.segment_manifold((1.0, 0.5), (2.0, 1.5), n=11),
        ke.circle_manifold((0.5, -0.5), 2.0, n=11),
        ke.point_manifold(1.0),
    ],
)
def test_surface_is_vectorized(mani):
    batch = np.random.default_rng(4).uniform(-2.0, 2.0, (mani.dim, 6))
    values = mani.surface(batch)
    assert values.shape == (6,)
    for j in range(6):
        assert values[j] == mani.surface(batch[:, j])
    # embed and tangent map (N,) parameters to (d, N), column by column.
    s = np.random.default_rng(5).uniform(mani.s_min, mani.s_max, 6)
    maps = [mani.embed] + ([mani.tangent] if mani.tangent is not None else [])
    for fn in maps:
        out = fn(s)
        assert out.shape == (mani.dim, 6)
        for j in range(6):
            assert np.array_equal(out[:, j], fn(s[j]))


# Every kind of term: number, monomial (integer, negative and fractional
# powers, of negative values too), sin, cos, gaussian, and sums of them.
TARGETS = [
    "2.5", "x1", "x1^2*x2", "0.5*x1^-1", "x2^1.5", "sin(x1)", "cos(x2)",
    "gaussian(3, 10)", "2*x2 + 1 + gaussian(1, 4)",
]
DATA_FNS = ["1", "s", "s^2", "0.5*s + 2", "s^-2", "s^0.5", "sin(s)", "cos(s)", "gaussian(2, 5)"]


@pytest.mark.parametrize("expr", TARGETS)
def test_parsed_target_is_elementwise(expr):
    q = parse_target(expr)
    batch = np.random.default_rng(6).uniform(-2.0, 2.0, (2, 9))
    batch[:, 0] = [1.5, -0.5]
    values = q(batch)
    assert values.shape == (9,) and values.dtype == complex
    for j in range(9):
        assert values[j] == q(batch[:, j])  # one (d,) state gives a complex
        assert values[j] == q(batch[:, j : j + 1])[0]


@pytest.mark.parametrize("expr", DATA_FNS)
def test_parsed_data_fn_is_elementwise(expr):
    h = parse_data_fn(expr)
    s = np.random.default_rng(7).uniform(0.2, 3.0, 9)
    values = h(s)
    assert values.shape == (9,) and values.dtype == complex
    for j in range(9):
        assert isinstance(h(float(s[j])), complex)
        assert values[j] == h(float(s[j]))
        assert values[j] == h(s[j : j + 1])[0]


def test_parsed_non_finite_value_names_the_field():
    with pytest.raises(ke.ConfigError, match="^h: "):
        parse_data_fn("s^-1")(np.array([1.0, 0.0]))
    with pytest.raises(ke.ConfigError, match="^target: "):
        parse_target("x1^-1")(np.zeros((2, 3)))


@pytest.mark.parametrize("from_callable", [True, False])
def test_data_function_is_elementwise(from_callable):
    mani = ke.segment_manifold((0.0, 1.0), (2.0, 1.0), n=21, s_range=(0.5, 2.5))
    calls = []

    def fn(s):
        calls.append(np.shape(s))
        return np.cos(s) + 0.5j * s

    if from_callable:
        h = ke.DataFunction.from_callable(mani, fn)
        assert calls == [(21,)]  # one call on the whole grid
    else:
        h = ke.DataFunction.from_samples(mani, fn(mani.parameter_grid()))
    s = np.random.default_rng(8).uniform(0.5, 2.5, 7)
    values = h(s)
    assert values.shape == (7,)
    for j in range(7):
        assert isinstance(h(float(s[j])), complex)
        assert values[j] == h(float(s[j]))
    with pytest.raises(ValueError, match="data function"):
        ke.DataFunction.from_callable(mani, lambda s: np.ones(3))


def test_data_function_out_of_range_batch():
    mani = ke.segment_manifold((0.0, 1.0), (1.0, 1.0), n=5, s_range=(0.0, 1.0))
    h = ke.DataFunction.from_samples(mani, np.arange(5.0))
    with pytest.raises(ke.OutOfRangeError, match="s=1.5"):
        h(np.array([0.5, 1.5, 2.0]))


def test_closed_form_and_product_eigenfunctions_are_elementwise():
    field = ke.make_system("lin2d").field
    calls = []

    def fn(x):
        calls.append(x.shape)
        return x[1] * np.exp(0.1j * x[0])

    eig = ke.ClosedFormEigenfunction(2.0, fn, field)
    pts = np.random.default_rng(9).uniform(0.5, 2.0, (8, 2))
    values = eig.values(pts)
    assert calls == [(2, 8)]  # one call on the (d, N) batch
    real = ke.ClosedFormEigenfunction(2.0, lambda x: x[1], field)
    for factor, alpha in [(eig, 3.0), (eig, -2.0), (real, 0.5), (real, -1.5)]:
        power = ke.eig_power(factor, alpha)
        batch = power.values(pts)
        for j in range(8):
            assert batch[j] == power(pts[j])
    for j in range(8):
        assert values[j] == eig(pts[j])
    with pytest.raises(ValueError, match="closed-form eigenfunction"):
        ke.ClosedFormEigenfunction(2.0, lambda x: x, field).values(pts)
    with pytest.raises(ke.BranchCutError):
        ke.eig_power(eig, 0.5).values(pts)


def test_target_sample_makes_one_batched_call():
    system = ke.make_system("vdp")
    grid = ke.build_grid(system.field, system.default_manifold, (0.0, 1.0), 4, 3)
    calls = []

    def q(x):
        calls.append(x.shape)
        return x[0] * x[1]

    target = ke.TargetSample.from_function(grid, q)
    assert calls == [(2, 20)]
    assert np.array_equal(target.q_values, grid.points[..., 0] * grid.points[..., 1])
    with pytest.raises(ValueError, match="target"):
        ke.TargetSample.from_function(grid, lambda x: x)
    with pytest.raises(ValueError, match="finite"):
        ke.TargetSample.from_function(grid, lambda x: np.where(x[0] > 1.5, np.inf, 1.0))


def test_batched_rhs_of_wrong_shape_names_the_field():
    def rhs(x):  # written for single states: flattens a batch
        return np.array([x[1], -x[0]]).reshape(-1)

    field = ke.VectorField(2, rhs, name="one-state-only")
    with pytest.raises(ValueError, match="one-state-only"):
        ke.flow(field, [1.0, 0.0], 0.5, method="rk45")
    with pytest.raises(ValueError, match="one-state-only"):
        flow_many(field, [[1.0, 0.0], [0.0, 1.0]], [0.5])

    def closed(x, t):  # written for single states: drops the batch axis
        return x[:, 0]

    field = ke.VectorField(2, rhs, name="one-state-closed-form", closed_form_flow=closed)
    with pytest.raises(ValueError, match="one-state-closed-form"):
        ke.flow(field, [1.0, 0.0], 0.5, method="exact")
    with pytest.raises(ValueError, match="one-state-closed-form"):
        ke.dynamics.find_crossings(field, [1.0, 0.0], lambda x: x[1], 1.0, 1.0, method="exact")


# ---------------------------------------------------------------------------
# batched pullback against the one-point pullback
# ---------------------------------------------------------------------------


def _rotation_setup():
    def rhs(x):
        return np.array([-x[1], x[0]])

    field = ke.VectorField(2, rhs, name="rotation")
    mani = ke.segment_manifold((0.5, 0.0), (2.0, 0.0), n=31, s_range=(0.5, 2.0))
    return field, mani, (-1.0, 7.0), "auto", ((-2.5, 2.5), (-2.5, 2.5))


def _vdp_setup():
    system = ke.make_system("vdp")
    return system.field, system.default_manifold, (0.0, 2.0), "auto", ((-0.2, 2.2), (-1.9, 1.5))


def _lin2d_setup():
    system = ke.make_system("lin2d", a1=1.0, a2=2.0)
    mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))
    return system.field, mani, (-0.1, 1.1), "rk45", ((0.2, 2.6), (0.6, 12.0))


@pytest.mark.parametrize("setup", [_vdp_setup, _lin2d_setup, _rotation_setup])
def test_batched_pullback_matches_one_point(setup):
    field, mani, window, method, box = setup()
    rng = np.random.default_rng(2024)
    pts = np.column_stack([rng.uniform(*box[0], 200), rng.uniform(*box[1], 200)])
    batch = ke.pullback_many(field, mani, window, pts, 1e-10, method=method)
    assert len(batch) == 200
    for x, got in zip(pts, batch):
        try:
            want = ke.pullback(field, mani, window, x, 1e-10, method=method)
        except (ke.NotInDomainError, ke.AmbiguousCrossingError) as exc:
            assert got == exc.reason, f"at {x}"
            continue
        assert isinstance(got, ke.Pullback), f"at {x}: batched miss {got!r}"
        assert abs(got.r_star - want.r_star) <= 1e-9
        assert abs(got.s_star - want.s_star) <= 1e-9
    reasons = {pb for pb in batch if isinstance(pb, str)}
    assert reasons <= set(ke.MISS_REASONS)
    assert any(isinstance(pb, ke.Pullback) for pb in batch)


def test_rotation_misses_cover_ambiguity_and_window():
    field, mani, window, method, _ = _rotation_setup()
    pts = [[1.0, 0.3], [1.0, -0.5], [0.1, 0.1], [-1.0, 0.0]]
    got = ke.pullback_many(field, mani, window, pts, 1e-10, method=method)
    assert got[0] == "ambiguous"  # angle 0.29 < 7 - 2 pi: met twice backward
    # angle 2 pi - 0.46: one backward crossing of the segment inside the window
    assert got[1].r_star == pytest.approx(2.0 * math.pi - math.atan2(0.5, 1.0), abs=1e-8)
    assert got[2] == "no_crossing"  # radius below the segment
    # On the supporting line but off the segment: met half a turn later.
    assert got[3].r_star == pytest.approx(math.pi, abs=1e-8)


def test_cli_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, koopeig.cli; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
