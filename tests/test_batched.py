"""The batched Dormand-Prince stepper: accuracy against scipy, the
vectorized-RHS contract, the elementwise contract of data functions,
closed-form eigenfunctions and targets, and agreement of batched and
one-point pullbacks."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import koopeig as ke
from koopeig.dynamics import find_crossings, find_crossings_many, flow_many
from koopeig.targets import parse_data_fn, parse_target


def _rk45(field):
    """The field's twin without its closed form, which RK45 marches."""
    return dataclasses.replace(field, closed_form_flow=None)


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
    field = _rk45(ke.make_system(name).field)
    tol = 1e-10
    batch = flow_many(field, starts, [t], tol)[0]
    for x0, got in zip(starts, batch):
        ref = _dop853(field, x0, t)
        one = ke.flow(field, x0, t, tol)
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
    field = _rk45(ke.make_system("blowup").field)
    with pytest.raises(ke.BlowUpError):
        flow_many(field, [[0.5], [1.0]], [1.5])


def test_batched_crossings_match_one_lane():
    for method in ("rk45", "exact"):
        _check_crossings_match_one_lane(method)


def _check_crossings_match_one_lane(method):
    def rhs(x):
        return np.array([-x[1], x[0]])

    def closed(x, t):  # rotation of every column by its time
        c, s = np.cos(t), np.sin(t)
        return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    field = ke.VectorField(
        2, rhs, name="rotation", closed_form_flow=closed if method == "exact" else None
    )
    starts = np.array([[0.0, 1.0], [1.0, 0.5], [-2.0, 0.1]])
    found, escapes = find_crossings_many(field, starts, lambda x: x[1], 1.0, 13.0, 1e-10)
    assert escapes == [None, None, None]
    # Every zero of x2 over 13: the last start meets one at tau = 0.05.
    for x0, lane, count in zip(starts, found, (4, 4, 5)):
        one = ke.dynamics.find_crossings(field, x0, lambda x: x[1], 1.0, 13.0, 1e-10)
        assert len(lane) == len(one) == count
        for (tau_b, y_b), (tau_1, y_1) in zip(lane, one):
            assert tau_b == tau_1 and np.array_equal(y_b, y_1)


def test_batched_escape_is_the_one_lane_error():
    for method in ("rk45", "exact"):
        _check_escape_is_the_one_lane_error(method)


def _check_escape_is_the_one_lane_error(method):
    field = ke.make_system("blowup").field
    if method == "rk45":
        field = _rk45(field)
    starts = [[1.0], [-1.0]]  # x' = x^2: the first escapes at t = 1, the second decays
    found, escapes = find_crossings_many(field, starts, lambda x: x[0] + 2.0, 1.0, 1.5)
    assert found[0] == [] and isinstance(escapes[0], ke.BlowUpError)
    assert escapes[0].reason == "blow_up" and escapes[1] is None
    with pytest.raises(ke.BlowUpError) as raised:
        ke.dynamics.find_crossings(field, [1.0], lambda x: x[0] + 2.0, 1.0, 1.5)
    one = raised.value
    assert str(one) == str(escapes[0]) and one.time == escapes[0].time
    assert np.array_equal(one.state, escapes[0].state)


def test_a_search_takes_the_event_at_its_start_states_once():
    # Both kinds of flow start from the values find_crossings_many takes in
    # its one call at the states; the march does not take them again.
    surface = ke.make_system("vdp").default_manifold.surface
    starts = np.array(RETIREMENT_STARTS)
    for field in (ke.make_system("vdp").field, ke.make_system("hopf").field):
        at_starts = []

        def event(x):
            at_starts.append(np.array_equal(x, starts.T))
            return surface(x)

        find_crossings_many(field, starts, event, -1.0, 2.002, 1e-10)
        assert sum(at_starts) == 1 and len(at_starts) > 1, field.name


def test_an_event_of_the_wrong_shape_is_a_value_error(lin2d):
    mani = dataclasses.replace(lin2d.default_manifold, surface=lambda x: x[1:] - 1.0)
    for field in (lin2d.field, _rk45(lin2d.field)):
        with pytest.raises(ValueError, match=r"event returned shape \(1, 2\)"):
            find_crossings_many(field, [[1.0, 2.0], [1.5, 3.0]], mani.surface, -1.0, 1.0)
        with pytest.raises(ValueError, match=r"event returned shape \(2,\)"):
            ke.dynamics.find_crossings(field, [1.0, 2.0], lambda x: x[:, 0], -1.0, 1.0)
        with pytest.raises(ValueError, match="event returned shape"):
            ke.pullback_many(field, mani, (0.0, 1.2), [[1.0, 2.0], [1.5, 3.0]])


# Each malformed map: how it spoils lin2d's (field, manifold), the name its
# error starts with, and the batch calls that reach it.
replace = dataclasses.replace
ALL_CALLS = ["pullback_many", "pullback_many_marched", "build_grid", "build_grid_marched", "check_transversality"]
MALFORMED = {
    "embed_transposed": (
        lambda f, m: (f, replace(m, embed=lambda s: m.embed(s).T)), "embed",
        ALL_CALLS,
    ),
    "embed_of_another_dim": (
        lambda f, m: (f, replace(m, embed=lambda s: np.vstack([m.embed(s), s]))), "embed",
        ALL_CALLS,
    ),
    "tangent": (
        lambda f, m: (f, replace(m, tangent=lambda s: m.tangent(s)[0])), "tangent",
        ["check_transversality"],
    ),
    "locate_scalar": (
        lambda f, m: (f, replace(m, locate=lambda x: 0.5)), "locate",
        ["pullback_many", "pullback_many_marched"],
    ),
    "surface": (
        lambda f, m: (f, replace(m, surface=lambda x: m.surface(x)[None])), "surface event",
        ["pullback_many", "pullback_many_marched"],
    ),
    "rhs": (
        lambda f, m: (replace(f, rhs=lambda x: f.rhs(x)[0]), m), "rhs of 'lin2d(a=(1,2))'",
        ["pullback_many_marched", "build_grid_marched", "check_transversality"],
    ),
    "closed_form_flow": (
        lambda f, m: (replace(f, closed_form_flow=lambda x, t: f.closed_form_flow(x, t)[0]), m),
        "closed_form_flow of 'lin2d(a=(1,2))'",
        ["pullback_many", "build_grid"],
    ),
}
# The points' orbits cross the default segment backward, at tau = ln(2) / 2.
PULLED = [[1.0, 2.0], [1.5, 3.0]]
BATCH_CALLS = {
    "pullback_many": lambda f, m: ke.pullback_many(f, m, (0.0, 1.2), PULLED),
    "pullback_many_marched": lambda f, m: ke.pullback_many(_rk45(f), m, (0.0, 1.2), PULLED),
    "build_grid": lambda f, m: ke.build_grid(f, m, (0.0, 1.2), 4, 3),
    "build_grid_marched": lambda f, m: ke.build_grid(_rk45(f), m, (0.0, 1.2), 4, 3),
    "check_transversality": lambda f, m: ke.check_transversality(m, f),
}


@pytest.mark.parametrize(
    "case,call", [(case, call) for case, (_, _, calls) in MALFORMED.items() for call in calls]
)
def test_a_map_of_the_wrong_shape_is_a_value_error_naming_it(lin2d, case, call):
    spoil, name, _ = MALFORMED[case]
    field, mani = spoil(lin2d.field, lin2d.default_manifold)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} returned shape \(.*\) where the batch needs \("):
        BATCH_CALLS[call](field, mani)
    # The unspoiled maps pass the same call.
    BATCH_CALLS[call](lin2d.field, lin2d.default_manifold)


# vdp points searched backward over 2.002 against the default segment: two
# finish with no crossing, two after one, one after two (at tau ~ 1.106 and
# 1.757), one blows up with no crossing and one after a crossing. No point of
# the vdp_lattice box crosses twice.
RETIREMENT_STARTS = [
    [-0.2, -0.54], [-0.2, 0.367], [-0.2, -1.6], [-0.2, -0.993], [-1.0, -0.5],
    [0.6, -1.9], [2.2, 1.5],
]


def test_every_retirement_kind_in_one_batch_matches_its_lanes_alone(monkeypatch):
    system = ke.make_system("vdp")
    field, mani = system.field, system.default_manifold
    dyn = ke.dynamics
    solvers = []
    march = dyn._march

    def recorded(*args, **kwargs):
        solvers.append(march(*args, **kwargs))
        return solvers[-1]

    monkeypatch.setattr(dyn, "_march", recorded)
    starts = np.array(RETIREMENT_STARTS)
    found, escapes = find_crossings_many(field, starts, mani.surface, -1.0, 2.002, 1e-10)
    (batch,) = solvers
    kinds = set(zip(batch.status.tolist(), map(len, found)))
    for x0, lane, escape in zip(starts, found, escapes):
        try:
            one = dyn.find_crossings(field, x0, mani.surface, -1.0, 2.002, 1e-10)
        except ke.NotInDomainError as exc:
            assert lane == [] and type(escape) is type(exc), f"at {x0}"
            assert escape.time == exc.time and np.array_equal(escape.state, exc.state)
            continue
        assert escape is None and len(lane) == len(one), f"at {x0}"
        for (tau_b, y_b), (tau_1, y_1) in zip(lane, one):
            assert tau_b == tau_1 and np.array_equal(y_b, y_1), f"at {x0}"
    # Finished with none, one or two crossings; blown up with none or one.
    assert kinds == {(dyn.DONE, 0), (dyn.DONE, 1), (dyn.DONE, 2), (dyn.BLOW_UP, 0), (dyn.BLOW_UP, 1)}

    # Images at four stops, which the lanes reach on different attempts.
    starts, times = starts[[0, 2, 4, 6]], [0.25, 0.5, 1.0, 1.5]
    del solvers[:]
    images = flow_many(field, starts, times, 1e-10)
    alone = [flow_many(field, [x0], times, 1e-10)[:, 0] for x0 in starts]
    assert len({solver._attempts for solver in solvers[1:]}) == len(starts)
    for i, x0 in enumerate(starts):
        assert np.array_equal(images[:, i], alone[i]), f"at {x0}"
        for j, t in enumerate(times):
            assert np.max(np.abs(images[j, i] - ke.flow(field, x0, t, 1e-10))) <= 1e-8


def test_the_backward_march_over_the_vdp_lattice_box_is_short(monkeypatch):
    # The lanes that blow up set the march's length: each takes 161-185
    # accepted steps to leave the bound, and 25-28 rejected ones.
    system = ke.make_system("vdp")
    solvers = []
    march = ke.dynamics._march

    def recorded(*args, **kwargs):
        solvers.append(march(*args, **kwargs))
        return solvers[-1]

    monkeypatch.setattr(ke.dynamics, "_march", recorded)
    g1, g2 = np.meshgrid(np.linspace(-0.2, 2.2, 16), np.linspace(-1.9, 1.5, 16))
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    find_crossings_many(system.field, pts, system.default_manifold.surface, -1.0, 2.002, 1e-10)
    (solver,) = solvers
    assert np.count_nonzero(solver.status == ke.dynamics.BLOW_UP) > 0
    assert solver._attempts <= 230


# vdp points that pull back onto the default segment, with r* from 0.3 to 1.95.
DENSE_STARTS = [
    [1.22, 0.21], [1.45, -0.43], [1.32, -0.8], [1.22, -0.96], [1.18, -1.02], [0.18, -1.79],
]


def test_pullback_matches_a_dop853_event_search():
    # r* and s* come from the dense output of the step that brackets the
    # crossing; scipy locates the same crossing on its own dense output.
    system = ke.make_system("vdp")
    field, mani = system.field, system.default_manifold
    r_star, s_star, _, why = ke.pullback_many(field, mani, (0.0, 2.0), DENSE_STARTS, 1e-10)
    assert why.tolist() == [None] * len(DENSE_STARTS)

    def surface(_t, y):
        return mani.surface(y[:, None])[0]

    for j, x0 in enumerate(DENSE_STARTS):
        sol = solve_ivp(
            lambda _t, y: -field.rhs(y), (0.0, 2.002), np.asarray(x0, float),
            method="DOP853", rtol=1e-12, atol=1e-12, events=[surface],
        )
        assert sol.success and sol.t_events[0].size == 1
        foot = sol.y_events[0][0]
        assert abs(r_star[j] - sol.t_events[0][0]) <= 1e-9, f"at {x0}"
        assert abs(s_star[j] - mani.locate(foot[:, None])[0]) <= 1e-9, f"at {x0}"


def test_a_late_foot_matches_a_tight_dop853_search():
    # Point 148 of the vdp_lattice benchmark's 16x16 box at seed 3, whose
    # foot lies at r* = 1.89. Under a controller that forgets the last step,
    # its r* was 2e-9 off, the worst of that lattice's hits.
    system = ke.make_system("vdp")
    field, mani = system.field, system.default_manifold
    x0 = [1.243425966685745, -0.9799140712928877]
    r_star, _, _, why = ke.pullback_many(field, mani, (0.0, 2.0), [x0], 1e-10)
    assert why.tolist() == [None]
    sol = solve_ivp(
        lambda _t, y: -field.rhs(y), (0.0, 2.002), np.asarray(x0), method="DOP853",
        rtol=1e-13, atol=1e-13, events=[lambda _t, y: mani.surface(y[:, None])[0]],
    )
    assert sol.success and sol.t_events[0].size == 1
    assert abs(r_star[0] - sol.t_events[0][0]) <= 2e-10


def test_batched_crossings_of_an_event_that_views_its_states_match_one_lane():
    # The event x[1] returns a row of its input. Over 6.0 forward, the lanes
    # are rejected on different attempts, so steps where every lane moves are
    # followed by steps where only some do; each lane still sees only its own
    # states.
    field = ke.make_system("vdp").field
    starts = np.array(RETIREMENT_STARTS)
    found, escapes = find_crossings_many(field, starts, lambda x: x[1], 1.0, 6.0, 1e-10)
    assert escapes == [None] * len(starts)
    for x0, lane in zip(starts, found):
        one = ke.dynamics.find_crossings(field, x0, lambda x: x[1], 1.0, 6.0, 1e-10)
        assert len(lane) == len(one) == 2, f"at {x0}"
        for (tau_b, y_b), (tau_1, y_1) in zip(lane, one):
            assert tau_b == tau_1 and np.array_equal(y_b, y_1), f"at {x0}"
            assert abs(y_b[1]) < 1e-10, f"at {x0}"


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
    if name == "hopf":
        # Each column of a batch whose times are all <= 0 has the bits it
        # has inside a mixed-sign batch: past the escape of the orbits
        # outside the limit cycle, and at t = -0.0 and 0.0.
        rng = np.random.default_rng(7)
        back = rng.uniform(-3.0, 3.0, (2, 128))
        t_back = -rng.uniform(0.0, 2.0, 128)
        t_back[:2] = -0.0, 0.0
        with np.errstate(all="ignore"):
            alone = closed(back, t_back)
            mixed = closed(np.hstack([back, batch]), np.concatenate([t_back, times]))
        assert 0 < np.count_nonzero(~np.isfinite(alone[0])) < 128  # some have escaped
        assert np.array_equal(alone, mixed[:, :128], equal_nan=True)


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_registry_closed_form_is_the_identity_at_zero(name):
    # Every state goes to itself, bit for bit, at t = 0.0 and -0.0, from
    # 1e-150 to 1e150 in magnitude, with both signs, in every coordinate.
    field = ke.make_system(name).field
    closed = field.closed_form_flow
    mags = 10.0 ** np.arange(-150, 151, 25)
    coords = np.concatenate([mags, -mags])
    grids = np.meshgrid(*[coords] * field.dim, indexing="ij")
    batch = np.stack([g.ravel() for g in grids])
    for zero in (0.0, -0.0):
        with np.errstate(all="ignore"):  # as koopeig calls it
            out = closed(batch, np.full(batch.shape[1], zero))
        assert out.tobytes() == batch.tobytes(), f"t = {zero}"


@pytest.mark.parametrize("t", [5.0, 20.0, 40.0, -3.0, -300.0])
@pytest.mark.parametrize("r0", [1e-9, 1e-6, 1e-3, 0.5])
def test_hopf_closed_form_keeps_its_digits_inside_the_cycle(r0, t):
    # r^2 = r0^2 / (r0^2 + (1 - r0^2) e^(-2t)) at mu = 1, a sum of two
    # positive terms. Forward from near the origin e^(-2t) is far below 1, so
    # a form that reads it off expm1(-2t) + 1 would lose it.
    closed = ke.make_system("hopf").field.closed_form_flow
    (y,) = closed(np.array([[r0], [0.0]]), np.array([t])).T
    r = r0 / math.sqrt(r0 * r0 + (1.0 - r0 * r0) * math.exp(-2.0 * t))
    assert math.hypot(*y) == pytest.approx(r, rel=1e-14)
    assert math.atan2(y[1], y[0]) == pytest.approx(math.remainder(t, 2 * math.pi), abs=1e-12)


def test_hopf_limit_cycle_never_reads_as_an_escape():
    # A state on the cycle r = 1 stays on it backward over any window.
    system = ke.make_system("hopf")
    on_cycle = np.array([[1.0, 0.0], [0.6, 0.8]])
    start = on_cycle[:, 0] + 1j * on_cycle[:, 1]
    for t in (-380.0, -5000.0):
        (y,) = flow_many(system.field, on_cycle, [t])
        z = y[:, 0] + 1j * y[:, 1]
        assert np.all(np.abs(np.abs(z) - 1.0) <= 1e-12), f"t = {t}"
        assert np.all(np.abs(z / start - np.exp(1j * t)) <= 1e-12), f"t = {t}"
    # Over a long window the cycle has no foot on the circle r = 5: it is
    # no_crossing, like a state inside it, not blow_up like one beyond r = 5.
    points = np.vstack([on_cycle, [[0.5, 0.0], [2.0, 0.0], [6.0, 0.0]]])
    r, s, _, why = ke.pullback_many(system.field, system.default_manifold, (0.0, 400.0), points)
    assert list(why) == ["no_crossing", "no_crossing", "no_crossing", None, "blow_up"]
    # From r0 = 2 the backward orbit reaches r = 5 where e^(2 r*) = 1.28.
    assert r[3] == pytest.approx(0.5 * math.log(1.28), abs=1e-9)
    assert s[3] == pytest.approx(2.0 * math.pi - 0.5 * math.log(1.28), abs=1e-9)


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
        assert values[j] == q(batch[:, j])  # a (d,) state broadcasts as well
        assert values[j] == q(batch[:, j : j + 1])[0]


@pytest.mark.parametrize("expr", DATA_FNS)
def test_parsed_data_fn_is_elementwise(expr):
    h = parse_data_fn(expr)
    s = np.random.default_rng(7).uniform(0.2, 3.0, 9)
    values = h(s)
    assert values.shape == (9,) and values.dtype == complex
    for j in range(9):
        assert values[j] == h(s[j : j + 1])[0]


def test_parsed_non_finite_value_names_the_field():
    with pytest.raises(ke.ConfigError, match="^h: "):
        parse_data_fn("s^-1")(np.array([1.0, 0.0]))
    with pytest.raises(ke.ConfigError, match="^target: "):
        parse_target("x1^-1")(np.zeros((2, 3)))


def test_parsed_exponent_sign_is_not_a_term():
    s = np.random.default_rng(7).uniform(0.2, 3.0, 9)
    assert np.array_equal(parse_data_fn("1e+3*s")(s), parse_data_fn("1000*s")(s))
    x = np.random.default_rng(6).uniform(0.2, 3.0, (2, 9))
    assert np.array_equal(parse_target("x1 + 2.5e+0*x2")(x), parse_target("x1 + 2.5*x2")(x))
    assert np.array_equal(parse_target("x1^+2 + 1")(x), parse_target("x1^2 + 1")(x))


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
        one = h(s[j : j + 1])
        assert one.shape == (1,) and one.dtype == complex
        assert values[j] == one[0]
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
        ke.flow(field, [1.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="one-state-only"):
        flow_many(field, [[1.0, 0.0], [0.0, 1.0]], [0.5])

    def closed(x, t):  # written for single states: drops the batch axis
        return x[:, 0]

    field = ke.VectorField(2, rhs, name="one-state-closed-form", closed_form_flow=closed)
    with pytest.raises(ValueError, match="one-state-closed-form"):
        ke.flow(field, [1.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="one-state-closed-form"):
        ke.dynamics.find_crossings(field, [1.0, 0.0], lambda x: x[1], 1.0, 1.0)


def test_the_field_chooses_how_it_is_flowed(lin2d):
    # lin2d is flowed, scanned and pulled back through its closed form; its
    # twin without one is marched by RK45. Both give the same answers.
    calls = {"rhs": 0, "closed": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    exact = dataclasses.replace(
        lin2d.field,
        rhs=counted("rhs", lin2d.field.rhs),
        closed_form_flow=counted("closed", lin2d.field.closed_form_flow),
    )
    mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))
    pts = np.array([[1.0, 1.5], [1.5, 3.0], [2.0, 6.0]])

    def run(field):
        images = flow_many(field, pts, [-0.1, -0.4], 1e-10)
        found, _ = find_crossings_many(field, pts, lambda x: x[1] - 1.0, -1.0, 2.0, 1e-10)
        r_star, s_star, feet, why = ke.pullback_many(field, mani, (0.0, 1.2), pts, 1e-10)
        assert why.tolist() == [None] * len(pts)
        taus = [tau for ((tau, _),) in found]
        return np.concatenate([images.ravel(), taus, r_star, s_star, feet.ravel()])

    closed_form = run(exact)
    assert calls["rhs"] == 0 and calls["closed"] > 0
    calls.update(rhs=0, closed=0)
    marched = run(_rk45(exact))
    assert calls["closed"] == 0 and calls["rhs"] > 0
    assert np.max(np.abs(closed_form - marched)) <= 1e-8


@pytest.mark.parametrize("marched", [False, True], ids=["closed_form", "rk45"])
def test_an_empty_pullback_batch_checks_its_arguments(lin2d, marched):
    # With no point to pull back, the window and tol are checked all the
    # same, and an eigenfunction refuses a window that is not finite or a
    # tol that is not positive when it is built, not at its first values.
    field = _rk45(lin2d.field) if marched else lin2d.field
    mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))
    none = np.empty((0, 2))
    r_star, s_star, feet, why = ke.pullback_many(field, mani, (0.0, 1.0), none)
    assert r_star.shape == s_star.shape == why.shape == (0,) and feet.shape == (2, 0)
    assert why.dtype == object
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        ke.pullback_many(field, mani, (0.0, 1.0), none, -1.0)
    with pytest.raises(ValueError, match="t_window must be finite"):
        ke.pullback_many(field, mani, (0.0, math.inf), none)
    h = ke.DataFunction.from_callable(mani, np.ones_like)
    with pytest.raises(ValueError, match="t_window must be finite"):
        ke.OpenEigenfunction(2.0, h, mani, field, (0.0, math.inf))
    for tol in (-1.0, math.nan, 0.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            ke.OpenEigenfunction(2.0, h, mani, field, (0.0, 1.0), tol=tol)


@pytest.mark.parametrize("marched", [False, True], ids=["closed_form", "rk45"])
@pytest.mark.parametrize("name", ["lin2d", "hopf"])
def test_a_non_finite_state_is_refused_by_every_batch_call(name, marched):
    # The orbit of a NaN or infinite state is not defined. Both kinds of
    # flow refuse it before any search, naming it, rather than each reading
    # its own miss (blow-up on the closed form, step underflow marched) or
    # the surface warning on inf - inf.
    system = ke.make_system(name)
    field = _rk45(system.field) if marched else system.field
    mani, window = system.default_manifold, system.default_t_window
    h = ke.DataFunction.from_callable(mani, np.ones_like)
    open_eig = ke.OpenEigenfunction(1.0, h, mani, field, window)
    closed_eig = ke.ClosedFormEigenfunction(1.0, lambda x: x[0], field)
    for bad in ([np.nan, 1.5], [np.inf, 1.0], [1.0, -np.inf]):
        pts = np.array([[1.2, 1.3], bad])
        calls = [
            lambda: ke.pullback(field, mani, window, bad),
            lambda: ke.pullback_many(field, mani, window, pts),
            lambda: find_crossings(field, bad, mani.surface, -1.0, 1.0),
            lambda: find_crossings_many(field, pts, mani.surface, -1.0, 1.0),
            lambda: ke.flow(field, bad, -0.1),
            lambda: flow_many(field, pts, [-0.1]),
            lambda: ke.koopman_defects(open_eig, pts, 0.1),
            lambda: open_eig.columns(pts),
            lambda: closed_eig.columns(pts),
            lambda: ke.eig_power(closed_eig, 2.0).columns(pts),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"states must be finite; state [01] is \["):
                call()
    with pytest.raises(ValueError, match=r"state 1 is \[nan, 1.5\]"):
        ke.pullback_many(field, mani, window, [[1.2, 1.3], [np.nan, 1.5], [np.inf, 0.0]])


# ---------------------------------------------------------------------------
# batched pullback against the one-point pullback
# ---------------------------------------------------------------------------


def _rotation_setup():
    def rhs(x):
        return np.array([-x[1], x[0]])

    field = ke.VectorField(2, rhs, name="rotation")
    mani = ke.segment_manifold((0.5, 0.0), (2.0, 0.0), n=31, s_range=(0.5, 2.0))
    return field, mani, (-1.0, 7.0), ((-2.5, 2.5), (-2.5, 2.5))


def _vdp_setup():
    system = ke.make_system("vdp")
    return system.field, system.default_manifold, (0.0, 2.0), ((-0.2, 2.2), (-1.9, 1.5))


def _lin2d_setup():
    system = ke.make_system("lin2d", a1=1.0, a2=2.0)
    mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))
    return _rk45(system.field), mani, (-0.1, 1.1), ((0.2, 2.6), (0.6, 12.0))


def _lin2d_exact_setup():
    # The closed-form field: pullback_many calls pullback point by point.
    field, mani, window, box = _lin2d_setup()
    return ke.make_system("lin2d", a1=1.0, a2=2.0).field, mani, window, box


def _against_one_point(field, mani, window, pts):
    """pullback_many's columns, checked against each point's one-point
    pullback: NaN marks exactly the misses, and the why column holds each
    miss's reason and None at each hit. Returns the columns and the one-point
    Pullback of each hit."""
    r_star, s_star, feet, why = ke.pullback_many(field, mani, window, pts, 1e-10)
    n, d = pts.shape
    assert r_star.shape == s_star.shape == why.shape == (n,) and feet.shape == (d, n)
    miss = np.isnan(r_star)
    assert np.array_equal(np.isnan(s_star), miss)
    assert np.array_equal(np.isnan(feet), np.broadcast_to(miss, (d, n)))
    assert np.array_equal(np.not_equal(why, None), miss)
    wants = []
    for x in pts:
        try:
            wants.append(ke.pullback(field, mani, window, x, 1e-10))
        except ke.NotInDomainError as exc:
            wants.append(exc.reason)
    assert np.array_equal(miss, [isinstance(want, str) for want in wants])
    assert why.tolist() == [want if isinstance(want, str) else None for want in wants]
    assert set(why[miss]) <= set(ke.MISS_REASONS)
    hits = {j: want for j, want in enumerate(wants) if not miss[j]}
    return (r_star, s_star, feet, why), hits


@pytest.mark.parametrize(
    "setup", [_vdp_setup, _lin2d_setup, _lin2d_exact_setup, _rotation_setup]
)
def test_batched_pullback_matches_one_point(setup):
    field, mani, window, box = setup()
    rng = np.random.default_rng(2024)
    pts = np.column_stack([rng.uniform(*box[0], 200), rng.uniform(*box[1], 200)])
    (r_star, s_star, feet, _), hits = _against_one_point(field, mani, window, pts)
    for j, want in hits.items():
        assert abs(r_star[j] - want.r_star) <= 1e-9, f"at {pts[j]}"
        assert abs(s_star[j] - want.s_star) <= 1e-9, f"at {pts[j]}"
        assert np.max(np.abs(feet[:, j] - want.foot)) <= 1e-9, f"at {pts[j]}"
    assert hits


def test_batched_on_manifold_test_matches_one_point():
    field, mani, window, box = _vdp_setup()
    span = mani.s_max - mani.s_min
    # On the segment: its own foot at r* = 0. On its supporting line beyond
    # an end: |surface| < tol, but locate clips to the end, so the point is
    # searched. Then ordinary lattice points.
    on = mani.embed(np.linspace(mani.s_min, mani.s_max, 7)).T
    beyond = mani.embed(np.array([mani.s_min - 0.3 * span, mani.s_max + 0.2 * span])).T
    assert np.all(np.abs(mani.surface(beyond.T)) < 1e-10)
    g1, g2 = np.meshgrid(np.linspace(*box[0], 6), np.linspace(*box[1], 6))
    pts = np.concatenate([on, beyond, np.column_stack([g1.ravel(), g2.ravel()])])
    (r_star, s_star, feet, _), hits = _against_one_point(field, mani, window, pts)
    for j, want in hits.items():
        assert r_star[j] == want.r_star and s_star[j] == want.s_star, f"at {pts[j]}"
        assert np.array_equal(feet[:, j], want.foot), f"at {pts[j]}"
    assert np.all(r_star[: len(on)] == 0.0)
    searched = r_star[len(on) :]
    beyond_r = searched[: len(beyond)]
    assert np.all(np.isnan(beyond_r) | (beyond_r != 0.0))
    found = searched[~np.isnan(searched)]
    assert found.size < searched.size and np.any(found > 0.0)


def test_rotation_misses_cover_ambiguity_and_window():
    field, mani, window, _ = _rotation_setup()
    pts = [[1.0, 0.3], [1.0, -0.5], [0.1, 0.1], [-1.0, 0.0]]
    r_star, _, _, why = ke.pullback_many(field, mani, window, pts, 1e-10)
    assert np.isnan(r_star[[0, 2]]).all()
    # Point 0, angle 0.29 < 7 - 2 pi: met twice backward. Point 2: radius
    # below the segment.
    assert why.tolist() == ["ambiguous", None, "no_crossing", None]
    # angle 2 pi - 0.46: one backward crossing of the segment inside the window
    assert r_star[1] == pytest.approx(2.0 * math.pi - math.atan2(0.5, 1.0), abs=1e-8)
    # On the supporting line but off the segment: met half a turn later.
    assert r_star[3] == pytest.approx(math.pi, abs=1e-8)
