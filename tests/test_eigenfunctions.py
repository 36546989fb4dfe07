import dataclasses
import math

import numpy as np
import pytest

import koopeig as ke


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def test_pullback_linear_hand_values(lin2d, horizontal_manifold):
    pb = ke.pullback(lin2d.field, horizontal_manifold, (0.0, 1.2), [2.0, 4.0])
    # Closed-form inversion: r* = ln 2, s* = x1 * x2^(-a1/a2) = 1.
    assert pb.r_star == pytest.approx(math.log(2.0), abs=1e-6)
    assert pb.s_star == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(pb.foot, [1.0, 1.0], atol=1e-8)


def test_pullback_point_on_manifold(lin2d, horizontal_manifold):
    pb = ke.pullback(lin2d.field, horizontal_manifold, (0.0, 1.2), [1.7, 1.0])
    assert pb.r_star == 0.0
    assert pb.s_star == pytest.approx(1.7, abs=1e-9)


def test_pullback_roundtrip_property(lin2d, horizontal_manifold):
    tol = 1e-10
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = np.array([rng.uniform(0.8, 2.0), rng.uniform(1.0, 6.0)])
        pb = ke.pullback(lin2d.field, horizontal_manifold, (0.0, 1.2), x, tol)
        back = ke.flow(lin2d.field, pb.foot, pb.r_star, tol)
        assert np.max(np.abs(back - x)) <= 100 * tol


def test_pullback_hopf_matches_tight_oracle():
    system = ke.make_system("hopf", mu=1.0)
    mani = system.default_manifold
    x = np.array([2.0, 1.5])
    pb = ke.pullback(system.field, mani, (0.0, 4.0), x, 1e-8)
    oracle = ke.pullback(system.field, mani, (0.0, 4.0), x, 1e-12)
    assert pb.r_star == pytest.approx(oracle.r_star, abs=1e-6)
    assert pb.s_star == pytest.approx(oracle.s_star, abs=1e-6)
    assert pb.r_star > 0


def test_pullback_hopf_numeric_path_agrees_with_exact():
    system = ke.make_system("hopf", mu=1.0)
    mani = system.default_manifold
    x = np.array([-1.2, 2.2])
    exact = ke.pullback(system.field, mani, (0.0, 4.0), x, 1e-10)
    marched = dataclasses.replace(system.field, closed_form_flow=None)
    numeric = ke.pullback(marched, mani, (0.0, 4.0), x, 1e-10)
    assert exact.r_star == pytest.approx(numeric.r_star, abs=1e-7)
    assert exact.s_star == pytest.approx(numeric.s_star, abs=1e-7)


def test_pullback_not_in_domain(lin2d, horizontal_manifold):
    with pytest.raises(ke.NotInDomainError):
        ke.pullback(lin2d.field, horizontal_manifold, (0.0, 1.2), [1.0, 50.0])
    # x2 < 1 lies upstream; unreachable when t1 = 0 ...
    with pytest.raises(ke.NotInDomainError):
        ke.pullback(lin2d.field, horizontal_manifold, (0.0, 1.2), [1.0, 0.8])
    # ... but reachable through the forward search when t1 < 0.
    pb = ke.pullback(lin2d.field, horizontal_manifold, (-0.5, 1.2), [1.0, 0.8])
    assert pb.r_star == pytest.approx(math.log(0.8) / 2.0, abs=1e-8)


def test_pullback_off_segment_is_not_in_domain(lin2d):
    short = ke.segment_manifold((0.9, 1.0), (1.1, 1.0), n=21, s_range=(0.9, 1.1))
    # The backward orbit hits the supporting line x2 = 1 at x1 = 2 * 4^(-1/2) = 1,
    # inside the short segment; from (4, 4) the foot (2, 1) is outside it.
    assert ke.pullback(lin2d.field, short, (0.0, 1.2), [2.0, 4.0]).s_star == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ke.NotInDomainError):
        ke.pullback(lin2d.field, short, (0.0, 1.2), [4.0, 4.0])


def test_pullback_needs_a_manifold_with_locate(lin2d, horizontal_manifold):
    no_inverse = dataclasses.replace(horizontal_manifold, locate=None)
    with pytest.raises(ValueError, match="locate"):
        ke.pullback(lin2d.field, no_inverse, (0.0, 1.2), [1.0, 2.0])


def test_pullback_onto_a_segment_in_space_is_refused():
    # A segment in 3-D is not codimension one: it has no surface to cross.
    with pytest.raises(ValueError, match="plane"):
        ke.segment_manifold((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), n=11)
    field = ke.VectorField(
        3, lambda x: np.stack([np.zeros_like(x[0]), np.zeros_like(x[0]), np.ones_like(x[0])])
    )
    by_hand = ke.DataManifold(
        embed=lambda s: np.multiply.outer([1.0, 0.0, 0.0], s),
        s_min=0.0,
        s_max=1.0,
        n_samples=11,
        dim=3,
        locate=lambda x: np.clip(x[0], 0.0, 1.0),
    )
    with pytest.raises(ValueError, match="surface"):
        ke.pullback(field, by_hand, (0.0, 2.0), [0.5, 0.0, 1.0])


def test_pullback_ambiguous_crossing_on_rotation():
    def rhs(x):
        return np.array([-x[1], x[0]])

    def closed(x, t):
        c, s = np.cos(t), np.sin(t)
        return np.stack([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    mani = ke.segment_manifold((0.5, 0.0), (2.0, 0.0), n=31, s_range=(0.5, 2.0))
    for field in (
        ke.VectorField(2, rhs, name="rotation"),
        ke.VectorField(2, rhs, name="rotation-cf", closed_form_flow=closed),
    ):
        with pytest.raises(ke.AmbiguousCrossingError):
            ke.pullback(field, mani, (0.0, 7.0), [1.0, 0.5], 1e-10)
        # A window shorter than the period sees a single crossing.
        pb = ke.pullback(field, mani, (0.0, 3.0), [1.0, 0.5], 1e-10)
        assert pb.r_star == pytest.approx(math.atan2(0.5, 1.0), abs=1e-8)


def test_pullback_settle_rules():
    def rhs(x):
        return np.array([-x[1], x[0]])

    def closed(x, t):
        c, s = np.cos(t), np.sin(t)
        return np.stack([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    mani = ke.segment_manifold((0.5, 0.0), (2.0, 0.0), n=31, s_range=(0.5, 2.0))
    x = [math.cos(0.29), math.sin(0.29)]
    for field in (
        ke.VectorField(2, rhs, name="rotation"),
        ke.VectorField(2, rhs, name="rotation-cf", closed_form_flow=closed),
    ):
        # Met twice backward and once forward: ambiguous.
        r_star, _, _, why = ke.pullback_many(field, mani, (-6.1, 7.0), [x], 1e-10)
        assert why.tolist() == ["ambiguous"] and np.isnan(r_star).all()
        # No backward foot: the forward foot, at r* < 0.
        (r_star,), (s_star,), _, why = ke.pullback_many(field, mani, (-6.1, 0.1), [x], 1e-10)
        assert why.tolist() == [None]
        assert r_star == pytest.approx(-(2.0 * math.pi - 0.29), abs=1e-8)
        assert s_star == pytest.approx(1.0, abs=1e-8)

    exact = ke.make_system("blowup").field
    for field in (exact, dataclasses.replace(exact, closed_form_flow=None)):
        # x' = x^2: from -1 the orbit escapes backward and never reaches 1 forward.
        why = ke.pullback_many(field, ke.point_manifold(1.0), (-1.0, 2.0), [[-1.0]])[3]
        assert why.tolist() == ["blow_up"]
        # From 2 it stays above 0.5 backward and escapes forward.
        why = ke.pullback_many(field, ke.point_manifold(0.5), (-1.0, 1.0), [[2.0]])[3]
        assert why.tolist() == ["blow_up"]


def test_pullback_counts_feet_not_surface_crossings(monkeypatch):
    # Backward from (1, 0), the spiral crosses y = 0 at tau = k pi, at
    # x = (-1)^k e^(-0.05 k pi). The first five crossings miss the segment
    # (0.2, 0)-(0.5, 0); the sixth, at 6 pi, is the foot, and the eighth and
    # tenth meet the segment again. Each window is searched backward only,
    # in one search that returns every crossing.
    searches = []
    for name in ("_march", "_scan_closed"):
        search = getattr(ke.dynamics, name)

        def counted(*args, search=search, **kwargs):
            searches.append(args[0].name)
            return search(*args, **kwargs)

        monkeypatch.setattr(ke.dynamics, name, counted)

    def rhs(x):
        return np.array([-x[1] + 0.05 * x[0], x[0] + 0.05 * x[1]])

    def closed(x, t):
        c, s, grow = np.cos(t), np.sin(t), np.exp(0.05 * t)
        return grow * np.stack([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    mani = ke.segment_manifold((0.2, 0.0), (0.5, 0.0), n=31, s_range=(0.2, 0.5))
    foot = [math.exp(-0.3 * math.pi), 0.0]
    for field in (
        ke.VectorField(2, rhs, name="spiral"),
        ke.VectorField(2, rhs, name="spiral-cf", closed_form_flow=closed),
    ):
        del searches[:]
        (r_star,), _, feet, why = ke.pullback_many(field, mani, (0.0, 20.0), [[1.0, 0.0]], 1e-10)
        assert why.tolist() == [None] and searches == [field.name]
        assert abs(r_star - 6.0 * math.pi) <= 1e-8
        assert np.max(np.abs(feet[:, 0] - foot)) <= 1e-8
        # Feet at 6 pi, 8 pi and 10 pi.
        del searches[:]
        r_star, _, _, why = ke.pullback_many(field, mani, (0.0, 40.0), [[1.0, 0.0]], 1e-10)
        assert why.tolist() == ["ambiguous"] and np.isnan(r_star).all()
        assert searches == [field.name]


@pytest.mark.parametrize("marched", [False, True], ids=["exact", "rk45"])
def test_a_point_with_no_foot_misses_with_its_first_escape(sink_off_segment, marched):
    # Back from (0.5, 1.5) the orbit crosses x1 = 0 off the segment, at
    # x2 = 6, and then escapes: no foot, so its escape names the miss.
    # (0.5, 0.5) meets the segment at tau = 0.5, at x2 = 2/3.
    field, mani = sink_off_segment
    if marched:
        field = dataclasses.replace(field, closed_form_flow=None)
    r_star, s_star, _, why = ke.pullback_many(field, mani, (0.0, 1.0), [[0.5, 1.5], [0.5, 0.5]])
    assert why.tolist() == ["blow_up", None]
    assert abs(r_star[1] - 0.5) <= 1e-9 and abs(s_star[1] - 2.0 / 3.0) <= 1e-9
    with pytest.raises(ke.BlowUpError):
        ke.pullback(field, mani, (0.0, 1.0), [0.5, 1.5])


@pytest.mark.parametrize("marched", [False, True], ids=["exact", "rk45"])
def test_a_foot_on_a_scan_sample_is_one_hit(sink_off_segment, marched):
    # Back over t2 plus its slack, 1.001, the exact scan samples tau =
    # 1.001 * 64/128 = 0.5005, where the orbit from (0.5005, 0.4) meets the
    # segment: that sample's zero is one foot, at x2 = 0.4 / (1 - 0.4 * 0.5005).
    field, mani = sink_off_segment
    if marched:
        field = dataclasses.replace(field, closed_form_flow=None)
    (r_star,), (s_star,), _, why = ke.pullback_many(field, mani, (0.0, 1.0), [[0.5005, 0.4]])
    assert why.tolist() == [None]
    assert r_star == pytest.approx(0.5005, abs=1e-9)
    assert s_star == pytest.approx(0.4 / (1.0 - 0.4 * 0.5005), abs=1e-9)


def test_a_vdp_orbit_that_crosses_off_the_segment_and_escapes_is_blow_up():
    # Back from (2.2, 0.82) the orbit crosses the segment's line at
    # tau ~ 0.118, beyond the segment's end, and escapes at tau ~ 1.97.
    system = ke.make_system("vdp")
    why = ke.pullback_many(system.field, system.default_manifold, (0.0, 2.0), [[2.2, 0.82]])[3]
    assert why.tolist() == ["blow_up"]


# Lattices of the exact-scan gate, chosen to cover every miss reason of
# their system: no_crossing everywhere, and blow_up on hopf (beyond the
# circle at the default window) and blowup (x <= -2 and x > 2).
_GATE_LATTICES = {
    "lin1d": (np.linspace(-3.0, 3.0, 101),),
    "lin2d": (np.linspace(-1.0, 4.0, 15), np.linspace(-1.0, 12.0, 15)),
    "hopf": (np.linspace(-8.0, 8.0, 15), np.linspace(-8.0, 8.0, 15)),
    "blowup": (np.linspace(-4.0, 4.0, 101),),
    "action_angle": (np.linspace(-1.0, 4.0, 15), np.linspace(-1.0, 3.0, 15)),
}
# The miss reasons of each lattice at the default window, then at (-t2/2, t2),
# where every hopf point but the origin has a foot.
_NC, _BU = {"no_crossing"}, {"no_crossing", "blow_up"}
_GATE_REASONS = {
    "lin1d": (_NC, _NC),
    "lin2d": (_NC, _NC),
    "hopf": (_BU, _NC),
    "blowup": (_BU, _BU),
    "action_angle": (_NC, _NC),
}


def _grid_or_error(field, manifold, t_window):
    """``build_grid``'s 15x15 states, else the class of the error it raises."""
    try:
        return ke.build_grid(field, manifold, t_window, 14, 14).points
    except ke.NotInDomainError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(_GATE_LATTICES))
def test_the_exact_scan_and_the_march_settle_every_point_alike(name):
    system = ke.make_system(name)
    mani = system.default_manifold
    fields = (system.field, dataclasses.replace(system.field, closed_form_flow=None))
    h = ke.DataFunction.from_callable(mani, np.ones_like)
    pts = np.stack([c.ravel() for c in np.meshgrid(*_GATE_LATTICES[name])], axis=1)
    t2 = system.default_t_window[1]
    windows = (system.default_t_window, (-t2 / 2.0, t2))
    for t_window, reasons in zip(windows, _GATE_REASONS[name]):
        exact, march = (ke.pullback_many(f, mani, t_window, pts) for f in fields)
        assert exact[3].tolist() == march[3].tolist()
        assert set(exact[3].tolist()) - {None} == reasons
        hit = np.equal(exact[3], None)
        assert hit.any() and not hit.all()
        for a, b in zip(exact[:2], march[:2]):
            assert np.max(np.abs(a[hit] - b[hit])) <= 1e-9
        # The residual check names each point's failure alike on both flows,
        # on every third point: each pulls back its image too.
        eigs = (ke.OpenEigenfunction(1.0, h, mani, f, t_window) for f in fields)
        exact, march = (ke.koopman_defects(eig, pts[::3], t2 / 2.0)[1] for eig in eigs)
        assert exact.tolist() == march.tolist()
        # The grids agree, or both raise the same class: a closed form
        # reports its first blown grid time, the march the time it escapes.
        exact, march = (_grid_or_error(f, mani, t_window) for f in fields)
        if isinstance(exact, np.ndarray) and isinstance(march, np.ndarray):
            assert np.max(np.abs(exact - march) / np.maximum(1.0, np.abs(exact))) <= 1e-8
        else:
            assert exact is march


def _focus_feet(x, t_window):
    """The feet (r, s) of the focus orbit through x (see ``focus_off_segment``)
    whose r lies in the window widened by the pullback's slack."""
    t1, t2 = t_window
    slack = max(1e-9, 1e-3 * (t2 - t1))
    r0, theta0 = math.hypot(*x), math.atan2(x[1], x[0])
    feet = []
    for k in range(-3, 4):
        r = theta0 - 2.0 * math.pi * k
        radius = r0 * math.exp(-0.1 * r)
        if t1 - slack <= r <= t2 + slack and 0.5 <= radius <= 2.0:
            feet.append((r, radius - 0.5))
    return feet


# The hits, the ambiguous points, those with feet in both directions, and
# the no_crossing points of the focus's 26x26 lattice, by window.
_FOCUS_OUTCOMES = {
    (0.0, 5.0): (353, 0, 0, 323),
    (0.0, 8.0): (495, 75, 0, 106),
    (-4.0, 4.0): (319, 33, 33, 324),
}


@pytest.mark.parametrize("t_window", list(_FOCUS_OUTCOMES))
def test_the_focus_settles_every_point_by_its_feet(focus_off_segment, t_window):
    # One foot over the whole window is a hit, more than one is ambiguous,
    # whether they lie in one direction or both; none is no_crossing.
    exact, marched, mani = focus_off_segment
    axis = np.linspace(-2.6, 2.6, 26)  # no point on the segment's line
    pts = np.array([[a, b] for a in axis for b in axis])
    feet = [_focus_feet(x, t_window) for x in pts]
    want = [None if len(f) == 1 else "ambiguous" if f else "no_crossing" for f in feet]
    two_sided = sum(1 for f in feet if {r < 0.0 for r, _ in f} == {False, True})
    counts = (want.count(None), want.count("ambiguous"), two_sided, want.count("no_crossing"))
    assert counts == _FOCUS_OUTCOMES[t_window]
    hit = np.equal(want, None)
    r_want, s_want = np.array([f[0] for f in feet if len(f) == 1]).T
    h = ke.DataFunction.from_callable(mani, lambda s: 0.5 + s)
    for flow, field in (("exact", exact), ("marched", marched)):
        eig = ke.OpenEigenfunction(0.1 + 1.0j, h, mani, field, t_window)
        phi, r_star, s_star, why = ke.evaluate_points(eig, pts)
        assert why.tolist() == want, flow
        assert np.isnan(r_star[~hit]).all()
        assert np.max(np.abs(r_star[hit] - r_want)) <= 1e-9
        assert np.max(np.abs(s_star[hit] - s_want)) <= 1e-9
        assert np.max(np.abs(phi[hit] - (pts[hit, 0] + 1.0j * pts[hit, 1]))) <= 1e-9


def _rotation_pullback(t_window):
    field = ke.VectorField(2, lambda x: np.array([-x[1], x[0]]), name="rotation")
    mani = ke.segment_manifold((0.5, 0.0), (2.0, 0.0), n=31, s_range=(0.5, 2.0))
    return lambda: ke.pullback(field, mani, t_window, [math.cos(0.29), math.sin(0.29)], 1e-10)


@pytest.mark.parametrize(
    "reason,miss,cls",
    [
        # Met twice backward, as in test_pullback_settle_rules.
        ("ambiguous", _rotation_pullback((-6.1, 7.0)), ke.AmbiguousCrossingError),
        # Backward over 0.1 the orbit does not reach the segment.
        ("no_crossing", _rotation_pullback((0.0, 0.1)), ke.NotInDomainError),
        # x' = x^2 from 1 escapes at t = 1.
        ("blow_up", lambda: ke.flow(ke.make_system("blowup").field, [1.0], 2.0), ke.BlowUpError),
        # A NaN derivative rejects every step, down to the step floor.
        (
            "step_underflow",
            lambda: ke.flow(ke.VectorField(1, lambda x: np.full_like(x, np.nan)), [0.0], 1.0),
            ke.StepUnderflowError,
        ),
    ],
)
def test_every_miss_is_not_in_domain_with_its_reason(reason, miss, cls):
    with pytest.raises(ke.NotInDomainError) as info:
        miss()
    assert type(info.value) is cls
    assert info.value.reason == reason


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_observer(observer_eig):
    assert complex(observer_eig([2.0, 4.0])) == pytest.approx(4.0, abs=1e-8)


def test_eval_on_manifold_returns_data(general_eig):
    assert complex(general_eig([1.7, 1.0])) == pytest.approx(1.7, abs=1e-9)


def test_eval_general_solution(general_eig):
    # phi = x1 * x2^((a2-a1)/a2) = x1 sqrt(x2); hand value at (2, 4) is 4.
    assert complex(general_eig([2.0, 4.0])) == pytest.approx(4.0, abs=1e-8)
    assert complex(general_eig([1.3, 2.0])) == pytest.approx(
        1.3 * math.sqrt(2.0), abs=1e-8
    )


def test_eval_window_is_enforced(observer_eig):
    with pytest.raises(ke.NotInDomainError):
        observer_eig([1.0, 20.0])  # r* = ln(20)/2 > t2


# ---------------------------------------------------------------------------
# koopman residual
# ---------------------------------------------------------------------------


def test_residual_exact_observer(observer_eig, unit_square_points):
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(1.0, 2.0, 100), rng.uniform(1.0, 2.0, 100)])
    assert ke.koopman_residual(observer_eig, pts, 0.1) <= 1e-8


def test_residual_zero_at_t0(observer_eig, unit_square_points):
    assert ke.koopman_residual(observer_eig, unit_square_points[:10], 0.0) == 0.0


def test_residual_detects_corrupted_eigenvalue(lin2d, observer_eig, unit_square_points):
    fake = ke.ClosedFormEigenfunction(2.5, lambda x: observer_eig.values(x.T), lin2d.field)
    res = ke.koopman_residual(fake, unit_square_points[:20], 0.1)
    assert res >= abs(math.exp(0.05) - 1.0) - 1e-3  # ~0.051


def test_residual_of_an_escaping_image_is_not_in_domain():
    # x' = x^2 from x = 20 escapes at t = 0.05, before the hop of 0.1.
    with pytest.raises(ke.BlowUpError):
        ke.koopman_residual(_blowup_oracle(), [[0.5], [20.0]], 0.1)


def _blowup_oracle():
    # x' = x^2 has the eigenfunction e^{-1/x} at lambda = 1 on x > 0.
    field = ke.make_system("blowup").field
    return ke.ClosedFormEigenfunction(1, lambda x: np.exp(-1 / x[0]), field)


def _blowup_eig(field=None):
    # x' = x^2 pulled back onto x = 1 over [0, 0.95], where r* = 1 - 1/x and
    # phi = e^{r*}: the domain is 1 <= x < 20.
    system = ke.make_system("blowup")
    h = ke.DataFunction.from_callable(system.default_manifold, np.ones_like)
    return ke.OpenEigenfunction(
        1.0, h, system.default_manifold, field or system.field, (0.0, 0.95)
    )


@pytest.mark.parametrize("marched", [False, True], ids=["closed_form", "rk45"])
def test_koopman_defects_name_why_each_point_fails_the_residual(marched):
    # 0.5 has no foot, 15 escapes at t = 1/15 before the hop of 0.1, and the
    # image of 8 (40, at r* = 0.975) lies past the window's end; 2 and 3 stay
    # in the domain.
    field = ke.make_system("blowup").field
    if marched:
        field = dataclasses.replace(field, closed_form_flow=None)
    eig = _blowup_eig(field)
    pts = [[2.0], [0.5], [15.0], [8.0], [3.0]]
    defects, why = ke.koopman_defects(eig, pts, 0.1)
    assert why.tolist() == [None, "no_crossing", "blow_up", "no_crossing", None]
    assert np.isnan(defects[[1, 2, 3]]).all()
    assert np.all(defects[[0, 4]] <= 1e-8)
    with pytest.raises(ke.NotInDomainError) as info:
        ke.koopman_residual(eig, pts, 0.1)
    assert type(info.value) is ke.NotInDomainError and info.value.reason == "no_crossing"
    with pytest.raises(ke.BlowUpError):
        ke.koopman_residual(eig, pts[2:], 0.1)
    assert ke.koopman_residual(eig, [[2.0], [3.0]], 0.1) <= 1e-8


def test_a_miss_raises_the_class_of_its_reason():
    # Backward from x = -1, x' = x^2 escapes at t = 1, inside the window.
    system = ke.make_system("blowup")
    h = ke.DataFunction.from_callable(system.default_manifold, np.ones_like)
    eig = ke.OpenEigenfunction(1.0, h, system.default_manifold, system.field, (0.0, 2.0))
    with pytest.raises(ke.BlowUpError):
        eig.values([[-1.0]])
    with pytest.raises(ke.BlowUpError):
        ke.pullback(system.field, system.default_manifold, (0.0, 2.0), [-1.0])
    _, why = ke.koopman_defects(eig, [[-1.0]], 0.1)
    assert why.tolist() == ["blow_up"]
    with pytest.raises(ke.BlowUpError):
        ke.koopman_residual(eig, [[-1.0]], 0.1)


def test_columns_of_every_eigenfunction_class():
    eig = _blowup_eig()
    square = ke.eig_power(eig, 2.0)
    pts = [[2.0], [0.5], [3.0]]
    phi, why = square.columns(pts)
    # The product misses where its factor does, with the factor's reason.
    assert why.tolist() == [None, "no_crossing", None]
    assert np.isnan(phi[1])
    assert np.array_equal(phi[[0, 2]], square.values([[2.0], [3.0]]))
    assert phi[[0, 2]] == pytest.approx(np.exp(2.0 - 2.0 / np.array([2.0, 3.0])))
    for certify in (square.values, lambda x: ke.koopman_residual(square, x, 0.1)):
        with pytest.raises(ke.NotInDomainError) as info:
            certify(pts)
        assert info.value.reason == "no_crossing"
    oracle = _blowup_oracle()
    phi, why = oracle.columns(pts)
    assert why.tolist() == [None, None, None]
    assert np.array_equal(phi, oracle.values(pts))
    assert phi == pytest.approx(np.exp(-1.0 / np.array([2.0, 0.5, 3.0])))


def test_residual_random_keig_invariant(lin2d, horizontal_manifold):
    # Any data function on a transverse manifold yields a genuine eigenfunction.
    rng = np.random.default_rng(8)
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: np.cos(2 * s) + 1.5)
    eig = ke.OpenEigenfunction(0.8 + 0.3j, h, horizontal_manifold, lin2d.field, (0.0, 1.2))
    pts = []
    while len(pts) < 100:
        s = rng.uniform(0.35, 2.15)
        tau = rng.uniform(0.0, 0.9)
        pts.append(ke.flow(lin2d.field, horizontal_manifold.embed(s), tau))
    assert ke.koopman_residual(eig, pts, 0.1) <= 1e-6


def test_residual_numeric_field_invariant():
    system = ke.make_system("vdp")
    mani = system.default_manifold
    h = ke.DataFunction.from_callable(mani, lambda s: s + 0.3)
    eig = ke.OpenEigenfunction(1.2, h, mani, system.field, (0.0, 2.0), tol=1e-9)
    rng = np.random.default_rng(9)
    pts = []
    while len(pts) < 30:
        s = rng.uniform(mani.s_min + 0.05, mani.s_max - 0.05)
        tau = rng.uniform(0.1, 1.8)
        pts.append(ke.flow(system.field, mani.embed(s), tau, 1e-10))
    assert ke.koopman_residual(eig, pts, 0.1, tol=1e-9) <= 1e-4


# ---------------------------------------------------------------------------
# algebraic combination
# ---------------------------------------------------------------------------


def test_combine_square(observer_eig, unit_square_points):
    sq = ke.algebraic_combine(observer_eig, 1.0, observer_eig, 1.0)
    assert sq.eigenvalue == 4.0 + 0.0j
    for p in unit_square_points[::17]:
        assert complex(sq(p)) == pytest.approx(p[1] ** 2, abs=1e-7)


def test_combine_identity_factor(observer_eig, general_eig, unit_square_points):
    same = ke.algebraic_combine(observer_eig, 1.0, general_eig, 0.0)
    assert same.eigenvalue == observer_eig.eigenvalue
    for p in unit_square_points[::23]:
        assert complex(same(p)) == pytest.approx(complex(observer_eig(p)), abs=1e-12)


def test_combine_lin1d_square_root():
    system = ke.make_system("lin1d", a=1.0)
    mani = system.default_manifold
    h = ke.DataFunction.from_callable(mani, lambda s: 1.0)
    state_obs = ke.OpenEigenfunction(1.0, h, mani, system.field, (-1.0, 1.0))
    root = ke.eig_power(state_obs, 0.5)
    assert root.eigenvalue == 0.5 + 0.0j
    # Keep the short-time images inside U = [1/e, e].
    pts = np.linspace(0.5, 2.4, 25).reshape(-1, 1)
    assert ke.koopman_residual(root, pts, 0.1) <= 1e-6
    assert complex(root([2.25])) == pytest.approx(1.5, abs=1e-8)


def test_combine_branch_cut_rejection(lin2d, horizontal_manifold):
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: s - 1.2)
    eig = ke.OpenEigenfunction(2.0, h, horizontal_manifold, lin2d.field, (0.0, 1.2))
    root = ke.eig_power(eig, 0.5)
    with pytest.raises(ke.BranchCutError):
        root([0.5, 1.0])  # h < 0 there: no real square root
    cube = ke.eig_power(eig, 3.0)
    assert complex(cube([0.5, 1.0])) == pytest.approx((0.5 - 1.2) ** 3, abs=1e-9)
    zero = ke.ClosedFormEigenfunction(2.0, lambda x: 0.0, lin2d.field)
    with pytest.raises(ke.BranchCutError):
        ke.eig_power(zero, -1.0)([1.2, 1.0])  # negative power of zero
    spiral = ke.ClosedFormEigenfunction(1j, lambda x: 1.0 + 1.0j, lin2d.field)
    with pytest.raises(ke.BranchCutError):
        ke.eig_power(spiral, 0.5)([1.2, 1.0])  # genuinely complex base


def _refusals():
    lin1d = ke.make_system("lin1d").field
    line = ke.ClosedFormEigenfunction(1.0, lambda x: x[0], lin1d)
    zero = ke.ClosedFormEigenfunction(1.0, lambda x: 0.0, lin1d)
    lin2d = ke.make_system("lin2d")
    mani = lin2d.default_manifold
    h = ke.DataFunction.from_callable(mani, lambda s: s)
    return {
        "nan_eigenvalue_open": (
            lambda: ke.OpenEigenfunction(math.nan, h, mani, lin2d.field, (-1.0, 1.0)),
            ValueError,
            "eigenvalue must be finite",
        ),
        "inf_eigenvalue_closed_form": (
            lambda: ke.ClosedFormEigenfunction(complex(1.0, math.inf), lambda x: x[0], lin1d),
            ValueError,
            "eigenvalue must be finite",
        ),
        "nan_power": (lambda: ke.eig_power(line, math.nan), ValueError, "eigenvalue must be finite"),
        "inf_combine": (
            lambda: ke.algebraic_combine(line, 1.0, line, -math.inf),
            ValueError,
            "eigenvalue must be finite",
        ),
        "overflowing_power": (  # finite exponent, eigenvalue 2e308
            lambda: ke.eig_power(ke.eig_power(line, 2.0), 1e308),
            ValueError,
            "eigenvalue must be finite",
        ),
        "negative_root_of_zero": (
            lambda: ke.eig_power(zero, -0.5)([1.0]), ke.BranchCutError, "negative power of zero"
        ),
        "no_factors": (lambda: ke.ProductEigenfunction(()), ValueError, "at least one factor"),
        "levelsets_on_the_line": (
            lambda: ke.levelset_transversality(line, line, [[1.0]]),
            ValueError,
            "defined for planar states",
        ),
    }


@pytest.mark.parametrize("case", sorted(_refusals()))
def test_bad_eigenfunction_arguments_are_refused(case):
    call, cls, match = _refusals()[case]
    with pytest.raises(cls, match=match) as info:
        call()
    assert type(info.value) is cls


def test_combine_requires_shared_field(observer_eig):
    other = ke.make_system("vdp")
    stranger = ke.ClosedFormEigenfunction(1.0, lambda x: 1.0, other.field)
    with pytest.raises(ValueError):
        ke.algebraic_combine(observer_eig, 1.0, stranger, 1.0)


def test_semigroup_residual_consistency(lin2d, horizontal_manifold, unit_square_points):
    h1 = ke.DataFunction.from_callable(horizontal_manifold, lambda s: 1.0)
    h2 = ke.DataFunction.from_callable(horizontal_manifold, lambda s: s + 2.0)
    e1 = ke.OpenEigenfunction(2.0, h1, horizontal_manifold, lin2d.field, (-0.1, 1.1))
    e2 = ke.OpenEigenfunction(1.0, h2, horizontal_manifold, lin2d.field, (-0.1, 1.1))
    pts = unit_square_points[::7]
    base = max(
        ke.koopman_residual(e1, pts, 0.1), ke.koopman_residual(e2, pts, 0.1)
    )
    combo = ke.algebraic_combine(e1, 2.0, e2, 1.5)
    assert combo.eigenvalue == pytest.approx(2.0 * 2.0 + 1.5 * 1.0)
    assert ke.koopman_residual(combo, pts, 0.1) <= 5.0 * base + 1e-8


# ---------------------------------------------------------------------------
# orbit scaling
# ---------------------------------------------------------------------------


def test_orbit_scaling_zero_hop(observer_eig):
    assert ke.koopman_residual(observer_eig, [[1.5, 1.5]], 0.0) == 0.0


def test_orbit_scaling_linear(observer_eig):
    assert ke.koopman_residual(observer_eig, [[1.3, 1.2]], 0.3) <= 1e-8


def test_orbit_scaling_backward_hop(observer_eig):
    assert ke.koopman_residual(observer_eig, [[1.3, 2.5]], -0.2) <= 1e-8


# ---------------------------------------------------------------------------
# data restatement
# ---------------------------------------------------------------------------


def test_restate_identity(lin2d, horizontal_manifold, general_eig):
    restated = ke.restate_data(general_eig, horizontal_manifold)
    original = ke.DataFunction.from_callable(horizontal_manifold, lambda s: s)
    assert np.allclose(restated.values, original.values, atol=1e-9)


def test_restate_between_axis_curves_matches_formula(lin2d):
    # Data on the vertical curve {x1 = 1} restated on the horizontal curve
    # {x2 = 1}: for the diagonal system with a = (1, 2) the transport law is
    # h~(s) = h(s^(-a2/a1)) * s^(lambda/a1).
    lam = 1.3
    vman = ke.segment_manifold((1.0, 0.2), (1.0, 0.9), n=161, s_range=(0.2, 0.9))
    hv = ke.DataFunction.from_callable(vman, lambda s: s + 0.5)
    veig = ke.OpenEigenfunction(lam, hv, vman, lin2d.field, (-1.0, 1.0))
    target = ke.segment_manifold((1.06, 1.0), (1.9, 1.0), n=161, s_range=(1.06, 1.9))
    restated = ke.restate_data(veig, target)
    s = target.parameter_grid()
    assert np.max(np.abs(restated.values - (s ** (-2.0) + 0.5) * s**lam)) < 1e-6
    # And the reverse direction: horizontal data read on a vertical curve is
    # h~(s) = h(s^(-a1/a2)) * s^(lambda/a2).
    hman = ke.segment_manifold((0.25, 1.0), (2.2, 1.0), n=181, s_range=(0.25, 2.2))
    hh = ke.DataFunction.from_callable(hman, lambda s: np.cos(s))
    heig = ke.OpenEigenfunction(lam, hh, hman, lin2d.field, (-1.0, 1.0))
    vt = ke.segment_manifold((1.0, 1.1), (1.0, 3.5), n=161, s_range=(1.1, 3.5))
    restated_v = ke.restate_data(heig, vt)
    sv = vt.parameter_grid()
    assert np.max(
        np.abs(restated_v.values - sv ** (lam / 2.0) * np.cos(sv ** (-0.5)))
    ) < 1e-6


def test_restate_rebuild_agrees_on_overlap(lin2d):
    lam = 1.3
    vman = ke.segment_manifold((1.0, 0.2), (1.0, 0.9), n=161, s_range=(0.2, 0.9))
    hv = ke.DataFunction.from_callable(vman, lambda s: s + 0.5)
    veig = ke.OpenEigenfunction(lam, hv, vman, lin2d.field, (-1.0, 1.0))
    target = ke.segment_manifold((1.06, 1.0), (1.9, 1.0), n=161, s_range=(1.06, 1.9))
    rebuilt = ke.OpenEigenfunction(
        lam, ke.restate_data(veig, target), target, lin2d.field, (-0.5, 0.5)
    )
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        p = np.array([rng.uniform(1.2, 1.8), rng.uniform(1.0, 1.25)])
        worst = max(worst, abs(complex(rebuilt(p)) - complex(veig(p))))
    assert worst < 1e-5


def test_restate_idempotent_through_intermediate(lin2d):
    lam = 0.9
    vman = ke.segment_manifold((1.0, 0.2), (1.0, 0.9), n=161, s_range=(0.2, 0.9))
    veig = ke.OpenEigenfunction(
        lam,
        ke.DataFunction.from_callable(vman, lambda s: s + 0.5),
        vman,
        lin2d.field,
        (-1.0, 1.0),
    )
    mid = ke.segment_manifold((1.06, 1.0), (1.9, 1.0), n=161, s_range=(1.06, 1.9))
    via = ke.OpenEigenfunction(
        lam, ke.restate_data(veig, mid), mid, lin2d.field, (-0.5, 0.5)
    )
    final = ke.segment_manifold((1.3, 1.44), (1.7, 1.44), n=41, s_range=(1.3, 1.7))
    once = ke.restate_data(veig, final)
    twice = ke.restate_data(via, final)
    assert np.max(np.abs(once.values - twice.values)) < 1e-5


# ---------------------------------------------------------------------------
# level-set transversality
# ---------------------------------------------------------------------------


def test_levelset_power_shares_level_sets(observer_eig, unit_square_points):
    squared = ke.eig_power(observer_eig, 2.0)
    vals = ke.levelset_transversality(observer_eig, squared, unit_square_points)
    assert np.all(vals <= 1e-5)
    cubed = ke.eig_power(observer_eig, 3.0)
    assert ke.same_primary_class(observer_eig, cubed, unit_square_points)


def test_levelset_hand_value(observer_eig, general_eig):
    vals = ke.levelset_transversality(general_eig, observer_eig, np.array([[1.0, 1.0]]))
    assert vals[0] == pytest.approx(1.0, abs=1e-4)


def test_levelset_scalar_multiple(lin2d, observer_eig, unit_square_points):
    tripled = ke.ClosedFormEigenfunction(
        observer_eig.eigenvalue, lambda x: 3.0 * observer_eig.values(x.T), lin2d.field
    )
    vals = ke.levelset_transversality(observer_eig, tripled, unit_square_points)
    assert np.all(vals <= 1e-5)


def test_levelset_detects_distinct_classes(observer_eig, general_eig, unit_square_points):
    vals = ke.levelset_transversality(observer_eig, general_eig, unit_square_points)
    # Analytic value sqrt(x2) >= 1 on the square.
    assert np.mean(vals >= 0.1) >= 0.9
    assert not ke.same_primary_class(observer_eig, general_eig, unit_square_points)


@pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
def test_levelset_of_no_points_is_empty(observer_eig, general_eig, points):
    vals = ke.levelset_transversality(observer_eig, general_eig, points)
    assert vals.shape == (0,)
    assert ke.same_primary_class(observer_eig, general_eig, points)


def test_levelset_stencil_domain_violation(lin2d, horizontal_manifold):
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: 1.0)
    one_sided = ke.OpenEigenfunction(2.0, h, horizontal_manifold, lin2d.field, (0.0, 1.1))
    with pytest.raises(ke.NotInDomainError):
        ke.levelset_transversality(one_sided, one_sided, np.array([[1.5, 1.0]]))


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("marched", [False, True], ids=["exact", "rk45"])
def test_evaluate_points_marks_out_of_domain(observer_eig, marched):
    eig = observer_eig
    if marched:
        eig = dataclasses.replace(eig, field=dataclasses.replace(eig.field, closed_form_flow=None))
    phi, r_star, s_star, why = ke.evaluate_points(eig, [[1.5, 2.0], [1.0, 50.0]])
    assert phi.shape == r_star.shape == s_star.shape == why.shape == (2,)
    assert not np.isnan([phi[0], r_star[0], s_star[0]]).any()
    assert np.isnan([phi[1], r_star[1], s_star[1]]).all()
    assert why.tolist() == [None, "no_crossing"]
    assert phi[0] == pytest.approx(2.0, abs=1e-8)
    assert r_star[0] == pytest.approx(math.log(2.0) / 2.0, abs=1e-8)
