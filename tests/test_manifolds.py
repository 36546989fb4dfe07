import dataclasses
import math

import numpy as np
import pytest

import koopeig as ke


def test_eval_h_constant(horizontal_manifold):
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: 1.0)
    for s in [0.3, 1.0, 2.2]:
        assert h(s) == 1.0


def test_eval_h_linear_interpolation():
    mani = ke.segment_manifold((0.0, 1.0), (1.0, 1.0), n=2, s_range=(0.0, 1.0))
    h = ke.DataFunction.from_samples(mani, [0.0, 1.0])
    assert h(0.25) == pytest.approx(0.25, abs=1e-15)


def test_eval_h_closed_form_passthrough(horizontal_manifold):
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: s**2)
    assert h(3.0) == 9.0  # closed form ignores the grid range


def test_eval_h_out_of_range():
    mani = ke.segment_manifold((0.0, 1.0), (1.0, 1.0), n=5, s_range=(0.0, 1.0))
    h = ke.DataFunction.from_samples(mani, np.ones(5))
    assert h(1.0 + 5e-10) == 1.0  # clamped inside the slack
    with pytest.raises(ke.OutOfRangeError):
        h(1.0 + 1e-6)


def test_writing_a_returned_grid_leaves_the_manifold_unchanged():
    mani = ke.segment_manifold((0.0, 1.0), (1.0, 1.0), n=5, s_range=(0.0, 1.0))
    h = ke.DataFunction.from_callable(mani, lambda s: s)
    mani.parameter_grid()[0] = mani.sample_points()[0, 0] = h.s_nodes[1] = 9.0
    assert mani.parameter_grid().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert mani.sample_points()[:2].tolist() == [[0.0, 1.0], [0.25, 1.0]]
    assert ke.point_manifold(2.0).parameter_grid().tolist() == [0.0]


LOCATE_CASES = {
    "segment-2d": lambda: ke.segment_manifold((1.0, 0.5), (2.0, 1.5), n=121),
    "segment-s_range": lambda: ke.segment_manifold(
        (0.0, 1.0), (1.0, -1.0), n=31, s_range=(-1.0, 2.0)
    ),
    "circle": lambda: ke.circle_manifold((0.3, -0.2), 2.0, n=65),
    "arc": lambda: ke.circle_manifold((0.5, -0.3), 1.5, arc=(1.0, 5.0), n=41),
    "point": lambda: ke.point_manifold(1.0),
}


def _param_gap(a, b, period):
    """|a - b|, modulo the period when the manifold wraps (period not None)."""
    gap = np.asarray(a, float) - np.asarray(b, float)
    if period is not None:
        gap = (gap + 0.5 * period) % period - 0.5 * period
    return np.abs(gap)


@pytest.mark.parametrize("case", sorted(LOCATE_CASES))
def test_locate_inverts_embed(case):
    mani = LOCATE_CASES[case]()
    period = 2.0 * math.pi if case == "circle" else None  # the one full turn
    rng = np.random.default_rng(3)
    s = np.concatenate([mani.parameter_grid(), rng.uniform(mani.s_min, mani.s_max, 50)])
    states = mani.embed(s)
    assert states.shape == (mani.dim, s.size)
    for j in range(s.size):  # one-element batches
        one = mani.embed(s[j : j + 1])
        assert np.array_equal(one, states[:, j : j + 1])
        located = mani.locate(one)
        assert located.shape == (1,)
        assert _param_gap(located[0], s[j], period) <= 1e-12
    batch = mani.locate(states)
    assert batch.shape == s.shape
    assert np.max(_param_gap(batch, s, period)) <= 1e-12


def test_locate_off_the_manifold_goes_to_the_nearest_point():
    seg = LOCATE_CASES["segment-2d"]()  # from p0 = (1, 0.5) to p1 = (2, 1.5)
    p0, p1 = np.array([1.0, 0.5]), np.array([2.0, 1.5])
    assert seg.locate(p1 + 0.3 * (p1 - p0)) == seg.s_max
    assert seg.locate(p0 - 0.2 * (p1 - p0)) == seg.s_min
    assert seg.locate(seg.embed(0.7) + 0.4 * np.array([-1.0, 1.0])) == pytest.approx(0.7, abs=1e-12)
    arc = LOCATE_CASES["arc"]()  # the gap (5, 1 + 2 pi) is centred on 6.14

    def at(angle, r=1.5):
        return np.array([0.5, -0.3]) + r * np.array([math.cos(angle), math.sin(angle)])

    assert arc.locate(at(5.05, r=2.0)) == 5.0  # just past a1
    assert arc.locate(at(7.0, r=0.5)) == 1.0  # nearer a0
    assert arc.locate(np.stack([at(5.05), at(7.0)], axis=1)).tolist() == [5.0, 1.0]


def test_data_function_samples_match_closed_form(horizontal_manifold):
    fn = lambda s: np.sin(s) + 0.5j * s
    h = ke.DataFunction.from_callable(horizontal_manifold, fn)
    grid = horizontal_manifold.parameter_grid()
    assert np.array_equal(h.values, np.array([fn(s) for s in grid]))


def test_data_function_rejects_nonfinite():
    mani = ke.segment_manifold((0.0, 1.0), (1.0, 1.0), n=3, s_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        ke.DataFunction.from_samples(mani, [1.0, np.nan, 1.0])
    for grid in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="parameter grid must be finite"):
            ke.DataFunction(np.array(grid), np.ones(2))


@pytest.mark.parametrize(
    "center,radius,arc",
    [
        ((0.0, 0.0), math.nan, (0.0, math.pi)),
        ((0.0, 0.0), math.inf, (0.0, 2.0 * math.pi)),
        ((math.nan, 0.0), 1.0, (0.0, math.pi)),
        ((0.0, 0.0), 1.0, (0.0, math.nan)),
        # A box 2e308 wide, and one whose samples reach 2e308.
        ((0.0, 0.0), 1e308, (0.0, 2.0 * math.pi)),
        ((1e308, 0.0), 1e308, (0.0, 2.0 * math.pi)),
    ],
)
def test_circle_manifold_refuses_non_finite_input(center, radius, arc):
    with pytest.raises(ValueError, match="must be finite"):
        ke.circle_manifold(center, radius, arc=arc)


def test_a_circle_whose_box_is_finite_has_a_finite_extent():
    # The box is 2e307 wide each way: its diagonal is finite, the sum of the
    # squares of its sides is not.
    assert ke.circle_manifold((0.0, 0.0), 1e307).extent == pytest.approx(2e307 * math.sqrt(2.0))
    assert ke.circle_manifold((1e308, 0.0), 1e300).extent == pytest.approx(2e300 * math.sqrt(2.0))


@pytest.mark.parametrize("ends", [((math.nan, 1.0), (2.0, 1.0)), ((0.0, 1.0), (math.inf, 1.0))])
def test_segment_manifold_refuses_non_finite_ends(ends):
    with pytest.raises(ValueError, match="the segment's ends must be finite"):
        ke.segment_manifold(*ends)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_point_manifold_refuses_a_non_finite_point(x0):
    with pytest.raises(ValueError, match="the point must be finite"):
        ke.point_manifold(x0)


def _line(s):
    return np.stack([s, np.zeros_like(s)])


@pytest.mark.parametrize(
    "call,cls,match",
    [
        (lambda: ke.DataManifold(_line, 0.0, 1.0, 0, 2), ValueError, "n_samples must be >= 1"),
        (lambda: ke.DataManifold(_line, 1.0, 0.0, 5, 2), ValueError, "s_max must be >= s_min"),
        (lambda: ke.circle_manifold((0.0, 0.0, 0.0), 1.0), ValueError, "live in the plane"),
        (lambda: ke.circle_manifold((0.0, 0.0), 0.0), ValueError, "radius must be positive"),
        (
            lambda: ke.DataFunction(np.array([0.0, 1.0]), np.ones(3)),
            ValueError,
            "values must match the parameter grid",
        ),
        (
            lambda: ke.DataFunction.from_samples(ke.point_manifold(1.0).with_samples(3), [1.0]),
            ke.GridMismatchError,
            "expected 3 samples",
        ),
        (
            lambda: ke.check_transversality(ke.point_manifold(1.0), ke.make_system("lin2d").field),
            ValueError,
            "manifold and field dimensions differ",
        ),
    ],
    ids=[
        "no_samples", "reversed_range", "circle_in_space", "zero_radius",
        "values_off_the_grid", "too_few_samples", "dimensions_differ",
    ],
)
def test_bad_manifold_arguments_are_refused(call, cls, match):
    with pytest.raises(cls, match=match) as info:
        call()
    assert type(info.value) is cls


def test_transversality_horizontal_line_pass(lin2d, horizontal_manifold):
    report = ke.check_transversality(horizontal_manifold, lin2d.field)
    assert report.passed
    # Hand determinant: det[(1,0), (s, 2)] = 2, normalized by |F| |tangent|.
    grid = horizontal_manifold.parameter_grid()
    expect = 2.0 / np.sqrt(grid**2 + 4.0)
    assert np.allclose(report.margins, expect, rtol=1e-12)


def test_transversality_trajectory_arc_fails(lin2d):
    # A manifold laid along an orbit is parallel to the field everywhere.
    arc = ke.DataManifold(
        embed=lambda s: np.array([np.exp(s), np.exp(2.0 * s)]),
        s_min=0.0,
        s_max=0.5,
        n_samples=41,
        dim=2,
        tangent=lambda s: np.array([np.exp(s), 2.0 * np.exp(2.0 * s)]),
    )
    report = ke.check_transversality(arc, lin2d.field)
    assert not report.passed
    assert report.min_margin < 1e-12
    assert report.violations.size == 41


def test_transversality_zero_field(lin2d):
    through_origin = ke.segment_manifold(
        (-1.0, 0.0), (1.0, 0.0), n=41, s_range=(-1.0, 1.0)
    )
    with pytest.raises(ke.ZeroFieldError):
        ke.check_transversality(through_origin, lin2d.field)


class _CountingField:
    """A field whose rhs records the shape of every batch it receives."""

    def __init__(self, field):
        self.dim, self.name, self.shapes = field.dim, field.name, []
        self._rhs = field.rhs

    def rhs(self, x):
        self.shapes.append(np.shape(x))
        return self._rhs(x)


def test_transversality_makes_one_batched_rhs_call(lin2d, horizontal_manifold):
    field = _CountingField(lin2d.field)
    report = ke.check_transversality(horizontal_manifold, field)
    assert report.passed
    assert field.shapes == [(2, horizontal_manifold.n_samples)]


def test_transversality_is_refused_above_the_plane():
    field = ke.VectorField(
        3, lambda x: np.stack([np.zeros_like(x[0]), np.zeros_like(x[0]), np.ones_like(x[0])])
    )
    # segment_manifold refuses 3-D endpoints, so this segment is built by hand.
    segment = ke.DataManifold(
        embed=lambda s: np.multiply.outer([1.0, 0.0, 0.0], s),
        s_min=0.0,
        s_max=1.0,
        n_samples=11,
        dim=3,
        tangent=lambda s: np.multiply.outer([1.0, 0.0, 0.0], np.ones_like(s)),
    )
    with pytest.raises(ValueError, match="plane"):
        ke.check_transversality(segment, field)


def test_transversality_needs_the_tangent_of_a_planar_manifold(lin2d, horizontal_manifold):
    no_tangent = dataclasses.replace(horizontal_manifold, tangent=None)
    with pytest.raises(ValueError, match="tangent"):
        ke.check_transversality(no_tangent, lin2d.field)


def test_transversality_point_manifold_1d():
    sysb = ke.make_system("blowup")
    report = ke.check_transversality(sysb.default_manifold, sysb.field)
    assert report.passed


@pytest.mark.parametrize(
    "h_fn,ht_fn,expect",
    [
        (lambda s: 1.0, lambda s: 1.0, 0.0),
        (lambda s: 2.5, lambda s: -3.0 + 1.0j, 0.0),
        (lambda s: 1.0, lambda s: s, 1.0),
    ],
)
def test_data_compatibility_examples(h_fn, ht_fn, expect):
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=41, s_range=(1.0, 2.0))
    h = ke.DataFunction.from_callable(mani, h_fn)
    ht = ke.DataFunction.from_callable(mani, ht_fn)
    assert ke.data_compatibility(h, ht) == pytest.approx(expect, abs=1e-10)


def test_data_compatibility_antisymmetric_magnitude():
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=65, s_range=(1.0, 2.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=65) + 1j * rng.normal(size=65)
        b = rng.normal(size=65) + 1j * rng.normal(size=65)
        h = ke.DataFunction.from_samples(mani, a)
        ht = ke.DataFunction.from_samples(mani, b)
        assert ke.data_compatibility(h, ht) == pytest.approx(
            ke.data_compatibility(ht, h), rel=1e-12
        )


def test_data_compatibility_scalar_multiples_vanish():
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=65, s_range=(1.0, 2.0))
    rng = np.random.default_rng(3)
    values = rng.normal(size=65) + 1j * rng.normal(size=65)
    h = ke.DataFunction.from_samples(mani, values)
    for alpha in [2.0, -0.7, 1.3 - 0.4j]:
        ht = ke.DataFunction.from_samples(mani, alpha * values)
        assert ke.data_compatibility(h, ht) <= 1e-10 * max(1.0, abs(alpha)) * np.abs(values).max() ** 2


def test_data_compatibility_grid_mismatch():
    m1 = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=11, s_range=(1.0, 2.0))
    m2 = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=12, s_range=(1.0, 2.0))
    h1 = ke.DataFunction.from_samples(m1, np.ones(11))
    h2 = ke.DataFunction.from_samples(m2, np.ones(12))
    with pytest.raises(ke.GridMismatchError):
        ke.data_compatibility(h1, h2)


def test_circle_manifold_geometry():
    circ = ke.circle_manifold((1.0, -2.0), 3.0, arc=(0.0, math.pi), n=7)
    p = circ.embed(math.pi / 2.0)
    assert np.allclose(p, [1.0, 1.0])
    assert circ.surface(np.array([5.0, -2.0])) == pytest.approx(1.0)
    assert circ.surface(np.array([1.0, -2.0])) == pytest.approx(-3.0)


def test_segment_custom_parameter_range():
    seg = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=3, s_range=(0.3, 2.2))
    assert np.allclose(seg.embed(1.7), [1.7, 1.0])
    assert seg.surface(np.array([0.6, 1.4])) == pytest.approx(0.4)


def test_with_samples_returns_resized_copy(horizontal_manifold):
    finer = horizontal_manifold.with_samples(41)
    assert finer.n_samples == 41
    assert finer.parameter_grid().size == 41
    assert np.allclose(finer.embed(1.0), horizontal_manifold.embed(1.0))


def test_extent_is_cached_and_with_samples_gets_a_fresh_one():
    # Three samples of a full circle of radius 2 span a 4 x 0 box; 181 span 4 x 4.
    circ = ke.circle_manifold((0.0, 0.0), 2.0, n=181)
    extent = circ.extent
    assert extent == pytest.approx(4.0 * math.sqrt(2.0))
    assert circ.extent is extent  # computed once
    coarse = circ.with_samples(3)
    assert coarse.extent == pytest.approx(4.0)
    assert circ.extent is extent
    traced = dataclasses.replace(circ, surface=circ.surface)
    assert traced.extent == pytest.approx(extent) and traced.extent is not extent
