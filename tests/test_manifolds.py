import dataclasses
import math

import numpy as np
import pytest

import koopeig as ke
from koopeig.manifolds import check_injectivity


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


LOCATE_CASES = {
    "segment-2d": lambda: ke.segment_manifold((1.0, 0.5), (2.0, 1.5), n=121),
    "segment-3d": lambda: ke.segment_manifold(
        (0.0, 1.0, 2.0), (1.0, -1.0, 3.0), n=31, s_range=(-1.0, 2.0)
    ),
    "circle": lambda: ke.circle_manifold((0.3, -0.2), 2.0, n=65),
    "arc": lambda: ke.circle_manifold((0.5, -0.3), 1.5, arc=(1.0, 5.0), n=41),
    "point": lambda: ke.point_manifold(1.0),
}


def _param_gap(manifold, a, b):
    """|a - b|, modulo the period on a closed manifold."""
    gap = np.asarray(a, float) - np.asarray(b, float)
    if manifold.closed:
        gap = (gap + 0.5 * manifold.span) % manifold.span - 0.5 * manifold.span
    return np.abs(gap)


@pytest.mark.parametrize("case", sorted(LOCATE_CASES))
def test_locate_inverts_embed(case):
    mani = LOCATE_CASES[case]()
    rng = np.random.default_rng(3)
    s = np.concatenate([mani.parameter_grid(), rng.uniform(mani.s_min, mani.s_max, 50)])
    states = np.array([mani.embed(v) for v in s])
    for v, x in zip(s, states):
        located = mani.locate(x)
        assert isinstance(located, float)
        assert _param_gap(mani, located, v) <= 1e-12
    batch = mani.locate(states.T)
    assert batch.shape == s.shape
    assert np.max(_param_gap(mani, batch, s)) <= 1e-12


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
    segment = ke.segment_manifold((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), n=11)
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


def test_injectivity_segment_and_closed_circle():
    seg = ke.segment_manifold((0.0, 1.0), (1.0, 1.0), n=11)
    assert check_injectivity(seg)
    circle = ke.circle_manifold((0.0, 0.0), 5.0, n=65)
    assert circle.closed
    assert check_injectivity(circle)  # wrap duplicate is not a violation
    folded = ke.DataManifold(
        embed=lambda s: np.array([np.sin(math.pi * s), np.zeros_like(s)]),
        s_min=0.0,
        s_max=1.0,
        n_samples=11,
        dim=2,
    )
    assert not check_injectivity(folded)


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
    assert not circ.closed
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
