import math

import numpy as np
import pytest

import koopeig as ke
from koopeig.decomposition import (
    CharacteristicGrid,
    TargetSample,
    fit_h,
    greedy_decompose,
    sweep_lambda,
)


@pytest.fixture(scope="module")
def small_grid(lin2d):
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=9, s_range=(1.0, 2.0))
    return ke.build_grid(lin2d.field, mani, (0.0, 1.0), 8, 6)


def _bare_grid(field, s_nodes, r_nodes):
    """Grid shell for pure least-squares tests (points unused by fit_h)."""
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=len(s_nodes), s_range=(1.0, 2.0))
    pts = np.zeros((len(s_nodes), len(r_nodes), 2))
    return CharacteristicGrid(
        np.asarray(s_nodes, float), np.asarray(r_nodes, float), pts, field,
        mani, (float(r_nodes[0]), float(r_nodes[-1])),
    )


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_grid_closed_form_corner(lin2d):
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=3, s_range=(1.0, 2.0))
    grid = ke.build_grid(lin2d.field, mani, (0.0, 1.0), 2, 2)
    assert np.allclose(grid.points[0, 2], [math.e, math.e**2], atol=1e-8)
    assert grid.s_nodes.size == 3 and grid.r_nodes.size == 3


def test_grid_zero_window_is_manifold(lin2d):
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=5, s_range=(1.0, 2.0))
    grid = ke.build_grid(lin2d.field, mani, (0.0, 0.0), 4, 0)
    assert grid.points.shape == (5, 1, 2)
    assert np.allclose(grid.points[:, 0], mani.sample_points())


def test_grid_anchor_column_exact(lin2d):
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=5, s_range=(1.0, 2.0))
    grid = ke.build_grid(lin2d.field, mani, (0.0, 1.0), 4, 4)
    assert np.array_equal(grid.points[:, 0], mani.sample_points())


def test_grid_column_continuation_matches_direct_flow():
    system = ke.make_system("vdp")
    mani = system.default_manifold.with_samples(5)
    tol = 1e-10
    grid = ke.build_grid(system.field, mani, (0.0, 1.6), 4, 8, tol)
    for i in range(5):
        for j in [3, 8]:
            direct = ke.flow(
                system.field, mani.embed(grid.s_nodes[i]), grid.r_nodes[j], tol
            ).state
            assert np.max(np.abs(grid.points[i, j] - direct)) <= 100 * tol


def test_grid_negative_window(lin2d):
    mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=3, s_range=(1.0, 2.0))
    grid = ke.build_grid(lin2d.field, mani, (-0.5, 0.5), 2, 4)
    assert grid.r_nodes[0] == -0.5
    expect = np.array([1.0, 1.0]) * np.exp(np.array([1.0, 2.0]) * -0.5)
    assert np.allclose(grid.points[0, 0], expect, atol=1e-9)


def test_grid_blowup_propagates():
    system = ke.make_system("blowup")
    with pytest.raises(ke.BlowUpError):
        ke.build_grid(system.field, system.default_manifold, (0.0, 1.5), 0, 4)


# ---------------------------------------------------------------------------
# least squares fit
# ---------------------------------------------------------------------------


def test_fit_exact_representability(lin2d, small_grid):
    lam = 1.7
    e = np.exp(lam * small_grid.r_nodes)
    target = TargetSample(np.tile(e, (small_grid.n_s, 1)).astype(complex))
    fit = fit_h(small_grid, target, lam)
    assert np.allclose(fit.h_values, 1.0, atol=1e-12)
    assert fit.residual_norm <= 1e-12


def test_fit_hand_example_lambda_zero(lin2d):
    grid = _bare_grid(lin2d.field, [0.0], [0.0, 1.0])
    fit = fit_h(grid, TargetSample(np.array([[1.0, 3.0]], dtype=complex)), 0.0)
    assert fit.h_values[0] == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_norm == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_fit_hand_example_lambda_one(lin2d):
    grid = _bare_grid(lin2d.field, [0.0], [0.0, 1.0])
    fit = fit_h(grid, TargetSample(np.array([[0.0, math.e]], dtype=complex)), 1.0)
    expect = math.e**2 / (1.0 + math.e**2)
    assert fit.h_values[0] == pytest.approx(expect, abs=1e-12)  # ~0.880797
    assert fit.residual_norm**2 == pytest.approx(expect, abs=1e-12)


def test_fit_decoupled_matches_dense(lin2d, dense_fit_h):
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, m = int(rng.integers(0, 20)), int(rng.integers(1, 20))
        grid = _bare_grid(
            lin2d.field, np.linspace(0, 1, n + 1), np.linspace(0, 1.5, m + 1)
        )
        q = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
        lam = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        a = fit_h(grid, TargetSample(q), lam)
        b = dense_fit_h(grid, TargetSample(q), lam)
        assert np.max(np.abs(a.h_values - b.h_values)) <= 1e-10
        assert abs(a.residual_norm - b.residual_norm) <= 1e-10


def test_fit_global_optimality_under_perturbation(lin2d, small_grid):
    rng = np.random.default_rng(4)
    q = rng.normal(size=(small_grid.n_s, small_grid.n_r)) + 0j
    target = TargetSample(q)
    lam = 0.8
    fit = fit_h(small_grid, target, lam)
    e = np.exp(lam * small_grid.r_nodes)
    scale = max(np.abs(fit.h_values).max(), 1.0)
    for _ in range(100):
        delta = (rng.normal(size=fit.h_values.shape) + 1j * rng.normal(size=fit.h_values.shape))
        h_prime = fit.h_values + 1e-3 * scale * delta
        res = np.linalg.norm(np.outer(h_prime, e) - q)
        assert res >= fit.residual_norm - 1e-12


def test_fit_degenerate_column_flags_zero(lin2d):
    grid = _bare_grid(lin2d.field, [0.0, 1.0], [0.9, 1.5, 2.0])
    target = TargetSample(np.ones((2, 3), dtype=complex))
    fit = fit_h(grid, target, -400.0)
    assert fit.degenerate
    assert np.array_equal(fit.h_values, np.zeros(2))
    overflow = fit_h(grid, target, 400.0)  # e^(lambda r) overflows
    assert overflow.residual_norm == math.inf and not overflow.degenerate
    assert sweep_lambda(grid, target, [400.0, 1.0]).best_lambda == 1.0
    with pytest.raises(OverflowError):
        sweep_lambda(grid, target, [400.0, 500.0])


def test_flatten_order_matches_kronecker_blocks(lin2d):
    grid = _bare_grid(lin2d.field, [0.0, 1.0, 2.0], [0.0, 0.5])
    q = np.arange(6, dtype=complex).reshape(3, 2)
    b = TargetSample(q).b
    # Block j of b must be q[:, j] to match (E kron I) h stacking.
    assert np.array_equal(b[:3], q[:, 0])
    assert np.array_equal(b[3:], q[:, 1])


# ---------------------------------------------------------------------------
# eigenvalue sweep
# ---------------------------------------------------------------------------


def test_sweep_selects_true_eigenvalue(lin2d, small_grid):
    lam = 2.0
    h = np.cos(small_grid.s_nodes) + 1.5
    target = TargetSample(np.outer(h, np.exp(lam * small_grid.r_nodes)).astype(complex))
    sweep = sweep_lambda(small_grid, target, [1.0, 2.0, 3.0])
    assert sweep.best_lambda == 2.0 + 0.0j
    assert sweep.best_fit.residual_norm <= 1e-8 * np.linalg.norm(target.b)


def test_sweep_single_candidate(lin2d, small_grid):
    target = TargetSample(np.ones((small_grid.n_s, small_grid.n_r), dtype=complex))
    sweep = sweep_lambda(small_grid, target, [0.7])
    assert sweep.best_lambda == 0.7 + 0.0j
    assert sweep.residual_curve.shape == (1,)


def test_sweep_curve_dominates_best(lin2d, small_grid):
    rng = np.random.default_rng(6)
    target = TargetSample(rng.normal(size=(small_grid.n_s, small_grid.n_r)) + 0j)
    sweep = sweep_lambda(small_grid, target, np.linspace(-2, 2, 21))
    assert np.all(sweep.residual_curve >= sweep.best_fit.residual_norm - 1e-14)


def test_sweep_tie_breaks_to_smallest_magnitude(lin2d, small_grid):
    target = TargetSample(np.zeros((small_grid.n_s, small_grid.n_r), dtype=complex))
    sweep = sweep_lambda(small_grid, target, [3.0, -2.0, 2.0, 1.0])
    assert sweep.best_lambda == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# greedy decomposition
# ---------------------------------------------------------------------------


def test_greedy_exact_target_single_term(lin2d, small_grid):
    cands = np.linspace(-5, 5, 101).astype(complex)
    lam = complex(cands[60])  # ensure the true eigenvalue is in the sweep set
    h = np.exp(0.3 * small_grid.s_nodes)
    target = TargetSample(np.outer(h, np.exp(lam * small_grid.r_nodes)))
    result = greedy_decompose(small_grid, target, cands, K=5, stop_tol=1e-8)
    assert len(result.terms) == 1
    assert result.residual_norms[1] <= 1e-8 * result.residual_norms[0]
    assert result.terms[0].eigenvalue == pytest.approx(lam, abs=1e-9)


def test_greedy_residuals_monotone_and_bookkeeping(lin2d, small_grid):
    rng = np.random.default_rng(10)
    target = TargetSample(rng.normal(size=(small_grid.n_s, small_grid.n_r)) + 0j)
    result = greedy_decompose(
        small_grid, target, np.linspace(-3, 3, 41), K=6, stop_tol=1e-14
    )
    rn = result.residual_norms
    assert rn[0] == pytest.approx(np.linalg.norm(target.b), rel=1e-15)
    assert np.all(np.diff(rn) <= 0)
    assert result.reconstruction_defect() <= 1e-10
    for term in result.terms:
        assert term.coefficient >= 0
        assert np.linalg.norm(term.phi_grid) == pytest.approx(1.0, rel=1e-12)


def test_greedy_refit_of_previous_lambda_cannot_worsen(lin2d, small_grid):
    rng = np.random.default_rng(12)
    target = TargetSample(rng.normal(size=(small_grid.n_s, small_grid.n_r)) + 0j)
    result = greedy_decompose(
        small_grid, target, np.linspace(-3, 3, 21), K=3, stop_tol=1e-14
    )
    residual_target = TargetSample(result.final_residual.reshape(
        (small_grid.n_s, small_grid.n_r), order="F"
    ))
    for term in result.terms:
        refit = fit_h(small_grid, residual_target, term.eigenvalue)
        assert refit.residual_norm <= result.residual_norms[-1] + 1e-12


def test_greedy_empty_target(lin2d, small_grid):
    with pytest.raises(ke.EmptyTargetError):
        greedy_decompose(
            small_grid,
            TargetSample(np.zeros((small_grid.n_s, small_grid.n_r), dtype=complex)),
            [1.0],
            K=2,
        )


def test_greedy_terms_are_certified_eigenfunctions(lin2d, small_grid):
    rng = np.random.default_rng(13)
    target = TargetSample.from_function(
        small_grid, lambda x: 3.0 * np.exp(-(x[0] ** 2 + x[1] ** 2) / 10.0)
    )
    result = greedy_decompose(
        small_grid, target, np.linspace(-3, 3, 41), K=3, stop_tol=1e-14
    )
    m = small_grid.r_nodes.size - 1
    t_hop = (small_grid.t_window[1] - small_grid.t_window[0]) / (2 * m)
    pts = [small_grid.points[i, j] for i in range(2, 7) for j in range(1, 5)]
    for term in result.terms:
        assert ke.koopman_residual(term.eigenfunction, pts, t_hop) <= 1e-3


def test_greedy_term_orbit_scaling():
    system = ke.make_system("vdp")
    mani = system.default_manifold
    grid = ke.build_grid(system.field, mani, (0.0, 2.0), 16, 16, 1e-9)
    target = TargetSample.from_function(
        grid, lambda x: 3.0 * np.exp(-(x[0] ** 2 + x[1] ** 2) / 10.0)
    )
    result = greedy_decompose(
        grid, target, np.linspace(-5, 5, 41), K=2, stop_tol=1e-12, eig_tol=1e-9
    )
    x = grid.points[8, 6]
    for term in result.terms:
        assert ke.orbit_scaling_defect(term.eigenfunction, x, 0.1, tol=1e-9) <= 1e-4


def test_greedy_complex_candidates_skip_refinement(lin2d, small_grid):
    lam = 0.5 + 0.5j
    h = np.ones(small_grid.n_s)
    target = TargetSample(np.outer(h, np.exp(lam * small_grid.r_nodes)))
    cands = np.array([0.5 + 0.5j, 1.0 + 0.0j, -0.5 - 0.5j])
    result = greedy_decompose(small_grid, target, cands, K=2, stop_tol=1e-10)
    assert result.terms[0].eigenvalue == lam
    assert result.residual_norms[-1] <= 1e-10 * result.residual_norms[0]
