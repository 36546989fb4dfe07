import math

import numpy as np
import pytest

import koopeig as ke
from koopeig.spectrum import loglog_slope


def test_support_validation():
    ke.ApproxEig(1.0, 16, (0.25, 4.0))
    with pytest.raises(ke.OutOfRangeError):
        ke.ApproxEig(0.26, 16, (0.25, 4.0))  # support dips below the annulus
    with pytest.raises(ValueError):
        ke.ApproxEig(1.0, 0, (0.25, 4.0))
    # n is an integer in the float range: a bool, a fraction or an int past
    # the largest float is refused, not truncated or overflowed.
    for n in (4.5, True, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ke.ApproxEig(1.0, n, (0.25, 4.0))
    with pytest.raises(ValueError, match="got 4.5"):
        ke.scaling_fit(1.0, 1.0, [4.5, 8])
    for n in (np.int64(16), 16.0):
        ke.ApproxEig(1.0, n, (0.25, 4.0))


def test_residual_zero_at_t0():
    ae = ke.ApproxEig(1.0, 16, (0.25, 4.0))
    assert ke.approx_eig_residual(ae, 0.0).relative_residual == 0.0


def _relative_oracle(x):
    """sqrt(2 (1 - sin x / x)), the series of 1 - sin x / x summed with fsum
    term by term: no cancellation for |x| <= 1."""
    terms = [(-1) ** (k + 1) * x ** (2 * k) / math.factorial(2 * k + 1) for k in range(1, 12)]
    return math.sqrt(2.0 * math.fsum(terms))


def test_residual_small_angle_oracle():
    # The relative residual is sqrt(2 (1 - sin x / x)), x = t / (2n); to
    # leading order t / (sqrt(12) n).
    for n in [4, 8, 16, 32, 64, 128, 256]:
        r = ke.approx_eig_residual(ke.ApproxEig(1.0, n, (0.25, 4.0)), 1.0)
        assert r.relative_residual == pytest.approx(_relative_oracle(0.5 / n), rel=1e-14)
        assert r.relative_residual == pytest.approx(1.0 / (math.sqrt(12.0) * n), rel=3e-3)
    # Past |x| = 1/2 the closed form is summed directly.
    for x in (0.4999, 0.5, 0.75, 1.0):
        r = ke.approx_eig_residual(ke.ApproxEig(1.0, 1, (0.0, 2.0)), 2.0 * x)
        assert r.relative_residual == pytest.approx(_relative_oracle(x), rel=1e-14)


def test_residual_closed_form_at_large_and_tiny_angles():
    # At t = 1e4 the bump of n = 4 spans x = 1250 rad of phase.
    r = ke.approx_eig_residual(ke.ApproxEig(1.0, 4, (0.25, 4.0)), 1e4)
    assert abs(r.relative_residual - math.sqrt(2.0 * (1.0 - math.sin(1250.0) / 1250.0))) <= 1e-14
    # x = 2e-5, where 1 - sin x / x keeps only 6 of its digits.
    x = 2e-5
    r = ke.approx_eig_residual(ke.ApproxEig(1.0, 1, (0.25, 4.0)), 2.0 * x)
    assert abs(r.relative_residual - x / math.sqrt(3.0) * math.sqrt(1.0 - x * x / 20.0)) <= 1e-14


def test_phi_norm_analytic():
    for n in [4, 16, 128]:
        ae = ke.ApproxEig(1.0, n, (0.25, 4.0))
        r = ke.approx_eig_residual(ae, 1.0)
        assert r.phi_norm**2 == pytest.approx(2.0 * math.pi * n, abs=1e-10)


def test_residual_halves_when_n_doubles():
    prev = None
    for n in [16, 32, 64, 128]:
        r = ke.approx_eig_residual(ke.ApproxEig(1.0, n, (0.25, 4.0)), 1.0)
        if prev is not None:
            assert prev / r.relative_residual == pytest.approx(2.0, rel=0.05)
        prev = r.relative_residual


def test_residual_invariant_under_omega_shift():
    # Exactly: the closed form does not read omega, not even at 1e15, where
    # the bump's support is a few ulps wide.
    r1 = ke.approx_eig_residual(ke.ApproxEig(1.0, 32, (0.25, 4.0)), 1.0)
    for omega in (2.5, 1e15):
        assert ke.approx_eig_residual(ke.ApproxEig(omega, 32, (0.0, 1e16)), 1.0) == r1


def test_residual_linear_in_t_small_angle():
    ae = ke.ApproxEig(1.0, 16, (0.25, 4.0))
    r_half = ke.approx_eig_residual(ae, 0.5).relative_residual
    r_one = ke.approx_eig_residual(ae, 1.0).relative_residual
    assert r_half / r_one == pytest.approx(0.5, rel=0.05)


def test_scaling_slope_near_minus_one():
    fit = ke.scaling_fit(1.0, 1.0, [4, 8, 16, 32, 64, 128, 256])
    assert -1.1 <= fit.slope <= -0.9


def test_loglog_slope_degenerate_constant():
    assert loglog_slope([4, 8, 16, 32], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_wedge_constant_data_lambda_zero():
    report = ke.wedge_point_spectrum_check([0.0], (0.2, 2.2), lambda I: 1.0)
    assert report.max_residual == 0.0


def test_wedge_closed_form_certification():
    report = ke.wedge_point_spectrum_check([1.0 + 2.0j], (0.2, 2.2), lambda I: I)
    assert report.max_residual <= 1e-8


def test_wedge_lambda_sweep():
    lams = [complex(a, b) for a in np.linspace(-2, 2, 5) for b in np.linspace(-2, 2, 5)]
    report = ke.wedge_point_spectrum_check(lams, (0.2, 2.2), lambda I: I)
    assert report.residuals.shape == (25,)
    assert report.max_residual <= 1e-8


def test_wedge_rejects_full_turn():
    with pytest.raises(ValueError):
        ke.wedge_point_spectrum_check([0.0], (0.0, 2.0 * math.pi), lambda I: 1.0)


def test_wedge_refuses_no_eigenvalues():
    with pytest.raises(ValueError, match="lambda_list must be non-empty"):
        ke.wedge_point_spectrum_check([], (0.2, 2.2), lambda I: 1.0)


def test_wedge_check_is_one_certificate_pass(monkeypatch):
    # Every eigenvalue's residual is the one koopman_residual gives for it
    # alone, bit for bit, overflow included, from one flow of the points.
    from koopeig import dynamics, eigenfunctions
    from koopeig.config import SpectrumSpec

    flows = []
    flow_lanes = dynamics._flow_lanes

    def counted(field, states, times, tol):
        flows.append(np.array(states))
        return flow_lanes(field, states, times, tol)

    for module in (dynamics, eigenfunctions):
        monkeypatch.setattr(module, "_flow_lanes", counted)
    a1 = 0.2
    lams = [complex(a, b) for a in np.linspace(-2, 2, 4) for b in np.linspace(-2, 2, 3)] + [7000.0]

    def h(action):
        return action * np.exp(1j * action)

    report = ke.wedge_point_spectrum_check(lams, (a1, 2.2), h, seed=3)
    assert len(flows) == 1
    points = flows[0]
    monkeypatch.undo()
    field = ke.make_system("action_angle").field
    for lam, residual in zip(lams, report.residuals):

        def phi(x, lam=lam):
            with np.errstate(over="ignore", invalid="ignore"):
                return h(x[0]) * np.exp(lam * (x[1] - a1) / x[0])

        alone = ke.koopman_residual(ke.ClosedFormEigenfunction(lam, phi, field), points, 0.1)
        assert np.array_equal(residual, alone, equal_nan=True), lam
    assert not np.isfinite(report.residuals[-1])

    # A 100 x 100 grid of eigenvalues, as spectrum.wedge.lambda_grid.count
    # 100 gives: still one flow.
    for module in (dynamics, eigenfunctions):
        monkeypatch.setattr(module, "_flow_lanes", counted)
    del flows[:]
    spec = SpectrumSpec.from_dict({"wedge": {"lambda_grid": {"count": 100}}})
    report = ke.wedge_point_spectrum_check(spec.lambdas, spec.alpha_window, spec.h)
    assert report.residuals.shape == (10**4,) and report.max_residual <= 1e-8
    assert len(flows) == 1


def test_scaling_fit_refuses_an_empty_n_list():
    with pytest.raises(ValueError, match="n_list must be non-empty"):
        ke.scaling_fit(1.0, 1.0, [])
