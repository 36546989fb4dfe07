import numpy as np
import pytest

import koopeig as ke
from koopeig.decomposition import FitResult


@pytest.fixture(scope="session")
def lin2d():
    return ke.make_system("lin2d", a1=1.0, a2=2.0)


@pytest.fixture(scope="session")
def horizontal_manifold():
    # x2 = 1 line parameterized by s = x1.
    return ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=121, s_range=(0.3, 2.2))


@pytest.fixture(scope="session")
def observer_eig(lin2d, horizontal_manifold):
    """phi = x2 built by pullback: h = 1, lambda = a2 = 2, two-sided window."""
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: 1.0)
    return ke.OpenEigenfunction(
        2.0, h, horizontal_manifold, lin2d.field, (-0.1, 1.1)
    )


@pytest.fixture(scope="session")
def general_eig(lin2d, horizontal_manifold):
    """phi = x1 * sqrt(x2): h(s) = s with the same eigenvalue."""
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: s)
    return ke.OpenEigenfunction(
        2.0, h, horizontal_manifold, lin2d.field, (-0.1, 1.1)
    )


@pytest.fixture(scope="session")
def dense_fit_h():
    """Reference for ``fit_h``: assemble E(lambda) kron I and call a generic solver."""

    def fit(grid, target, lam):
        e = np.exp(complex(lam) * grid.r_nodes)
        a = np.kron(e.reshape(-1, 1), np.eye(grid.n_s))
        h = np.linalg.lstsq(a, target.b, rcond=None)[0]
        residual = float(np.linalg.norm(np.outer(h, e) - target.q_values))
        return FitResult(complex(lam), h, residual, False)

    return fit


@pytest.fixture(scope="session")
def unit_square_points():
    xs = np.linspace(1.0, 2.0, 10)
    return np.array([[a, b] for a in xs for b in xs])


@pytest.fixture(scope="session")
def sink_off_segment():
    """x1' = 1, x2' = -x2^2 and the segment x1 = 0, 0 <= x2 <= 1 (s = x2).

    Back from (x1, x2) with x2 > 0 the orbit crosses the line x1 = 0 at
    tau = x1, at x2 / (1 - x2 x1), and escapes at tau = 1 / x2: from
    (0.5, 1.5) it crosses at x2 = 6, off the segment, and escapes at
    tau = 2/3.
    """

    def rhs(x):
        return np.stack([np.ones_like(x[0]), -x[1] * x[1]])

    def closed(x, t):
        denom = 1.0 + x[1] * t
        return np.stack([x[0] + t, np.where(denom > 0.0, x[1] / denom, np.inf)])

    field = ke.VectorField(2, rhs, name="sink", closed_form_flow=closed)
    return field, ke.segment_manifold((0.0, 0.0), (0.0, 1.0), s_range=(0.0, 1.0))
