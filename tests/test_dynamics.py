import math

import numpy as np
import pytest

import koopeig as ke
from koopeig.dynamics import find_crossings


def test_flow_identity_at_t0(lin2d):
    r = ke.flow(lin2d.field, [1.0, 1.0], 0.0)
    assert np.array_equal(r.state, [1.0, 1.0])
    assert r.time_elapsed == 0.0
    assert r.steps_taken == 0


def test_flow_lin2d_closed_form_values(lin2d):
    r = ke.flow(lin2d.field, [1.0, 1.0], math.log(2.0))
    assert np.allclose(r.state, [2.0, 4.0], atol=1e-8)


def test_flow_numeric_matches_closed_form(lin2d):
    r = ke.flow(lin2d.field, [1.0, 1.0], math.log(2.0), 1e-10, method="rk45")
    assert np.allclose(r.state, [2.0, 4.0], atol=1e-8)
    assert r.steps_taken > 0
    assert r.time_elapsed == math.log(2.0)


def test_flow_blowup_both_methods():
    sysb = ke.make_system("blowup")
    with pytest.raises(ke.BlowUpError):
        ke.flow(sysb.field, [1.0], 1.0)
    with pytest.raises(ke.BlowUpError):
        ke.flow(sysb.field, [1.0], 1.0, method="rk45")


def test_flow_dimension_and_argument_checks(lin2d):
    with pytest.raises(ValueError):
        ke.flow(lin2d.field, [1.0], 1.0)
    with pytest.raises(ValueError):
        ke.flow(lin2d.field, [1.0, 1.0], math.inf)
    with pytest.raises(ValueError):
        ke.flow(lin2d.field, [1.0, 1.0], 1.0, tol=0.0)


def test_convergence_order_monotone(lin2d):
    rng = np.random.default_rng(42)
    samples = [(rng.uniform(0.5, 2.0, 2), rng.uniform(0.2, 1.5)) for _ in range(100)]

    def max_rel_err(tol):
        worst = 0.0
        for x0, t in samples:
            num = ke.flow(lin2d.field, x0, t, tol, method="rk45").state
            ref = ke.flow(lin2d.field, x0, t, method="exact").state
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
    system = ke.make_system(name)
    tol = 1e-10
    fwd = ke.flow(system.field, x0, t, tol, method="rk45").state
    back = ke.flow(system.field, fwd, -t, tol, method="rk45").state
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
        once = ke.flow(system.field, x0, t + s, method="exact").state
        twice = ke.flow(
            system.field, ke.flow(system.field, x0, s, method="exact").state, t,
            method="exact",
        ).state
        assert np.allclose(once, twice, rtol=1e-10, atol=1e-12)


def test_closed_form_matches_rk45_on_hopf():
    system = ke.make_system("hopf", mu=1.0)
    for x0, t in [([2.0, 0.5], 1.2), ([0.4, -0.3], 2.0), ([1.2, 0.3], -0.4)]:
        exact = ke.flow(system.field, x0, t, method="exact").state
        num = ke.flow(system.field, x0, t, 1e-12, method="rk45").state
        assert np.allclose(exact, num, atol=1e-9)


def test_flow_to_event_backward_linear(lin2d):
    state, tof = ke.flow_to_event(
        lin2d.field, [2.0, 4.0], lambda x: x[1] - 1.0, "backward", 5.0, 1e-10
    )
    assert abs(tof - math.log(2.0)) < 1e-8
    assert np.allclose(state, [1.0, 1.0], atol=1e-8)


def test_flow_to_event_already_on_surface(lin2d):
    state, tof = ke.flow_to_event(
        lin2d.field, [1.0, 1.0], lambda x: x[1] - 1.0, "backward", 5.0, 1e-10
    )
    assert tof == 0.0
    assert np.array_equal(state, [1.0, 1.0])


def test_flow_to_event_vdp_against_tight_oracle():
    # From (0.5, 0.5) the x2 = 2 surface is reached forward (the backward
    # orbit spirals into the origin and never gets there).
    system = ke.make_system("vdp")
    event = lambda x: x[1] - 2.0
    state, tof = ke.flow_to_event(system.field, [0.5, 0.5], event, "forward", 10.0, 1e-10)
    oracle_state, oracle_tof = ke.flow_to_event(
        system.field, [0.5, 0.5], event, "forward", 10.0, 1e-12
    )
    assert abs(tof - oracle_tof) < 1e-6
    assert np.max(np.abs(state - oracle_state)) < 1e-6
    with pytest.raises(ke.NoCrossingError):
        ke.flow_to_event(system.field, [0.5, 0.5], event, "backward", 10.0, 1e-10)


def test_flow_to_event_roundtrip():
    system = ke.make_system("vdp")
    tol = 1e-10
    state, tof = ke.flow_to_event(
        system.field, [0.5, 0.5], lambda x: x[1] - 2.0, "forward", 10.0, tol
    )
    back = ke.flow(system.field, state, -tof, tol).state
    assert np.max(np.abs(back - [0.5, 0.5])) <= 100 * tol


def test_find_crossings_counts_multiple():
    # Pure rotation meets the positive x1 axis once per revolution.
    def rhs(x):
        return np.array([-x[1], x[0]])

    field = ke.VectorField(2, rhs, name="rotation")
    hits = find_crossings(
        field, np.array([0.0, 1.0]), lambda x: x[1], sign=1.0, budget=13.0,
        tol=1e-10, max_count=4,
    )
    assert len(hits) == 4  # two full revolutions: x2 vanishes four times


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


@pytest.mark.parametrize("name", ["lin1d", "lin2d", "blowup"])
def test_benchmark_oracles_satisfy_eigen_relation(name):
    system = ke.make_system(name)
    oracle = system.oracle_eigenfunction
    assert oracle is not None
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.6, 1.8, size=(100, system.field.dim))
    assert ke.koopman_residual(oracle, pts, 0.1) <= 1e-6


def test_step_underflow_is_reported(monkeypatch):
    # Chattering across a discontinuity stalls the stepper without growth;
    # the failure surfaces as step underflow, not blow-up. A smaller step
    # budget keeps the test fast.
    def rhs(x):
        return np.where(x < 1.0, 1.0, -1.0)

    monkeypatch.setattr(ke.dynamics, "MAX_STEPS", 20_000)
    field = ke.VectorField(1, rhs, name="chatter")
    with pytest.raises(ke.StepUnderflowError):
        ke.flow(field, [0.0], 5.0, 1e-10, method="rk45")
