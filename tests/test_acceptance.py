"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
import pytest

import koopeig as ke
from koopeig.cli import main
from koopeig.decomposition import TargetSample, fit_h
from koopeig.decomposition import CharacteristicGrid


def _report(num, name, failed=None):
    if failed:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({failed})")
    else:
        print(f"ACCEPTANCE {num:02d} {name}: PASS")


class _criterion:
    """Prints the PASS/FAIL line for one acceptance criterion."""

    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.num, self.name, failed=exc if exc_type else None)
        return False


LATTICE = [
    np.array([a, b])
    for a in np.linspace(1.0, 2.0, 30)
    for b in np.linspace(1.0, math.e**2, 30)
]


def _horizontal_setup():
    system = ke.make_system("lin2d", a1=1.0, a2=2.0)
    mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=161, s_range=(0.3, 2.2))
    return system, mani, (0.0, 1.05)


def test_criterion_01_observer_oracle():
    with _criterion(1, "observer-function oracle"):
        system, mani, window = _horizontal_setup()
        h = ke.DataFunction.from_callable(mani, lambda s: 1.0)
        eig = ke.OpenEigenfunction(2.0, h, mani, system.field, window)
        t0 = time.perf_counter()
        values, _ = ke.evaluate_points(eig, LATTICE)
        elapsed = time.perf_counter() - t0
        assert all(v is not None for v in values)
        worst = max(
            abs(v.phi - x[1]) / abs(x[1]) for v, x in zip(values, LATTICE)
        )
        assert worst <= 1e-6, f"relative error {worst:.2e}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def test_criterion_02_general_solution_oracle():
    with _criterion(2, "general-solution oracle"):
        system, mani, window = _horizontal_setup()
        h = ke.DataFunction.from_callable(mani, lambda s: s)
        eig = ke.OpenEigenfunction(2.0, h, mani, system.field, window)
        worst = 0.0
        for x in LATTICE[:: 7]:
            expect = x[0] * math.sqrt(x[1])
            worst = max(worst, abs(complex(eig(x)) - expect) / abs(expect))
        assert worst <= 1e-6, f"horizontal family error {worst:.2e}"
        # Vertical-curve family: phi = x1^(lambda/a1) h(x2 x1^(-a2/a1)).
        vman = ke.segment_manifold((1.0, 0.2), (1.0, 7.5), n=301, s_range=(0.2, 7.5))
        for h_fn, formula in [
            (lambda s: 1.0, lambda x: x[0] ** 2),
            (lambda s: s, lambda x: x[1]),
        ]:
            hv = ke.DataFunction.from_callable(vman, h_fn)
            veig = ke.OpenEigenfunction(2.0, hv, vman, system.field, (0.0, 0.8))
            worst_v = 0.0
            for x in LATTICE[::13]:
                expect = formula(x)
                worst_v = max(worst_v, abs(complex(veig(x)) - expect) / abs(expect))
            assert worst_v <= 1e-6, f"vertical family error {worst_v:.2e}"


def test_criterion_03_blowup_oracle():
    with _criterion(3, "finite-time blow-up oracle"):
        system = ke.make_system("blowup")
        mani = system.default_manifold
        xs = np.linspace(0.5, 2.0, 50)
        for lam in [1.0, 2.0, 1.0 + 1.0j]:
            h = ke.DataFunction.from_callable(mani, lambda s: 1.0)
            eig = ke.OpenEigenfunction(lam, h, mani, system.field, (-1.0, 0.5))
            ratios = np.array(
                [complex(eig([x])) / np.exp(-lam / x) for x in xs]
            )
            spread = np.max(np.abs(ratios - ratios[0])) / abs(ratios[0])
            assert spread <= 1e-6, f"lambda={lam}: ratio spread {spread:.2e}"


def _vdp_fig7_decomposition(K=8, eig_tol=1e-9):
    system = ke.make_system("vdp")
    mani = system.default_manifold
    grid = ke.build_grid(system.field, mani, (0.0, 2.0), 40, 40, 1e-10)
    target = TargetSample.from_function(
        grid, lambda x: 3.0 * np.exp(-(x[0] ** 2 + x[1] ** 2) / 10.0)
    )
    cands = np.linspace(-5.0, 5.0, 101).astype(complex)
    result = ke.greedy_decompose(
        grid, target, cands, K, stop_tol=1e-12, eig_tol=eig_tol
    )
    return system, mani, grid, target, cands, result


def test_criterion_04_koopman_certification():
    with _criterion(4, "eigen-relation certification"):
        rng = np.random.default_rng(17)
        # Linear observer (closed-form flow available): <= 1e-6.
        system, mani, window = _horizontal_setup()
        h = ke.DataFunction.from_callable(mani, lambda s: 1.0)
        obs = ke.OpenEigenfunction(2.0, h, mani, system.field, window)
        pts = np.column_stack(
            [rng.uniform(1.0, 2.0, 100), rng.uniform(1.0, 5.5, 100)]
        )
        res = ke.koopman_residual(obs, pts, 0.1)
        assert res <= 1e-6, f"lin2d observer residual {res:.2e}"
        # Hopf, circle radius 5 (closed-form flow available): <= 1e-6.
        hopf = ke.make_system("hopf", mu=1.0)
        hman = hopf.default_manifold
        hdat = ke.DataFunction.from_callable(hman, lambda s: s)
        heig = ke.OpenEigenfunction(1.0, hdat, hman, hopf.field, (0.0, 4.0))
        rr = rng.uniform(1.05, 4.8, 100)
        th = rng.uniform(0.0, 2.0 * math.pi, 100)
        hpts = np.column_stack([rr * np.cos(th), rr * np.sin(th)])
        res = ke.koopman_residual(heig, hpts, 0.1)
        assert res <= 1e-6, f"hopf residual {res:.2e}"
        # Fitted Van der Pol terms (numeric flow): <= 1e-3.
        vdp, vman, grid, _, _, result = _vdp_fig7_decomposition()
        assert result.terms, "no fitted terms"
        span = vman.s_max - vman.s_min
        for k, term in enumerate(result.terms):
            pts = []
            while len(pts) < 100:
                s = rng.uniform(vman.s_min + 0.05 * span, vman.s_max - 0.05 * span)
                tau = rng.uniform(0.05, 1.85)
                pts.append(ke.flow(vdp.field, vman.embed(s), tau, 1e-10).state)
            res = ke.koopman_residual(term.eigenfunction, pts, 0.1, tol=1e-9)
            assert res <= 1e-3, f"vdp term {k} residual {res:.2e}"


def test_criterion_05_algebraic_property():
    with _criterion(5, "algebraic powers stay in the primary class"):
        system = ke.make_system("lin2d", a1=1.0, a2=2.0)
        mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=161, s_range=(0.3, 2.2))
        h = ke.DataFunction.from_callable(mani, lambda s: 1.0)
        obs = ke.OpenEigenfunction(2.0, h, mani, system.field, (-0.1, 1.1))
        sample = np.array(
            [[a, b] for a in np.linspace(1.0, 2.0, 10) for b in np.linspace(1.0, 2.0, 10)]
        )
        rng = np.random.default_rng(23)
        pts = np.column_stack([rng.uniform(1.0, 2.0, 40), rng.uniform(1.0, 2.0, 40)])
        for p in [2.0, 3.0, 0.5]:
            powered = ke.eig_power(obs, p)
            assert powered.eigenvalue == pytest.approx(p * 2.0)
            res = ke.koopman_residual(powered, pts, 0.1)
            assert res <= 1e-5, f"power {p}: residual {res:.2e}"
            tv = ke.levelset_transversality(obs, powered, sample)
            assert np.max(tv) <= 1e-4, f"power {p}: transversality {np.max(tv):.2e}"


def test_criterion_06_non_equivalence_detection():
    with _criterion(6, "distinct primary classes detected"):
        system = ke.make_system("lin2d", a1=1.0, a2=2.0)
        mani = ke.segment_manifold((0.3, 1.0), (2.2, 1.0), n=161, s_range=(0.3, 2.2))
        obs = ke.OpenEigenfunction(
            2.0, ke.DataFunction.from_callable(mani, lambda s: 1.0),
            mani, system.field, (-0.1, 1.1),
        )
        gen = ke.OpenEigenfunction(
            2.0, ke.DataFunction.from_callable(mani, lambda s: s),
            mani, system.field, (-0.1, 1.1),
        )
        sample = np.array(
            [[a, b] for a in np.linspace(1.0, 2.0, 10) for b in np.linspace(1.0, 2.0, 10)]
        )
        tv = ke.levelset_transversality(obs, gen, sample)
        frac = float(np.mean(tv >= 0.1))
        assert frac >= 0.9, f"only {frac:.0%} of samples above 0.1"


def test_criterion_07_least_squares_correctness(dense_fit_h):
    with _criterion(7, "structured least squares vs dense solver"):
        system = ke.make_system("lin2d")
        mani = ke.segment_manifold((1.0, 1.0), (2.0, 1.0), n=3, s_range=(1.0, 2.0))

        def bare(s_nodes, r_nodes):
            return CharacteristicGrid(
                np.asarray(s_nodes, float), np.asarray(r_nodes, float),
                np.zeros((len(s_nodes), len(r_nodes), 2)), system.field, mani,
                (float(r_nodes[0]), float(r_nodes[-1])),
            )

        rng = np.random.default_rng(29)
        for _ in range(50):
            n, m = int(rng.integers(0, 20)), int(rng.integers(1, 20))
            grid = bare(np.linspace(0, 1, n + 1), np.linspace(0, 2, m + 1))
            q = rng.normal(size=(n + 1, m + 1)) + 1j * rng.normal(size=(n + 1, m + 1))
            lam = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            a = fit_h(grid, TargetSample(q), lam)
            b = dense_fit_h(grid, TargetSample(q), lam)
            assert np.max(np.abs(a.h_values - b.h_values)) <= 1e-10
            assert abs(a.residual_norm - b.residual_norm) <= 1e-10
        g1 = bare([0.0], [0.0, 1.0])
        fit0 = fit_h(g1, TargetSample(np.array([[1.0, 3.0]], dtype=complex)), 0.0)
        assert abs(fit0.h_values[0] - 2.0) <= 1e-12
        assert abs(fit0.residual_norm - math.sqrt(2.0)) <= 1e-12
        fit1 = fit_h(g1, TargetSample(np.array([[0.0, math.e]], dtype=complex)), 1.0)
        expect = math.e**2 / (1.0 + math.e**2)
        assert abs(fit1.h_values[0] - expect) <= 1e-12
        assert abs(fit1.residual_norm**2 - expect) <= 1e-12


def test_criterion_08_vdp_dictionary():
    with _criterion(8, "greedy dictionary on the Van der Pol band"):
        t0 = time.perf_counter()
        _, _, grid, _, cands, result = _vdp_fig7_decomposition()
        elapsed = time.perf_counter() - t0
        rn = result.residual_norms
        assert rn.size == 9, f"expected 8 fitted terms, got {rn.size - 1}"
        assert np.all(np.diff(rn) < 0), "residual norms not strictly decreasing"
        assert rn[4] <= 0.5 * rn[1], f"no elbow: R4/R1 = {rn[4] / rn[1]:.2f}"
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s"
        # Exact-eigenfunction target: recovered in a single term.
        lam = complex(cands[60])
        h = np.exp(0.2 * grid.s_nodes)
        exact = TargetSample(np.outer(h, np.exp(lam * grid.r_nodes)))
        one = ke.greedy_decompose(grid, exact, cands, 8, stop_tol=1e-8)
        assert len(one.terms) == 1
        assert one.residual_norms[1] <= 1e-8 * one.residual_norms[0]


def test_criterion_09_spectrum_scaling():
    with _criterion(9, "approximate-eigenfunction scaling and wedge spectrum"):
        t0 = time.perf_counter()
        fit = ke.scaling_fit(1.0, 1.0, [4, 8, 16, 32, 64, 128, 256])
        assert -1.1 <= fit.slope <= -0.9, f"slope {fit.slope:.3f}"
        r16 = ke.approx_eig_residual(ke.ApproxEig(1.0, 16, (0.25, 4.0)), 1.0)
        oracle = 1.0 / (math.sqrt(12.0) * 16.0)
        assert abs(r16.relative_residual - oracle) <= 0.02 * oracle
        lams = [
            complex(a, b)
            for a in np.linspace(-2, 2, 5)
            for b in np.linspace(-2, 2, 5)
        ]
        wedge = ke.wedge_point_spectrum_check(lams, (0.2, 2.2), lambda s: s)
        assert wedge.max_residual <= 1e-8, f"wedge residual {wedge.max_residual:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


def test_criterion_10_determinism(tmp_path):
    with _criterion(10, "byte-identical reports under a fixed seed"):
        decompose_cfg = {
            "system": {"name": "vdp"},
            "manifold": {"type": "segment", "from": [1.0, 0.5], "to": [2.0, 1.5], "n": 121},
            "t_window": [0.0, 2.0],
            "grid": {"n": 12, "m": 12},
            "target": "gaussian(3, 10)",
            "lambda_sweep": {"re_range": [-5.0, 5.0], "count": 41},
            "K": 3,
            "integrator_tol": 1e-9,
            "seed": 7,
        }
        spectrum_cfg = {
            "system": {"name": "action_angle"},
            "spectrum": {"omega": 1.0, "t": 1.0, "n_list": [8, 32, 128]},
            "seed": 7,
        }
        eval_cfg = {
            "system": {"name": "lin2d"},
            "manifold": {
                "type": "segment", "from": [0.3, 1.0], "to": [2.2, 1.0],
                "n": 61, "s_range": [0.3, 2.2],
            },
            "t_window": [0.0, 1.1],
            "eig": {"lambda": [2.0, 0.0], "h": "1"},
            "lattice": {"x1": [1.0, 2.0, 6], "x2": [1.0, 6.0, 6]},
            "seed": 7,
        }
        jobs = [
            ("decompose", decompose_cfg, "decomposition.json"),
            ("spectrum", spectrum_cfg, "spectrum_summary.json"),
            ("eval", eval_cfg, "eval_summary.json"),
        ]
        for cmd, cfg, report in jobs:
            cfg_path = tmp_path / f"{cmd}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{cmd}-{run}"
                assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
                outs.append((out / report).read_bytes())
            assert outs[0] == outs[1], f"{cmd}: {report} differs between runs"
