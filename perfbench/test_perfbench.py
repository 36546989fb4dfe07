"""Tests of the benchmark's own checkers, workloads and tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
Outputs are synthesized from the oracles, so a checker is tested without
running the program; each defect must count as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, closed_form_lattice, vdp_dictionary  # noqa: E402


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[f"{v:.17g}" for v in row] for row in rows])


def _lin2d_config() -> dict:
    return closed_form_lattice(DEFAULT_SEED).commands[0].config


def _write_lin2d(out: Path, config: dict, drop: int = -1, bump: int = -1, factor: float = 1.0) -> None:
    """A correct lin2d eval output, optionally missing one row or scaling its phi."""
    oracle = checks.Lin2dOracle()
    rows = []
    for k, (x1, x2) in enumerate(checks.lattice_points(config["lattice"])):
        r, s = oracle.pullback((x1, x2))
        if k != drop:
            rows.append((x1, x2, x2 * (factor if k == bump else 1.0), 0.0, r, s))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "keig_grid.csv", checks.GRID_COLUMNS, rows)
    summary = {"lattice_points": 900, "in_domain_points": len(rows), "spot_check_residual": 1e-11}
    (out / "eval_summary.json").write_text(json.dumps(summary), encoding="utf-8")


@pytest.fixture(scope="module")
def lin2d_check():
    config = _lin2d_config()
    return checks.LatticeCheck(config, checks.Lin2dOracle()), config


def test_lin2d_output_passes(tmp_path, lin2d_check):
    check, config = lin2d_check
    _write_lin2d(tmp_path, config)
    outcome = check(tmp_path, checks.EXIT_OK)
    assert (outcome.attempted, outcome.failed) == (900, 0), outcome.problems


@pytest.mark.parametrize("factor", [1.001, math.nan])
def test_perturbed_phi_fails_one_point(tmp_path, lin2d_check, factor):
    check, config = lin2d_check
    _write_lin2d(tmp_path, config, bump=17, factor=factor)
    outcome = check(tmp_path, checks.EXIT_OK)
    assert outcome.failed == 1 and "phi" in outcome.problems[0]


def test_dropped_in_domain_point_fails(tmp_path, lin2d_check):
    check, config = lin2d_check
    _write_lin2d(tmp_path, config, drop=400)
    outcome = check(tmp_path, checks.EXIT_OK)
    assert outcome.failed == 1 and "missing" in outcome.problems[0]


def test_wrong_exit_code_fails_every_point(tmp_path, lin2d_check):
    check, config = lin2d_check
    _write_lin2d(tmp_path, config)
    outcome = check(tmp_path, checks.EXIT_DOMAIN)
    assert outcome.failed == outcome.attempted == 900


def test_spot_check_over_gate_fails(tmp_path, lin2d_check):
    check, config = lin2d_check
    _write_lin2d(tmp_path, config)
    summary = json.loads((tmp_path / "eval_summary.json").read_text())
    summary["spot_check_residual"] = 1e-3
    (tmp_path / "eval_summary.json").write_text(json.dumps(summary))
    assert check(tmp_path, checks.EXIT_OK).failed == 900


def test_hopf_oracle_domain():
    oracle = checks.HopfOracle()
    assert oracle.classify((0.5, 0.0)) is False  # inside the limit cycle
    assert oracle.classify((6.0, 0.0)) is False  # backward orbit escapes
    assert oracle.classify((3.0, 0.0)) is True
    r, s = oracle.pullback((3.0, 0.0))
    assert math.isclose(r, 0.5 * math.log(24 * 9 / (25 * 8)))
    assert oracle.value_error((3.0, 0.0), math.cos(s) * math.exp(r), r, s) is None


def _small_dictionary():
    config = dict(vdp_dictionary(DEFAULT_SEED).commands[0].config, grid={"n": 4, "m": 5}, K=3)
    return checks.DictionaryCheck(config), config


def _write_dictionary(out: Path, check, lams, sign=(1.0, 1.0, 1.0)) -> None:
    """Greedy terms fitted to the gaussian target on the oracle's grid.

    ``sign`` flips a term's data, which raises the residual at that stage
    while keeping every file consistent."""
    grid = check.grid
    remainder = checks.gaussian(3.0, 10.0, grid[..., 0], grid[..., 1]).astype(complex)
    residuals = [float(np.linalg.norm(remainder))]
    terms, rows = [], []
    for stage, (lam, sgn) in enumerate(zip(lams, sign), start=1):
        e = np.exp(lam * check.r_nodes)
        h = sgn * (remainder @ np.conj(e)) / np.sum(np.abs(e) ** 2)
        p = np.outer(h, e)
        c = float(np.linalg.norm(p))
        remainder = remainder - p
        residuals.append(float(np.linalg.norm(remainder)))
        terms.append({"lambda": [lam.real, lam.imag], "c": c, "h_samples": [[v.real, v.imag] for v in h]})
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                v = p[i, j] / c
                rows.append((stage, grid[i, j, 0], grid[i, j, 1], v.real, v.imag))
    out.mkdir(parents=True, exist_ok=True)
    (out / "decomposition.json").write_text(json.dumps({"terms": terms, "residuals": residuals}))
    _write_csv(out / "residuals.csv", ["k", "residual_norm"], list(enumerate(residuals)))
    _write_csv(out / "term_grids.csv", ["stage", "x1", "x2", "phi_re", "phi_im"], rows)


LAMS = (complex(-0.5, 0.0), complex(0.2, 1.0), complex(-1.0, -0.5))


def test_dictionary_output_passes(tmp_path):
    check, _ = _small_dictionary()
    _write_dictionary(tmp_path, check, LAMS)
    outcome = check(tmp_path, checks.EXIT_OK)
    assert (outcome.attempted, outcome.failed) == (3, 0), outcome.problems


def test_rising_residual_fails_its_stage(tmp_path):
    check, _ = _small_dictionary()
    _write_dictionary(tmp_path, check, LAMS, sign=(1.0, -1.0, 1.0))
    outcome = check(tmp_path, checks.EXIT_OK)
    assert outcome.failed == 1 and "stage 2" in outcome.problems[0]


def test_non_monotone_residuals_csv_fails(tmp_path):
    check, _ = _small_dictionary()
    _write_dictionary(tmp_path, check, LAMS)
    path = tmp_path / "residuals.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = f"{2.0 * float(rows[2][1]):.17g}"
    _write_csv(path, rows[0], [[float(v) for v in row] for row in rows[1:]])
    assert check(tmp_path, checks.EXIT_OK).failed >= 1


def test_missing_stage_and_wrong_exit_fail(tmp_path):
    check, _ = _small_dictionary()
    _write_dictionary(tmp_path, check, LAMS[:2])
    outcome = check(tmp_path, checks.EXIT_OK)
    assert outcome.failed == 1 and "missing" in outcome.problems[0]
    assert check(tmp_path, 4).failed == 3


def test_default_seed_reproduces_documented_inputs():
    lin2d, hopf = (c.config for c in closed_form_lattice(DEFAULT_SEED).commands)
    assert lin2d["lattice"] == {"x1": [1.0, 2.0, 30], "x2": [1.0, math.e**2, 30]}
    assert hopf["lattice"] == {"x1": [-5.5, 5.5, 16], "x2": [-5.5, 5.5, 16]}
    vdp = WORKLOADS["vdp_lattice"](DEFAULT_SEED).commands[0].config
    assert vdp["lattice"] == {"x1": [-0.2, 2.2, 16], "x2": [-1.9, 1.5, 16]}


def test_seed_moves_lattices_by_under_a_quarter_cell():
    for seed in (1, 7, 12345):
        assert WORKLOADS["vdp_lattice"](seed) == WORKLOADS["vdp_lattice"](seed)
        vdp = WORKLOADS["vdp_lattice"](seed).commands[0].config
        assert vdp["seed"] == seed
        lo, hi, _ = vdp["lattice"]["x1"]
        assert -0.2 < lo < -0.2 + 0.25 * 2.4 / 15 and math.isclose(hi - lo, 2.4)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail(list(range(100)))[2] == 90.0
    assert tracing.tail(list(range(400)))[2] == 97.5
    assert tracing.tail(list(range(19))) == (9.0, 0.0, 0.0)


def test_tracer_counts_and_restores(tmp_path):
    from koopeig import cli, eigenfunctions

    config = dict(_lin2d_config(), lattice={"x1": [1.0, 2.0, 3], "x2": [1.5, 4.0, 3]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    original = eigenfunctions.pullback
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert cli.main(["eval", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert eigenfunctions.pullback is original
    layers = tracer.layer_metrics()
    assert layers["eigenfunctions.pullback.calls"] >= 9
    assert layers["dynamics.closed_form.calls"] > 0 and layers["dynamics.flow.steps"] == 0
    assert {sp.parent for sp in tracer.spans} <= {0} | {sp.id for sp in tracer.spans}
