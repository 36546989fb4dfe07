import json
import math
import re
import warnings

import numpy as np
import pytest

import koopeig as ke
from koopeig import cli, config
from koopeig.cli import main, write_csv
from koopeig.config import RunConfig


def write_config(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows) if rows else np.empty((0, len(header)))


OBSERVER_CFG = {
    "system": {"name": "lin2d", "params": {"a1": 1.0, "a2": 2.0}},
    "manifold": {
        "type": "segment",
        "from": [0.3, 1.0],
        "to": [2.2, 1.0],
        "n": 121,
        "s_range": [0.3, 2.2],
    },
    "t_window": [0.0, 1.1],
    "eig": {"lambda": [2.0, 0.0], "h": "1"},
    "lattice": {"x1": [1.0, 2.0, 12], "x2": [1.0, 7.0, 12]},
    "integrator_tol": 1e-10,
    "seed": 0,
}


def test_eval_observer_constant_in_x1(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", OBSERVER_CFG)
    code = main(["eval", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    header, rows = read_csv(tmp_path / "out" / "keig_grid.csv")
    assert header == ["x1", "x2", "phi_re", "phi_im", "r_star", "s_star"]
    # phi = x2: contour columns constant in x1.
    assert np.max(np.abs(rows[:, 2] - rows[:, 1])) < 1e-6
    assert np.max(np.abs(rows[:, 3])) < 1e-9
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["in_domain_points"] == rows.shape[0]
    assert summary["spot_check_residual"] is not None
    assert summary["spot_check_residual"] <= 1e-6


def test_eval_csv_roundtrip(tmp_path, lin2d, horizontal_manifold):
    cfg = write_config(tmp_path / "cfg.json", OBSERVER_CFG)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    _, rows = read_csv(tmp_path / "out" / "keig_grid.csv")
    h = ke.DataFunction.from_callable(horizontal_manifold, lambda s: 1.0)
    eig = ke.OpenEigenfunction(2.0, h, horizontal_manifold, lin2d.field, (0.0, 1.1))
    rng = np.random.default_rng(1)
    for idx in rng.choice(rows.shape[0], size=10, replace=False):
        x1, x2, phi_re, phi_im = rows[idx, :4]
        again = complex(eig([x1, x2]))
        assert abs(again - complex(phi_re, phi_im)) <= 1e-9


def test_eval_empty_lattice_exits_3(tmp_path):
    cfg_dict = dict(OBSERVER_CFG)
    cfg_dict["lattice"] = {"x1": [50.0, 60.0, 4], "x2": [50.0, 60.0, 4]}
    cfg = write_config(tmp_path / "cfg.json", cfg_dict)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    text = (tmp_path / "out" / "keig_grid.csv").read_text()
    assert text == "x1,x2,phi_re,phi_im,r_star,s_star\n"


def test_eval_hopf_circle_self_certifies(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "system": {"name": "hopf", "params": {"mu": 1.0}},
            "manifold": {"type": "circle", "center": [0.0, 0.0], "radius": 5.0, "n": 257},
            "t_window": [0.0, 4.0],
            "eig": {"lambda": [1.0, 0.0], "h": "s"},
            "lattice": {"x1": [-3.0, 3.0, 9], "x2": [-3.0, 3.0, 9]},
            "seed": 2,
        },
    )
    code = main(["eval", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["spot_check_residual"] <= 1e-4


def test_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["eval", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path / "cfg.json", {"system": {"name": "nosuch"}})
    assert main(["eval", "--config", cfg]) == 2
    # Flow-invariant axis segment: transversality rejected as a config error.
    cfg_dict = dict(OBSERVER_CFG)
    cfg_dict["manifold"] = {
        "type": "segment", "from": [0.5, 0.0], "to": [2.0, 0.0], "n": 21,
    }
    cfg = write_config(tmp_path / "cfg2.json", cfg_dict)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # Written as text: json.dumps cannot build 10^5 nested arrays either.
    deep = tmp_path / "deep.json"
    deep.write_text('{"system": ' + "[" * 10**5 + "]" * 10**5 + "}", encoding="utf-8")
    assert main(["eval", "--config", str(deep), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: invalid JSON: arrays or objects nested too deeply\n"


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    raw = tmp_path / "latin1.json"
    raw.write_bytes(b'{"system": "\xff"}')
    assert main(["spectrum", "--config", str(raw), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config file: ")


DECOMPOSE_CFG = {
    "system": {"name": "vdp"},
    "manifold": {
        "type": "segment",
        "from": [1.0, 0.5],
        "to": [2.0, 1.5],
        "n": 121,
    },
    "t_window": [0.0, 2.0],
    "grid": {"n": 16, "m": 16},
    "target": "gaussian(3, 10)",
    "lambda_sweep": {"re_range": [-5.0, 5.0], "count": 41},
    "K": 4,
    "stop_tol": 1e-10,
    "integrator_tol": 1e-9,
    "seed": 0,
}


def test_decompose_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", DECOMPOSE_CFG)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "decomposition.json").read_text())
    residuals = np.array(report["residuals"])
    assert residuals.size == len(report["terms"]) + 1
    assert np.all(np.diff(residuals) < 0)
    _, res_rows = read_csv(tmp_path / "out" / "residuals.csv")
    assert np.allclose(res_rows[:, 1], residuals)
    header, curves = read_csv(tmp_path / "out" / "lambda_curves.csv")
    assert header == ["stage", "lambda_re", "lambda_im", "residual"]
    assert set(curves[:, 0]) == {1.0, 2.0, 3.0, 4.0}
    assert curves.shape[0] == 4 * 41
    header, hrows = read_csv(tmp_path / "out" / "h_functions.csv")
    assert header == ["stage", "s", "h_re", "h_im"]
    assert hrows.shape[0] == 4 * 17
    header, grows = read_csv(tmp_path / "out" / "term_grids.csv")
    assert header == ["stage", "x1", "x2", "phi_re", "phi_im"]
    assert grows.shape[0] == 4 * 17 * 17


def test_decompose_exact_target_one_term(tmp_path):
    cfg_dict = dict(DECOMPOSE_CFG)
    cfg_dict.update(
        {
            "system": {"name": "lin2d"},
            "manifold": {
                "type": "segment",
                "from": [1.0, 1.0],
                "to": [2.0, 1.0],
                "n": 17,
                "s_range": [1.0, 2.0],
            },
            "t_window": [0.0, 1.0],
            "grid": {"n": 8, "m": 8},
            # x2 = h(s) 1 * e^(2 r): an exact eigenfunction of the sweep set.
            "target": "x2",
            "lambda_sweep": {"re_range": [-5.0, 5.0], "count": 101},
            "integrator_tol": 1e-10,
        }
    )
    cfg = write_config(tmp_path / "cfg.json", cfg_dict)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "decomposition.json").read_text())
    assert len(report["terms"]) == 1
    assert report["residuals"][-1] <= 1e-8 * report["residuals"][0]
    assert report["terms"][0]["lambda"][0] == pytest.approx(2.0, abs=1e-6)


def test_decompose_empty_target_exit_4(tmp_path):
    cfg_dict = dict(DECOMPOSE_CFG)
    cfg_dict["target"] = "0"
    cfg = write_config(tmp_path / "cfg.json", cfg_dict)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "out")]) == 4


def test_decompose_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", DECOMPOSE_CFG)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in [
        "decomposition.json", "residuals.csv", "lambda_curves.csv",
        "h_functions.csv", "term_grids.csv",
    ]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_target_language_errors(tmp_path):
    from koopeig.targets import parse_data_fn, parse_target

    q = parse_target("gaussian(3, 10) + 0.5*x1^2*x2")
    assert q(np.zeros(2)) == pytest.approx(3.0)
    assert q(np.array([2.0, 1.0])) == pytest.approx(3.0 * math.exp(-0.5) + 2.0)
    h = parse_data_fn("2*s^2 + 1")
    assert h(3.0) == pytest.approx(19.0)
    assert parse_data_fn("sin(s)")(0.5) == pytest.approx(math.sin(0.5))
    for bad in ["", "x3", "gaussian(1)", "s**2", "foo(s)"]:
        with pytest.raises(ke.ConfigError):
            parse_data_fn(bad) if "s" in bad else parse_target(bad)


@pytest.mark.parametrize(
    "expr,match",
    [
        ("gaussian(x, 1)", "expected a number, got 'x'"),
        ("x1 + ", "empty term"),
        ("gaussian(1, 0)", "gaussian width must be positive"),
    ],
)
def test_target_errors_name_the_fault(expr, match):
    from koopeig.targets import parse_target

    with pytest.raises(ke.ConfigError, match=match):
        parse_target(expr)


def test_a_config_file_whose_top_level_is_a_list_is_refused(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ke.ConfigError, match="top-level config must be an object"):
        config.load_config_file(listed)


SPECTRUM_CFG = {
    "system": {"name": "action_angle"},
    "spectrum": {
        "omega": 1.0,
        "t": 1.0,
        "n_list": [4, 8, 16, 32, 64, 128, 256],
        "annulus": [0.25, 4.0],
        "wedge": {
            "lambda_grid": {"re_range": [-2.0, 2.0], "im_range": [-2.0, 2.0], "count": 5},
            "alpha_window": [0.2, 2.2],
            "h": "s",
        },
    },
    "seed": 0,
}


def test_spectrum_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", SPECTRUM_CFG)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert -1.1 <= summary["slope"] <= -0.9
    assert summary["wedge"]["max_residual"] <= 1e-8
    assert len(summary["wedge"]["lambdas"]) == 25
    header, rows = read_csv(tmp_path / "out" / "spectrum_scaling.csv")
    assert header == ["n", "residual", "phi_norm", "relative_residual"]
    assert rows.shape == (7, 4)


def test_spectrum_single_n_omits_slope(tmp_path):
    cfg_dict = json.loads(json.dumps(SPECTRUM_CFG))
    cfg_dict["spectrum"]["n_list"] = [16]
    cfg = write_config(tmp_path / "cfg.json", cfg_dict)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert summary["slope"] is None
    assert len(summary["rows"]) == 1


def test_spectrum_duplicate_n_writes_null_slope(tmp_path):
    # One distinct n fits no line: the slope is null, and numpy is not asked.
    cfg = write_config(tmp_path / "cfg.json", _with(SPECTRUM_CFG, spectrum__n_list=[4, 4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert summary["slope"] is None
    assert [row["n"] for row in summary["rows"]] == [4, 4]


def test_spectrum_residuals_do_not_depend_on_omega(tmp_path):
    # At omega = 1e15 the bump of n = 8 is narrower than an ulp of omega;
    # its residual is the one at omega = 1 all the same.
    rows = []
    for omega, annulus in ((1.0, [0.25, 4.0]), (1e15, [0.0, 1e16])):
        cfg = _with(SPECTRUM_CFG, spectrum__omega=omega, spectrum__annulus=annulus,
                    spectrum__n_list=[4, 8])
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / f"out{omega:g}"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        rows.append(json.loads((out / "spectrum_summary.json").read_text())["rows"])
    assert rows[0] == rows[1]


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_spectrum_zero_time_writes_null_slope(tmp_path):
    # At t = 0 every residual is 0, so the log-log slope is undefined.
    cfg = write_config(tmp_path / "cfg.json", _with(SPECTRUM_CFG, spectrum__t=0))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "spectrum_summary.json").read_text()
    summary = json.loads(text, parse_constant=_refuse_constant)
    assert summary["slope"] is None
    assert all(row["residual"] == 0.0 for row in summary["rows"])


def test_spectrum_with_an_overflowing_wedge_eigenvalue_writes_strict_json(tmp_path):
    # e^{lambda (theta - alpha1)/I} overflows on the wedge for lambda = 7000,
    # so some residuals are not finite: they are written as null.
    cfg = write_config(
        tmp_path / "cfg.json",
        _with(SPECTRUM_CFG, spectrum__wedge__lambda_grid__re_range=[-2, 7000]),
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "spectrum_summary.json").read_text()
    wedge = json.loads(text, parse_constant=_refuse_constant)["wedge"]
    assert wedge["max_residual"] is None
    residuals = wedge["residuals"]
    assert None in residuals
    assert all(r <= 1e-8 for r, (re, _) in zip(residuals, wedge["lambdas"]) if re == -2.0)


def test_unmakeable_output_dir_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", SPECTRUM_CFG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: ")


def test_taken_output_name_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", OBSERVER_CFG)
    out = tmp_path / "out"
    (out / "keig_grid.csv").mkdir(parents=True)
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: --out: ")
    assert sorted(path.name for path in out.iterdir()) == ["keig_grid.csv"]


@pytest.mark.parametrize("command", ["eval", "decompose", "spectrum"])
def test_config_and_out_are_the_only_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == {"--help", "--config", "--out"}


def test_echo_is_the_config_as_read_and_out_defaults_to_out(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", SPECTRUM_CFG)
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert summary["config_echo"] == SPECTRUM_CFG


LIN1D_CFG = {
    "system": {"name": "lin1d", "params": {"a": 1.0}},
    "t_window": [-1.0, 1.0],
    "eig": {"lambda": [1.0, 0.0], "h": "1"},
    "lattice": {"x1": [0.25, 2.25, 9]},
    "seed": 0,
}


# The vdp_lattice benchmark's box: 68 of its 256 points are in the domain.
VDP_EVAL_CFG = {
    "system": {"name": "vdp"},
    "t_window": [0, 2],
    "eig": {"lambda": 1, "h": "s"},
    "lattice": {"x1": [-0.2, 2.2, 16], "x2": [-1.9, 1.5, 16]},
}


def test_eval_one_dimensional_lattice(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", LIN1D_CFG)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "keig_grid.csv")
    assert header == ["x1", "phi_re", "phi_im", "r_star", "s_star"]
    # U = [1/e, e]: phi = x, the state observer.
    assert rows.shape[0] == 8
    assert np.max(np.abs(rows[:, 1] - rows[:, 0])) < 1e-8
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["miss_reasons"] == {
        "ambiguous": 0, "blow_up": 0, "no_crossing": 1, "step_underflow": 0,
    }


def test_eval_miss_reasons_account_for_every_miss(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "system": {"name": "vdp"},
            "t_window": [0.0, 2.0],
            "eig": {"lambda": [1.0, 0.0], "h": "s"},
            "lattice": {"x1": [-0.2, 2.2, 6], "x2": [-1.9, 1.5, 6]},
            "seed": 0,
        },
    )
    main(["eval", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["eval", "--config", cfg, "--out", str(tmp_path / "b")])
    summary = json.loads((tmp_path / "a" / "eval_summary.json").read_text())
    reasons = summary["miss_reasons"]
    assert set(reasons) == {"no_crossing", "ambiguous", "blow_up", "step_underflow"}
    assert sum(reasons.values()) == summary["lattice_points"] - summary["in_domain_points"]
    assert reasons["blow_up"] > 0 and reasons["no_crossing"] > 0
    assert (tmp_path / "a" / "eval_summary.json").read_bytes() == (
        tmp_path / "b" / "eval_summary.json"
    ).read_bytes()


def _with(base, **changes):
    cfg = json.loads(json.dumps(base))
    for path, value in changes.items():
        node = cfg
        *parents, leaf = path.split("__")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return cfg


def _without(base, *keys):
    return {key: value for key, value in base.items() if key not in keys}


# (command, config, field path named in the error)
BAD_CONFIGS = [
    ("eval", _with(LIN1D_CFG, lattice={"x1": [0.5, 2.5, 4], "x2": [0.5, 2.5, 4]}), "lattice"),
    ("eval", _with(OBSERVER_CFG, lattice={"x1": [1.0, 2.0, 4]}), "lattice"),
    ("eval", _with(OBSERVER_CFG, lattice__x2=[1.0, 7.0, "12"]), "lattice.x2"),
    ("eval", _with(OBSERVER_CFG, lattice__x1=[1.0, "b", 4]), "lattice.x1"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__n_list=[4, "x"]), "spectrum.n_list"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__n_list=[]), "spectrum.n_list"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__omega="x"), "spectrum.omega"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__annulus=[0.25]), "spectrum.annulus"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__annulus=[4.0, 0.25]), "spectrum.annulus"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__quad_points="many"), "spectrum.quad_points"),
    (
        "spectrum",
        _with(SPECTRUM_CFG, spectrum__wedge={"alpha_window": [3.0, 1.0]}),
        "spectrum.wedge.alpha_window",
    ),
    ("eval", _with(OBSERVER_CFG, system__params={"a1": "x"}), "system.params"),
    ("eval", _with(OBSERVER_CFG, eig__lambda=[1, "a"]), "eig.lambda"),
    ("decompose", _with(DECOMPOSE_CFG, lambda_sweep={"values": [[1, "a"]]}), "lambda_sweep.values"),
    (
        "eval",
        _with(OBSERVER_CFG, manifold={"type": "segment", "from": [0.3, 1, 0], "to": [2.2, 1, 0]}),
        "manifold",
    ),
    ("eval", _with(LIN1D_CFG, manifold={"type": "point", "x0": 0}), "manifold"),
    ("eval", _with(LIN1D_CFG, manifold={"type": "segment", "from": [0.3], "to": [2.2]}), "manifold"),
    ("decompose", _with(LIN1D_CFG, grid={"n": 4, "m": 4}, target="x1", K=2), "grid.n"),
    # h and the target are infinite at s = 0 and on the grid row x1 = 0.
    ("eval", _with(OBSERVER_CFG, manifold__s_range=[0.0, 2.0], eig__h="s^-1"), "eig.h"),
    (
        "decompose",
        _with(OBSERVER_CFG, manifold__from=[0.0, 1.0], grid={"n": 4, "m": 4}, target="x1^-1", K=1),
        "target",
    ),
    # e^(400 r) overflows over the window for the only candidate.
    ("decompose", _with(DECOMPOSE_CFG, lambda_sweep={"values": [[400, 0]]}), "lambda_sweep"),
    # Every number is finite, not a bool, integral where an integer is due
    # and within its bound.
    (
        "decompose",
        _with(DECOMPOSE_CFG, lambda_sweep__im_range=[-1.0, 1.0], lambda_sweep__im_count=0),
        "lambda_sweep.im_count",
    ),
    (
        "decompose",
        _with(DECOMPOSE_CFG, lambda_sweep__im_range=[-1.0, 1.0], lambda_sweep__im_count=-1),
        "lambda_sweep.im_count",
    ),
    ("eval", _with(OBSERVER_CFG, seed=-1), "seed"),
    # The output directory is --out alone.
    ("eval", _with(OBSERVER_CFG, output_dir="out"), "output_dir"),
    ("eval", _with(OBSERVER_CFG, t_window=[0, math.inf]), "t_window"),
    ("eval", _with(OBSERVER_CFG, t_window=["0", "1"]), "t_window"),
    ("eval", _with(OBSERVER_CFG, eig__lambda=math.nan), "eig.lambda"),
    ("decompose", _with(DECOMPOSE_CFG, K=True), "K"),
    ("eval", _with(OBSERVER_CFG, integrator_tol=True), "integrator_tol"),
    (
        "eval",
        _with(
            OBSERVER_CFG,
            system={"name": "hopf"},
            manifold={"type": "circle", "center": [0.0, 0.0], "radius": math.inf},
        ),
        "manifold.radius",
    ),
    ("eval", _with(OBSERVER_CFG, system__params={"a1": math.nan}), "system.params"),
    # Every command checks every section, also those it does not use.
    ("spectrum", _with(SPECTRUM_CFG, lambda_sweep={"re_range": [1]}), "lambda_sweep.re_range"),
    ("eval", _with(OBSERVER_CFG, lambda_sweep={"im_count": 0}), "lambda_sweep.im_count"),
    ("spectrum", _with(SPECTRUM_CFG, manifold={"type": "bogus"}), "manifold.type"),
    # im_count without im_range would be ignored.
    (
        "decompose",
        _with(DECOMPOSE_CFG, lambda_sweep={"re_range": [-1, 1], "count": 3, "im_count": 3}),
        "lambda_sweep.im_count",
    ),
    # A key that no reader reads, or that values makes unused, is refused.
    ("eval", _with(OBSERVER_CFG, lamda_sweep=3), "lamda_sweep"),
    ("eval", _with(OBSERVER_CFG, eig__hh=1), "eig.hh"),
    ("decompose", _with(DECOMPOSE_CFG, lattice={"x1": [0, 1, 3], "y": [0, 1, 3]}), "lattice.y"),
    (
        "eval",
        _with(OBSERVER_CFG, lambda_sweep={"values": [1.0], "count": "x", "im_count": 0}),
        "lambda_sweep",
    ),
    # The system, the lattice and both expressions are checked by every command.
    ("spectrum", _with(SPECTRUM_CFG, system__params={"bogus": 1}), "system.params"),
    (
        "spectrum",
        _with(SPECTRUM_CFG, system={"name": "lin1d"}, lattice={"x1": [0, 1, 3], "x2": [0, 1, 3]}),
        "lattice",
    ),
    ("spectrum", _with(SPECTRUM_CFG, target="x3^2"), "target"),
    ("decompose", _with(DECOMPOSE_CFG, eig={"h": "s**2"}), "eig.h"),
    # The grid's flow escapes inside the window: x' = x^2 from x = 1 at t = 1.
    (
        "decompose",
        {"system": {"name": "blowup"}, "t_window": [0, 2], "grid": {"n": 0, "m": 10},
         "target": "x1", "K": 1},
        "t_window",
    ),
    ("decompose", _with(DECOMPOSE_CFG, t_window=[-30, 2], grid={"n": 4, "m": 4}), "t_window"),
    # A window with a single time has a single grid column.
    ("decompose", _with(OBSERVER_CFG, t_window=[0, 0], grid={"n": 3, "m": 3}, target="x1"), "grid.m"),
    # A segment needs two distinct ends; an arc must increase by at most one turn.
    ("eval", _with(OBSERVER_CFG, manifold__to=[0.3, 1.0]), "manifold"),
    (
        "eval",
        _with(OBSERVER_CFG, system={"name": "hopf"},
              manifold={"type": "circle", "center": [0, 0], "radius": 5, "arc": [3, 1]}),
        "manifold",
    ),
    (
        "eval",
        _with(OBSERVER_CFG, system={"name": "hopf"},
              manifold={"type": "circle", "center": [0, 0], "radius": 5, "arc": [0, 7]}),
        "manifold",
    ),
    ("eval", _with(OBSERVER_CFG, t_window=[0.5, 1]), "t_window"),
    ("decompose", _with(DECOMPOSE_CFG, grid__n=2.5), "grid.n"),
    ("eval", _with(OBSERVER_CFG, integrator_tol=0), "integrator_tol"),
    ("eval", _with(OBSERVER_CFG, lattice__x1=[1, 2]), "lattice.x1"),
    ("decompose", _with(DECOMPOSE_CFG, lambda_sweep={"values": []}), "lambda_sweep.values"),
    # A section or field that a command needs.
    ("eval", _without(OBSERVER_CFG, "eig"), "eig"),
    ("eval", _with(OBSERVER_CFG, eig={"lambda": 2.0}), "eig"),
    ("eval", _without(OBSERVER_CFG, "lattice"), "lattice"),
    ("decompose", _without(DECOMPOSE_CFG, "target"), "target"),
    ("eval", _with(OBSERVER_CFG, system={"params": {"a1": 1.0}}), "system.name"),
    ("eval", _with(OBSERVER_CFG, manifold={"from": [0.3, 1.0], "to": [2.2, 1.0]}), "manifold.type"),
    ("decompose", _with(DECOMPOSE_CFG, grid=[]), "grid"),
    # Finite inputs whose manifold or field overflows: a segment's length, a
    # squared length per unit of s that underflows, the field at a far
    # manifold, and the norm of a field that is finite.
    (
        "eval",
        _with(VDP_EVAL_CFG, manifold={"type": "segment", "from": [1e300, 0.5], "to": [2, 1.5]}),
        "manifold",
    ),
    (
        "eval",
        _with(VDP_EVAL_CFG, manifold={"type": "segment", "from": [1, 0.5], "to": [1e300, 1e300]}),
        "manifold",
    ),
    (
        "eval",
        _with(VDP_EVAL_CFG, manifold={"type": "segment", "from": [1, 0.5], "to": [2, 1.5],
                                      "s_range": [0, 1e300]}),
        "manifold",
    ),
    (
        "eval",
        _with(VDP_EVAL_CFG, manifold={"type": "circle", "center": [1e300, 0], "radius": 1}),
        "manifold",
    ),
    (
        "eval",
        _with(VDP_EVAL_CFG, manifold={"type": "circle", "center": [0, 0], "radius": 1e300}),
        "manifold",
    ),
    ("eval", _with(OBSERVER_CFG, system__params={"a1": 1e300}), "manifold"),
    ("eval", _with(VDP_EVAL_CFG, system={"name": "hopf", "params": {"mu": 1e300}}), "manifold"),
    # A count past MAX_COUNT.
    ("eval", _with(OBSERVER_CFG, lattice__x1=[1.0, 2.0, 1e200]), "lattice.x1"),
    ("decompose", _with(DECOMPOSE_CFG, grid__n=1e200), "grid.n"),
    ("decompose", _with(DECOMPOSE_CFG, lambda_sweep__count=1e200), "lambda_sweep.count"),
    ("spectrum", _with(SPECTRUM_CFG, spectrum__n_list=[4, 1e200]), "spectrum.n_list"),
    # A window whose width overflows, as would the grid's time step.
    ("decompose", _with(DECOMPOSE_CFG, t_window=[-1e308, 1e308]), "t_window"),
]


def test_complex_lambda_grid_is_re_major():
    from koopeig.config import RunConfig

    sweep = {"re_range": [-5, 5], "count": 3, "im_range": [-1, 1], "im_count": 2}
    cfg = RunConfig.from_dict({"lambda_sweep": sweep})
    assert cfg.candidates.tolist() == [-5 - 1j, -5 + 1j, -1j, 1j, 5 - 1j, 5 + 1j]
    wedge = {"re_range": [-1, 1], "im_range": [0, 2], "count": 2}
    cfg = RunConfig.from_dict({"spectrum": {"wedge": {"lambda_grid": wedge}}})
    assert cfg.spectrum.lambdas.tolist() == [-1, -1 + 2j, 1, 1 + 2j]


@pytest.mark.parametrize(
    "section,field",
    [
        (lambda n: {"lattice": {"x1": [0, 1, 256], "x2": [0, 1, n]}}, "lattice"),
        (lambda n: {"grid": {"n": 255, "m": n - 1}}, "grid"),
        (
            lambda n: {"lambda_sweep": {"re_range": [-1, 1], "count": 256,
                                        "im_range": [-1, 1], "im_count": n}},
            "lambda_sweep",
        ),
        (lambda n: {"spectrum": {"wedge": {"lambda_grid": {"count": n}}}}, "spectrum.wedge.lambda_grid"),
    ],
    ids=["lattice", "grid", "lambda_sweep", "wedge"],
)
def test_counts_multiply_up_to_max_count(monkeypatch, section, field):
    # Under a bound of 256^2, an n of 256 reaches it and 257 passes it. The
    # grid counts its n+1 by m+1 nodes.
    monkeypatch.setattr(config, "MAX_COUNT", 256**2)
    RunConfig.from_dict(section(256))
    with pytest.raises(ke.ConfigError) as exc:
        RunConfig.from_dict(section(257))
    assert exc.value.field == field


@pytest.mark.parametrize("command,cfg,field", BAD_CONFIGS)
def test_bad_config_exits_2_with_field_path(tmp_path, capsys, command, cfg, field):
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main([*command.split(), "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "h,message",
    [
        ("s**2", "empty factor in term 's**2'; powers are written with ^, not **"),
        ("1 + 2*s*", "empty factor in term '2*s*'"),
    ],
)
def test_empty_factor_names_its_term(tmp_path, capsys, h, message):
    path = write_config(tmp_path / "cfg.json", _with(DECOMPOSE_CFG, eig={"h": h}))
    assert main(["decompose", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: eig.h: {message}\n"


def test_eval_spot_check_of_escaping_images_is_null(tmp_path):
    # x' = x^2 escapes within t = 0.1 from x > 10, so the spot check's
    # t-images of the large lattice points blow up: it reports no residual.
    cfg = {
        "system": {"name": "blowup"},
        "t_window": [0, 2],
        "eig": {"lambda": 1, "h": "1"},
        "lattice": {"x1": [1, 1e6, 400]},
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["in_domain_points"] == summary["lattice_points"] == 400
    assert summary["spot_check_residual"] is None
    assert summary["spot_check_misses"] == {
        "no_crossing": 0, "ambiguous": 0, "blow_up": 10, "step_underflow": 0
    }


def test_eval_names_a_marched_finite_time_escape_blow_up(tmp_path):
    # With mu = -1 hopf has no closed form and is marched. Backward, the
    # radius obeys dr/dtau = r (1 + r^2): every orbit that misses the circle
    # blows up in finite time, and its step collapses far inside the bound.
    cfg = {
        "system": {"name": "hopf", "params": {"mu": -1.0}},
        "t_window": [0.0, 0.5],
        "eig": {"lambda": 1.0, "h": "cos(s)"},
        "lattice": {"x1": [-5.5, 5.5, 16], "x2": [-5.5, 5.5, 16]},
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["miss_reasons"] == {
        "ambiguous": 0, "blow_up": 108, "no_crossing": 4, "step_underflow": 0
    }


@pytest.mark.parametrize("eigenvalue", [7000, 8000])
def test_eval_with_an_overflowing_eigenvalue_writes_strict_json(tmp_path, eigenvalue):
    # phi = s e^{lambda r*} overflows on the vdp hits, and past lambda t = 709
    # so does the spot check's factor e^{lambda t}: the residual is not finite.
    path = write_config(tmp_path / "cfg.json", _with(VDP_EVAL_CFG, eig__lambda=eigenvalue))
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_DOMAIN
    text = (tmp_path / "out" / "eval_summary.json").read_text()
    summary = json.loads(text, parse_constant=_refuse_constant)
    assert summary["in_domain_points"] > 0
    assert summary["spot_check_residual"] is None


@pytest.mark.parametrize("system,x2", [("lin2d", [0.5, 1.0, 3]), ("hopf", [1.5, 4.0, 3])])
def test_eval_on_a_lattice_past_the_floats_writes_strict_json(tmp_path, system, x2):
    # At x1 = 1e300 the gap to a segment's nearest point (lin2d) and the
    # distance to the circle (hopf) overflow: those points are off the manifold.
    cfg = {
        "system": {"name": system},
        "eig": {"lambda": 1, "h": "1"},
        "lattice": {"x1": [1, 1e300, 3], "x2": x2},
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) in (0, cli.EXIT_DOMAIN)
    text = (tmp_path / "out" / "eval_summary.json").read_text()
    summary = json.loads(text, parse_constant=_refuse_constant)
    counted = summary["in_domain_points"] + sum(summary["miss_reasons"].values())
    assert counted == summary["lattice_points"] == 9


def test_eval_overflowing_phi_keeps_its_zero_imaginary_part(tmp_path):
    # With a real h and a real lambda, phi is real: where e^{lambda r*}
    # overflows, the hit reads (inf, 0), not the complex product's (inf, nan).
    path = write_config(tmp_path / "cfg.json", _with(VDP_EVAL_CFG, eig__lambda=7000))
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_DOMAIN
    header, rows = read_csv(tmp_path / "out" / "keig_grid.csv")
    phi_re, phi_im = rows[:, header.index("phi_re")], rows[:, header.index("phi_im")]
    assert len(rows) == 68
    assert np.isinf(phi_re).sum() == 58 and np.all(phi_re > 0)
    assert np.all(phi_im == 0.0)


def test_eval_spot_check_certifies_the_images_that_stay(tmp_path, monkeypatch):
    # Of the picks on x' = x^2 over [1, 20], those above x = 10 escape before
    # t = 0.1; the others are certified, and the escapes counted, from one
    # flow of the picks.
    flows, lanes = [], ke.dynamics._flow_lanes

    def counted(*args, **kwargs):
        flows.append(len(args[1]))
        return lanes(*args, **kwargs)

    for module in (ke.dynamics, ke.eigenfunctions):
        monkeypatch.setattr(module, "_flow_lanes", counted)
    cfg = {
        "system": {"name": "blowup"},
        "t_window": [0, 2],
        "eig": {"lambda": 1, "h": "1"},
        "lattice": {"x1": [1, 20, 40]},
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "eval_summary.json").read_text()
    summary = json.loads(text, parse_constant=_refuse_constant)
    assert summary["in_domain_points"] == summary["lattice_points"] == 40
    spot, misses = summary["spot_check_residual"], summary["spot_check_misses"]
    assert isinstance(spot, float) and math.isfinite(spot) and spot <= 1e-6
    assert misses["blow_up"] > 0
    assert misses["no_crossing"] == misses["ambiguous"] == misses["step_underflow"] == 0
    assert flows == [10]


def test_eval_spot_check_of_ambiguous_images_is_null(tmp_path):
    # The point has one foot, at r* ~ 6.03, just before the orbit's next pass
    # through the segment: its image at t = 0.1 pulls back ambiguous.
    cfg = {
        "system": {"name": "vdp"},
        "t_window": [0, 10],
        "eig": {"lambda": 1, "h": "1"},
        "lattice": {
            "x1": [1.7525232200938146, 1.7525232200938146, 1],
            "x2": [1.4343331495134786, 1.4343331495134786, 1],
        },
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["eval", "--config", path, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "eval_summary.json").read_text())
    assert summary["in_domain_points"] == 1
    assert summary["spot_check_residual"] is None
    assert summary["spot_check_misses"] == {
        "no_crossing": 0, "ambiguous": 1, "blow_up": 0, "step_underflow": 0
    }


def test_decompose_one_dimensional_system(tmp_path):
    # The point manifold has one parameter, so the grid has one node, n = 0.
    cfg = _with(LIN1D_CFG, grid={"n": 0, "m": 4}, target="x1", K=2)
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["decompose", "--config", path, "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "term_grids.csv")
    assert header == ["stage", "x1", "phi_re", "phi_im"]
    assert rows.shape[0] % 5 == 0 and rows.shape[0] > 0


def test_decompose_skips_overflowing_candidates(tmp_path):
    # Over 150 time units e^(lambda r) overflows for the larger default
    # candidates; they get an infinite residual and are never picked.
    cfg = _with(DECOMPOSE_CFG, t_window=[0.0, 150.0], grid={"n": 4, "m": 20}, K=3)
    del cfg["lambda_sweep"]
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["decompose", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "decomposition.json").read_text())
    assert report["terms"]
    assert all(math.isfinite(v) for term in report["terms"] for v in term["lambda"])
    assert all(b <= a for a, b in zip(report["residuals"], report["residuals"][1:]))
    _, curves = read_csv(tmp_path / "out" / "lambda_curves.csv")
    assert np.isinf(curves[:, 3]).any() and np.isfinite(curves[:, 3]).any()


# Values whose "%.17g" strings are signed zeros, non-finite, subnormal, huge,
# inexact, or integers.
SPECIAL_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, 3.0]


def test_write_csv_cells_are_17_significant_digits(tmp_path):
    ints = [0, 1, 7, 10, 100, 2**53 + 1, -5, 123456789012345678]
    write_csv(tmp_path / "t.csv", ["v", "n", "m"], [SPECIAL_VALUES, ints, np.array(ints)])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "v,n,m"
    assert [line.split(",") for line in lines[1:]] == [
        ["%.17g" % v, "%.17g" % n, "%.17g" % n] for v, n in zip(SPECIAL_VALUES, ints)
    ]


def test_write_csv_stages_count_from_1_past_9(tmp_path):
    shared = [0.1, -0.0]
    stages = [[[k, k / 3]] for k in range(12)]
    write_csv(tmp_path / "t.csv", ["stage", "x", "y"], [shared], iter(stages))
    lines = (tmp_path / "t.csv").read_text().splitlines()
    expected = [
        ["%.17g" % (k + 1), "%.17g" % x, "%.17g" % y]
        for k, (ys,) in enumerate(stages)
        for x, y in zip(shared, ys)
    ]
    assert [line.split(",") for line in lines[1:]] == expected
    assert lines[-1].startswith("12,")


def test_write_csv_without_rows_is_the_header(tmp_path):
    write_csv(tmp_path / "a.csv", ["x", "y"], [[], np.empty(0)])
    write_csv(tmp_path / "b.csv", ["stage", "x", "y"], [[1.0]], [])
    assert (tmp_path / "a.csv").read_text() == "x,y\n"
    assert (tmp_path / "b.csv").read_text() == "stage,x,y\n"


def test_write_csv_in_slices_keeps_every_byte(tmp_path, monkeypatch):
    # Blocks of 8, 3, 0 and 5 rows, in slices of 3: a staged file, an
    # unstaged one and a staged one with an empty block.
    x = np.linspace(-1.0, 1.0, 8) / 3.0
    files = {
        "staged.csv": (["stage", "x", "y"], [x], [[x**2], [x**3]]),
        "unstaged.csv": (["x", "y", "n"], [x, x**2, np.arange(8)], None),
        "empty_block.csv": (["stage", "y"], [], [[x[:3]], [[]], [x[:5]]]),
    }

    def written(directory):
        directory.mkdir()
        for name, (header, columns, stages) in files.items():
            write_csv(directory / name, header, columns, stages)
        return {name: (directory / name).read_bytes() for name in files}

    default = written(tmp_path / "default")
    monkeypatch.setattr(cli, "WRITE_ROWS", 3)
    assert written(tmp_path / "sliced") == default
    assert default["empty_block.csv"].count(b"\n") == 1 + 3 + 5
    assert default["staged.csv"].count(b"\n") == 1 + 2 * 8


@pytest.mark.parametrize(
    "header, columns, stages",
    [
        (["x", "y"], [[1.0, 2.0], [1.0]], None),
        (["stage", "x", "y"], [[1.0, 2.0]], [[[1.0, 2.0]], [[1.0]]]),
        (["x", "y", "z"], [[1.0], [2.0]], None),
        (["x", "y"], [[1.0], [2.0], [3.0]], None),
        (["stage", "x", "y"], [[1.0]], [[[1.0], [2.0]]]),
        (["stage", "x"], [[1.0]], [[[2.0]]]),
    ],
)
def test_write_csv_refuses_ragged_columns_and_wrong_widths(tmp_path, header, columns, stages):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", header, columns, stages)
    assert list(tmp_path.iterdir()) == []


def _reference_csv(header, rows) -> str:
    """The row-wise writer the column-wise one must match byte for byte."""
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _reference_stage_rows(stages):
    for stage, columns in enumerate(stages, start=1):
        yield from np.column_stack([np.full(len(columns[0]), stage), *columns]).tolist()


def _reference_decompose_files(result) -> dict:
    dim = result.grid.points.shape[-1]
    points = result.grid.points.reshape(-1, dim)
    return {
        "residuals.csv": _reference_csv(
            ["k", "residual_norm"], list(enumerate(result.residual_norms))
        ),
        "lambda_curves.csv": _reference_csv(
            ["stage", "lambda_re", "lambda_im", "residual"],
            _reference_stage_rows(
                (sweep.candidates.real, sweep.candidates.imag, sweep.residual_curve)
                for sweep in result.lambda_curves
            ),
        ),
        "h_functions.csv": _reference_csv(
            ["stage", "s", "h_re", "h_im"],
            _reference_stage_rows(
                (term.data.s_nodes, term.data.values.real, term.data.values.imag)
                for term in result.terms
            ),
        ),
        "term_grids.csv": _reference_csv(
            ["stage"] + [f"x{k + 1}" for k in range(dim)] + ["phi_re", "phi_im"],
            _reference_stage_rows(
                (points, term.phi_grid.real.ravel(), term.phi_grid.imag.ravel())
                for term in result.terms
            ),
        ),
    }


@pytest.mark.parametrize(
    "cfg",
    [DECOMPOSE_CFG, _with(LIN1D_CFG, grid={"n": 0, "m": 4}, target="x1 + gaussian(1, 4)", K=3)],
    ids=["vdp", "lin1d"],
)
def test_decompose_csvs_match_the_row_wise_reference(tmp_path, monkeypatch, cfg):
    results = []

    def keep(*args, **kwargs):
        results.append(ke.greedy_decompose(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "greedy_decompose", keep)
    path = write_config(tmp_path / "cfg.json", cfg)
    candidates = RunConfig.from_dict(json.loads(json.dumps(cfg))).candidates
    texts = []
    for run in ("a", "b"):
        assert main(["decompose", "--config", path, "--out", str(tmp_path / run)]) == 0
        result = results[-1]
        assert len(result.lambda_curves) >= 2
        for sweep in result.lambda_curves:
            assert np.array_equal(sweep.candidates, candidates)
        for term in result.terms:
            assert np.array_equal(term.data.s_nodes, result.grid.s_nodes)
        expected = _reference_decompose_files(result)
        texts.append({name: (tmp_path / run / name).read_bytes() for name in expected})
        assert texts[-1] == {name: text.encode() for name, text in expected.items()}
    assert texts[0] == texts[1]
