"""Every leaf of small base configs, replaced in turn by each value of a fixed
set: no mutated config ends in a traceback, an exit code outside {0, 2, 3, 4}
or a JSON file that is not strict. Deterministic and numpy-only; the pyproject
turns every RuntimeWarning into an error, so a stray one fails the run too.
"""

import copy
import json
import re

import pytest

from koopeig.cli import main

BASES = {
    "lin2d": ("eval", {
        "system": {"name": "lin2d", "params": {"a1": 1.0, "a2": 2.0}},
        "manifold": {"type": "segment", "from": [0.3, 1.0], "to": [2.2, 1.0], "n": 41, "s_range": [0.3, 2.2]},
        "t_window": [0.0, 1.1],
        "eig": {"lambda": [2.0, 0.0], "h": "1"},
        "lattice": {"x1": [1.0, 2.0, 4], "x2": [1.0, 7.0, 4]},
        "integrator_tol": 1e-10,
        "seed": 0,
    }),
    "vdp": ("eval", {
        "system": {"name": "vdp"},
        "t_window": [0.0, 2.0],
        "eig": {"lambda": [1.0, 0.0], "h": "s"},
        "lattice": {"x1": [-0.2, 2.2, 3], "x2": [-1.9, 1.5, 3]},
        "seed": 0,
    }),
    "hopf": ("eval", {
        "system": {"name": "hopf", "params": {"mu": 1.0}},
        "manifold": {"type": "circle", "center": [0.0, 0.0], "radius": 5.0, "n": 65},
        "t_window": [0.0, 4.0],
        "eig": {"lambda": 1.0, "h": "cos(s)"},
        "lattice": {"x1": [-5.5, 5.5, 3], "x2": [-5.5, 5.5, 3]},
        "seed": 2,
    }),
    "blowup": ("eval", {
        "system": {"name": "blowup"},
        "manifold": {"type": "point", "x0": 1.0},
        "t_window": [0.0, 2.0],
        "eig": {"lambda": 1.0, "h": "1"},
        "lattice": {"x1": [1.0, 20.0, 5]},
    }),
    "action_angle": ("eval", {
        "system": {"name": "action_angle"},
        "t_window": [0.0, 0.8],
        "eig": {"lambda": [0.0, 1.0], "h": "s"},
        "lattice": {"x1": [0.6, 2.4, 4], "x2": [0.3, 1.5, 4]},
    }),
    "decompose": ("decompose", {
        "system": {"name": "vdp"},
        "manifold": {"type": "segment", "from": [1.0, 0.5], "to": [2.0, 1.5], "n": 21},
        "t_window": [0.0, 2.0],
        "grid": {"n": 4, "m": 4},
        "target": "gaussian(3, 10)",
        "lambda_sweep": {"re_range": [-5.0, 5.0], "count": 11, "im_range": [-4.0, 4.0], "im_count": 5},
        "K": 3,
        "stop_tol": 1e-12,
        "integrator_tol": 1e-10,
        "seed": 0,
    }),
    "spectrum": ("spectrum", {
        "spectrum": {
            "omega": 1.0,
            "t": 1.0,
            "n_list": [4, 8],
            "annulus": [0.25, 4.0],
            "wedge": {
                "lambda_grid": {"re_range": [-2.0, 2.0], "im_range": [-2.0, 2.0], "count": 3},
                "alpha_window": [0.2, 2.2],
                "h": "s",
            },
        },
        "seed": 0,
    }),
}

VALUES = (0, -1, 1e300, "x", None)
# Counts take their own set: a non-integer and a count past every bound.
COUNT_VALUES = (0, 0.5, 1e200, "x")
COUNT_KEYS = {"n", "m", "count", "im_count", "K"}
# A vdp window that ends at 1e300 marches each lane up to MAX_STEPS attempts,
# for minutes: ROADMAP item 8 (a run with no useful bound ends in bounded
# time) owns those runs, so they are left out here until it lands.
UNBOUNDED = {("vdp", "t_window"), ("decompose", "t_window")}
FIELD_PATH = re.compile(r"config error: [\w\-]+(\.[\w\-]+)*: ")


def _leaves(node, path=()):
    """The path of every leaf of a config: a value that is not a dict or list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _leaves(value, path + (k,))
    else:
        yield path


def _is_count(path) -> bool:
    return path[-1] in COUNT_KEYS or "n_list" in path or (path[0] == "lattice" and path[-1] == 2)


def _replaced(cfg: dict, path, value) -> dict:
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _refuse(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_mutated_leaf_exits_cleanly(tmp_path, capsys, base):
    command, cfg = BASES[base]
    faults, runs = [], 0
    for path in _leaves(cfg):
        for value in COUNT_VALUES if _is_count(path) else VALUES:
            if (base, path[0]) in UNBOUNDED and value == 1e300:
                continue
            runs += 1
            out = tmp_path / f"out{runs}"
            config = tmp_path / f"cfg{runs}.json"
            config.write_text(json.dumps(_replaced(cfg, path, value)))
            where = f"{'.'.join(map(str, path))} = {value!r}"
            try:
                code = main([command, "--config", str(config), "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - every escape is a fault
                faults.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4):
                faults.append(f"{where}: exit {code}")
            if code == 2 and not FIELD_PATH.match(err):
                faults.append(f"{where}: exit 2 without a field path: {err!r}")
            for report in out.glob("*.json"):
                try:
                    json.loads(report.read_text(), parse_constant=_refuse)
                except ValueError as exc:
                    faults.append(f"{where}: {report.name}: {exc}")
    assert runs > 20
    assert not faults, "\n".join(faults)
