"""The benchmark's fixed workloads: seed -> the configs the CLI receives.

Each workload is a list of ``koopeig`` commands run back to back in one
process (a closed loop with one client). The program sees only the
generated config files; the seed moves every lattice by a sub-cell offset
and becomes the CLI ``seed`` (which picks the spot-check sample). The
default seed reproduces the documented inputs exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
# Lattices move by up to this share of a cell. vdp_lattice's work (RHS calls)
# spreads by an interquartile 6% between seeds at a whole cell, 2% at a quarter.
SHIFT = 0.25


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``koopeig <verb> --config <config>``."""

    label: str  # names the checker that validates the output
    verb: str  # "eval" or "decompose"
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _offsets(seed: int, count: int) -> np.ndarray:
    """Lattice offsets in cells, in [0, SHIFT): zero for the default seed."""
    if seed == DEFAULT_SEED:
        return np.zeros((count, 2))
    return SHIFT * np.random.default_rng(seed).random((count, 2))


def _axis(lo: float, hi: float, count: int, frac: float) -> list:
    shift = frac * (hi - lo) / (count - 1)
    return [lo + shift, hi + shift, count]


def _lattice(x1, x2, frac) -> dict:
    return {"x1": _axis(*x1, frac[0]), "x2": _axis(*x2, frac[1])}


def vdp_lattice(seed: int) -> Workload:
    (frac,) = _offsets(seed, 1)
    config = {
        "system": {"name": "vdp"},
        "t_window": [0.0, 2.0],
        "eig": {"lambda": [1.0, 0.0], "h": "s"},
        # The bounding box of the band the default segment sweeps over [0, 2].
        "lattice": _lattice((-0.2, 2.2, 16), (-1.9, 1.5, 16), frac),
        "seed": seed,
    }
    return Workload(
        "vdp_lattice",
        (Command("vdp", "eval", config),),
    )


def closed_form_lattice(seed: int) -> Workload:
    frac_lin, frac_hopf = _offsets(seed, 2)
    lin2d = {
        "system": {"name": "lin2d", "params": {"a1": 1.0, "a2": 2.0}},
        "manifold": {
            "type": "segment",
            "from": [0.3, 1.0],
            "to": [2.2, 1.0],
            "n": 161,
            "s_range": [0.3, 2.2],
        },
        "t_window": [0.0, 1.05],
        "eig": {"lambda": 2.0, "h": "1"},
        "lattice": _lattice((1.0, 2.0, 30), (1.0, math.e**2, 30), frac_lin),
        "seed": seed,
    }
    hopf = {
        "system": {"name": "hopf", "params": {"mu": 1.0}},
        "t_window": [0.0, 4.0],
        "eig": {"lambda": 1.0, "h": "cos(s)"},
        "lattice": _lattice((-5.5, 5.5, 16), (-5.5, 5.5, 16), frac_hopf),
        "seed": seed,
    }
    return Workload(
        "closed_form_lattice",
        (Command("lin2d", "eval", lin2d), Command("hopf", "eval", hopf)),
    )


def vdp_dictionary(seed: int) -> Workload:
    config = {
        "system": {"name": "vdp"},
        "t_window": [0.0, 2.0],
        "grid": {"n": 40, "m": 40},
        "target": "gaussian(3, 10)",
        "lambda_sweep": {
            "re_range": [-5.0, 5.0],
            "count": 101,
            "im_range": [-4.0, 4.0],
            "im_count": 41,
        },
        "K": 8,
        "stop_tol": 1e-12,
        "integrator_tol": 1e-10,
        "seed": seed,
    }
    return Workload(
        "vdp_dictionary",
        (Command("dictionary", "decompose", config),),
    )


WORKLOADS = {
    "vdp_lattice": vdp_lattice,
    "closed_form_lattice": closed_form_lattice,
    "vdp_dictionary": vdp_dictionary,
}
