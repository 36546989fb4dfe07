"""Output checks for the benchmark's commands, against oracles built without koopeig.

An operation is one lattice point (``eval``) or one greedy stage
(``decompose``). A point fails on a wrong value or a wrong in/out-of-domain
call; a stage fails when it is missing, is not an eigenfunction on the
characteristic grid, breaks the residual bookkeeping or raises the
residual. A defect of the command as a whole (exit code, unreadable or
inconsistent files, a spot-check residual over its gate) fails every
operation of that command.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

EXIT_OK = 0
EXIT_DOMAIN = 3
# The CLI accepts crossings up to t2 + 1e-3 * (t2 - t1); a point whose
# crossing falls in that band, or within EDGE of any other domain boundary,
# may be called either way.
WINDOW_SLACK = 1e-3
EDGE = 1e-9
S_EDGE = 1e-5  # share of the parameter range; covers the CLI's on-manifold tolerance
# ROADMAP gates on the eigen-relation residual.
CLOSED_FORM_GATE = 1e-6
NUMERIC_GATE = 1e-3
VALUE_RTOL = 1e-6
GRID_ATOL = 1e-6
GRID_COLUMNS = ["x1", "x2", "phi_re", "phi_im", "r_star", "s_star"]


@dataclass
class Outcome:
    """Operations attempted and failed by one command, with the reasons."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail_all(self, why: str) -> "Outcome":
        self.failed = self.attempted
        self.problems.append(why)
        return self


def lattice_points(lattice: dict) -> np.ndarray:
    """The lattice in the CLI's order: x1 outer, x2 inner."""
    lo1, hi1, k1 = lattice["x1"]
    lo2, hi2, k2 = lattice["x2"]
    xs = np.linspace(float(lo1), float(hi1), int(k1))
    ys = np.linspace(float(lo2), float(hi2), int(k2))
    return np.array([(a, b) for a in xs for b in ys])


def classify(r: float, s: float, t2: float, s_lo: float, s_hi: float) -> Optional[bool]:
    """In-domain call for a pullback (r, s) over window [0, t2]; None near the boundary."""
    if 0.0 <= r <= t2 and s_lo <= s <= s_hi:
        return True
    s_edge = S_EDGE * (s_hi - s_lo) if math.isfinite(s_hi - s_lo) else 0.0
    if (
        -EDGE <= r <= t2 * (1.0 + WINDOW_SLACK) + EDGE
        and s_lo - s_edge <= s <= s_hi + s_edge
    ):
        return None
    return False


def _close(got, want) -> bool:
    """Within VALUE_RTOL, relative to max(1, |want|); NaN is never close."""
    return abs(got - want) <= VALUE_RTOL * max(1.0, abs(want))


class Lin2dOracle:
    """lin2d(1, 2), segment x2 = 1 with s = x1 on [0.3, 2.2], window [0, 1.05],
    h = 1 and lambda = 2: the eigenfunction is the observer phi = x2."""

    gate = CLOSED_FORM_GATE
    t2, s_lo, s_hi = 1.05, 0.3, 2.2

    def pullback(self, x) -> Optional[tuple[float, float]]:
        x1, x2 = x
        if x2 <= 0.0:
            return None  # the orbit never reaches x2 = 1
        return 0.5 * math.log(x2), x1 / math.sqrt(x2)

    def classify(self, x) -> Optional[bool]:
        pb = self.pullback(x)
        return False if pb is None else classify(*pb, self.t2, self.s_lo, self.s_hi)

    def value_error(self, x, phi: complex, r: float, s: float) -> Optional[str]:
        r_ref, s_ref = self.pullback(x)
        if not _close(phi, x[1]):
            return f"phi={phi} but x2={x[1]}"
        if not (_close(r, r_ref) and _close(s, s_ref)):
            return f"(r*, s*)=({r}, {s}), expected ({r_ref}, {s_ref})"
        return None


class HopfOracle:
    """hopf(mu=1), circle of radius 5, window [0, 4], h = cos(s), lambda = 1:
    r* = ln(24 rho^2 / (25 (rho^2 - 1))) / 2 and s* = atan2(x2, x1) - r*."""

    gate = CLOSED_FORM_GATE
    t2 = 4.0

    def pullback(self, x) -> Optional[tuple[float, float]]:
        rho2 = float(x[0] ** 2 + x[1] ** 2)
        if rho2 <= 1.0:
            return None  # inside the limit cycle: no backward crossing
        r = 0.5 * math.log(24.0 * rho2 / (25.0 * (rho2 - 1.0)))
        return r, (math.atan2(x[1], x[0]) - r) % (2.0 * math.pi)

    def classify(self, x) -> Optional[bool]:
        pb = self.pullback(x)
        return False if pb is None else classify(*pb, self.t2, -math.inf, math.inf)

    def value_error(self, x, phi: complex, r: float, s: float) -> Optional[str]:
        r_ref, s_ref = self.pullback(x)
        want = math.cos(s_ref) * math.exp(r_ref)
        if not _close(phi, want):
            return f"phi={phi}, expected {want}"
        ds = (s - s_ref + math.pi) % (2.0 * math.pi) - math.pi
        if not (_close(r, r_ref) and _close(ds, 0.0)):
            return f"(r*, s*)=({r}, {s}), expected ({r_ref}, {s_ref})"
        return None


def _vdp(_t, y):
    return [y[1], y[1] * (1.0 - y[0] * y[0]) - y[0]]


def _vdp_back(_t, y):
    return [-y[1], -(y[1] * (1.0 - y[0] * y[0]) - y[0])]


def vdp_flow(x0, times) -> np.ndarray:
    """Van der Pol states at the given non-negative times, shape (len(times), 2)."""
    times = np.asarray(times, dtype=float)
    if times.max() == 0.0:
        return np.tile(np.asarray(x0, dtype=float), (times.size, 1))
    sol = solve_ivp(
        _vdp, (0.0, float(times.max())), x0, method="DOP853",
        t_eval=times, rtol=1e-12, atol=1e-12,
    )
    return sol.y.T


class VdpOracle:
    """vdp with the default segment (1, 0.5)-(2, 1.5) (s = arclength), window
    [0, 2], h = s and lambda = 1: phi = s* e^{r*}. A point is in the domain
    when its backward orbit meets the segment exactly once within the window;
    a hit must flow from its foot back to the point."""

    gate = NUMERIC_GATE
    t2 = 2.0
    p0 = np.array([1.0, 0.5])
    unit = np.array([1.0, 1.0]) / math.sqrt(2.0)
    normal = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    s_hi = math.sqrt(2.0)
    escape = 1e8

    def __init__(self):
        self._verified: dict[tuple, Optional[str]] = {}

    def segment_crossings(self, x) -> list[tuple[float, float]]:
        """(time, arclength) of every crossing of the segment's line, going backward."""

        def line(_t, y):
            return float(self.normal @ (np.asarray(y) - self.p0))

        def escaped(_t, y):
            return float(np.hypot(y[0], y[1])) - self.escape

        escaped.terminal = True
        budget = self.t2 * (1.0 + WINDOW_SLACK) + 1e-6
        sol = solve_ivp(
            _vdp_back, (0.0, budget), np.asarray(x, dtype=float), method="DOP853",
            events=[line, escaped], rtol=1e-11, atol=1e-12,
        )
        return [
            (float(t), float(self.unit @ (y - self.p0)))
            for t, y in zip(sol.t_events[0], sol.y_events[0])
        ]

    def classify(self, x) -> Optional[bool]:
        calls = [classify(t, s, self.t2, 0.0, self.s_hi) for t, s in self.segment_crossings(x)]
        if None in calls:
            return None
        # More than one crossing in one direction is a nonrecurrence violation.
        return calls.count(True) == 1

    def value_error(self, x, phi: complex, r: float, s: float) -> Optional[str]:
        want = s * math.exp(r)
        if not _close(phi, want):
            return f"phi={phi}, expected s* e^r* = {want}"
        key = (float(x[0]), float(x[1]), r, s)
        if key not in self._verified:
            self._verified[key] = self._foot_error(x, r, s)
        return self._verified[key]

    def _foot_error(self, x, r: float, s: float) -> Optional[str]:
        if not (-EDGE <= r <= self.t2 * (1.0 + WINDOW_SLACK) + EDGE):
            return f"r*={r} outside the window"
        if not (-EDGE <= s <= self.s_hi + EDGE):
            return f"s*={s} off the segment"
        back = vdp_flow(self.p0 + s * self.unit, [r])[-1]
        miss = float(np.linalg.norm(back - x))
        if not miss <= GRID_ATOL * (1.0 + float(np.linalg.norm(x))):
            return f"foot flowed by r* lands {miss:.2e} away from the point"
        return None


ORACLES = {"lin2d": Lin2dOracle, "hopf": HopfOracle, "vdp": VdpOracle}


def _read_rows(path: Path, header: list[str]) -> np.ndarray:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    return np.array([[float(v) for v in row] for row in rows[1:]]).reshape(-1, len(header))


class LatticeCheck:
    """Checks ``eval`` outputs for one lattice; the in-domain calls are cached."""

    def __init__(self, config: dict, oracle):
        self.oracle = oracle
        self.points = lattice_points(config["lattice"])
        self.index = {(float(a), float(b)): k for k, (a, b) in enumerate(self.points)}
        self.expected = [oracle.classify(p) for p in self.points]

    def __call__(self, out_dir: Path, exit_code) -> Outcome:
        n = len(self.points)
        out = Outcome(n)
        try:
            rows = _read_rows(out_dir / "keig_grid.csv", GRID_COLUMNS)
            summary = json.loads((out_dir / "eval_summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return out.fail_all(f"unreadable output: {exc}")
        if not isinstance(summary, dict):
            return out.fail_all("eval_summary.json is not an object")
        failed: dict[int, str] = {}
        reported = set()
        for x1, x2, phi_re, phi_im, r, s in rows:
            k = self.index.get((x1, x2))
            if k is None or k in reported:
                return out.fail_all(f"row ({x1}, {x2}) is off the lattice or repeated")
            reported.add(k)
            if self.expected[k] is False:
                failed[k] = f"({x1}, {x2}) is outside the domain but was evaluated"
                continue
            err = self.oracle.value_error(self.points[k], complex(phi_re, phi_im), r, s)
            if err:
                failed[k] = f"({x1}, {x2}): {err}"
        for k, call in enumerate(self.expected):
            if call is True and k not in reported:
                failed[k] = f"in-domain point {tuple(self.points[k])} is missing"
        n_in = sum(call is True for call in self.expected) + sum(
            self.expected[k] is None for k in reported
        )
        want_exit = EXIT_DOMAIN if 2 * n_in < n else EXIT_OK
        if exit_code != want_exit:
            return out.fail_all(f"exit code {exit_code}, expected {want_exit}")
        if summary.get("lattice_points") != n or summary.get("in_domain_points") != len(rows):
            return out.fail_all("eval_summary.json counts disagree with the lattice and keig_grid.csv")
        spot = summary.get("spot_check_residual")
        if not isinstance(spot, float) or not spot <= self.oracle.gate:
            return out.fail_all(f"spot-check residual {spot} is over the gate {self.oracle.gate:g}")
        out.failed = len(failed)
        out.problems.extend(failed[k] for k in sorted(failed))
        return out


def gaussian(amplitude: float, width: float, x1, x2):
    return amplitude * np.exp(-(x1 * x1 + x2 * x2) / width)


class DictionaryCheck:
    """Checks ``decompose`` outputs of the vdp dictionary with a gaussian(3, 10) target.

    The characteristic grid is checked against independent flows of the
    manifold nodes; each stage must be separable, h_i e^{lambda r_j}, on that
    grid, and the residuals must follow from the target and the terms."""

    def __init__(self, config: dict):
        self.K = int(config["K"])
        t1, t2 = config["t_window"]
        n, m = config["grid"]["n"], config["grid"]["m"]
        self.r_nodes = np.linspace(t1, t2, m + 1)
        s_nodes = np.linspace(0.0, VdpOracle.s_hi, n + 1)
        self.grid = np.array([
            vdp_flow(VdpOracle.p0 + s * VdpOracle.unit, self.r_nodes) for s in s_nodes
        ])

    def __call__(self, out_dir: Path, exit_code) -> Outcome:
        out = Outcome(self.K)
        if exit_code != EXIT_OK:
            return out.fail_all(f"exit code {exit_code}, expected {EXIT_OK}")
        n_s, n_r = self.grid.shape[:2]
        try:
            report = json.loads((out_dir / "decomposition.json").read_text(encoding="utf-8"))
            res_csv = _read_rows(out_dir / "residuals.csv", ["k", "residual_norm"])
            terms_csv = _read_rows(out_dir / "term_grids.csv", ["stage", "x1", "x2", "phi_re", "phi_im"])
            residuals = [float(v) for v in report["residuals"]]
            lams = [complex(*term["lambda"]) for term in report["terms"]]
            coefficients = [float(term["c"]) for term in report["terms"]]
            data = np.array([[complex(*v) for v in term["h_samples"]] for term in report["terms"]])
            cells = terms_csv.reshape(len(lams), n_s, n_r, 5)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return out.fail_all(f"unreadable output: {exc}")
        if len(residuals) != len(lams) + 1 or res_csv[:, 1].tolist() != residuals:
            return out.fail_all("residuals.csv disagrees with decomposition.json")
        if not lams or data.shape != (len(lams), n_s):
            return out.fail_all(f"expected terms with {n_s} data samples each, got shape {data.shape}")
        if not np.all(np.isfinite(residuals)):
            return out.fail_all(f"non-finite residuals {residuals}")
        points = cells[0, :, :, 1:3]
        stages = np.arange(1, len(lams) + 1)[:, None, None]
        if np.any(cells[..., 0] != stages) or np.any(cells[..., 1:3] != points):
            return out.fail_all("term_grids.csv is not stage by stage over one grid")
        scale = 1.0 + np.linalg.norm(self.grid, axis=-1)
        if not np.max(np.linalg.norm(points - self.grid, axis=-1) / scale) <= GRID_ATOL:
            return out.fail_all("characteristic grid points are not the flow of the manifold nodes")
        remainder = gaussian(3.0, 10.0, points[..., 0], points[..., 1]).astype(complex)
        b_norm = float(np.linalg.norm(remainder))
        if not abs(b_norm - residuals[0]) <= 1e-9 * b_norm:
            return out.fail_all(f"||b||={residuals[0]}, expected {b_norm}")
        failed: dict[int, str] = {}
        for k in range(1, self.K + 1):
            if k > len(lams):
                failed[k] = f"stage {k} is missing"
                continue
            separable = np.outer(data[k - 1], np.exp(lams[k - 1] * self.r_nodes))
            scaled = coefficients[k - 1] * (cells[k - 1, :, :, 3] + 1j * cells[k - 1, :, :, 4])
            remainder = remainder - scaled
            if not np.max(np.abs(scaled - separable)) <= 1e-9 * np.max(np.abs(separable)):
                failed[k] = f"stage {k} is not h(s) e^(lambda r) on the grid"
            elif not abs(float(np.linalg.norm(remainder)) - residuals[k]) <= 1e-9 * b_norm:
                failed[k] = f"stage {k}: residual {residuals[k]} does not follow from the terms"
            elif residuals[k] > residuals[k - 1]:
                failed[k] = f"stage {k}: residual rose from {residuals[k - 1]} to {residuals[k]}"
        out.failed = len(failed)
        out.problems.extend(failed[k] for k in sorted(failed))
        return out


def make_check(label: str, config: dict):
    """The checker for one command of a workload, with its oracle prepared."""
    if label == "dictionary":
        return DictionaryCheck(config)
    return LatticeCheck(config, ORACLES[label]())
