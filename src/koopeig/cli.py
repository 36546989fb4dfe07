"""Configuration-driven command line: eigenfunction grids, decompositions, spectrum demo.

Each subcommand reads what to compute from the JSON file at ``--config``
and writes into the directory ``--out`` (default ``out``).
Exit codes: 0 ok, 2 config error (also an ``--out`` that cannot be written),
3 domain failure, 4 empty target. All files are written atomically (temp +
rename); repeated runs with the same config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config_file
from .decomposition import TargetSample, build_grid, greedy_decompose
from .eigenfunctions import OpenEigenfunction, evaluate_points, koopman_defects
# Not called here, but perfbench/tracing.py patches cli.koopman_residual.
from .eigenfunctions import koopman_residual  # noqa: F401
from .errors import (
    MISS_REASONS,
    ConfigError,
    EmptyTargetError,
    NotInDomainError,
    ZeroFieldError,
)
from .manifolds import DataFunction, check_transversality
from .spectrum import scaling_fit, wedge_point_spectrum_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_EMPTY = 4

# write_csv formats and writes a block at most this many rows at a time, so its
# memory does not grow with the block.
WRITE_ROWS = 2**16


def _write_atomic(path: Path, chunks) -> None:
    """Write the text chunks to a temp file and rename it over ``path``; a failed
    write removes the temp file."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cells(column: np.ndarray) -> list[str]:
    """The "%.17g" strings of a 1-D float array, from one formatting call."""
    values = column.tolist()
    return ("%.17g," * len(values) % tuple(values)).split(",")[:-1]


def write_csv(path: Path, header: list[str], columns, stages=None) -> None:
    """Write 1-D columns under a header row, every value as "%.17g".

    Without ``stages`` the rows are ``columns`` side by side. With them, each
    item of ``stages`` (a list of 1-D columns) gives the block of rows
    ``(k, *columns, *stage_columns)`` of stage k, counting from 1. Each block
    is formatted and written in slices of at most WRITE_ROWS rows; the cells
    of ``columns`` are kept for the last slice formatted, so they are
    formatted once for all stages when a block fits in one slice. Ragged
    columns, or rows of another width than the header, raise ValueError.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]

    @functools.lru_cache(maxsize=1)
    def shared(lo: int) -> list[list[str]]:
        return [_cells(column[lo:lo + WRITE_ROWS]) for column in columns]

    def chunks():
        yield ",".join(header) + "\n"
        for stage, stage_columns in enumerate([[]] if stages is None else stages, start=1):
            prefix = "" if stages is None else "%.17g," % stage
            stage_columns = [np.asarray(column, dtype=float) for column in stage_columns]
            lengths = [len(column) for column in columns + stage_columns]
            if len(lengths) + bool(prefix) != len(header) or len(set(lengths)) > 1:
                raise ValueError(f"{path.name}: columns of lengths {lengths} for {header}")
            for lo in range(0, max(lengths, default=0), WRITE_ROWS):
                own = [_cells(column[lo:lo + WRITE_ROWS]) for column in stage_columns]
                cells = shared(lo) + own
                yield prefix + ("\n" + prefix).join(map(",".join, zip(*cells))) + "\n"

    _write_atomic(path, chunks())


def _finite(obj):
    """obj with each non-finite float in it, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def write_json(path: Path, obj) -> None:
    """Write obj as strict JSON, each non-finite float as null."""
    _write_atomic(path, [json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"])


def _c2l(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _prepare(cfg: RunConfig):
    system = cfg.make_system()
    manifold = cfg.make_manifold(system)
    try:
        report = check_transversality(manifold, system.field)
    except (ValueError, ZeroFieldError) as exc:
        raise ConfigError(str(exc), field="manifold") from exc
    if not report.passed:
        raise ConfigError(
            f"data manifold is not transverse to the flow "
            f"(min margin {report.min_margin:.3g} at "
            f"{report.violations[:3].tolist()}...)",
            field="manifold",
        )
    return system, manifold


def cmd_eval(cfg: RunConfig, out_dir: Path) -> int:
    system, manifold = _prepare(cfg)
    window = cfg.t_window
    if cfg.eig_lambda is None or cfg.eig_h is None:
        raise ConfigError("eval needs eig.lambda and eig.h", field="eig")
    if cfg.lattice is None:
        raise ConfigError("eval needs a lattice", field="lattice")
    dim = system.field.dim
    points = cfg.lattice
    data = DataFunction.from_callable(manifold, cfg.eig_h)
    eig = OpenEigenfunction(
        cfg.eig_lambda, data, manifold, system.field, window, tol=cfg.integrator_tol
    )
    phi, r_star, s_star, why = evaluate_points(eig, points)
    hit = ~np.isnan(r_star)
    write_csv(
        out_dir / "keig_grid.csv",
        [f"x{k + 1}" for k in range(dim)] + ["phi_re", "phi_im", "r_star", "s_star"],
        [*points[hit].T, phi[hit].real, phi[hit].imag, r_star[hit], s_star[hit]],
    )
    n_total = len(points)
    n_ok = int(hit.sum())

    # Self-certification spot check on points whose short-time image stays in
    # the window. The picks whose orbit escapes or whose image misses are
    # counted by reason, and the others are certified.
    t_spot = min(0.1, 0.25 * (window[1] - window[0]) if window[1] > window[0] else 0.1)
    safe = np.flatnonzero(hit & (r_star + t_spot < window[1] - 1e-6))
    spot, spot_why = None, np.full(0, None, dtype=object)
    if safe.size:
        rng = np.random.default_rng(cfg.seed)
        picks = points[safe[rng.choice(len(safe), size=min(10, len(safe)), replace=False)]]
        defects, spot_why = koopman_defects(eig, picks, t_spot, tol=cfg.integrator_tol)
        kept = np.equal(spot_why, None)
        spot = float(defects[kept].max()) if kept.any() else None
    summary = {
        "command": "eval",
        "lambda": _c2l(eig.eigenvalue),
        "lattice_points": n_total,
        "in_domain_points": n_ok,
        "miss_reasons": {reason: int(np.sum(why == reason)) for reason in MISS_REASONS},
        "spot_check_t": t_spot,
        "spot_check_residual": spot,
        "spot_check_misses": {reason: int(np.sum(spot_why == reason)) for reason in MISS_REASONS},
        "config_echo": cfg.echo,
    }
    write_json(out_dir / "eval_summary.json", summary)
    if n_ok * 2 < n_total:
        print(
            f"eval: only {n_ok}/{n_total} lattice points inside the domain",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_decompose(cfg: RunConfig, out_dir: Path) -> int:
    system, manifold = _prepare(cfg)
    if cfg.target is None:
        raise ConfigError("decompose needs a target expression", field="target")
    dim = system.field.dim
    if manifold.s_min == manifold.s_max and cfg.grid_n > 0:
        raise ConfigError("the manifold has a single parameter: n must be 0", field="grid.n")
    if cfg.t_window[0] == cfg.t_window[1] and cfg.grid_m > 0:
        raise ConfigError("the window has a single time: m must be 0", field="grid.m")
    try:
        grid = build_grid(
            system.field, manifold, cfg.t_window, cfg.grid_n, cfg.grid_m, cfg.integrator_tol
        )
    except NotInDomainError as exc:
        raise ConfigError(f"the grid's flow escapes: {exc}", field="t_window") from exc
    target = TargetSample.from_function(grid, cfg.target)
    try:
        result = greedy_decompose(
            grid, target, cfg.candidates, cfg.K, cfg.stop_tol, eig_tol=cfg.integrator_tol
        )
    except OverflowError as exc:
        raise ConfigError(str(exc), field="lambda_sweep") from exc
    report = {
        "command": "decompose",
        "terms": [
            {
                "lambda": _c2l(term.eigenvalue),
                "c": term.coefficient,
                "h_samples": [_c2l(v) for v in term.data.values],
            }
            for term in result.terms
        ],
        "residuals": [float(r) for r in result.residual_norms],
        "config_echo": cfg.echo,
    }
    write_json(out_dir / "decomposition.json", report)
    norms = result.residual_norms
    write_csv(out_dir / "residuals.csv", ["k", "residual_norm"], [np.arange(norms.size), norms])
    # Every stage sweeps the same candidates and fits h at the grid's nodes.
    write_csv(
        out_dir / "lambda_curves.csv",
        ["stage", "lambda_re", "lambda_im", "residual"],
        [cfg.candidates.real, cfg.candidates.imag],
        ([sweep.residual_curve] for sweep in result.lambda_curves),
    )
    write_csv(
        out_dir / "h_functions.csv",
        ["stage", "s", "h_re", "h_im"],
        [grid.s_nodes],
        ([term.data.values.real, term.data.values.imag] for term in result.terms),
    )
    points = grid.points.reshape(-1, dim)  # row-major over (s_i, r_j)
    write_csv(
        out_dir / "term_grids.csv",
        ["stage"] + [f"x{k + 1}" for k in range(dim)] + ["phi_re", "phi_im"],
        points.T,
        ([term.phi_grid.real.ravel(), term.phi_grid.imag.ravel()] for term in result.terms),
    )
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    spec = cfg.spectrum
    fit = scaling_fit(spec.omega, spec.t, spec.n_list, spec.annulus)
    header = ["n", "residual", "phi_norm", "relative_residual"]
    columns = [fit.n_values, fit.residual_norms, fit.phi_norms, fit.relative_residuals]
    write_csv(out_dir / "spectrum_scaling.csv", header, columns)
    wedge = wedge_point_spectrum_check(spec.lambdas, spec.alpha_window, spec.h, seed=cfg.seed)
    summary = {
        "command": "spectrum",
        "omega": spec.omega,
        "t": spec.t,
        "slope": fit.slope,
        "rows": [dict(zip(header, (int(n), *map(float, rest)))) for n, *rest in zip(*columns)],
        "wedge": {
            "max_residual": wedge.max_residual,
            "lambdas": [_c2l(z) for z in wedge.lambdas],
            "residuals": [float(r) for r in wedge.residuals],
        },
        "config_echo": cfg.echo,
    }
    write_json(out_dir / "spectrum_summary.json", summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopeig",
        description="Koopman eigenfunctions by characteristic pullback and "
        "greedy eigenfunction dictionaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eval", "evaluate one eigenfunction on a lattice, export CSV"),
        ("decompose", "greedy eigenfunction decomposition of a target"),
        ("spectrum", "approximate-eigenfunction scaling and wedge check"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_dict(load_config_file(args.config))
        out_dir = Path(args.out)
        # Only making the directory and writing the outputs raise OSError.
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            if args.command == "eval":
                return cmd_eval(cfg, out_dir)
            if args.command == "decompose":
                return cmd_decompose(cfg, out_dir)
            return cmd_spectrum(cfg, out_dir)
        except OSError as exc:
            raise ConfigError(str(exc), field="--out") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptyTargetError as exc:
        print(f"empty target: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except NotInDomainError as exc:
        print(f"domain failure: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
