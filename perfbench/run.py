"""Benchmark of koopeig's command line on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload vdp_lattice --seed 0 --seconds 30 --trace 0

The workload's commands run in this process through ``koopeig.cli.main``,
one after another: a closed loop with one client on one thread. The loop
repeats the workload until ``--seconds`` have passed (at least three
times), checks every output against oracles that do not use koopeig, and
reports medians.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; it fails when a count differs between two traced
repetitions. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Exit status: 0 when every
check passed, 1 when one failed, 2 when there is no koopeig checkout to
measure or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import RK45

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
MIN_TRACED = 2
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
IMPORT_TIMEOUT_S = 60
REFERENCE_STEPS = 3000
# setup_s is given in seconds at the speed where the reference kernel takes
# this long (about its time on a busy 2-vCPU host).
REFERENCE_NOMINAL_S = 0.2
# Each command must reproduce this report byte for byte under one config and seed.
REPORTS = {"eval": "eval_summary.json", "decompose": "decomposition.json"}
# Per-layer metrics in these units are work counts: they must repeat exactly.
COUNT_UNITS = ("count", "bytes")


def import_seconds(*flags: str) -> tuple[float, str]:
    """Wall time for a fresh interpreter to import koopeig.cli, and its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import koopeig.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=IMPORT_TIMEOUT_S, check=False,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing koopeig.cli failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def scipy_integrate_import_s() -> float:
    """Cumulative import time of scipy.integrate, from ``python -X importtime``."""
    _, log = import_seconds("-X", "importtime")
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
            return int(parts[1]) * 1e-6
    return 0.0


def reference_seconds() -> float:
    """Wall time of a fixed kernel of the kind of work koopeig does (scipy's
    RK45 stepping a small ODE on tiny numpy arrays), which koopeig's code does
    not touch. It measures how fast this host runs such code right now."""
    def vdp(_t, y):
        return np.array([y[1], y[1] * (1.0 - y[0] * y[0]) - y[0]])

    t0 = perf_counter()
    solver = RK45(vdp, 0.0, np.array([2.0, 0.0]), t_bound=math.inf, rtol=1e-10, atol=1e-10)
    for _ in range(REFERENCE_STEPS):
        solver.step()
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_context() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Session:
    """One workload's commands, repeated and checked."""

    def __init__(self, workload, run_dir: Path, cli_main):
        self.commands = workload.commands
        self.run_dir = run_dir
        self.cli_main = cli_main
        self.config_paths = []
        for cmd in self.commands:
            path = run_dir / f"{cmd.label}.json"
            path.write_text(json.dumps(cmd.config, indent=2), encoding="utf-8")
            self.config_paths.append(path)
        self.checks = [checks.make_check(cmd.label, cmd.config) for cmd in self.commands]
        self.first_reports: dict[str, bytes] = {}
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fit_residual_rel = 0.0

    def repeat(self, tracer=None) -> float:
        """Run every command once; check the outputs; return the commands' wall time."""
        rep_dir = self.run_dir / f"rep{self.reps}"
        self.reps += 1
        codes = []
        scope = tracing.install(tracer) if tracer is not None else contextlib.nullcontext()
        t0 = perf_counter()
        with scope:
            for cmd, config in zip(self.commands, self.config_paths):
                argv = [cmd.verb, "--config", str(config), "--out", str(rep_dir / cmd.label)]
                try:
                    codes.append(self.cli_main(argv))
                except Exception:  # a crash fails this command's operations only
                    traceback.print_exc()
                    codes.append(None)
        wall = perf_counter() - t0
        for cmd, check, code in zip(self.commands, self.checks, codes):
            out_dir = rep_dir / cmd.label
            outcome = check(out_dir, code)
            self._compare_report(cmd, out_dir, outcome)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems.extend(f"rep {self.reps - 1} {cmd.label}: {p}" for p in outcome.problems)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return wall

    def _compare_report(self, cmd, out_dir: Path, outcome: checks.Outcome) -> None:
        name = REPORTS[cmd.verb]
        try:
            data = (out_dir / name).read_bytes()
        except OSError:
            return  # the check has already failed the command
        if data != self.first_reports.setdefault(cmd.label, data):
            outcome.fail_all(f"{name} differs from the first repetition's")
        if cmd.verb == "decompose" and not outcome.failed:
            residuals = json.loads(data)["residuals"]
            self.fit_residual_rel = residuals[-1] / residuals[0]


def measure_untraced(session: Session, seconds: float) -> dict:
    # The host's speed swings by up to 2x within minutes as other tenants
    # come and go. Each timed step is divided by the mean time of the
    # reference kernel just before and after it, which cancels most of that;
    # setup_s is then scaled back to seconds at the nominal reference speed.
    refs = [reference_seconds()]
    imports, setups = [], []
    for _ in range(SETUP_SAMPLES):
        imports.append(import_seconds()[0])
        refs.append(reference_seconds())
        setups.append(imports[-1] * REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
    walls, rels = [], []
    start = perf_counter()
    # Stop at the repetition whose end falls nearest the deadline.
    while len(walls) < MIN_REPS or perf_counter() - start + walls[-1] / 2 < seconds:
        walls.append(session.repeat())
        refs.append(reference_seconds())
        rels.append(walls[-1] / ((refs[-2] + refs[-1]) / 2))
    print(f"{len(walls)} repetitions: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"  {'wall_s':40s} {statistics.median(walls):.6g} s (raw median)")
    print(f"  {'import_s':40s} {statistics.median(imports):.6g} s (raw median)")
    return {
        "wall_rel": statistics.median(rels),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "repetition_walls_s": walls,
        "import_samples_s": imports,
        "reference_s": refs,
    }


def measure_traced(session: Session, seconds: float, units: dict, trace_path: Path) -> dict:
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED or perf_counter() - start + (plain[-1] + traced[-1]) / 2 < seconds:
        plain.append(session.repeat())
        tracer = tracing.Tracer()
        traced.append(session.repeat(tracer))
        tracers.append(tracer)
    per_rep = [t.layer_metrics() for t in tracers]
    layer = {}
    for name, first in per_rep[0].items():
        values = [m[name] for m in per_rep]
        if units.get(name) in COUNT_UNITS:
            if any(v != first for v in values):
                session.failed += 1
                session.problems.append(f"nondeterminism: {name} differs between traced repetitions: {values}")
            layer[name] = first
        else:
            layer[name] = statistics.median(values)
    for kind in ("hit", "miss"):
        samples = [ms for t in tracers for ms in t.latencies_ms("eigenfunctions.pullback", kind)]
        p50, tail, pct = tracing.tail(samples)
        layer[f"eigenfunctions.pullback.{kind}_ms_p50"] = p50
        layer[f"eigenfunctions.pullback.{kind}_ms_tail"] = tail
        layer[f"eigenfunctions.pullback.{kind}_tail_pct"] = pct
        layer[f"eigenfunctions.pullback.{kind}_samples"] = len(samples)
    layer["decomposition.fit_residual_rel"] = session.fit_residual_rel
    layer["setup.scipy_integrate_import_s"] = statistics.median(
        scipy_integrate_import_s() for _ in range(IMPORTTIME_SAMPLES)
    )
    layer["cli.wall_s"] = statistics.median(plain)
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps(
            {
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "tag"],
                "repetitions": [
                    {
                        "totals": {k: {"calls": c, "s": s, "self_s": own} for k, (c, s, own) in t.totals().items()},
                        "spans": [sp.as_tuple() for sp in t.spans],
                    }
                    for t in tracers
                ],
            },
            separators=(",", ":"),
        ),
        encoding="utf-8",
    )
    print(f"traced {len(traced)} and untraced {len(plain)} repetitions; spans in {trace_path.relative_to(ROOT)}")
    return layer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "koopeig" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no koopeig checkout at {ROOT} (need src/koopeig and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from koopeig.cli import main as cli_main

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    context = run_context()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        session = Session(workload, run_dir, cli_main)
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v!r}" for k, v in context.items()))
        if args.trace:
            wanted = spec["per_layer"]
            found = measure_traced(session, args.seconds, {m["name"]: m["unit"] for m in wanted}, WORK / "traces" / f"{tag}.json")
            context["trace.overhead_frac"] = found["trace.overhead_frac"]
        else:
            wanted = spec["end_to_end"]
            found = measure_untraced(session, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {session.failed / session.attempted:.6g} ({session.failed} of {session.attempted} operations)")
    if any(cmd.verb == "decompose" for cmd in workload.commands):
        print(f"  {'fit_residual_rel':40s} {session.fit_residual_rel:.6g} (R_K / ||b||)")
    for problem in session.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    record = WORK / "results" / f"{tag}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(
        json.dumps({"context": context, "found": found, "problems": session.problems}, indent=1, default=str),
        encoding="utf-8",
    )
    correct = session.failed == 0
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
