"""Outside-in tracing of koopeig's layers for the benchmark's traced runs.

``install(tracer)`` replaces, for the length of a ``with`` block, the
public functions the layers call each other through and the callables each
layer receives (right-hand sides, closed-form flows, manifold embeddings
and surfaces, the RK45 stepper, the target observable) with wrappers that
record spans and counts. It edits no koopeig source and restores every
attribute on exit.

Spans are (id, parent id, name, start ns, end ns, tag) and stay in memory;
the caller writes them out when the run ends. Callables that run hundreds
of thousands of times per command only count.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns
from typing import Callable, Optional

import numpy as np

# Pullback latency tails: the highest of these percentiles with at least
# ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
TAIL_SAMPLES = 10


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "tag")

    def as_tuple(self):
        return (self.id, self.parent, self.name, self.start, self.end, self.tag)


class Tracer:
    """Spans and counts of one traced command sequence."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.step_seconds = 0.0
        self.spans: list[_Span] = []
        self._ids = itertools.count(1)
        self._stack = [0]

    @contextmanager
    def span(self, name: str):
        sp = _Span()
        sp.id, sp.parent, sp.name, sp.tag = next(self._ids), self._stack[-1], name, ""
        self._stack.append(sp.id)
        sp.start = perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(sp)

    def counted(self, key: str, fn: Optional[Callable]) -> Optional[Callable]:
        if fn is None:
            return None
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; ``after(args, result)`` returns counts to add."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    self.counts.update(after(args, result))
                return result

        return wrapper

    def stepper(self, base: type) -> type:
        """The integrator class with each accepted step counted and timed."""
        tracer = self

        class CountedStepper(base):
            def step(self):
                t0 = perf_counter()
                try:
                    return super().step()
                finally:
                    tracer.step_seconds += perf_counter() - t0
                    tracer.counts["dynamics.flow.steps"] += 1

        return CountedStepper

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        by_id = {sp.id: sp for sp in self.spans}
        child_ns = Counter()
        for sp in self.spans:
            if sp.parent in by_id:
                child_ns[sp.parent] += sp.end - sp.start
        out: dict[str, list] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, [0, 0, 0])
            row[0] += 1
            row[1] += sp.end - sp.start
            row[2] += sp.end - sp.start - child_ns[sp.id]
        return {k: (c, t * 1e-9, s * 1e-9) for k, (c, t, s) in out.items()}

    def latencies_ms(self, name: str, tag: str) -> list[float]:
        return [(sp.end - sp.start) * 1e-6 for sp in self.spans if sp.name == name and sp.tag == tag]

    def layer_metrics(self) -> dict[str, float]:
        """Counts and busy times of one traced run, by per-layer metric name."""
        totals = self.totals()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def seconds(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def tagged(name, tag):
            return sum(1 for sp in self.spans if sp.name == name and sp.tag == tag)

        pullbacks = calls("eigenfunctions.pullback")
        return {
            "dynamics.rhs.calls": self.counts["dynamics.rhs.calls"],
            "dynamics.flow.calls": calls("dynamics.flow"),
            "dynamics.flow.steps": self.counts["dynamics.flow.steps"],
            "dynamics.flow.s": self.step_seconds,
            "dynamics.closed_form.calls": self.counts["dynamics.closed_form.calls"],
            "manifolds.surface.calls": self.counts["manifolds.surface.calls"],
            "manifolds.embed.calls": self.counts["manifolds.embed.calls"],
            "dynamics.find_crossings.calls": calls("dynamics.find_crossings"),
            "dynamics.find_crossings.s": seconds("dynamics.find_crossings"),
            "dynamics.find_crossings.crossings": self.counts["dynamics.find_crossings.crossings"],
            "dynamics.find_crossings.empty": tagged("dynamics.find_crossings", "empty"),
            "dynamics.find_crossings.escapes": tagged("dynamics.find_crossings", "escape"),
            "eigenfunctions.pullback.calls": pullbacks,
            "eigenfunctions.pullback.s": seconds("eigenfunctions.pullback"),
            "eigenfunctions.pullback.hit_ratio": tagged("eigenfunctions.pullback", "hit") / pullbacks if pullbacks else 0.0,
            "eigenfunctions.evaluate_points.s": seconds("eigenfunctions.evaluate_points"),
            "eigenfunctions.koopman_residual.s": seconds("eigenfunctions.koopman_residual"),
            "eigenfunctions.koopman_residual.points": self.counts["eigenfunctions.koopman_residual.points"],
            "decomposition.build_grid.s": seconds("decomposition.build_grid"),
            "decomposition.sweep_lambda.s": seconds("decomposition.sweep_lambda"),
            "decomposition.sweep_lambda.calls": calls("decomposition.sweep_lambda"),
            "decomposition.sweep_lambda.candidates": self.counts["decomposition.sweep_lambda.candidates"],
            "decomposition.fit_h.calls": calls("decomposition.fit_h"),
            "decomposition.fit_h.s": seconds("decomposition.fit_h"),
            "decomposition.greedy_decompose.s": seconds("decomposition.greedy_decompose"),
            "decomposition.greedy_decompose.terms": self.counts["decomposition.greedy_decompose.terms"],
            "decomposition.target_sample.s": seconds("decomposition.target_sample"),
            "decomposition.target_sample.evals": self.counts["decomposition.target_sample.evals"],
            "manifolds.check_transversality.s": seconds("manifolds.check_transversality"),
            "cli.write.s": seconds("cli.write"),
            "cli.write.bytes": self.counts["cli.write.bytes"],
        }


def tail(samples: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile); the tail is the highest listed
    percentile with at least ten samples beyond it, (0, 0) when none has."""
    if not samples:
        return 0.0, 0.0, 0.0
    med = float(np.median(samples))
    for p in TAIL_PERCENTILES:
        if len(samples) * (100.0 - p) >= 100.0 * TAIL_SAMPLES - 1e-6:
            return med, float(np.percentile(samples, p)), p
    return med, 0.0, 0.0


@contextmanager
def install(tracer: Tracer):
    """Route koopeig's layer boundaries through the tracer inside the block."""
    from koopeig import cli, config, decomposition, dynamics, eigenfunctions
    from koopeig.errors import (
        AmbiguousCrossingError,
        BlowUpError,
        NotInDomainError,
        StepUnderflowError,
    )

    counts = tracer.counts
    make_system = config.RunConfig.make_system
    make_manifold = config.RunConfig.make_manifold
    from_function = vars(decomposition.TargetSample)["from_function"].__func__
    find_crossings = eigenfunctions.find_crossings
    pullback = eigenfunctions.pullback

    def traced_system(cfg):
        system = make_system(cfg)
        fld = dataclasses.replace(
            system.field,
            rhs=tracer.counted("dynamics.rhs.calls", system.field.rhs),
            closed_form_flow=tracer.counted("dynamics.closed_form.calls", system.field.closed_form_flow),
        )
        return dataclasses.replace(system, field=fld)

    def traced_manifold(cfg, system):
        m = make_manifold(cfg, system)
        return dataclasses.replace(
            m,
            embed=tracer.counted("manifolds.embed.calls", m.embed),
            surface=tracer.counted("manifolds.surface.calls", m.surface),
        )

    def traced_target(cls, grid, q):
        with tracer.span("decomposition.target_sample"):
            return from_function(cls, grid, tracer.counted("decomposition.target_sample.evals", q))

    def traced_crossings(*args, **kwargs):
        with tracer.span("dynamics.find_crossings") as sp:
            try:
                found = find_crossings(*args, **kwargs)
            except (BlowUpError, StepUnderflowError):
                sp.tag = "escape"
                raise
            sp.tag = "" if found else "empty"
            counts["dynamics.find_crossings.crossings"] += len(found)
            return found

    def traced_pullback(*args, **kwargs):
        with tracer.span("eigenfunctions.pullback") as sp:
            try:
                result = pullback(*args, **kwargs)
            except (NotInDomainError, AmbiguousCrossingError):
                sp.tag = "miss"
                raise
            sp.tag = "hit"
            return result

    def written(args, _result):
        return {"cli.write.bytes": args[0].stat().st_size}

    patches = [
        (dynamics, "RK45", tracer.stepper(dynamics.RK45)),
        (config.RunConfig, "make_system", traced_system),
        (config.RunConfig, "make_manifold", traced_manifold),
        (eigenfunctions, "find_crossings", traced_crossings),
        (eigenfunctions, "pullback", traced_pullback),
        (eigenfunctions, "flow", tracer.timed("dynamics.flow", eigenfunctions.flow)),
        (decomposition, "flow", tracer.timed("dynamics.flow", decomposition.flow)),
        (cli, "cmd_eval", tracer.timed("cli.eval", cli.cmd_eval)),
        (cli, "cmd_decompose", tracer.timed("cli.decompose", cli.cmd_decompose)),
        (cli, "check_transversality", tracer.timed("manifolds.check_transversality", cli.check_transversality)),
        (cli, "evaluate_points", tracer.timed("eigenfunctions.evaluate_points", cli.evaluate_points)),
        (
            cli,
            "koopman_residual",
            tracer.timed(
                "eigenfunctions.koopman_residual", cli.koopman_residual,
                lambda args, _r: {"eigenfunctions.koopman_residual.points": len(args[1])},
            ),
        ),
        (cli, "build_grid", tracer.timed("decomposition.build_grid", cli.build_grid)),
        (
            cli,
            "greedy_decompose",
            tracer.timed(
                "decomposition.greedy_decompose", cli.greedy_decompose,
                lambda _args, result: {"decomposition.greedy_decompose.terms": len(result.terms)},
            ),
        ),
        (
            decomposition,
            "sweep_lambda",
            tracer.timed(
                "decomposition.sweep_lambda", decomposition.sweep_lambda,
                lambda args, _r: {"decomposition.sweep_lambda.candidates": int(np.size(args[2]))},
            ),
        ),
        (decomposition, "fit_h", tracer.timed("decomposition.fit_h", decomposition.fit_h)),
        (decomposition.TargetSample, "from_function", classmethod(traced_target)),
        (cli, "write_csv", tracer.timed("cli.write", cli.write_csv, written)),
        (cli, "write_json", tracer.timed("cli.write", cli.write_json, written)),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
