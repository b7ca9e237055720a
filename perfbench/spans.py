"""Span recorder that wraps delib's public functions from outside.

Wrapping happens at run time, so the library's sources stay untouched. A
function is replaced at every module attribute that holds it (for example
``greedy_order`` lives in ``delib.slates``, ``delib.loop``,
``delib.rankings`` and the package namespace), because each caller looks
its callee up in its own module. ``AttitudeMatrix`` methods are replaced on
the class.

Spans are aggregated in memory by call path (the chain of wrapped callers
above them), which keeps the parent of every span while the hot leaf calls
(about a million ``record_attitude`` calls on ``desk``) cost a dictionary
update instead of a stored record. Self time is a span's duration minus the
duration of the wrapped spans nested directly inside it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import comb
from time import perf_counter
from typing import Callable


def _plan_counts(counts, args, kwargs, plan) -> None:
    counts["routing.pairs"] += len(plan.pairs)
    counts["routing.shortfall"] += plan.shortfall


def _exact_subsets(counts, args, kwargs, result) -> None:
    approvals, k = args[0], args[1]
    m = approvals.shape[1]
    counts["slates.exact.subsets"] += comb(m, k) if k < m else 0


def _import_cells(counts, args, kwargs, result) -> None:
    counts["dataio.cells"] += result[1].cells_set


def _count(metric: str, measure: Callable) -> Callable:
    def record(counts, args, kwargs, result) -> None:
        counts[metric] += measure(result)
    return record


# (module, attribute, counter) for every traced function; "matrix" entries
# are methods of AttitudeMatrix.
TARGETS = (
    ("matrix", "record_attitude", None),
    ("matrix", "add_participant", None),
    ("matrix", "add_idea", None),
    ("matrix", "snapshot", None),
    ("population", "ground_truth", None),
    ("population", "sample_attitudes", None),
    ("population", "step_churn", None),
    ("routing", "plan_uniform", _plan_counts),
    ("routing", "plan_ranking_proportional", _plan_counts),
    ("routing", "plan_uncertainty", _plan_counts),
    ("routing", "estimate_support", None),
    ("routing", "estimate_all_supports", None),
    ("rankings", "proportional_ranking", None),
    ("rankings", "elicitation_ranking", None),
    ("slates", "greedy_order", None),
    ("slates", "exact_order_and_score", _exact_subsets),
    ("slates", "greedy_slate", None),
    ("slates", "jr_audit", _count("slates.jr_audit.groups", len)),
    ("landscape", "impute_mean", None),
    ("landscape", "pca_2d", None),
    ("landscape", "kmeans", _count("landscape.kmeans.iterations", lambda c: len(c.objective_history))),
    ("landscape", "fairness_audit",
     _count("landscape.fairness_audit.coalitions", lambda a: len(a.blocking_coalitions))),
    ("landscape", "build_landscape", None),
    ("loop", "run_loop", None),
    ("dataio", "import_polis_long", _import_cells),
    ("dataio", "export_wide_csv", None),
    ("dataio", "import_wide_csv", _import_cells),
    ("cli", "main", None),
)

# The per-layer metrics a traced run reports, with their units. Names end
# in .s (total time of outermost spans), .self_s or .calls; the others are
# counters filled from arguments and return values.
PER_LAYER = (
    ("matrix.record_attitude.calls", "count"),
    ("matrix.record_attitude.s", "s"),
    ("matrix.add_participant.s", "s"),
    ("matrix.add_idea.s", "s"),
    ("matrix.snapshot.calls", "count"),
    ("matrix.snapshot.s", "s"),
    ("population.ground_truth.s", "s"),
    ("population.sample_attitudes.s", "s"),
    ("population.step_churn.s", "s"),
    ("routing.plan_uniform.s", "s"),
    ("routing.plan_ranking_proportional.s", "s"),
    ("routing.plan_uncertainty.s", "s"),
    ("routing.estimate_support.calls", "count"),
    ("routing.estimate_all_supports.s", "s"),
    ("routing.pairs", "count"),
    ("routing.shortfall", "count"),
    ("rankings.proportional_ranking.s", "s"),
    ("rankings.elicitation_ranking.self_s", "s"),
    ("slates.greedy_order.calls", "count"),
    ("slates.greedy_order.s", "s"),
    ("slates.exact_order_and_score.s", "s"),
    ("slates.exact.subsets", "count"),
    ("slates.greedy_slate.s", "s"),
    ("slates.jr_audit.s", "s"),
    ("slates.jr_audit.groups", "count"),
    ("landscape.impute_mean.s", "s"),
    ("landscape.pca_2d.s", "s"),
    ("landscape.kmeans.s", "s"),
    ("landscape.kmeans.iterations", "count"),
    ("landscape.fairness_audit.s", "s"),
    ("landscape.fairness_audit.coalitions", "count"),
    ("loop.run_loop.self_s", "s"),
    ("dataio.import_polis_long.s", "s"),
    ("dataio.export_wide_csv.s", "s"),
    ("dataio.import_wide_csv.s", "s"),
    ("dataio.cells", "count"),
    ("cli.main.self_s", "s"),
)


@dataclass
class _PathStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans keyed by call path, plus counters."""

    paths: dict[tuple[str, ...], _PathStats] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)  # [path, nested_s]
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        stack, paths, counts = self._stack, self.paths, self.counts

        def traced(*args, **kwargs):
            path = (stack[-1][0] if stack else ()) + (name,)
            frame = [path, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats = paths.get(path)
                if stats is None:
                    stats = paths[path] = _PathStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target at every delib module attribute holding it."""
        from delib.matrix import AttitudeMatrix

        for metric, _ in PER_LAYER:
            if not metric.endswith((".s", ".self_s", ".calls")):
                self.counts[metric] = 0
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "delib" or key.startswith("delib."))]
        for layer, attr, counter in TARGETS:
            name = f"{layer}.{attr}"
            if layer == "matrix":
                original = AttitudeMatrix.__dict__[attr]
                self._restore.append((AttitudeMatrix, attr, original))
                setattr(AttitudeMatrix, attr, self._wrap(name, original, counter))
                continue
            original = getattr(sys.modules[f"delib.{layer}"], attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def by_name(self) -> dict[str, _PathStats]:
        """Per-function totals; time counts outermost spans only."""
        out: dict[str, _PathStats] = {}
        for path, stats in self.paths.items():
            name = path[-1]
            agg = out.setdefault(name, _PathStats())
            agg.calls += stats.calls
            agg.self_s += stats.self_s
            if name not in path[:-1]:
                agg.total_s += stats.total_s
        return out

    def per_layer_metrics(self) -> dict[str, float]:
        names = self.by_name()
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            if metric in self.counts:
                out[metric] = float(self.counts[metric])
                continue
            function, _, kind = metric.rpartition(".")
            stats = names.get(function, _PathStats())
            out[metric] = float({"s": stats.total_s, "self_s": stats.self_s, "calls": stats.calls}[kind])
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (module)."""
        out: dict[str, float] = {}
        for path, stats in self.paths.items():
            layer = path[-1].split(".")[0]
            out[layer] = out.get(layer, 0.0) + stats.self_s
        return out

    def span_tree(self) -> list[dict]:
        return [
            {"path": "/".join(path), "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for path, s in sorted(self.paths.items())
        ]
