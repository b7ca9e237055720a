"""delib benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload loop-churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from a checkout of the repository; it imports delib from ``src/``
of that checkout. It prints each metric by name with its unit, a digest of
the program's outputs, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run repeats
its timed phase with every public delib function wrapped in a span and
reports the per-layer metrics instead, also written with the span tree to
``perfbench/work/trace-<workload>-seed<seed>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("loop-churn", "loop-exact", "desk")
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds_per_s", "rounds/s"),
    ("loop_uniform_s", "s"),
    ("loop_ranking_s", "s"),
    ("loop_uncertainty_s", "s"),
    ("import_s", "s"),
    ("load_s", "s"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="sizes the timed work; see README.md")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_delib() -> None:
    """Put this checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "delib" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no delib sources under {src}")
    sys.path.insert(0, str(src))
    import delib

    if Path(delib.__file__).resolve().parent != (src / "delib").resolve():
        raise SystemExit(f"perfbench: imported delib from {delib.__file__}, not from {src}")


def _end_to_end(run, setup_times: list[float]) -> dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(setup_times),
        "run_s": run.run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds_per_s": run.rounds / run.round_s,
        "loop_uniform_s": median(run.times["uniform"]),
        "loop_ranking_s": median(run.times["ranking"]),
        "loop_uncertainty_s": median(run.times["uncertainty"]),
        "import_s": median(run.times["import"]),
        "load_s": median(run.times["load"]),
    }


def run_one(args) -> int:
    _import_delib()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = HERE / "work"
    workdir = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            votes = workload.setup(workdir, args.seed)
            setup_times.append(perf_counter() - start)
        run = workloads.Run(check=True)
        workload.timed(run, votes, workdir, args.seed, args.seconds)
        if args.trace:
            tracer = spans.Tracer()
            traced = workloads.Run(check=False)
            tracer.install()
            try:
                workload.timed(traced, votes, workdir, args.seed, args.seconds)
            finally:
                tracer.uninstall()
            run.problems.require(traced.digest == run.digest, "traced run produced different outputs")
            metrics = tracer.per_layer_metrics()
            metrics["trace.overhead_s"] = traced.run_s - run.run_s
            units = dict(spans.PER_LAYER, **{"trace.overhead_s": "s"})
            layer_self = tracer.layer_self_s()
            trace_file = work / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "run_s_untraced": run.run_s, "run_s_traced": traced.run_s,
                "metrics": metrics,
                "layer_self_s": layer_self,
                "layer_share": {layer: s / traced.run_s for layer, s in layer_self.items()},
                "spans": tracer.span_tree(),
            }, indent=1) + "\n")
            print(f"trace written to {trace_file.relative_to(ROOT)}")
        else:
            metrics = _end_to_end(run, setup_times)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {run.attempted} operations attempted, "
          f"{run.failed} failed, {len(run.problems)} failed checks")
    print(f"digest {run.digest}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and warm-up stay apart."""
    status, summary = 0, {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            status = done.returncode
            continue
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
