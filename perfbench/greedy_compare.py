"""Eager against lazy greedy on the desk workload's approvals.

    python3 perfbench/greedy_compare.py --seed 1 --repeats 9

Loads the desk vote file for the seed (4000 x 400, about 30 % known) and
times ``greedy_slate(..., lazy=False)`` (the matrix-vector greedy that
``greedy_order`` implements) against ``greedy_slate(..., lazy=True)``
(Minoux's lazy greedy), alternating which goes first, for k = 5 and
k = m. Prints the median and quartiles of each, and whether the two
return the same slate.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
from time import perf_counter

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    run._import_delib()
    import inputs
    import workloads
    from delib import dataio, slates

    desk = workloads.Desk()
    workdir = run.HERE / "work" / f"greedy-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        means, weights = workloads.THREE_BLOCS
        votes = inputs.bloc_votes(workdir / "votes.csv", workloads.derive(args.seed, 4), desk.N, desk.M, desk.CELLS,
                                  means, weights)
        matrix, _ = dataio.import_polis_long(votes.path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harmonic = slates.ScoringKind.HARMONIC
    for k in (5, matrix.n_ideas):
        slates.greedy_slate(matrix, k, harmonic)  # warm-up
        times = {False: [], True: []}
        results = {}
        for r in range(args.repeats):
            for lazy in ((False, True) if r % 2 == 0 else (True, False)):
                start = perf_counter()
                results[lazy] = slates.greedy_slate(matrix, k, harmonic, lazy=lazy)
                times[lazy].append(perf_counter() - start)
        for lazy, label in ((False, "eager"), (True, "lazy")):
            q1, med, q3 = statistics.quantiles(times[lazy], n=4)
            print(f"k={k:<4} {label:<6} median {med:.4f} s  quartiles {q1:.4f} .. {q3:.4f} s  ({args.repeats} runs)")
        print(f"k={k:<4} same slate: {results[False].ideas == results[True].ideas}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
