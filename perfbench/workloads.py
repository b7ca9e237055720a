"""The three workloads: two simulated loops and a platform operator's desk.

Each workload is a closed loop with one caller in this process. Its inputs
are a pure function of the seed, and the amount of timed work is a pure
function of ``--seconds`` (a number of passes sized so that the timed
phase lasts about that long on a 2-CPU machine), never of the clock, so a
faster program shows up as a shorter ``run_s`` for the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from delib import cli, dataio, landscape, loop, population, rankings, routing, slates
from delib.matrix import Attitude

POLICIES = ("uniform", "ranking", "uncertainty")
TWO_BLOCS = (((-3.0, 0.0), (3.0, 0.0)), (0.5, 0.5))
THREE_BLOCS = (((-4.0, 0.0), (4.0, 0.0), (0.0, 3.5)), (0.5, 0.3, 0.2))

# seed-derivation tags keep the per-purpose streams apart
_TAG_PILOT, _TAG_WARM, _TAG_PASS, _TAG_DESK, _TAG_CYCLE = 1, 2, 3, 4, 5


def derive(*parts: int) -> int:
    return int(np.random.SeedSequence([p & ((1 << 63) - 1) for p in parts]).generate_state(1)[0])


class Run:
    """Timed program calls, their failures, output checks and a digest."""

    def __init__(self, check: bool):
        self.check = check
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.round_s = 0.0
        self.problems = checks.Problems()
        self._digest = hashlib.sha256()

    def op(self, label: str, fn, *args, **kwargs):
        """One timed call into the program; None when it raises."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            # a failing operation is counted, not fatal: the run goes on
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.times[label].append(perf_counter() - start)
        return result

    def skip(self, count: int) -> None:
        """Operations that could not run because one they need failed."""
        self.attempted += count
        self.failed += count

    def note(self, *outputs) -> None:
        self._digest.update(repr(outputs).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def run_s(self) -> float:
        return sum(sum(times) for times in self.times.values())


def _import_polis(votes: Path, wide: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["import-polis", "--input", str(votes), "--out", str(wide)])
    if code != 0:
        raise RuntimeError(f"delib import-polis exited with code {code}")
    return out.getvalue()


def ingest(run: Run, votes: inputs.Votes, wide: Path):
    """`delib import-polis` to a wide CSV, then `import_wide_csv`."""
    report = run.op("import", _import_polis, votes.path, wide)
    if report is None:
        run.skip(1)
        return None
    loaded = run.op("load", dataio.import_wide_csv, wide)
    if loaded is None:
        return None
    matrix, load_report = loaded
    report = json.loads(report)
    run.note(report, hashlib.sha256(matrix.codes().tobytes()).hexdigest())
    if run.check:
        checks.ingest(run.problems, votes, report, matrix, load_report)
    return matrix


# -- the loops -------------------------------------------------------------------


def _population(seed: int, **changes) -> population.PopulationConfig:
    means, weights = TWO_BLOCS
    mixture = tuple(population.MixtureComponent(w, mu, 1.0) for mu, w in zip(means, weights))
    return population.PopulationConfig(n0=200, approval_radius=3.0, mixture=mixture, seed=seed, **changes)


def churn_config(seed: int, policy: str) -> loop.LoopConfig:
    """The acceptance suite's standard config with churn, noise and new ideas."""
    return loop.LoopConfig(
        population=_population(seed, noise_sigma=0.5, arrival_rate=6.0, departure_prob=0.02),
        rounds=40, query_budget_per_round=400, routing_policy=policy,
        initial_ideas=50, ideas_per_round=2, slate_k=3, slate_solver="greedy", landscape_k=2, seed=seed,
    )


def exact_config(seed: int, policy: str) -> loop.LoopConfig:
    """Acceptance criterion 8's full-budget config: n*m queries, exact slates."""
    return loop.LoopConfig(
        population=_population(seed), rounds=30, query_budget_per_round=200 * 50, routing_policy=policy,
        initial_ideas=50, slate_k=3, slate_solver="auto", landscape_k=2, seed=seed,
    )


class LoopWorkload:
    """Per pass: `run_loop` once per routing policy, each after a pilot ingest.

    All three policies of a pass share one population; each pass draws a
    new one from the seed, so a run averages over several populations. The
    small ingests are spread between the loops rather than bunched, so their
    median samples the whole run.
    """

    def __init__(self, make_config, check_timeline, pass_s: float, warm_rounds: int):
        self.make_config = make_config
        self.check_timeline = check_timeline
        self.pass_s = pass_s
        self.warm_rounds = warm_rounds

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def setup(self, workdir: Path, seed: int) -> inputs.Votes:
        means, weights = TWO_BLOCS
        pilot = inputs.bloc_votes(workdir / "pilot.csv", derive(seed, _TAG_PILOT), 200, 50, 200 * 50, means, weights)
        warm = Run(check=False)
        ingest(warm, pilot, workdir / "pilot-wide.csv")
        # The first run_loop at full size is much slower than later ones (the
        # allocator is still growing its heap), so the uniform warm-up runs
        # until the matrix reaches the timed loops' size.
        for policy in POLICIES:
            rounds = self.warm_rounds if policy == "uniform" else 3
            loop.run_loop(replace(self.make_config(derive(seed, _TAG_WARM), policy), rounds=rounds))
        return pilot

    def timed(self, run: Run, pilot: inputs.Votes, workdir: Path, seed: int, seconds: float) -> None:
        for j in range(self.passes(seconds)):
            pass_seed = derive(seed, _TAG_PASS, j)
            for policy in POLICIES:
                ingest(run, pilot, workdir / "pilot-wide.csv")
                config = self.make_config(pass_seed, policy)
                timeline = run.op(policy, loop.run_loop, config)
                if timeline is None:
                    continue
                run.rounds += len(timeline.rows)
                run.round_s += run.times[policy][-1]
                run.note(policy, pass_seed, timeline.rows, timeline.notes)
                if run.check:
                    self.check_timeline(run.problems, config, timeline)


# -- the desk --------------------------------------------------------------------


class Desk:
    """Per pass: bulk ingest of a Polis export, then one refresh cycle per policy.

    A cycle records the previous plan's answers, snapshots, ranks both ways,
    picks and audits a slate, plans the next queries (the policy rotates
    through uniform, ranking, uncertainty) and rebuilds the landscape. Every
    pass starts again from the vote file with the same seeds, so its
    outputs repeat.
    """

    N, M, CELLS = 4000, 400, 480_000
    BUDGET = 1000
    SLATE_K = 5
    LANDSCAPE_K = 3
    pass_s = 11.5
    weights = routing.ElicitationWeights()

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def setup(self, workdir: Path, seed: int) -> inputs.Votes:
        means, weights = THREE_BLOCS
        votes = inputs.bloc_votes(workdir / "votes.csv", derive(seed, _TAG_DESK), self.N, self.M, self.CELLS,
                                  means, weights)
        small = inputs.bloc_votes(workdir / "warm.csv", derive(seed, _TAG_WARM), 200, 50, 3000, means, weights)
        self.session(Run(check=False), small, workdir / "warm-wide.csv", len(POLICIES), derive(seed, _TAG_WARM))
        # The first greedy_order on a full-size matrix runs about 1 s slower
        # than later ones (first use of its 12.8 MB working array); pay that
        # here rather than in the first timed cycle.
        slates.greedy_order(votes.truth, self.M, slates.ScoringKind.HARMONIC)
        return votes

    def timed(self, run: Run, votes: inputs.Votes, workdir: Path, seed: int, seconds: float) -> None:
        for _ in range(self.passes(seconds)):
            self.session(run, votes, workdir / "wide.csv", len(POLICIES), seed)

    def refresh(self, matrix, pairs, answers, policy: str, seed: int):
        for (i, p), attitude in zip(pairs, answers):
            matrix.record_attitude(i, p, attitude, served=True)
        snap = matrix.snapshot()
        active = snap.active_participants
        proportional = rankings.proportional_ranking(snap)
        elicitation = rankings.elicitation_ranking(snap, self.weights)
        slate = slates.greedy_slate(snap, self.SLATE_K, slates.ScoringKind.HARMONIC)
        violations = slates.jr_audit(snap, slate)
        if policy == "uniform":
            plan = routing.plan_uniform(snap, active, self.BUDGET, seed)
        elif policy == "ranking":
            plan = routing.plan_ranking_proportional(snap, elicitation, active, self.BUDGET, seed)
        else:
            plan = routing.plan_uncertainty(snap, active, self.BUDGET, self.weights, seed=seed)
        scape = landscape.build_landscape(snap, self.LANDSCAPE_K, seed, space="embedded")
        return proportional, elicitation, slate, violations, plan, scape

    def session(self, run: Run, votes: inputs.Votes, wide: Path, cycles: int, seed: int) -> None:
        matrix = ingest(run, votes, wide)
        if matrix is None:
            run.skip(cycles)
            return
        codes = votes.codes.copy()  # the benchmark's own record of known cells
        pairs, answers = (), ()
        for c in range(cycles):
            policy = POLICIES[c % len(POLICIES)]
            outputs = run.op(policy, self.refresh, matrix, pairs, answers, policy, derive(seed, _TAG_CYCLE, c))
            if outputs is None:
                run.skip(cycles - c - 1)
                return
            run.rounds += 1
            run.round_s += run.times[policy][-1]
            for (i, p), attitude in zip(pairs, answers):
                codes[i, p] = attitude.value
            proportional, elicitation, slate, violations, plan, scape = outputs
            run.note(policy, proportional.order, elicitation.order, sorted(slate.ideas),
                     [sorted(v.group) for v in violations], plan.pairs,
                     scape.clustering.assignment.tobytes())
            if run.check:
                approvals = codes == 1
                checks.plan(run.problems, plan, codes, self.BUDGET)
                checks.proportional_ranking(run.problems, proportional, approvals)
                checks.elicitation_ranking(run.problems, elicitation, codes, self.weights)
                checks.slate_and_audit(run.problems, slate, violations, approvals, self.SLATE_K)
                checks.landscape(run.problems, scape, codes, self.LANDSCAPE_K)
            pairs = plan.pairs
            answers = [Attitude.APPROVE if votes.truth[i, p] else Attitude.DISAPPROVE for i, p in pairs]


WORKLOADS = {
    "loop-churn": LoopWorkload(churn_config, checks.churn_timeline, pass_s=6.5, warm_rounds=40),
    "loop-exact": LoopWorkload(exact_config, checks.exact_timeline, pass_s=10.0, warm_rounds=3),
    "desk": Desk(),
}
