"""Golden fingerprints of seeded query plans and loop timelines.

Each fingerprint is a SHA-256 over the canonical text of seeded outputs:
for plans the policy, seed, shortfall and every pair in draw order; for
``run_loop`` every field of every round row, on a churning config (with
harmonic and with coverage scoring, both on the greedy solver, and with
the landscape clustered in the full imputed space) and on acceptance
criterion 8's full-budget config, where the exact slate solver runs. A
change to a planner, a slate solver or the landscape that alters any plan
or timeline for the same input and seed changes a hash and fails here.
Print the current values with

    PYTHONPATH=src python tests/test_plan_fingerprints.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from delib import (
    Attitude,
    AttitudeMatrix,
    ElicitationWeights,
    LoopConfig,
    MixtureComponent,
    PopulationConfig,
    ScoringKind,
    elicitation_ranking,
    plan_ranking_proportional,
    plan_uncertainty,
    plan_uniform,
    run_loop,
)

SEEDS = (0, 1, 97, 123456789, 2**40 + 3)


def _random_matrix(n, m, known, seed):
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random((n, m)) < known, (rng.random((n, m)) < 0.5).astype(int), -1)
    return AttitudeMatrix.from_dense([[None if c < 0 else int(c) for c in row] for row in cells])


def _churned():
    matrix = _random_matrix(30, 12, 0.4, 11)
    for i in (0, 3, 4, 17, 29):
        matrix.depart(i)
    return matrix


def _fully_known_idea():
    matrix = _random_matrix(16, 7, 0.3, 12)
    for i in range(matrix.n_participants):
        matrix.record_attitude(i, 2, Attitude(i % 2))
    matrix.depart(5)
    return matrix


def _cases():
    """(name, matrix, active, budget) inputs shared by all three planners."""
    churned = _churned()
    return [
        ("churned", churned, None, 50),
        ("explicit-active", churned, [1, 2, 3, 5, 8, 13, 21, 40], 25),
        ("over-budget", _random_matrix(6, 4, 0.5, 13), None, 100),
        ("fully-known-idea", _fully_known_idea(), None, 60),
        ("dense-unknown", _random_matrix(40, 25, 0.05, 14), None, 300),
        ("all-known", _random_matrix(5, 3, 1.0, 15), None, 4),
        ("no-ideas", AttitudeMatrix.from_dense([[], [], []]), None, 3),
        ("no-participants", AttitudeMatrix.from_dense([], texts=["a", "b"]), None, 3),
    ]


def _plan_text(plan) -> str:
    pairs = ";".join(f"{int(i)},{int(p)}" for i, p in plan.pairs)
    return f"{plan.policy_name}|{plan.seed}|{plan.shortfall}|{pairs}\n"


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _plans(matrix, active, budget, planner):
    for seed in SEEDS:
        if planner == "uniform":
            yield plan_uniform(matrix, active, budget, seed)
        elif planner == "ranking":
            ranking = elicitation_ranking(matrix)
            yield plan_ranking_proportional(matrix, ranking, active, budget, seed)
        else:
            yield plan_uncertainty(matrix, active, budget, seed=seed)
            yield plan_uncertainty(matrix, active, budget, ElicitationWeights(prior_weight=0.0), seed=seed)


def plan_fingerprints() -> dict[str, str]:
    out = {}
    for name, matrix, active, budget in _cases():
        for planner in ("uniform", "ranking", "uncertainty"):
            out[f"{name}/{planner}"] = _digest(
                _plan_text(plan) for plan in _plans(matrix, active, budget, planner)
            )
    return out


def _churn_config(policy: str) -> LoopConfig:
    population = PopulationConfig(
        n0=40,
        approval_radius=3.0,
        mixture=(MixtureComponent(0.5, (-3.0, 0.0), 1.0), MixtureComponent(0.5, (3.0, 0.0), 1.0)),
        noise_sigma=0.5,
        arrival_rate=3.0,
        departure_prob=0.05,
        seed=5,
    )
    return LoopConfig(
        population=population, rounds=5, query_budget_per_round=60, routing_policy=policy,
        initial_ideas=10, ideas_per_round=2, slate_k=3, slate_solver="greedy", landscape_k=2, seed=8,
    )


def _exact_config(policy: str) -> LoopConfig:
    """Criterion 8's config cut to 3 rounds: n0 = 200, budget n * m, exact slates."""
    population = PopulationConfig(
        n0=200,
        approval_radius=3.0,
        mixture=(MixtureComponent(0.5, (-3.0, 0.0), 1.0), MixtureComponent(0.5, (3.0, 0.0), 1.0)),
        seed=0,
    )
    return LoopConfig(
        population=population, rounds=3, query_budget_per_round=200 * 50, routing_policy=policy,
        initial_ideas=50, slate_k=3, slate_solver="auto", landscape_k=2, seed=0,
    )


def _row_text(row) -> str:
    fields = dataclasses.fields(row)
    return "|".join(f"{f.name}={float(getattr(row, f.name))!r}" for f in fields) + "\n"


def _timeline_digest(config: LoopConfig) -> str:
    timeline = run_loop(config)
    return _digest([*map(_row_text, timeline.rows), "|".join(timeline.notes)])


def loop_fingerprints() -> dict[str, str]:
    return {
        f"loop/{policy}": _timeline_digest(_churn_config(policy))
        for policy in ("uniform", "ranking", "uncertainty")
    }


def coverage_loop_fingerprints() -> dict[str, str]:
    return {
        f"loop-coverage/{policy}": _timeline_digest(
            dataclasses.replace(_churn_config(policy), scoring=ScoringKind.COVERAGE)
        )
        for policy in ("uniform", "ranking", "uncertainty")
    }


def full_space_loop_fingerprints() -> dict[str, str]:
    return {
        f"loop-full-space/{policy}": _timeline_digest(
            dataclasses.replace(_churn_config(policy), landscape_space="full")
        )
        for policy in ("uniform", "ranking", "uncertainty")
    }


def exact_loop_fingerprints() -> dict[str, str]:
    return {
        f"loop-exact/{policy}": _timeline_digest(_exact_config(policy))
        for policy in ("uniform", "ranking", "uncertainty")
    }


PLAN_FINGERPRINTS = {
    "churned/uniform": "9147934602c015f915ad435f3c2b2c846e546d86cbecb3cb44290fbed551e735",
    "churned/ranking": "a4c3ce1bce2e9d42227cde637e6c5eabfd5388957a80102b3ff6cd7c898cb89d",
    "churned/uncertainty": "270a34e602e34608474c4d7cf470cbacc88d4baba39b49026fdda04c45d24bf2",
    "explicit-active/uniform": "f9e35e605c51e3885ba3aca228fdc3c84dd3678ed2db297607c4020e74af0e0b",
    "explicit-active/ranking": "ff82c4c2cfdc40d9e442fb02d741efbbfc50bc631994de6b471172c5bd40d2cb",
    "explicit-active/uncertainty": "624d07c54094c264bcf9456137630477716e4afa486b823860f84df2aaeee53e",
    "over-budget/uniform": "2fcd4d596b9ad10940bbde699ce682b0d3bcbd23e8da903ded8fa3a19135a5c4",
    "over-budget/ranking": "34858273d4a38e71e414880a69af46be25423b7e9295f59bf5fb3360b3708a1b",
    "over-budget/uncertainty": "0a59a20fc75f78112f99ec77bdea558aa22cd95034f85318ca3a5f548670161e",
    "fully-known-idea/uniform": "8936774d552bc98e6dbab8cea2dc532b600840859df1edcca9283c4a64638ed7",
    "fully-known-idea/ranking": "8728657795d693108cf72f6a0481622cad7a699f8b72fb2688ae49e80922ba7e",
    "fully-known-idea/uncertainty": "5003ad1acf246d3979c0b13434bb852135089fd5d78309fea176f772e78b3069",
    "dense-unknown/uniform": "52c192dc09205535abeac38ae918f3d37b9e5e85d1e5b13ee752ebb5f60e9b09",
    "dense-unknown/ranking": "9091817f78d89e03da53ceeb447662de05f031abe26caedaa5d6a7c67c7113e1",
    "dense-unknown/uncertainty": "677420b07ad76378e08195d035de1692c8967c49c64fdc7eed9e1047d5c757d5",
    "all-known/uniform": "944d68a4d23286fcac8e3b3858ecabb0164c69c1d899cb0fefabac83493be137",
    "all-known/ranking": "41ddff6c88498c85e3a5b321a0edd00b44a337a4614d80277e27edb50aeb632d",
    "all-known/uncertainty": "373b211a59fc70e3970c5d9083db40cd7326ef4f81844270afbd4aef59e1a445",
    "no-ideas/uniform": "dd4bce865bf52b346ceadca13ed72ad62cde608317c049bafd75375459d66916",
    "no-ideas/ranking": "0c9867b40a53ccd6d09426c1f21e1281f2c40426dc937ff8689d91894074d70e",
    "no-ideas/uncertainty": "a29df60f77dbeb2556811fcc8f7ff9f8a18099d4490b1ad60124b1078f70f28e",
    "no-participants/uniform": "dd4bce865bf52b346ceadca13ed72ad62cde608317c049bafd75375459d66916",
    "no-participants/ranking": "0c9867b40a53ccd6d09426c1f21e1281f2c40426dc937ff8689d91894074d70e",
    "no-participants/uncertainty": "a29df60f77dbeb2556811fcc8f7ff9f8a18099d4490b1ad60124b1078f70f28e",
}

LOOP_FINGERPRINTS = {
    "loop/uniform": "89178b9bd203849c5fa21c8ca3f3bee477b3d8f64f5a69bc254352c0484b9031",
    "loop/ranking": "d586ebe1bac8be20353c3c8fc4a9d230d9e8faef5a6bd8ce21c5ac89702cbf0c",
    "loop/uncertainty": "659e452b18636445650a2b06c31900b2fcb25fbb0fee411dee82b84c79cbd996",
}

COVERAGE_LOOP_FINGERPRINTS = {
    "loop-coverage/uniform": "bb9f9dc80df596521e5cd804ee0f3133315a04eb37d39a1bdf2be01b5808b1f1",
    "loop-coverage/ranking": "536d42a2276b44a04cdc00d03e5adaef4f65f4e00db45eac1703acd2976f54a3",
    "loop-coverage/uncertainty": "37a346d4487aa3862c3dfa40c39bd367063d7c805d20f50158805b374fbcffce",
}

# k-means on the full imputed rows instead of the 2-D embedding: only
# cluster_recovery can differ from LOOP_FINGERPRINTS
FULL_SPACE_LOOP_FINGERPRINTS = {
    "loop-full-space/uniform": "1885c1a2738644cfa0f3319f7bd3d138b3d80bc69a6a67f63a860b60492b3b61",
    "loop-full-space/ranking": "0b00a75ccab82e2f3669c7916e1f9a97a57fbc69b60f3826852bb5b11e714819",
    "loop-full-space/uncertainty": "c47f33a52754ed98b8a7d2c1ed61cacbaadbd552449fff45641209b9c901ee8d",
}


# with budget n * m every cell is known from the first round on, so the
# three policies give the same timeline
EXACT_LOOP_FINGERPRINTS = {
    "loop-exact/uniform": "209df4857ab01af0aeefda789300748d58347725bfacec3b3c40a7f1467f0f70",
    "loop-exact/ranking": "209df4857ab01af0aeefda789300748d58347725bfacec3b3c40a7f1467f0f70",
    "loop-exact/uncertainty": "209df4857ab01af0aeefda789300748d58347725bfacec3b3c40a7f1467f0f70",
}


@pytest.fixture(scope="module")
def current_plans():
    return plan_fingerprints()


@pytest.mark.parametrize("key", sorted(PLAN_FINGERPRINTS))
def test_plan_fingerprint(current_plans, key):
    assert current_plans[key] == PLAN_FINGERPRINTS[key]


def test_plan_fingerprints_cover_every_case(current_plans):
    assert set(current_plans) == set(PLAN_FINGERPRINTS)


def test_loop_fingerprints():
    assert loop_fingerprints() == LOOP_FINGERPRINTS


def test_coverage_loop_fingerprints():
    assert coverage_loop_fingerprints() == COVERAGE_LOOP_FINGERPRINTS


def test_full_space_loop_fingerprints():
    assert full_space_loop_fingerprints() == FULL_SPACE_LOOP_FINGERPRINTS


def test_exact_loop_fingerprints():
    assert exact_loop_fingerprints() == EXACT_LOOP_FINGERPRINTS


if __name__ == "__main__":
    for table in (plan_fingerprints(), loop_fingerprints(), coverage_loop_fingerprints(),
                  full_space_loop_fingerprints(), exact_loop_fingerprints()):
        for key, value in table.items():
            print(f'    "{key}": "{value}",')
