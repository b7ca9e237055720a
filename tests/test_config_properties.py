"""Config round trips: ``from_dict(json(to_dict(c))) == c`` for valid configs.

The dataclasses are the only schema, so the serializer and the parser are
both derived from their fields; a field one of them misses or misreads
breaks the round trip.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib import ElicitationWeights, LoopConfig, MixtureComponent, PopulationConfig, ScoringKind

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
non_negative = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**64)


@st.composite
def components(draw, dim):
    if draw(st.booleans()):
        cov = draw(st.one_of(non_negative, st.integers(min_value=0, max_value=9)))
    else:
        diagonal = draw(st.lists(non_negative, min_size=dim, max_size=dim))
        cov = tuple(tuple(diagonal[i] if i == j else 0.0 for j in range(dim)) for i in range(dim))
    return MixtureComponent(draw(positive), tuple(draw(st.lists(finite, min_size=dim, max_size=dim))), cov)


@st.composite
def populations(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    return PopulationConfig(
        n0=draw(st.integers(min_value=0, max_value=500)),
        approval_radius=draw(positive),
        latent_dim=dim,
        mixture=tuple(draw(st.lists(components(dim), min_size=1, max_size=3))),
        noise_sigma=draw(non_negative),
        arrival_rate=draw(non_negative),
        departure_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        idea_jitter=draw(non_negative),
        seed=draw(seeds),
    )


@st.composite
def loop_configs(draw):
    return LoopConfig(
        population=draw(populations()),
        rounds=draw(st.integers(min_value=0, max_value=100)),
        query_budget_per_round=draw(st.integers(min_value=0, max_value=10_000)),
        routing_policy=draw(st.sampled_from(["uniform", "ranking", "uncertainty"])),
        initial_ideas=draw(st.integers(min_value=0, max_value=100)),
        ideas_per_round=draw(st.integers(min_value=0, max_value=10)),
        slate_k=draw(st.integers(min_value=1, max_value=10)),
        scoring=draw(st.sampled_from(ScoringKind)),
        slate_solver=draw(st.sampled_from(["auto", "greedy", "exact"])),
        landscape_k=draw(st.integers(min_value=1, max_value=10)),
        landscape_space=draw(st.sampled_from(["embedded", "full"])),
        weights=ElicitationWeights(
            c_explore=draw(non_negative),
            prior_mean=draw(st.floats(min_value=0.0, max_value=1.0)),
            prior_weight=draw(non_negative),
        ),
        seed=draw(seeds),
    )


@settings(max_examples=300, deadline=None)
@given(loop_configs())
def test_loop_config_round_trips_through_json(config):
    config.validate()
    raw = json.loads(json.dumps(config.to_dict()))
    assert LoopConfig.from_dict(raw) == config
    assert PopulationConfig.from_dict(raw["population"]) == config.population


@settings(max_examples=100, deadline=None)
@given(loop_configs(), st.data())
def test_omitted_fields_take_the_dataclass_defaults(config, data):
    """Leaving out any optional fields parses as the config with those fields at their defaults."""
    raw = config.to_dict()
    required = LoopConfig(population=PopulationConfig(n0=0, approval_radius=1.0), rounds=0,
                          query_budget_per_round=0)
    optional = [key for key in raw if key not in ("population", "rounds", "query_budget_per_round")]
    dropped = data.draw(st.lists(st.sampled_from(optional), unique=True))
    for key in dropped:
        del raw[key]
    expected = replace(config, **{key: getattr(required, key) for key in dropped})
    assert LoopConfig.from_dict(json.loads(json.dumps(raw))) == expected


def test_a_partial_weights_section_keeps_the_loop_defaults():
    base = {"population": {"n0": 1, "approval_radius": 1.0}, "rounds": 1, "query_budget_per_round": 1}
    config = LoopConfig.from_dict({**base, "weights": {"c_explore": 0.5}})
    assert config.weights == ElicitationWeights(c_explore=0.5, prior_weight=0.0)
    assert LoopConfig.from_dict(base).population.mixture == PopulationConfig(1, 1.0).mixture


@pytest.mark.parametrize("value", [2, 2.0])
def test_int_fields_take_integral_numbers(value):
    raw = {"population": {"n0": value, "approval_radius": 1}, "rounds": value, "query_budget_per_round": 1}
    config = LoopConfig.from_dict(raw)
    assert (config.rounds, config.population.n0, config.population.approval_radius) == (2, 2, 1.0)
    assert type(config.rounds) is int and type(config.population.approval_radius) is float

