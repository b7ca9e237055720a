import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delib.population as population_module
from delib import (
    Attitude,
    IdentityError,
    MixtureComponent,
    ParameterError,
    PopulationConfig,
    generate_population,
    ground_truth,
    sample_attitudes,
    step_churn,
)

TWO_BLOCS = (
    MixtureComponent(0.5, (-5.0, 0.0), 0.25),
    MixtureComponent(0.5, (5.0, 0.0), 0.25),
)


def two_bloc_config(**overrides):
    base = dict(n0=100, approval_radius=3.0, mixture=TWO_BLOCS, seed=0)
    base.update(overrides)
    return PopulationConfig(**base)


def test_bloc_labels_recoverable_from_positions():
    model = generate_population(two_bloc_config(), 1)
    means = np.array([[-5.0, 0.0], [5.0, 0.0]])
    hits = 0
    for position, label in zip(model.participant_positions, model.bloc_labels):
        nearest = int(np.argmin(((means - position) ** 2).sum(axis=1)))
        hits += nearest == label
    assert hits / model.n_participants >= 0.99


def test_generation_deterministic_per_seed():
    a = generate_population(two_bloc_config(), 7)
    b = generate_population(two_bloc_config(), 7)
    assert a.bloc_labels == b.bloc_labels
    assert all(np.array_equal(x, y) for x, y in zip(a.participant_positions, b.participant_positions))


def test_degenerate_component_at_origin():
    config = PopulationConfig(
        n0=10, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), 0.0),), seed=0
    )
    model = generate_population(config, 0)
    assert all(np.allclose(pos, 0.0) for pos in model.participant_positions)


def test_arrival_rates_stop_at_numpys_poisson_limit():
    limit = population_module._POISSON_LAM_MAX
    rng = np.random.default_rng(0)
    rng.poisson(limit)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(limit, np.inf))
    PopulationConfig(n0=1, approval_radius=1.0, arrival_rate=limit).validate()
    for rate in (np.nextafter(limit, np.inf), 1e20, float(2**64)):
        with pytest.raises(ParameterError, match="Poisson limit"):
            PopulationConfig(n0=1, approval_radius=1.0, arrival_rate=rate).validate()


def test_invalid_configs_rejected():
    with pytest.raises(ParameterError):
        PopulationConfig(n0=-1, approval_radius=1.0).validate()
    with pytest.raises(ParameterError):
        PopulationConfig(n0=1, approval_radius=0.0).validate()
    with pytest.raises(ParameterError):
        PopulationConfig(
            n0=1, approval_radius=1.0, mixture=(MixtureComponent(0.0, (0.0, 0.0)),)
        ).validate()
    with pytest.raises(ParameterError):
        PopulationConfig(n0=1, approval_radius=1.0, departure_prob=1.5).validate()
    for cov in (-1.0, float("nan"), ((1.0, 0.0), (0.0,)), ((1.0,),), ((1.0, 0.0), (0.0, float("inf")))):
        with pytest.raises(ParameterError):
            PopulationConfig(n0=1, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), cov),)).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field", ["approval_radius", "noise_sigma", "arrival_rate", "departure_prob", "idea_jitter", "weight", "mean"]
)
def test_non_finite_values_are_parameter_errors(field, value):
    if field == "weight":
        config = PopulationConfig(n0=1, approval_radius=1.0, mixture=(MixtureComponent(value, (0.0, 0.0)),))
    elif field == "mean":
        config = PopulationConfig(n0=1, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, value)),))
    else:
        config = PopulationConfig(**{"n0": 1, "approval_radius": 1.0, field: value})
    with pytest.raises(ParameterError, match="finite"):
        config.validate()
    with pytest.raises(ParameterError, match="finite"):
        generate_population(config)


# symmetric PSD, among them singular ones and one a rounding error below PSD
ACCEPTED_COVARIANCES = (
    0, 0.0, 2.5, ((1.0, 0.5), (0.5, 2.0)), ((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.0, 1.0 - 1e-12)),
)


def test_finite_covariances_accepted():
    for cov in ACCEPTED_COVARIANCES:
        PopulationConfig(n0=1, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), cov),)).validate()


@pytest.mark.parametrize(
    "cov",
    [
        ((1.0, 2.0), (2.0, 1.0)),  # symmetric, eigenvalue -1
        ((1.0, 0.5), (0.0, 1.0)),  # positive definite part, not symmetric
        ((1.0, 0.0), (0.0, -1e-6)),  # a negative variance beyond NumPy's tolerance
    ],
)
def test_covariance_must_be_symmetric_psd(cov):
    with pytest.raises(ParameterError, match="symmetric positive semi-definite"):
        PopulationConfig(n0=1, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), cov),)).validate()


@pytest.mark.parametrize("cov", ACCEPTED_COVARIANCES)
def test_accepted_covariances_draw_without_warnings(cov):
    config = PopulationConfig(n0=20, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), cov),), seed=3)
    config.validate()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = generate_population(config, 3)
        model.spawn_idea(None, np.random.default_rng(3))
    assert np.isfinite(np.vstack(model.participant_positions)).all()


def zero_noise_model():
    config = PopulationConfig(
        n0=2, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), 0.0),), seed=0
    )
    model = generate_population(config, 0)
    return model


def test_sample_attitude_at_same_point_approves():
    model = zero_noise_model()
    rng = np.random.default_rng(0)
    model.idea_positions.append(np.zeros(2))
    model.idea_authors.append(0)
    assert sample_attitudes(model, [(0, 0)], round_seed=1) == [Attitude.APPROVE]


def test_sample_attitude_far_away_disapproves():
    model = zero_noise_model()
    model.idea_positions.append(np.array([2.0, 0.0]))  # distance 2 * radius
    model.idea_authors.append(0)
    assert sample_attitudes(model, [(0, 0)], round_seed=1) == [Attitude.DISAPPROVE]


@pytest.mark.parametrize(
    ("pair", "message"),
    [((-1, 0), "unknown participant -1"), ((0, -1), "unknown idea -1"),
     ((5, 0), "unknown participant 5"), ((0, 1), "unknown idea 1")],
)
def test_sample_attitudes_rejects_unknown_pairs(pair, message):
    config = PopulationConfig(n0=3, approval_radius=1.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), 0.0),), seed=0)
    model = generate_population(config, 0)
    model.spawn_idea(None, np.random.default_rng(0))
    with pytest.raises(IdentityError, match=f"^{message}$"):
        sample_attitudes(model, [(0, 0), pair], round_seed=1)
    assert len(sample_attitudes(model, [(2, 0), (0, 0)], round_seed=1)) == 2


def test_sample_attitude_boundary_with_noise_is_coin_flip():
    config = PopulationConfig(
        n0=1,
        approval_radius=1.0,
        mixture=(MixtureComponent(1.0, (0.0, 0.0), 0.0),),
        noise_sigma=0.3,
        seed=0,
    )
    model = generate_population(config, 0)
    model.idea_positions.append(np.array([1.0, 0.0]))  # distance exactly the radius
    model.idea_authors.append(0)
    # each copy of the pair takes its own draw from the round's noise stream
    answers = sample_attitudes(model, [(0, 0)] * 10_000, round_seed=1)
    approvals = sum(a is Attitude.APPROVE for a in answers)
    assert abs(approvals / 10_000 - 0.5) < 0.02


def test_churn_noop_when_rates_zero():
    model = generate_population(two_bloc_config(n0=10), 0)
    arrivals, departures = step_churn(model, 1, 0)
    assert arrivals == set() and departures == set()
    assert model.active == set(range(10))


def test_churn_departure_prob_one_clears_active():
    model = generate_population(two_bloc_config(n0=10, departure_prob=1.0), 0)
    _, departures = step_churn(model, 1, 0)
    assert departures == set(range(10))
    assert model.active == set()


def test_churn_poisson_arrival_mean():
    model = generate_population(two_bloc_config(n0=0, arrival_rate=3.0), 0)
    totals = 0
    rounds = 1000
    for r in range(rounds):
        arrivals, _ = step_churn(model, r, 0)
        totals += len(arrivals)
    assert abs(totals / rounds - 3.0) < 0.2


def test_churn_deterministic_per_round_seed():
    a = generate_population(two_bloc_config(n0=20, departure_prob=0.3, arrival_rate=2.0), 5)
    b = generate_population(two_bloc_config(n0=20, departure_prob=0.3, arrival_rate=2.0), 5)
    assert step_churn(a, 4, 99) == step_churn(b, 4, 99)


def test_ground_truth_counts_support_over_actives():
    model = zero_noise_model()
    # 2 participants at origin; idea inside the radius for both
    model.idea_positions.append(np.array([0.5, 0.0]))
    model.idea_authors.append(0)
    truth = ground_truth(model)
    assert truth.support[0] == 1.0
    model.idea_positions.append(np.array([9.0, 0.0]))
    model.idea_authors.append(0)
    truth = ground_truth(model)
    assert truth.support[1] == 0.0


def test_ground_truth_support_fraction():
    config = PopulationConfig(
        n0=10, approval_radius=2.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), 1.0),), seed=3
    )
    model = generate_population(config, 3)
    rng = np.random.default_rng(0)
    model.spawn_idea(0, rng)
    truth = ground_truth(model)
    inside = sum(
        np.linalg.norm(model.participant_positions[i] - model.idea_positions[0]) < 2.0
        for i in range(10)
    )
    assert truth.support[0] == pytest.approx(inside / 10)


def test_noise_free_sampling_equals_ground_truth():
    config = PopulationConfig(
        n0=8, approval_radius=2.0, mixture=(MixtureComponent(1.0, (0.0, 0.0), 1.0),), seed=4
    )
    model = generate_population(config, 4)
    rng = np.random.default_rng(1)
    for _ in range(5):
        model.spawn_idea(int(rng.integers(8)), rng)
    truth = ground_truth(model)
    batch = sample_attitudes(model, [(i, p) for i in range(8) for p in range(5)], round_seed=7)
    flat = [bool(truth.matrix[i, p]) for i in range(8) for p in range(5)]
    assert [a is Attitude.APPROVE for a in batch] == flat


def _two_point_model(participant, idea, radius):
    """One active participant and one idea at the given positions, no noise."""
    dim = len(participant)
    config = PopulationConfig(n0=0, approval_radius=radius, latent_dim=dim,
                              mixture=(MixtureComponent(1.0, (0.0,) * dim),))
    model = generate_population(config, 0)
    model.participant_positions.append(np.asarray(participant, dtype=float))
    model.bloc_labels.append(0)
    model.active.add(0)
    model.idea_positions.append(np.asarray(idea, dtype=float))
    model.idea_authors.append(None)
    return model


def _two_verdicts(model):
    (batch,) = sample_attitudes(model, [(0, 0)], round_seed=1)
    truth = Attitude.APPROVE if ground_truth(model).matrix[0, 0] else Attitude.DISAPPROVE
    return batch, truth


def test_noise_free_sample_attitude_agrees_on_the_boundary():
    # np.linalg.norm of this offset is one ulp below sqrt of its summed
    # squares, which is exactly the radius: the batch and the truth
    # both disapprove
    model = _two_point_model([0.4116305363741328, 1.0425133694426776], [0.0, 0.0], 1.1208362163770322)
    assert _two_verdicts(model) == (Attitude.DISAPPROVE,) * 2


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 10), data=st.data())
def test_noise_free_single_batch_and_truth_agree(dim, data):
    coords = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    participant, idea = np.array(data.draw(coords)), np.array(data.draw(coords))
    distance = float(np.sqrt(((participant - idea) ** 2).sum()))
    # the radius sits on the distance or one ulp above it, where rounding decides
    radius = data.draw(st.sampled_from([distance, float(np.nextafter(distance, np.inf))]))
    if radius > 0:
        batch, truth = _two_verdicts(_two_point_model(participant, idea, radius))
        assert batch is truth


def test_support_monotone_in_radius():
    for seed in range(5):
        small = PopulationConfig(
            n0=20, approval_radius=1.0, mixture=TWO_BLOCS, seed=seed
        )
        large = PopulationConfig(
            n0=20, approval_radius=2.5, mixture=TWO_BLOCS, seed=seed
        )
        model_small = generate_population(small, seed)
        model_large = generate_population(large, seed)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(6):
            author = int(rng_a.integers(20))
            model_small.spawn_idea(author, rng_a)
            author_b = int(rng_b.integers(20))
            model_large.spawn_idea(author_b, rng_b)
        support_small = ground_truth(model_small).support
        support_large = ground_truth(model_large).support
        assert np.all(support_small <= support_large + 1e-12)


def reference_ground_truth(model):
    """The whole matrix rebuilt from every position with one (n, m, d) broadcast."""
    n, m = model.n_participants, model.n_ideas
    if n and m:
        participants = np.array(model.participant_positions)
        ideas = np.array(model.idea_positions)
        distances = np.sqrt(((participants[:, None, :] - ideas[None, :, :]) ** 2).sum(axis=2))
        matrix = (distances < model.config.approval_radius).astype(np.int8)
    else:
        matrix = np.zeros((n, m), dtype=np.int8)
    active = tuple(sorted(model.active))
    support = matrix[list(active)].mean(axis=0) if active and m else np.full(m, np.nan)
    return matrix, support, np.array(model.bloc_labels, dtype=int), active


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 10),  # from 8 on, NumPy sums the distance axis pairwise
    radius=st.floats(0.5, 4.0),
    n0=st.integers(0, 6),
    departure_prob=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["participant", "idea", "free-idea", "churn", "truth"]), max_size=30),
)
def test_ground_truth_extends_to_the_full_rebuild(dim, radius, n0, departure_prob, seed, steps):
    mixture = (MixtureComponent(0.5, (-1.0,) + (0.0,) * (dim - 1), 1.0),
               MixtureComponent(0.5, (1.0,) * dim, 0.5))
    config = PopulationConfig(n0=n0, approval_radius=radius, latent_dim=dim, mixture=mixture,
                              departure_prob=departure_prob, arrival_rate=1.0, seed=seed)
    model = generate_population(config, seed)
    rng = np.random.default_rng(seed)
    for round_index, step in enumerate(steps + ["truth"]):
        if step == "participant":
            model.spawn_participant(rng)
        elif step == "idea" and model.n_participants:
            model.spawn_idea(int(rng.integers(model.n_participants)), rng)
        elif step == "free-idea":
            model.spawn_idea(None, rng)
        elif step == "churn":
            step_churn(model, round_index, seed)
        elif step == "truth":
            truth = ground_truth(model)
            matrix, support, blocs, active = reference_ground_truth(model)
            assert truth.matrix.dtype == np.int8
            assert np.array_equal(truth.matrix, matrix)
            assert np.array_equal(truth.support, support, equal_nan=True)
            assert np.array_equal(truth.blocs, blocs)
            assert truth.active == active
            # the returned matrix is the caller's: writing into it changes no later result
            truth.matrix[...] = 7
            assert np.array_equal(ground_truth(model).matrix, matrix)
