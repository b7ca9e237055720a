"""Property tests of the elicitation ranking and mean imputation.

Both are computed in array form. The plain per-idea loops kept here as
references define the exact results: on random small matrices with uneven
exposures, the ranking must equal the reference in order and in every
provenance float. Mean imputation must equal its per-column loop in every
bit.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delib import (
    AttitudeMatrix,
    ElicitationWeights,
    Ranking,
    elicitation_ranking,
    estimate_support,
    impute_mean,
)


@st.composite
def exposed_matrices(draw):
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 6))
    cells = draw(st.lists(st.lists(st.sampled_from([None, None, 0, 1]), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    matrix = AttitudeMatrix.from_dense(cells, texts=[f"idea {j}" for j in range(m)])
    for p in range(m):
        matrix.note_exposure(p, draw(st.sampled_from([0, 0, 1, 2, 7, 40])))
    return matrix


weights_strategy = st.builds(
    ElicitationWeights,
    c_explore=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0),
    prior_mean=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    prior_weight=st.sampled_from([0.0, 1.0, 2]) | st.floats(0.0, 4.0),
)


def reference_elicitation_ranking(matrix, weights):
    m = matrix.n_ideas
    log_term = math.log(matrix.total_exposure + 1.0)
    priorities = []
    for p in range(m):
        mean = estimate_support(matrix, p, weights).mean
        bonus = weights.c_explore * math.sqrt(log_term / (matrix.exposures[p] + 1.0))
        priorities.append(mean + bonus)
    order = sorted(range(m), key=lambda p: (-priorities[p], p))
    return Ranking(order=tuple(order), provenance=tuple(priorities[p] for p in order))


@settings(max_examples=300, deadline=None)
@given(exposed_matrices(), weights_strategy)
def test_elicitation_ranking_equals_the_per_idea_loop(matrix, weights):
    ranking = elicitation_ranking(matrix, weights)
    expected = reference_elicitation_ranking(matrix, weights)
    assert ranking.order == expected.order
    assert ranking.provenance == expected.provenance
    assert all(type(p) is int for p in ranking.order)
    assert all(type(v) is float for v in ranking.provenance)


def reference_impute_mean(matrix):
    codes = matrix.codes()
    known = codes >= 0
    values = codes.astype(float)
    for p in range(matrix.n_ideas):
        col_known = known[:, p]
        values[~col_known, p] = values[col_known, p].mean() if col_known.any() else 0.5
    return values, ~known


@st.composite
def tall_matrices(draw):
    # columns long enough for NumPy's pairwise summation to split them
    n, m = draw(st.integers(1, 400)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.choice([-1, 0, 1], size=(n, m), p=rng.dirichlet(np.ones(3)))
    return AttitudeMatrix.from_dense(np.where(codes < 0, None, codes).tolist())


@settings(max_examples=300, deadline=None)
@given(exposed_matrices().filter(lambda matrix: matrix.n_participants and matrix.n_ideas) | tall_matrices())
def test_impute_mean_equals_the_per_column_loop_bit_for_bit(matrix):
    values, imputed_mask = reference_impute_mean(matrix)
    result = impute_mean(matrix)
    assert result.values.dtype == values.dtype
    assert np.array_equal(result.values.view(np.int64), values.view(np.int64))
    assert np.array_equal(result.imputed_mask, imputed_mask)
