import functools
import itertools
import math
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib import (
    Attitude,
    AttitudeMatrix,
    CapacityError,
    IdentityError,
    JrViolation,
    ParameterError,
    ScoringKind,
    Slate,
    exact_slate,
    greedy_slate,
    jr_audit,
    slate_score,
)
from delib import slates
from delib.slates import (
    ENUMERATION_CAP,
    _solve_slate,
    exact_order_and_score,
    greedy_order,
    harmonic_table,
    score_from_approvals,
)

H, C = ScoringKind.HARMONIC, ScoringKind.COVERAGE


# -- independent oracles (set-based, no numpy, no shared code) -------------------


def approval_sets(matrix):
    return [
        frozenset(p for p in range(matrix.n_ideas) if matrix.get(i, p) is Attitude.APPROVE)
        for i in range(matrix.n_participants)
    ]


def oracle_score(sets, ideas, kind):
    ideas = set(ideas)
    if kind is H:
        return sum(sum(1.0 / l for l in range(1, len(s & ideas) + 1)) for s in sets)
    return sum(1 for s in sets if s & ideas)


def oracle_exact(sets, m, k, kind):
    best, best_score = None, -1.0
    for combo in itertools.combinations(range(m), min(k, m)):
        score = oracle_score(sets, combo, kind)
        if score > best_score + 1e-12:
            best, best_score = combo, score
    return best, best_score


def from_approvals(approval_lists, m):
    rows = [[1 if p in s else 0 for p in range(m)] for s in approval_lists]
    return AttitudeMatrix.from_dense(rows)


def random_instance(rng, n_max=8, m_max=8):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    rows = [
        [int(rng.integers(0, 2)) if rng.random() < 0.7 else None for _ in range(m)]
        for _ in range(n)
    ]
    return AttitudeMatrix.from_dense(rows)


# -- scoring ------------------------------------------------------------------


def test_single_participant_harmonic_curve():
    # one participant approving all of an l-idea slate, l = 0..5
    expected = [0.0, 1.0, 1.5, 1.8333, 2.0833, 2.2833]
    for l, value in enumerate(expected):
        m = from_approvals([set(range(l))], max(l, 1))
        assert slate_score(m, range(l), H) == pytest.approx(value, abs=1e-4)


def test_single_participant_coverage_curve():
    for l in range(6):
        m = from_approvals([set(range(l))], max(l, 1))
        assert slate_score(m, range(l), C) == (1.0 if l >= 1 else 0.0)


def test_empty_slate_scores_zero():
    m = random_instance(np.random.default_rng(0))
    assert slate_score(m, [], H) == 0.0
    assert slate_score(m, [], C) == 0.0


def test_score_unknown_is_not_approval():
    m = AttitudeMatrix.from_dense([[1, None], [None, None]])
    assert slate_score(m, [0, 1], C) == 1.0
    assert slate_score(m, [0, 1], H) == 1.0


def test_score_unknown_idea_rejected():
    m = from_approvals([{0}], 1)
    with pytest.raises(IdentityError):
        slate_score(m, [4], H)
    for ideas in ([4], [-1], [0, 1]):
        with pytest.raises(IdentityError, match="unknown idea"):
            score_from_approvals(m.approvals(), ideas, H)


@pytest.mark.parametrize("ideas", [[0.5], [1.0], [np.float64(0.0)], [0, 0.9], ["0"]])
def test_idea_ids_that_are_not_integers_are_rejected(ideas):
    m = from_approvals([{0}, {0, 1}], 2)
    with pytest.raises(IdentityError, match="unknown idea"):
        slate_score(m, ideas, H)
    with pytest.raises(IdentityError, match="unknown idea"):
        score_from_approvals(m.approvals(), ideas, H)
    slate = Slate(ideas=frozenset(ideas), target_k=1, score=0.0, kind=H)
    with pytest.raises(IdentityError, match="unknown idea"):
        jr_audit(m, slate)


def test_numpy_integer_idea_ids_are_accepted():
    m = from_approvals([{0}, {0, 1}], 2)
    assert slate_score(m, [np.int64(0), np.uint8(1)], H) == slate_score(m, [0, 1], H)


def test_score_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = random_instance(rng)
        ideas = [p for p in range(m.n_ideas) if rng.random() < 0.5]
        sets = approval_sets(m)
        for kind in (H, C):
            assert slate_score(m, ideas, kind) == pytest.approx(oracle_score(sets, ideas, kind))


# -- greedy -------------------------------------------------------------------


def test_greedy_singleton_matches_enumeration():
    # 1:{a}, 2:{a}, 3:{b} with a=0, b=1
    m = from_approvals([{0}, {0}, {1}], 2)
    for kind in (H, C):
        slate = greedy_slate(m, 1, kind)
        assert slate.ideas == frozenset({0})
        assert slate.score == 2.0
        _, oracle = oracle_exact(approval_sets(m), 2, 1, kind)
        assert slate.score == pytest.approx(oracle)


def test_greedy_unanimous_symmetry():
    n, ideas = 5, 4
    m = from_approvals([set(range(ideas))] * n, ideas)
    slate = greedy_slate(m, 2, H)
    assert slate.ideas == frozenset({0, 1})
    assert slate.score == pytest.approx(n * 1.5)


def test_greedy_k1_matches_exact_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = random_instance(rng, n_max=3, m_max=4)
        for kind in (H, C):
            greedy = greedy_slate(m, 1, kind)
            exact = exact_slate(m, 1, kind)
            assert greedy.score == pytest.approx(exact.score)


def test_greedy_k_zero_rejected():
    m = from_approvals([{0}], 1)
    with pytest.raises(ParameterError):
        greedy_slate(m, 0, H)


def test_greedy_returns_all_when_m_below_k():
    m = from_approvals([{0, 1}], 2)
    slate = greedy_slate(m, 5, H)
    assert slate.ideas == frozenset({0, 1})
    assert slate.target_k == 5


def test_lazy_greedy_agrees_with_eager():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = random_instance(rng)
        k = int(rng.integers(1, m.n_ideas + 1))
        for kind in (H, C):
            eager = greedy_slate(m, k, kind)
            lazy = greedy_slate(m, k, kind, lazy=True)
            assert lazy.score == pytest.approx(eager.score, abs=1e-9)
            assert lazy.ideas == eager.ideas


# -- exact --------------------------------------------------------------------


def test_exact_k_equals_m_takes_everything():
    m = from_approvals([{0}, {1, 2}], 3)
    slate = exact_slate(m, 3, H)
    assert slate.ideas == frozenset({0, 1, 2})


def test_exact_coverage_example():
    m = from_approvals([{0}, {0}, {1}], 2)
    slate = exact_slate(m, 2, C)
    assert slate.ideas == frozenset({0, 1})
    assert slate.score == 3.0


def test_exact_empty_matrix_lexicographic():
    m = AttitudeMatrix.from_dense([], texts=["a", "b", "c"])
    assert m.shape == (0, 3)
    slate = exact_slate(m, 2, H)
    assert slate.score == 0.0
    assert slate.ideas == frozenset({0, 1})


def test_exact_matches_oracle_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = random_instance(rng, n_max=6, m_max=6)
        k = int(rng.integers(1, m.n_ideas + 1))
        sets = approval_sets(m)
        for kind in (H, C):
            slate = exact_slate(m, k, kind)
            _, oracle = oracle_exact(sets, m.n_ideas, k, kind)
            assert slate.score == pytest.approx(oracle)


def test_exact_capacity_error_names_cap():
    m = from_approvals([set()], 40)
    with pytest.raises(CapacityError, match="1000000"):
        exact_slate(m, 20, H)


def test_harmonic_table_starts_at_zero():
    assert harmonic_table(0).tolist() == [0.0]
    assert harmonic_table(3).tolist() == pytest.approx([0.0, 1.0, 1.5, 11 / 6])


@pytest.mark.parametrize("m, k, solver, used_exact", [
    (6, 3, "auto", True),  # C(6, 3) = 20 subsets fit the cap
    (7, 7, "auto", True),
    (7, 9, "auto", True),
    (7, 3, "auto", False),  # C(7, 3) = 35 do not
    (6, 3, "greedy", False),
    (4, 2, "exact", True),
])
def test_solver_choice_follows_the_enumeration_cap(monkeypatch, m, k, solver, used_exact):
    monkeypatch.setattr(slates, "ENUMERATION_CAP", comb(6, 3))
    approvals = np.random.default_rng(m * 10 + k).random((12, m)) < 0.5
    ids, score, exact = _solve_slate(approvals, k, H, solver)
    assert exact is used_exact
    if used_exact:
        assert (ids, score) == exact_order_and_score(approvals, k, H)
    else:
        assert ids == tuple(sorted(greedy_order(approvals, k, H)[0]))
        assert score == score_from_approvals(approvals, ids, H)
    if solver == "auto" and not used_exact:
        with pytest.raises(CapacityError):
            _solve_slate(approvals, k, H, "exact")


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("m", [0, 3])
def test_exact_rejects_k_below_one(k, m):
    with pytest.raises(ParameterError, match="at least 1"):
        exact_order_and_score(np.zeros((2, m), dtype=bool), k, H)
    with pytest.raises(ParameterError, match="at least 1"):
        exact_slate(AttitudeMatrix.from_dense([[0] * m] * 2, texts=[f"{p}" for p in range(m)]), k, C)


_EXACT_CHUNK = 4096


def reference_exact_order_and_score(approvals, k, kind):
    """The former float rule: the first subset of maximal float score, every subset float-scored."""
    n, m = approvals.shape
    if k >= m:
        ids = tuple(range(m))
        return ids, score_from_approvals(approvals, ids, kind)
    n_subsets = comb(m, k)
    if n_subsets > ENUMERATION_CAP:
        raise CapacityError(
            f"choose({m}, {k}) = {n_subsets} subsets exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    table = harmonic_table(k)
    best_score = -np.inf
    best: tuple[int, ...] = ()
    combos = itertools.combinations(range(m), k)
    while True:
        chunk = list(itertools.islice(combos, _EXACT_CHUNK))
        if not chunk:
            break
        idx = np.array(chunk)
        counts = approvals[:, idx].sum(axis=2)
        if kind is ScoringKind.HARMONIC:
            scores = table[counts].sum(axis=0)
        else:
            scores = (counts > 0).sum(axis=0).astype(float)
        local = int(np.argmax(scores))
        if scores[local] > best_score:
            best_score = float(scores[local])
            best = chunk[local]
    return best, best_score


@functools.cache
def harmonic_fraction(c):
    return sum(Fraction(1, j) for j in range(1, c + 1))


def exact_score(approvals, subset, kind):
    """A subset's exact score: H_c as a Fraction (harmonic) or [c > 0] (coverage), summed over the rows."""
    rows_per_count = np.bincount(approvals[:, list(subset)].sum(axis=1), minlength=len(subset) + 1)
    value = harmonic_fraction if kind is H else (lambda c: int(c > 0))
    return sum(int(rows) * value(c) for c, rows in enumerate(rows_per_count))


def first_exact_maximum(approvals, k, kind):
    """The first size-min(k, m) subset, in lexicographic order, of maximal exact score."""
    m = approvals.shape[1]
    return max(itertools.combinations(range(m), min(k, m)), key=lambda subset: exact_score(approvals, subset, kind))


def swapped_in_pairs(order):
    """The row permutation that swaps order[0] with order[1], order[2] with order[3], ..."""
    swap = np.arange(len(order))
    pairs = len(order) // 2 * 2
    swap[order[0:pairs:2]], swap[order[1:pairs:2]] = order[1:pairs:2], order[0:pairs:2]
    return swap


@st.composite
def row_swaps(draw, n):
    return swapped_in_pairs(np.array(draw(st.permutations(range(n))), dtype=int))


@st.composite
def exact_inputs(draw):
    """A boolean approval matrix and a slate size: random rows, a few
    distinct rows repeated, or two halves where the second is the first
    with rows swapped in pairs. Swapping the halves then maps every subset
    to one of equal rational score whose float sum may differ."""
    n, m = draw(st.integers(0, 60)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["random", "duplicate rows", "tied halves"]))
    rows = st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=1, max_size=max(n, 1))
    base = np.array(draw(rows), dtype=bool).reshape(-1, m)
    if shape == "random":
        approvals = np.resize(base, (n, m))
    elif shape == "duplicate rows":
        approvals = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))].reshape(n, m)
    else:
        half = np.resize(base, (n, m))[:, : (m + 1) // 2]
        approvals = np.hstack([half, half[draw(row_swaps(n))]])[:, :m]
    k = draw(st.sampled_from([1, max(1, m - 1), m, m + 1]) | st.integers(1, m))
    return approvals, k


@settings(max_examples=600, deadline=None)
@given(exact_inputs(), st.sampled_from([H, C]), st.sampled_from([1 << 18, 1, 20]))
def test_exact_equals_the_float_enumeration(inputs, kind, madds):
    """The first subset of maximal exact score, which ties the float
    enumeration's winner exactly and never comes after it. Also with blocks
    small enough that these small inputs span several."""
    approvals, k = inputs
    with mock.patch.object(slates, "_EXACT_MADDS", madds):
        ids, score = exact_order_and_score(approvals, k, kind)
    assert ids == first_exact_maximum(approvals, k, kind)
    assert score == score_from_approvals(approvals, ids, kind)
    float_ids, _ = reference_exact_order_and_score(approvals, k, kind)
    assert exact_score(approvals, ids, kind) == exact_score(approvals, float_ids, kind)
    assert ids <= float_ids
    assert all(type(p) is int for p in ids) and type(score) is float


@pytest.mark.parametrize("madds", [1 << 18, 1])
def test_exact_breaks_rational_ties_lexicographically(madds):
    rng = np.random.default_rng(17)
    left = rng.random((20, 3)) < 0.5
    approvals = np.hstack([left, left[swapped_in_pairs(rng.permutation(20))]])
    with mock.patch.object(slates, "_EXACT_MADDS", madds):
        ids, score = exact_order_and_score(approvals, 3, H)
    first_rational_max = first_exact_maximum(approvals, 3, H)
    assert ids == first_rational_max == (0, 2, 3)
    assert score == score_from_approvals(approvals, ids, H)
    float_ids, _ = reference_exact_order_and_score(approvals, 3, H)
    assert float_ids == (0, 3, 5)  # the floats split this exact tie
    assert exact_score(approvals, float_ids, H) == exact_score(approvals, ids, H)


def test_exact_scores_in_python_ints_past_float64():
    # over 40 rows at k = 38 the largest scaled score, 40·lcm(1..38)·H_38,
    # passes 2^53, so float64 could round the sums; the pass runs on Python ints
    k = 38
    assert 40 * sum(math.lcm(*range(1, k + 1)) // c for c in range(1, k + 1)) >= 2**53
    rng = np.random.default_rng(55)
    left = rng.random((40, 20)) < 0.95
    approvals = np.hstack([left, left[rng.permutation(40)]])
    ids, score = exact_order_and_score(approvals, k, H)
    assert ids == first_exact_maximum(approvals, k, H)
    # float64 sums return the exactly tied subset without ideas 18 and 21
    assert set(range(40)) - set(ids) == {18, 39}
    assert score == score_from_approvals(approvals, ids, H)


# -- properties ----------------------------------------------------------------


def test_monotone_and_submodular_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = random_instance(rng)
        if m.n_ideas < 2:
            continue
        order = list(rng.permutation(m.n_ideas))
        probe = int(order.pop())  # held-out element whose gain we track
        for kind in (H, C):
            prev_score = 0.0
            prev_probe_gain = math.inf
            chosen = []
            for p in order:
                chosen.append(int(p))
                score = slate_score(m, chosen, kind)
                assert score >= prev_score - 1e-12  # monotone in set growth
                probe_gain = slate_score(m, chosen + [probe], kind) - score
                assert probe_gain <= prev_probe_gain + 1e-9  # diminishing returns
                prev_score, prev_probe_gain = score, probe_gain


def test_greedy_approximation_bound_random():
    rng = np.random.default_rng(6)
    bound = 1 - 1 / math.e
    for _ in range(60):
        m = random_instance(rng)
        k = int(rng.integers(1, min(3, m.n_ideas) + 1))
        for kind in (H, C):
            g = greedy_slate(m, k, kind).score
            e = exact_slate(m, k, kind).score
            assert g >= bound * e - 1e-9


def test_coverage_equals_intersection_count():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = random_instance(rng)
        ideas = set(int(p) for p in rng.choice(m.n_ideas, size=min(2, m.n_ideas), replace=False))
        direct = sum(1 for s in approval_sets(m) if s & ideas)
        assert slate_score(m, ideas, C) == direct


def test_silent_participant_changes_nothing():
    m = from_approvals([{0}, {1}], 2)
    before = {kind: slate_score(m, [0, 1], kind) for kind in (H, C)}
    m.add_participant()
    for kind in (H, C):
        assert slate_score(m, [0, 1], kind) == before[kind]


# -- justified representation audit ---------------------------------------------


def test_jr_detects_ignored_halves():
    # 1:{a}, 2:{a}, 3:{b}, 4:{b}; slate {c, d} approves nobody
    m = from_approvals([{0}, {0}, {1}, {1}], 4)
    slate = Slate(ideas=frozenset({2, 3}), target_k=2, score=0.0, kind=C)
    violations = jr_audit(m, slate)
    assert {v.group for v in violations} == {frozenset({0, 1}), frozenset({2, 3})}
    assert all(v.group_share == 0.5 for v in violations)
    v01 = next(v for v in violations if v.group == frozenset({0, 1}))
    assert v01.witness_ideas == frozenset({0})


def test_jr_passes_fair_slate():
    m = from_approvals([{0}, {0}, {1}, {1}], 4)
    slate = Slate(ideas=frozenset({0, 1}), target_k=2, score=4.0, kind=C)
    assert jr_audit(m, slate) == []


def test_exact_harmonic_optimum_never_violates_jr():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = random_instance(rng)
        k = int(rng.integers(1, 4))
        slate = exact_slate(m, k, H)
        assert jr_audit(m, slate) == []


def test_jr_stricter_level_enumerates_pairs():
    # one bloc of 4 (of 4) agreeing on two ideas, slate gives them only one
    m = from_approvals([{0, 1}] * 4, 4)
    slate = Slate(ideas=frozenset({0, 2}), target_k=2, score=4.0, kind=H)
    assert jr_audit(m, slate) == []  # level 1 is satisfied
    stricter = jr_audit(m, slate, level=2)
    assert len(stricter) == 1
    assert stricter[0].group == frozenset({0, 1, 2, 3})


def test_jr_audit_rejects_unknown_slate_ideas():
    m = from_approvals([{0}, {1}], 2)
    for ideas in ({-1}, {9}, {0, 2}):
        slate = Slate(ideas=frozenset(ideas), target_k=2, score=0.0, kind=C)
        for level in (1, 2):
            with pytest.raises(IdentityError, match="unknown idea"):
                jr_audit(m, slate, level=level)


def reference_jr_audit(matrix, slate, level):
    """jr_audit with its former two group loops: single ideas at level 1,
    idea combinations above it."""
    approvals = matrix.approvals()
    n, m = approvals.shape
    if n == 0 or m == 0:
        return []
    slate_ids = sorted(slate.ideas)
    satisfaction = approvals[:, slate_ids].sum(axis=1) if slate_ids else np.zeros(n, dtype=int)
    threshold = level * n / slate.target_k
    deprived = satisfaction < level
    groups = {}
    if level == 1:
        for p in range(m):
            members = np.flatnonzero(deprived & approvals[:, p])
            if members.size and members.size >= threshold:
                groups.setdefault(frozenset(int(i) for i in members))
    else:
        for subset in itertools.combinations(range(m), level):
            members = np.flatnonzero(deprived & approvals[:, subset].all(axis=1))
            if members.size and members.size >= threshold:
                groups.setdefault(frozenset(int(i) for i in members))
    violations = [
        JrViolation(group, frozenset(int(p) for p in np.flatnonzero(approvals[sorted(group)].all(axis=0))),
                    len(group) / n)
        for group in groups
    ]
    violations.sort(key=lambda v: (-len(v.group), sorted(v.group)))
    return violations


@st.composite
def audit_inputs(draw):
    """A random ternary matrix with some departed rows, and a slate that
    may be empty and whose target_k may exceed the number of ideas."""
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 6))
    cells = st.lists(st.lists(st.sampled_from([None, 0, 1, 1]), min_size=m, max_size=m), min_size=n, max_size=n)
    matrix = AttitudeMatrix.from_dense(draw(cells), texts=[f"idea {p}" for p in range(m)])
    for i in draw(st.sets(st.integers(0, n - 1))) if n else ():
        matrix.depart(i)
    ideas = draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else set()
    slate = Slate(ideas=frozenset(ideas), target_k=draw(st.integers(1, m + 3)), score=0.0, kind=H)
    return matrix, slate


@settings(max_examples=300, deadline=None)
@given(audit_inputs(), st.sampled_from([1, 2]))
def test_jr_audit_equals_the_per_level_loops(inputs, level):
    matrix, slate = inputs
    assert jr_audit(matrix, slate, level=level) == reference_jr_audit(matrix, slate, level)
