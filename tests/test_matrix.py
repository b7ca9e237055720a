import re

import numpy as np
import pytest

from delib import (
    Attitude,
    AttitudeMatrix,
    FrozenMatrixError,
    IdentityError,
    UndefinedRateError,
)

A, D, U = Attitude.APPROVE, Attitude.DISAPPROVE, Attitude.UNKNOWN


def fresh(n=0):
    m = AttitudeMatrix()
    for _ in range(n):
        m.add_participant()
    return m


def test_add_idea_grows_from_empty():
    m = fresh(1)
    p = m.add_idea("x", 0)
    assert p == 0
    assert m.shape == (1, 1)
    assert m.get(0, 0) is U
    assert m.exposures.tolist() == [0]


def test_add_idea_dense_indexing():
    m = fresh(1)
    for j in range(3):
        m.add_idea(f"i{j}", 0)
    assert m.add_idea("new", 0) == 3
    assert m.n_ideas == 4


def test_add_idea_arrival_order():
    m = fresh(1)
    ids = [m.add_idea(f"i{j}", 0) for j in range(100)]
    assert ids == list(range(100))


def test_add_idea_unknown_author():
    m = fresh(1)
    with pytest.raises(IdentityError):
        m.add_idea("x", author=5)


def test_add_idea_without_author_is_seeded():
    m = fresh(0)
    p = m.add_idea("seeded")
    assert m.ideas[p].author is None


def test_record_read_after_write():
    m = fresh(1)
    m.add_idea("x", 0)
    m.record_attitude(0, 0, A)
    assert m.get(0, 0) is A


def test_record_last_write_wins_and_logged():
    m = fresh(1)
    m.add_idea("x", 0)
    m.record_attitude(0, 0, A)
    m.record_attitude(0, 0, D)
    assert m.get(0, 0) is D
    assert m.audit_log == ((0, 0, A, D),)


def test_sparse_default_unknown():
    m = fresh(2)
    m.add_idea("x", 0)
    assert m.get(1, 0) is U


def test_record_identity_errors():
    m = fresh(1)
    m.add_idea("x", 0)
    with pytest.raises(IdentityError):
        m.record_attitude(3, 0, A)
    with pytest.raises(IdentityError):
        m.record_attitude(0, 9, A)
    m.depart(0)
    with pytest.raises(IdentityError):
        m.record_attitude(0, 0, A)


def test_departed_rows_remain_readable():
    m = fresh(2)
    m.add_idea("x", 0)
    m.record_attitude(0, 0, A)
    m.depart(0)
    assert m.get(0, 0) is A
    assert m.active_participants == frozenset({1})
    with pytest.raises(IdentityError):
        m.depart(0)


def test_exposure_served_vs_volunteered():
    m = fresh(2)
    m.add_idea("x", 0)
    m.record_attitude(0, 0, A, served=True)
    assert m.exposures.tolist() == [1]
    # volunteered first-time answer still counts as one exposure
    m.record_attitude(1, 0, D)
    assert m.exposures.tolist() == [2]
    # served query that the participant skipped
    m.note_exposure(0)
    assert m.exposures.tolist() == [3]
    # unserved overwrite adds nothing
    m.record_attitude(1, 0, A)
    assert m.exposures.tolist() == [3]


@pytest.mark.parametrize(
    "count", [-1, 0.6, 2.0, float("nan"), float("inf"), 2**70, "1", np.float64(1.0), np.uint64(2**64 - 1)]
)
def test_note_exposure_rejects_counts_that_are_not_int64_increments(count):
    m = fresh(1)
    m.add_idea("x")
    m.note_exposure(0, 2)
    with pytest.raises(IdentityError):
        m.note_exposure(0, count)
    assert m.exposures.tolist() == [2]
    assert m.total_exposure == 2


def test_note_exposure_takes_numpy_integers_up_to_the_int64_limit():
    m = fresh(1)
    m.add_idea("x")
    m.note_exposure(0, np.int64(3))
    m.note_exposure(0, np.uint8(2))
    m.note_exposure(0, 0)
    assert m.exposures.tolist() == [5]
    m.note_exposure(0, 2**63 - 1 - 5)
    assert m.exposures.tolist() == [2**63 - 1]
    with pytest.raises(IdentityError):
        m.note_exposure(0, 1)
    assert m.exposures.tolist() == [2**63 - 1]


def test_writes_refuse_to_push_an_exposure_past_int64():
    m = AttitudeMatrix.from_dense([[None, None], [None, None]])
    m.note_exposure(0, 2**63 - 1)
    m.note_exposure(1, 2**63 - 2)  # room for one more
    for write in (
        lambda: m.record_attitude(0, 0, A, served=True),
        lambda: m.record_attitude(0, 0, D),  # unknown becomes known
        lambda: m._write_cells([0, 1], [1, 1], [1, 0], served=False),
        lambda: m._write_cells([0, 0], [1, 1], [-1, -1], served=True),
        lambda: m._write_cells([1, 0], [1, 0], [1, -1], served=True),
    ):
        with pytest.raises(IdentityError, match="exposure"):
            write()
        assert m.codes().tolist() == [[-1, -1], [-1, -1]]
        assert m.exposures.tolist() == [2**63 - 1, 2**63 - 2]
    m.record_attitude(0, 0, U)  # not served and still unknown: no exposure
    m._write_cells([0, 0], [1, 1], [1, -1])  # one cell made known, then unknown again
    m.record_attitude(1, 1, U)
    assert m.exposures.tolist() == [2**63 - 1, 2**63 - 1]
    assert m.total_exposure == 2**64 - 2
    assert m.audit_log == ((0, 1, A, U),)


@pytest.mark.parametrize(
    ("rows", "cols", "codes", "message"),
    [
        ([0, 0.5, 3], [0, 0, 0], [1, 1, 1], "unknown or inactive participant 0.5"),
        ([0, 1, 3], [0, 0, 0], [1, 1, 1], "unknown or inactive participant 1"),  # departed
        ([2, np.nan], [0, 0], [1, 1], "unknown or inactive participant nan"),
        ([2**70], [0], [1], "unknown or inactive participant 1180591620717411303424"),  # an object array
        ([0, 0, 0], [2, 1.5, np.inf], [1, 1, 1], "unknown idea 1.5"),
        ([0, 0], [3, -1], [1, 1], "unknown idea 3"),
        ([0, 0, 0], [0, 1, 2], [-1, 0.5, 2], "not an attitude code: 0.5"),
        ([0, 0], [0, 1], [2, -2], "not an attitude code: 2"),
    ],
)
def test_write_cells_names_the_first_bad_value_and_writes_nothing(rows, cols, codes, message):
    m = AttitudeMatrix.from_dense([[None] * 3] * 3)
    m.depart(1)
    with pytest.raises(IdentityError, match=f"^{re.escape(message)}$"):
        m._write_cells(rows, cols, codes)
    assert m.n_known == 0 and m.exposures.tolist() == [0, 0, 0]
    m._write_cells([0.0, 2.0], [1.0, 2], [1.0, -1])  # whole floats are ids and codes
    assert m.codes().tolist() == [[-1, 1, -1], [-1, -1, -1], [-1, -1, -1]]


def approval_set(matrix, i):
    return set(np.flatnonzero(matrix.approvals()[i]).tolist())


def test_approval_set_examples():
    m = fresh(1)
    for j, v in enumerate([A, D, U]):
        m.add_idea(f"i{j}", 0)
        if v is not U:
            m.record_attitude(0, j, v)
    assert approval_set(m, 0) == {0}

    empty = fresh(1)
    empty.add_idea("x", 0)
    assert approval_set(empty, 0) == set()

    full = fresh(1)
    for j in range(5):
        full.add_idea(f"i{j}", 0)
        full.record_attitude(0, j, A)
    assert approval_set(full, 0) == set(range(5))


def test_column_mean_examples():
    # the column mean is approvals / responses; a column without responses has none
    m = AttitudeMatrix.from_dense([[1, 1, None], [0, 1, None], [None, 1, None]])
    approvals, responses = m.column_counts_all()
    assert approvals.tolist() == [1, 3, 0]
    assert responses.tolist() == [2, 3, 0]
    assert (approvals[:2] / responses[:2]).tolist() == [0.5, 1.0]


def test_from_dense_accepts_only_attitude_values():
    m = AttitudeMatrix.from_dense([[1, 0, -1, None, A, U]])
    assert [m.get(0, p) for p in range(6)] == [A, D, U, U, A, U]
    for value in (0.9, 2, -2, 0.5, float("nan"), "1"):
        with pytest.raises(IdentityError, match="not an attitude value"):
            AttitudeMatrix.from_dense([[value]])


def test_completion_rate_examples():
    m = AttitudeMatrix.from_dense([[1, None], [None, None]])
    assert m.completion_rate() == 0.25
    assert AttitudeMatrix.from_dense([[1, 0], [0, 1]]).completion_rate() == 1.0
    assert AttitudeMatrix.from_dense([[None, None]]).completion_rate() == 0.0
    with pytest.raises(UndefinedRateError):
        AttitudeMatrix().completion_rate()


def test_snapshot_isolation():
    m = fresh(1)
    m.add_idea("x", 0)
    snap = m.snapshot()
    m.add_idea("y", 0)
    m.record_attitude(0, 0, A)
    assert snap.n_ideas == 1
    assert snap.get(0, 0) is U


def test_snapshot_is_frozen_and_equal_at_instant():
    m = fresh(2)
    m.add_idea("x", 0)
    m.record_attitude(0, 0, A)
    s1, s2 = m.snapshot(), m.snapshot()
    assert s1 == s2
    with pytest.raises(FrozenMatrixError):
        s1.record_attitude(1, 0, A)
    with pytest.raises(FrozenMatrixError):
        s1.add_idea("y", 0)
    empty = AttitudeMatrix().snapshot()
    assert empty.shape == (0, 0)


def random_matrix(rng, n=None, m=None, density=0.6):
    n = int(rng.integers(1, 7)) if n is None else n
    m = int(rng.integers(1, 7)) if m is None else m
    rows = [
        [int(rng.integers(0, 2)) if rng.random() < density else None for _ in range(m)]
        for _ in range(n)
    ]
    return AttitudeMatrix.from_dense(rows)


def test_sparse_dense_equivalence_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_matrix(rng)
        codes = m.codes()
        assert np.array_equal(m.known_mask(), codes >= 0)
        assert np.array_equal(m.approvals(), codes == 1)
        for i in range(m.n_participants):
            for p in range(m.n_ideas):
                assert m.get(i, p) is Attitude(codes[i, p])


def test_monotone_growth_and_approval_exactness_random_ops():
    rng = np.random.default_rng(1)
    m = fresh(1)
    m.add_idea("seed", 0)
    shadow: dict[tuple[int, int], Attitude] = {}
    last_shape = m.shape
    for _ in range(400):
        op = rng.integers(4)
        if op == 0:
            m.add_participant()
        elif op == 1:
            m.add_idea("x", int(rng.choice(sorted(m.active_participants))) if m.active_participants else None)
        elif op == 2 and m.active_participants and m.n_ideas:
            i = int(rng.choice(sorted(m.active_participants)))
            p = int(rng.integers(m.n_ideas))
            a = [A, D, U][rng.integers(3)]
            m.record_attitude(i, p, a)
            if a is U:
                shadow.pop((i, p), None)
            else:
                shadow[(i, p)] = a
        elif op == 3 and len(m.active_participants) > 1:
            m.depart(int(rng.choice(sorted(m.active_participants))))
        assert m.shape >= last_shape
        last_shape = m.shape
    codes = m.codes()
    assert {(i, p): Attitude(codes[i, p]) for i, p in zip(*np.nonzero(codes >= 0))} == shadow
    for i in range(m.n_participants):
        expected = {p for (pi, p), v in shadow.items() if pi == i and v is A}
        assert approval_set(m, i) == expected


def test_column_mean_matches_direct_summation():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = random_matrix(rng)
        codes = m.codes()
        approvals, responses = m.column_counts_all()
        for p in range(m.n_ideas):
            a = int((codes[:, p] == 1).sum())
            b = int((codes[:, p] == 0).sum())
            assert (approvals[p], responses[p]) == (a, a + b)


def test_exposure_never_below_known_count():
    rng = np.random.default_rng(3)
    m = fresh(4)
    for j in range(3):
        m.add_idea(f"i{j}", 0)
    for _ in range(200):
        i = int(rng.integers(4))
        p = int(rng.integers(3))
        a = [A, D, U][rng.integers(3)]
        if i in m.active_participants:
            m.record_attitude(i, p, a, served=bool(rng.integers(2)))
        known = (m.codes() >= 0).sum(axis=0)
        assert all(m.exposures >= known)
