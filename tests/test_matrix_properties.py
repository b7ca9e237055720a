"""Reference-model property test of the attitude matrix.

Hypothesis applies random sequences of growth, churn, writes, exposures
and snapshots to an ``AttitudeMatrix`` and to a plain-dict model of the
documented semantics, and after every step requires the two to agree on
every read. Each snapshot keeps a copy of the model taken with it and must
go on matching that copy, however the live matrix changes later. Batched
writes are checked against the model replaying their cells one by one, and
separately against ``record_attitude`` replaying them, their specification.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from delib import Attitude, AttitudeMatrix, FrozenMatrixError, IdentityError, UndefinedRateError

MAX_SNAPSHOTS = 4
INT64_MAX = 2**63 - 1


class DictModel:
    """Known cells in a dict keyed by (participant, idea); absent reads as unknown."""

    def __init__(self) -> None:
        self.n = 0
        self.texts: list[str] = []
        self.cells: dict[tuple[int, int], Attitude] = {}
        self.active: set[int] = set()
        self.exposure: list[int] = []
        self.audit: list[tuple[int, int, Attitude, Attitude]] = []

    @property
    def m(self) -> int:
        return len(self.texts)

    def record(self, i: int, p: int, attitude: Attitude, served: bool) -> None:
        """Apply one write, or raise IdentityError, changing nothing, if the exposure would pass int64."""
        old = self.cells.get((i, p), Attitude.UNKNOWN)
        exposed = served or (old is Attitude.UNKNOWN and attitude is not Attitude.UNKNOWN)
        if exposed and self.exposure[p] == INT64_MAX:
            raise IdentityError("exposure past int64")
        if attitude is Attitude.UNKNOWN:
            self.cells.pop((i, p), None)
        else:
            self.cells[(i, p)] = attitude
        if old is not Attitude.UNKNOWN and attitude is not old:
            self.audit.append((i, p, old, attitude))
        if exposed:
            self.exposure[p] += 1


def assert_agrees(matrix: AttitudeMatrix, model: DictModel) -> None:
    assert matrix.shape == (model.n, model.m)
    assert [idea.text for idea in matrix.ideas] == model.texts
    for i in range(model.n):
        for p in range(model.m):
            assert matrix.get(i, p) is model.cells.get((i, p), Attitude.UNKNOWN)
    codes = matrix.codes()
    assert {(int(i), int(p)): Attitude(codes[i, p]) for i, p in zip(*(codes >= 0).nonzero())} == model.cells
    assert matrix.n_known == len(model.cells)
    if model.n * model.m == 0:
        with pytest.raises(UndefinedRateError):
            matrix.completion_rate()
    else:
        assert matrix.completion_rate() == len(model.cells) / (model.n * model.m)
    assert {(int(i), int(p)) for i, p in zip(*matrix.approvals().nonzero())} == {
        cell for cell, a in model.cells.items() if a is Attitude.APPROVE
    }
    approvals, responses = matrix.column_counts_all()
    assert approvals.tolist() == [
        sum(1 for (_, p), a in model.cells.items() if p == q and a is Attitude.APPROVE) for q in range(model.m)
    ]
    assert responses.tolist() == [sum(1 for (_, p) in model.cells if p == q) for q in range(model.m)]
    assert matrix.exposures.tolist() == model.exposure
    assert matrix.audit_log == tuple(model.audit)
    assert matrix.active_participants == model.active


class MatrixAgainstDictModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.matrix = AttitudeMatrix()
        self.model = DictModel()
        self.snapshots: list[tuple[AttitudeMatrix, DictModel]] = []

    @rule()
    def add_participant(self):
        assert self.matrix.add_participant() == self.model.n
        self.model.n += 1
        self.model.active.add(self.model.n - 1)

    @rule(text=st.sampled_from(["a", "b", "a, b", ""]), data=st.data())
    def add_idea(self, text, data):
        author = data.draw(st.none() | st.integers(0, self.model.n))
        if author is not None and author >= self.model.n:
            with pytest.raises(IdentityError):
                self.matrix.add_idea(text, author)
            return
        assert self.matrix.add_idea(text, author) == self.model.m
        self.model.texts.append(text)
        self.model.exposure.append(0)

    @precondition(lambda self: self.model.n > 0)
    @rule(data=st.data())
    def depart(self, data):
        i = data.draw(st.integers(0, self.model.n - 1))
        if i not in self.model.active:
            with pytest.raises(IdentityError):
                self.matrix.depart(i)
            return
        self.matrix.depart(i)
        self.model.active.discard(i)

    @precondition(lambda self: self.model.m > 0)
    @rule(
        data=st.data(),
        attitude=st.sampled_from([Attitude.APPROVE, Attitude.DISAPPROVE, Attitude.UNKNOWN]),
        served=st.booleans(),
    )
    def record_attitude(self, data, attitude, served):
        # departed and never-registered participants are drawn too: both must be refused
        i = data.draw(st.integers(0, self.model.n))
        p = data.draw(st.integers(0, self.model.m - 1))
        if i not in self.model.active:
            with pytest.raises(IdentityError):
                self.matrix.record_attitude(i, p, attitude, served=served)
            return
        try:
            self.model.record(i, p, attitude, served)
        except IdentityError:
            with pytest.raises(IdentityError):
                self.matrix.record_attitude(i, p, attitude, served=served)
            return
        self.matrix.record_attitude(i, p, attitude, served=served)

    @precondition(lambda self: self.model.m > 0 and self.model.active)
    @rule(data=st.data(), served=st.booleans(), spoil=st.booleans())
    def write_cells(self, data, served, spoil):
        active, n, m = sorted(self.model.active), self.model.n, self.model.m
        # few participants and ideas, so cells repeat and known cells are overwritten, UNKNOWN included
        cell = st.tuples(st.sampled_from(active[-3:]), st.integers(0, min(m, 3) - 1), st.sampled_from([1, 0, -1]))
        cells = data.draw(st.lists(cell, max_size=16))
        if spoil:
            departed = sorted(set(range(n)) - self.model.active)
            bad = data.draw(st.sampled_from(
                [(i, 0, 1) for i in [-1, n] + departed] + [(active[0], p, 1) for p in (-1, m)] + [(active[0], 0, 2)]
            ))
            cells.insert(data.draw(st.integers(0, len(cells))), bad)
        rows, cols, codes = np.array(cells, dtype=np.intp).reshape(-1, 3).T
        replay = copy.deepcopy(self.model)
        try:
            for i, p, code in [] if spoil else cells:
                replay.record(i, p, Attitude(code), served)
        except IdentityError:
            spoil = True
        if spoil:  # refused whole: the model stays as it was
            with pytest.raises(IdentityError):
                self.matrix._write_cells(rows, cols, codes, served=served)
            return
        self.matrix._write_cells(rows, cols, codes, served=served)
        self.model = replay

    @precondition(lambda self: self.model.m > 0)
    @rule(data=st.data(), count=st.integers(0, 3))
    def note_exposure(self, data, count):
        p = data.draw(st.integers(0, self.model.m - 1))
        if self.model.exposure[p] + count > INT64_MAX:
            with pytest.raises(IdentityError):
                self.matrix.note_exposure(p, count)
            return
        self.matrix.note_exposure(p, count)
        self.model.exposure[p] += count

    @precondition(lambda self: self.model.m > 0)
    @rule(data=st.data(), room=st.integers(0, 2))
    def fill_exposure(self, data, room):
        """Bring an idea's exposure to within ``room`` of int64's limit."""
        p = data.draw(st.integers(0, self.model.m - 1))
        if self.model.exposure[p] <= INT64_MAX - room:
            self.matrix.note_exposure(p, INT64_MAX - room - self.model.exposure[p])
            self.model.exposure[p] = INT64_MAX - room

    @rule()
    def snapshot(self):
        snap = self.matrix.snapshot()
        assert snap.frozen and not self.matrix.frozen
        assert snap == self.matrix
        assert not np.shares_memory(snap._codes, self.matrix._buffer)
        self.snapshots = [*self.snapshots[-(MAX_SNAPSHOTS - 1):], (snap, copy.deepcopy(self.model))]

    @precondition(lambda self: self.model.n < 40 and self.model.m < 20)
    @rule()
    def grow_past_capacity_then_snapshot(self):
        rows, cols = self.matrix._buffer.shape
        while self.model.n <= rows:
            self.add_participant()
        while self.model.m <= cols:
            assert self.matrix.add_idea("grown") == self.model.m
            self.model.texts.append("grown")
            self.model.exposure.append(0)
        assert self.matrix._buffer.shape[0] > rows and self.matrix._buffer.shape[1] > cols
        self.snapshot()

    @invariant()
    def live_matrix_agrees_with_the_model(self):
        assert_agrees(self.matrix, self.model)

    @invariant()
    def snapshots_stay_isolated(self):
        for snap, model in self.snapshots:
            assert_agrees(snap, model)
            with pytest.raises(FrozenMatrixError):
                snap.add_participant()
            if model.n and model.m:
                with pytest.raises(FrozenMatrixError):
                    snap.record_attitude(0, 0, Attitude.APPROVE)
                with pytest.raises(FrozenMatrixError):
                    snap._write_cells([0], [0], [1])


MatrixAgainstDictModel.TestCase.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
test_matrix_agrees_with_dict_model = MatrixAgainstDictModel.TestCase


@settings(max_examples=400, deadline=None)
@given(data=st.data(), served=st.booleans())
def test_write_cells_is_record_attitude_in_input_order(data, served):
    """A batch ends as ``record_attitude`` replayed cell by cell, or raises and changes nothing where that raises."""
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    dense = data.draw(st.lists(st.lists(st.sampled_from([1, 0, None]), min_size=m, max_size=m), min_size=n, max_size=n))
    departed = data.draw(st.sets(st.integers(0, n - 1), max_size=1))
    rooms = data.draw(st.lists(st.none() | st.integers(0, 3), min_size=m, max_size=m))  # exposure headroom per idea
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.sampled_from([1, 0, -1]))
    cells = data.draw(st.lists(cell, max_size=12))
    bad = data.draw(st.none() | st.sampled_from([(-1, 0, 1), (n, 0, 1), (0, -1, 1), (0, m, 1), (0, 0, 2)]))
    if bad:
        cells.insert(data.draw(st.integers(0, len(cells))), bad)

    def build():
        matrix = AttitudeMatrix.from_dense(dense)
        for i in departed:
            matrix.depart(i)
        for p, room in enumerate(rooms):
            if room is not None:
                matrix.note_exposure(p, INT64_MAX - room - int(matrix.exposures[p]))
        return matrix

    batch, spec = build(), build()
    rows, cols, codes = np.array(cells, dtype=np.intp).reshape(-1, 3).T
    try:
        for i, p, code in cells:
            if code not in (1, 0, -1):
                raise IdentityError(f"not an attitude code: {code}")
            spec.record_attitude(i, p, Attitude(code), served=served)
    except IdentityError:
        with pytest.raises(IdentityError):
            batch._write_cells(rows, cols, codes, served=served)
        spec = build()
    else:
        batch._write_cells(rows, cols, codes, served=served)
    assert batch.codes().tolist() == spec.codes().tolist()
    assert batch.audit_log == spec.audit_log
    assert batch.exposures.tolist() == spec.exposures.tolist()


def test_equality_is_shape_plus_known_cells():
    left = AttitudeMatrix.from_dense([[1, None], [0, 1]])
    right = AttitudeMatrix.from_dense([[1, None], [0, 1]], texts=["x", "y"])
    right.note_exposure(0, 5)
    assert left == right
    right.record_attitude(0, 1, Attitude.DISAPPROVE)
    assert left != right
    right.record_attitude(0, 1, Attitude.UNKNOWN)
    assert left == right
    assert AttitudeMatrix.from_dense([[None]]) != AttitudeMatrix.from_dense([[None, None]])
    assert AttitudeMatrix.from_dense([], texts=["a"]) != AttitudeMatrix.from_dense([[]])
