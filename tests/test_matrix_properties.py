"""Reference-model property test of the attitude matrix.

Hypothesis applies random sequences of growth, churn, writes, exposures
and snapshots to an ``AttitudeMatrix`` and to a plain-dict model of the
documented semantics, and after every step requires the two to agree on
every read. Each snapshot keeps a copy of the model taken with it and must
go on matching that copy, however the live matrix changes later.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from delib import Attitude, AttitudeMatrix, FrozenMatrixError, IdentityError, UndefinedRateError

MAX_SNAPSHOTS = 4


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
        old = self.cells.get((i, p), Attitude.UNKNOWN)
        if attitude is Attitude.UNKNOWN:
            self.cells.pop((i, p), None)
        else:
            self.cells[(i, p)] = attitude
        if old is not Attitude.UNKNOWN and attitude is not old:
            self.audit.append((i, p, old, attitude))
        if served or (old is Attitude.UNKNOWN and attitude is not Attitude.UNKNOWN):
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
        self.matrix.record_attitude(i, p, attitude, served=served)
        self.model.record(i, p, attitude, served)

    @precondition(lambda self: self.model.m > 0)
    @rule(data=st.data(), count=st.integers(0, 3))
    def note_exposure(self, data, count):
        p = data.draw(st.integers(0, self.model.m - 1))
        self.matrix.note_exposure(p, count)
        self.model.exposure[p] += count

    @rule()
    def snapshot(self):
        snap = self.matrix.snapshot()
        assert snap.frozen and not self.matrix.frozen
        assert snap == self.matrix
        self.snapshots = [*self.snapshots[-(MAX_SNAPSHOTS - 1):], (snap, copy.deepcopy(self.model))]

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


MatrixAgainstDictModel.TestCase.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
test_matrix_agrees_with_dict_model = MatrixAgainstDictModel.TestCase


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
