"""Attitude bookkeeping for a single deliberation.

Participants and ideas arrive over time and receive dense integer ids in
arrival order; ids are never reused. Attitudes are ternary (approve,
disapprove, unknown) and live in one dense int8 array of codes, indexed by
(participant, idea): 1 approve, 0 disapprove, -1 unknown. A cell never
written reads as unknown. Every read, count and numeric view derives from
that array.

The array is the used region of a buffer whose rows or columns double when
full; ``codes()`` and snapshots copy that region alone. ``record_attitude``
writes one cell and specifies the bulk write ``_write_cells`` used by the
readers, ``from_dense`` and the loop: it checks a whole batch before writing
any cell, then acts as one ``record_attitude`` per cell in input order.

All mutation is expected to come from a single writer. Readers that need a
stable view take a :meth:`AttitudeMatrix.snapshot`, which is frozen and can
be handed to other threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FrozenMatrixError, IdentityError, UndefinedRateError

ParticipantId = int
IdeaId = int

_EXPOSURE_MAX = np.iinfo(np.int64).max


def _whole_in_range(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Elementwise: is the value a whole number in ``range(start, stop)``?"""
    if values.dtype.kind not in "biuf":  # strings and objects, compared one by one
        return np.isin(values, np.arange(start, stop))
    inside = (start <= values) & (values < stop)
    return inside & (np.floor(values) == values) if values.dtype.kind == "f" else inside


class Attitude(Enum):
    """Ternary stance of a participant toward an idea."""

    APPROVE = 1
    DISAPPROVE = 0
    UNKNOWN = -1

    @classmethod
    def from_numeric(cls, value: int | None) -> "Attitude":
        """The attitude of 1, 0, -1 or None; any other value is an IdentityError."""
        if value is not None and value not in (1, 0, -1):
            raise IdentityError(f"not an attitude value: {value!r}")
        return cls.UNKNOWN if value is None else cls(int(value))


@dataclass(frozen=True)
class Idea:
    """An opaque text contribution. The text is never analyzed."""

    id: IdeaId
    text: str
    author: ParticipantId | None = None


class AttitudeMatrix:
    """Dynamic participants-by-ideas matrix of ternary attitudes.

    Tracks, besides the attitudes themselves: which participants are still
    active, how often each idea has been served to participants (its
    exposure), and an audit log of overwritten attitudes.
    """

    def __init__(self) -> None:
        self._buffer = np.empty((0, 0), dtype=np.int8)
        self._codes = self._buffer  # the used region: self._buffer[:n, :m]
        self._ideas: list[Idea] = []
        self._n = 0
        self._active: set[int] = set()
        self._exposure: list[int] = []
        self._audit_log: list[tuple[int, int, Attitude, Attitude]] = []
        self._frozen = False

    # -- identity checks -------------------------------------------------

    def _check_writable(self) -> None:
        if self._frozen:
            raise FrozenMatrixError("snapshots are immutable")

    def _check_participant(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise IdentityError(f"unknown participant {i}")

    def _check_idea(self, p: int) -> None:
        if not 0 <= p < len(self._ideas):
            raise IdentityError(f"unknown idea {p}")

    # -- growth and churn -------------------------------------------------

    def _resize(self, n: int, m: int) -> None:
        """Make the used region n x m, doubling the buffer along each axis it outgrows."""
        shape = tuple(have if need <= have else max(need, 2 * have) for need, have in zip((n, m), self._buffer.shape))
        if shape != self._buffer.shape:
            self._buffer = np.full(shape, -1, dtype=np.int8)
            self._buffer[: self._n, : self.n_ideas] = self._codes
        self._codes = self._buffer[:n, :m]

    def add_participant(self) -> ParticipantId:
        """Register a new participant; returns its dense id."""
        self._check_writable()
        i = self._n
        self._resize(i + 1, self.n_ideas)
        self._n += 1
        self._active.add(i)
        return i

    def add_idea(self, text: str, author: ParticipantId | None = None) -> IdeaId:
        """Append a new idea column, all unknown, exposure zero.

        ``author`` is optional so that initiator-seeded or imported ideas
        can exist without a contributing participant.
        """
        self._check_writable()
        if author is not None:
            self._check_participant(author)
        p = len(self._ideas)
        self._resize(self._n, p + 1)
        self._ideas.append(Idea(id=p, text=text, author=author))
        self._exposure.append(0)
        return p

    def depart(self, i: ParticipantId) -> None:
        """Mark a participant inactive. Their recorded attitudes remain."""
        self._check_writable()
        self._check_participant(i)
        if i not in self._active:
            raise IdentityError(f"participant {i} is not active")
        self._active.discard(i)

    # -- attitude writes --------------------------------------------------

    def record_attitude(self, i: ParticipantId, p: IdeaId, attitude: Attitude, *, served: bool = False) -> None:
        """Set cell (i, p). Overwrites are allowed and logged.

        Exposure of idea ``p`` goes up when the record answers a served
        query, and also whenever an unknown cell becomes known through any
        other path, so exposure never falls below the number of known
        entries in the column. A write that would take the exposure past
        int64 raises ``IdentityError`` and changes nothing.
        """
        self._check_writable()
        self._check_idea(p)
        if not 0 <= i < self._n or i not in self._active:
            raise IdentityError(f"participant {i} is unknown or inactive")
        if not isinstance(attitude, Attitude):
            raise IdentityError(f"not an attitude: {attitude!r}")
        old = self._codes.item(i, p)
        exposed = served or (old < 0 and attitude is not Attitude.UNKNOWN)
        if exposed and self._exposure[p] == _EXPOSURE_MAX:
            raise IdentityError(f"idea {p}: exposure would exceed int64")
        self._codes[i, p] = attitude.value
        if old >= 0 and attitude.value != old:
            self._audit_log.append((i, p, Attitude(old), attitude))
        if exposed:
            self._exposure[p] += 1

    def _write_cells(self, rows, cols, codes, *, served: bool = False) -> None:
        """``record_attitude(rows[j], cols[j], codes[j])`` for each j in order, but nothing if any would raise."""
        self._check_writable()
        rows, cols, codes = map(np.asarray, (rows, cols, codes))
        if not rows.size == cols.size == codes.size:
            raise IdentityError("rows, cols and codes differ in length")
        if not rows.size:  # an empty plan, most rounds of a full-budget loop
            return
        active = np.zeros(self._n, dtype=bool)
        active[list(self._active)] = True
        known_rows = _whole_in_range(rows, 0, self._n)
        known_rows[known_rows] = active[rows[known_rows].astype(np.intp)]
        checks = (("unknown idea", cols, _whole_in_range(cols, 0, self.n_ideas)),
                  ("unknown or inactive participant", rows, known_rows),
                  ("not an attitude code:", codes, _whole_in_range(codes, -1, 2)))
        for what, values, valid in checks:
            if not valid.all():
                raise IdentityError(f"{what} {values[~valid][0]}")
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        codes = codes.astype(np.int8, copy=False)
        key = rows * self.n_ideas + cols
        order = np.argsort(key, kind="stable")  # by cell, input order within a cell
        key = key[order]
        repeat = key[1:] == key[:-1]
        if repeat.any():
            first, last = np.append(True, ~repeat), np.append(~repeat, True)
            r, c, written = rows[order], cols[order], codes[order]
            old = np.empty_like(codes)  # a cell's first write sees the matrix, a later one the write before
            old[order] = np.where(first, self._codes[r, c], np.roll(written, 1))
            r, c, written = r[last], c[last], written[last]
        else:  # every write sees the matrix and is its cell's last
            r, c, written, old = rows, cols, codes, self._codes[rows, cols]
        exposed = np.ones(codes.size, dtype=bool) if served else (old < 0) & (codes >= 0)
        added = np.bincount(cols[exposed], minlength=self.n_ideas)
        over = np.flatnonzero(added > _EXPOSURE_MAX - self.exposures)
        if over.size:
            raise IdentityError(f"idea {over[0]}: exposure would exceed int64")
        self._codes[r, c] = written
        for j in np.flatnonzero((old >= 0) & (codes != old)).tolist():
            self._audit_log.append((int(rows[j]), int(cols[j]), Attitude(int(old[j])), Attitude(int(codes[j]))))
        self._exposure = (self.exposures + added).tolist()

    def note_exposure(self, p: IdeaId, count: int = 1) -> None:
        """Count ``count`` servings of idea ``p`` that produced no answer.

        ``count`` is a non-negative integer that keeps the exposure within int64.
        """
        self._check_writable()
        self._check_idea(p)
        room = _EXPOSURE_MAX - self._exposure[p]
        if not isinstance(count, (int, np.integer)) or not 0 <= int(count) <= room:
            raise IdentityError(f"exposure increments are non-negative integers within int64, got {count}")
        self._exposure[p] += int(count)

    # -- reads ------------------------------------------------------------

    def get(self, i: ParticipantId, p: IdeaId) -> Attitude:
        self._check_participant(i)
        self._check_idea(p)
        return Attitude(self._codes.item(i, p))

    def column_counts_all(self) -> tuple[np.ndarray, np.ndarray]:
        """(approvals, responses) per idea, as two length-m arrays."""
        codes = self._codes
        return (codes == 1).sum(axis=0), (codes >= 0).sum(axis=0)

    def completion_rate(self) -> float:
        """Fraction of known cells among all n * m cells."""
        total = self._n * self.n_ideas
        if total == 0:
            raise UndefinedRateError("completion rate is undefined on an empty matrix")
        return self.n_known / total

    def snapshot(self) -> "AttitudeMatrix":
        """Frozen copy of the used region; later mutations of the live matrix do not affect it."""
        snap = AttitudeMatrix()
        snap._buffer = snap._codes = self._codes.copy()
        snap._ideas = list(self._ideas)
        snap._n = self._n
        snap._active = set(self._active)
        snap._exposure = list(self._exposure)
        snap._audit_log = list(self._audit_log)
        snap._frozen = True
        return snap

    # -- numeric views ----------------------------------------------------

    def codes(self) -> np.ndarray:
        """Dense int8 view: 1 approve, 0 disapprove, -1 unknown."""
        return self._codes.copy()

    def known_mask(self) -> np.ndarray:
        return self._codes >= 0

    def approvals(self) -> np.ndarray:
        """Dense boolean approvals; unknown counts as not approved."""
        return self._codes == 1

    # -- properties -------------------------------------------------------

    @property
    def n_participants(self) -> int:
        return self._n

    @property
    def n_ideas(self) -> int:
        return len(self._ideas)

    @property
    def shape(self) -> tuple[int, int]:
        return self._n, len(self._ideas)

    @property
    def ideas(self) -> tuple[Idea, ...]:
        return tuple(self._ideas)

    @property
    def active_participants(self) -> frozenset[int]:
        return frozenset(self._active)

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def exposures(self) -> np.ndarray:
        return np.array(self._exposure, dtype=np.int64)

    @property
    def total_exposure(self) -> int:
        return int(sum(self._exposure))

    @property
    def audit_log(self) -> tuple[tuple[int, int, Attitude, Attitude], ...]:
        return tuple(self._audit_log)

    @property
    def n_known(self) -> int:
        return int(np.count_nonzero(self._codes >= 0))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_dense(cls, rows, texts: list[str] | None = None) -> "AttitudeMatrix":
        """Build a matrix from nested values 1 / 0 / None (or Attitude).

        Every row becomes an active participant; idea texts default to
        ``idea <j>``. -1 also reads as unknown; any other value raises
        IdentityError.
        """
        rows = [list(r) for r in rows]
        m = len(rows[0]) if rows else (len(texts) if texts else 0)
        matrix = cls()
        if texts is None:
            texts = [f"idea {j}" for j in range(m)]
        if len(texts) != m:
            raise IdentityError("texts length does not match the number of columns")
        if any(len(row) != m for row in rows):
            raise IdentityError("ragged rows")
        for text in texts:
            matrix.add_idea(text)
        for _ in rows:
            matrix.add_participant()
        codes = np.array([[(v if isinstance(v, Attitude) else Attitude.from_numeric(v)).value for v in row]
                          for row in rows], dtype=np.int8).reshape(len(rows), m)
        matrix._write_cells(*np.nonzero(codes >= 0), codes[codes >= 0])
        return matrix

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Attitude-content equality: same shape and same known cells."""
        if not isinstance(other, AttitudeMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._codes, other._codes)

    def __repr__(self) -> str:
        return (
            f"AttitudeMatrix(n={self._n}, m={self.n_ideas}, "
            f"known={self.n_known}, active={len(self._active)})"
        )
