"""Attitude bookkeeping for a single deliberation.

Participants and ideas arrive over time and receive dense integer ids in
arrival order; ids are never reused. Attitudes are ternary (approve,
disapprove, unknown) and live in one dense int8 array of codes, indexed by
(participant, idea): 1 approve, 0 disapprove, -1 unknown. A cell never
written reads as unknown. Every read, count and numeric view derives from
that array.

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
        self._codes = np.empty((0, 0), dtype=np.int8)
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

    def add_participant(self) -> ParticipantId:
        """Register a new participant; returns its dense id."""
        self._check_writable()
        i = self._n
        grown = np.full((self._n + 1, self.n_ideas), -1, dtype=np.int8)
        grown[: self._n] = self._codes
        self._codes = grown
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
        grown = np.full((self._n, p + 1), -1, dtype=np.int8)
        grown[:, :p] = self._codes
        self._codes = grown
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
        entries in the column.
        """
        self._check_writable()
        self._check_idea(p)
        if not 0 <= i < self._n or i not in self._active:
            raise IdentityError(f"participant {i} is unknown or inactive")
        if not isinstance(attitude, Attitude):
            raise IdentityError(f"not an attitude: {attitude!r}")
        old = self._codes.item(i, p)
        self._codes[i, p] = attitude.value
        if old >= 0 and attitude.value != old:
            self._audit_log.append((i, p, Attitude(old), attitude))
        if served or (old < 0 and attitude is not Attitude.UNKNOWN):
            self._exposure[p] += 1

    def note_exposure(self, p: IdeaId, count: int = 1) -> None:
        """Count ``count`` servings of idea ``p`` that produced no answer.

        ``count`` is a non-negative integer that keeps the exposure within int64.
        """
        self._check_writable()
        self._check_idea(p)
        room = np.iinfo(np.int64).max - self._exposure[p]
        if not isinstance(count, (int, np.integer)) or not 0 <= int(count) <= room:
            raise IdentityError(f"exposure increments are non-negative integers within int64, got {count}")
        self._exposure[p] += int(count)

    # -- reads ------------------------------------------------------------

    def get(self, i: ParticipantId, p: IdeaId) -> Attitude:
        self._check_participant(i)
        self._check_idea(p)
        return Attitude(self._codes.item(i, p))

    def column_counts(self, p: IdeaId) -> tuple[int, int]:
        """(approvals, responses) in column ``p``."""
        self._check_idea(p)
        col = self._codes[:, p]
        return int((col == 1).sum()), int((col >= 0).sum())

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
        """Frozen copy; later mutations of the live matrix do not affect it."""
        snap = AttitudeMatrix()
        snap._codes = self._codes.copy()
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
        for text in texts:  # before any row exists, so growing copies nothing
            matrix.add_idea(text)
        for row in rows:
            if len(row) != m:
                raise IdentityError("ragged rows")
            i = matrix.add_participant()
            for p, value in enumerate(row):
                att = value if isinstance(value, Attitude) else Attitude.from_numeric(value)
                if att is not Attitude.UNKNOWN:
                    matrix.record_attitude(i, p, att)
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
