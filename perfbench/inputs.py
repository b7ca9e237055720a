"""Seeded input generation: Polis-style vote files from Gaussian blocs.

Participants sit in a 2-D latent space drawn from a bloc mixture, ideas sit
at a random participant's position plus jitter, and a participant approves
an idea within ``RADIUS`` of it. The vote file lists distinct cells in a
shuffled order; a share of the votes are passes. Voter and comment ids are
random labels, so the importer's first-appearance mapping is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

RADIUS = 3.0
JITTER = 0.25
PASS_SHARE = 0.05


@dataclass(frozen=True)
class Votes:
    """One generated vote file and the answers behind it, in matrix order.

    Rows and columns are numbered by first appearance in the file, which is
    how ``import-polis`` numbers participants and ideas.
    """

    path: Path
    rows: int                 # vote lines in the file
    passes: int
    codes: np.ndarray         # (n, m) int8 expected matrix: 1 / 0 / -1 unknown
    truth: np.ndarray         # (n, m) bool: would approve, for answering queries
    comment_labels: tuple[str, ...]


def _first_appearance(index: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank): entities in first-appearance order and each one's rank."""
    _, first = np.unique(index, return_index=True)
    order = index[np.sort(first)]
    rank = np.full(size, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return order, rank


def bloc_votes(path: Path, seed: int, n: int, m: int, cells: int,
               means: tuple[tuple[float, float], ...], weights: tuple[float, ...]) -> Votes:
    """Write ``cells`` votes of ``n`` participants on ``m`` ideas to ``path``."""
    rng = np.random.default_rng(seed)
    bloc = rng.choice(len(weights), size=n, p=np.asarray(weights) / sum(weights))
    people = np.asarray(means)[bloc] + rng.standard_normal((n, 2))
    ideas = people[rng.integers(n, size=m)] + JITTER * rng.standard_normal((m, 2))
    approve = np.sqrt(((people[:, None, :] - ideas[None, :, :]) ** 2).sum(axis=2)) < RADIUS

    flat = rng.choice(n * m, size=cells, replace=False)
    person, idea = np.divmod(flat, m)
    votes = np.where(approve[person, idea], 1, -1)
    votes[rng.random(cells) < PASS_SHARE] = 0
    voter_ids = rng.choice(9_000_000, size=n, replace=False) + 1_000_000
    comment_ids = rng.choice(100_000, size=m, replace=False)

    lines = ["voter-id,comment-id,vote"]
    lines += [f"{a},{b},{v}" for a, b, v in
              zip(voter_ids[person].tolist(), comment_ids[idea].tolist(), votes.tolist())]
    path.write_text("\n".join(lines) + "\n")

    people_order, row_of = _first_appearance(person, n)
    idea_order, col_of = _first_appearance(idea, m)
    codes = np.full((people_order.size, idea_order.size), -1, dtype=np.int8)
    known = votes != 0
    codes[row_of[person[known]], col_of[idea[known]]] = (votes[known] == 1).astype(np.int8)
    return Votes(
        path=path,
        rows=cells,
        passes=int((votes == 0).sum()),
        codes=codes,
        truth=approve[np.ix_(people_order, idea_order)],
        comment_labels=tuple(str(c) for c in comment_ids[idea_order].tolist()),
    )
