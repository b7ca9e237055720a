"""Property tests of the fairness audit and its distance kernel.

``fairness_audit`` walks the candidate points in blocks and measures
distances with ``_squared_distances``. The all-pairs audit kept here as the
reference defines the exact result: on small clusterings, among them
integer-grid points with ties and duplicates, in 1 to 12 dimensions, with
any k from 1 to n and any block size, the audit must equal the reference
in every distance bit and in every coalition, its candidate, its members
and their order, all of plain ``int`` type.
"""

from __future__ import annotations

from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delib import Clustering, fairness_audit, kmeans, landscape
from delib.landscape import BlockingCoalition, FairnessAudit


def reference_fairness_audit(clustering, points):
    """The all-pairs audit: an (n, n, d) distance tensor and one pass per candidate."""
    n = points.shape[0]
    k = clustering.centroids.shape[0]
    centroid_dist = np.sqrt(((points - clustering.centroids[clustering.assignment]) ** 2).sum(axis=1))
    all_dist = np.sqrt(((points[:, None, :] - clustering.centroids[None, :, :]) ** 2).sum(axis=2))
    masked = all_dist.copy()
    masked[np.arange(n), clustering.assignment] = np.inf
    nearest_other = masked.min(axis=1) if k > 1 else np.full(n, np.inf)

    threshold = ceil(n / k)
    pairwise = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    closer = pairwise < centroid_dist[:, None]
    coalitions = []
    seen = set()
    for candidate in range(n):
        members = np.flatnonzero(closer[:, candidate])
        if members.size >= threshold:
            key = frozenset(int(i) for i in members)
            if key not in seen:
                seen.add(key)
                coalitions.append(BlockingCoalition(candidate=candidate, members=tuple(int(i) for i in members)))
    return FairnessAudit(
        centroid_distance=centroid_dist,
        nearest_other_distance=nearest_other,
        blocking_coalitions=tuple(coalitions),
    )


def assert_same_audit(got, want):
    for name in ("centroid_distance", "nearest_other_distance"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert got.blocking_coalitions == want.blocking_coalitions
    for coalition in got.blocking_coalitions:
        assert type(coalition.candidate) is int
        assert all(type(i) is int for i in coalition.members)


def clustering_of(assignment, centroids) -> Clustering:
    return Clustering(
        assignment=np.asarray(assignment, dtype=int),
        centroids=np.asarray(centroids, dtype=float),
        objective=0.0,
        objective_history=(0.0,),
        seed=0,
    )


@st.composite
def audit_inputs(draw):
    """(clustering, points): grid or real points, centroids from k-means or drawn."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        # a coarse integer grid: duplicate points and exact distance ties
        cells = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    else:
        cells = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n * d, max_size=n * d))
    points = np.array(cells, dtype=float).reshape(n, d)
    if draw(st.booleans()):
        return kmeans(points, k, draw(st.integers(0, 2**32 - 1))), points
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    centroids = draw(st.lists(st.integers(-4, 4), min_size=k * d, max_size=k * d))
    return clustering_of(assignment, np.array(centroids, dtype=float).reshape(k, d) / 2), points


@settings(max_examples=300, deadline=None)
@given(audit_inputs())
def test_audit_equals_reference(case):
    clustering, points = case
    assert_same_audit(fairness_audit(clustering, points), reference_fairness_audit(clustering, points))


@settings(max_examples=300, deadline=None)
@given(audit_inputs(), st.data())
def test_audit_equals_reference_over_many_blocks(case, data):
    clustering, points = case
    n, d = points.shape
    # block sizes from 1 to past n, with a remainder below one candidate's floats
    block = data.draw(st.integers(1, n + 1))
    chunk = block * n * d + data.draw(st.integers(0, n * d - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(landscape, "_AUDIT_CHUNK_FLOATS", chunk)
        got = fairness_audit(clustering, points)
    assert_same_audit(got, reference_fairness_audit(clustering, points))


def test_uneven_blocks_keep_the_lowest_candidate_per_member_set(monkeypatch):
    # 1-D points 0, 0, 0 and four at 10, all assigned to a centroid at 5:
    # candidates 3-6 share one member set, reported once for candidate 3
    points = np.array([[0.0]] * 3 + [[10.0]] * 4)
    clustering = clustering_of([0] * 7, [[5.0], [100.0]])
    monkeypatch.setattr(landscape, "_AUDIT_CHUNK_FLOATS", 2 * 7)  # blocks of 2: 2 + 2 + 2 + 1
    audit = fairness_audit(clustering, points)
    assert audit.blocking_coalitions == (BlockingCoalition(candidate=3, members=(3, 4, 5, 6)),)
    assert_same_audit(audit, reference_fairness_audit(clustering, points))


@pytest.mark.parametrize("d", [*range(13), 50, 400])
def test_squared_distances_match_the_broadcast_bit_for_bit(d):
    rng = np.random.default_rng(d)
    points = rng.standard_normal((13, d)) * rng.choice([1e-3, 1.0, 1e3], size=(13, 1))
    others = np.vstack([rng.standard_normal((9, d)), points[:2]])
    for block in (others, others[:1], others[3:10]):
        want = ((points[:, None, :] - block[None, :, :]) ** 2).sum(axis=2)
        got = landscape._squared_distances(points, block)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
