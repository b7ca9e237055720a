"""Opinion-landscape pipeline: impute, embed in 2-D, cluster, audit.

The pipeline fills unknown attitudes with column means, projects
participants onto the top eigenvectors of their scatter matrix, clusters
the projected points with seeded k-means, and finally audits the
clustering for groups that a different center would serve strictly
better.

Memory is bounded by the data: the audit measures its candidate centers in
blocks, so beyond the O(n * m) input it holds O(block * n) floats, with
``block * n * d`` near ``_AUDIT_CHUNK_FLOATS``, never an (n, n, d) tensor.
The audit's and the Lloyd step's many-to-many distances come from
``_squared_distances``, which equals the plain broadcast expression bit for
bit, so the block size changes no output.

Feeding mean-imputed binary data to a least-squares embedding is a known
fidelity compromise; the imputation mask is kept on the complete matrix so
downstream consumers can discount filled-in cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError, _seeded_rng
from .matrix import AttitudeMatrix

KMEANS_MAX_ITERATIONS = 500

CLUSTER_SPACES = ("embedded", "full")

_AUDIT_CHUNK_FLOATS = 1 << 20  # floats per candidate-block temporary, about 8 MB


@dataclass(frozen=True)
class CompleteMatrix:
    """Fully known n x m matrix in [0, 1] plus the mask of imputed cells."""

    values: np.ndarray
    imputed_mask: np.ndarray


@dataclass(frozen=True)
class Embedding:
    """Centered rows projected onto orthonormal principal directions."""

    points: np.ndarray          # (n, d) projection coordinates
    components: np.ndarray      # (d, m) orthonormal directions
    column_means: np.ndarray    # (m,) centering vector
    objective: float            # total squared residual off the subspace


@dataclass(frozen=True)
class Clustering:
    assignment: np.ndarray      # (n,) cluster index per point
    centroids: np.ndarray       # (k, d)
    objective: float            # within-cluster sum of squared distances
    objective_history: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class BlockingCoalition:
    """Participants who would all be strictly closer to one data point."""

    candidate: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class FairnessAudit:
    centroid_distance: np.ndarray
    nearest_other_distance: np.ndarray
    blocking_coalitions: tuple[BlockingCoalition, ...]


class Landscape(NamedTuple):
    complete: CompleteMatrix
    embedding: Embedding
    clustering: Clustering
    audit: FairnessAudit


# -- imputation ---------------------------------------------------------------


def impute_mean(matrix: AttitudeMatrix) -> CompleteMatrix:
    """Fill each unknown cell with its column mean; empty columns get 0.5."""
    n, m = matrix.shape
    if n < 1 or m < 1:
        raise ParameterError("imputation needs at least one participant and one idea")
    codes = matrix.codes()
    known = codes >= 0
    approvals, responses = matrix.column_counts_all()
    fill = np.divide(approvals, responses, out=np.full(m, 0.5), where=responses > 0)
    return CompleteMatrix(values=np.where(known, codes, fill), imputed_mask=~known)


def _as_points(data) -> np.ndarray:
    if isinstance(data, CompleteMatrix):
        return data.values
    return np.asarray(data, dtype=float)


# -- principal components -------------------------------------------------------


def pca_2d(complete, d: int = 2) -> Embedding:
    """Top-d principal directions from the eigendecomposition of the scatter.

    Columns are mean-centered first. The components are the eigenvectors of
    the m x m scatter matrix for its d largest eigenvalues, in descending
    order. Each component's largest-magnitude entry is made positive so the
    embedding is reproducible. The objective is the total squared residual
    between the centered rows and their projections.
    """
    data = _as_points(complete)
    n, m = data.shape
    if n < 2:
        raise ParameterError("embedding needs at least two participants")
    if not 1 <= d <= min(n, m):
        raise ParameterError(f"d must lie in [1, min(n, m)] = [1, {min(n, m)}]")

    column_means = data.mean(axis=0)
    centered = data - column_means
    try:
        _, vectors = np.linalg.eigh(centered.T @ centered)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    basis = vectors[:, -d:][:, ::-1].T.copy()  # eigh sorts eigenvalues ascending
    peaks = basis[np.arange(d), np.abs(basis).argmax(axis=1)]
    basis[peaks < 0] *= -1
    points = centered @ basis.T
    residual = centered - points @ basis
    objective = float((residual**2).sum())
    return Embedding(points=points, components=basis, column_means=column_means, objective=objective)


# -- distances ------------------------------------------------------------------


def _squared_distances(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(n, c) squared distances, bit for bit ``((points[:, None] - others[None]) ** 2).sum(axis=2)``.

    NumPy's add-reduce sums fewer than 8 terms in column order, which a
    column-by-column accumulation repeats, through one reused (n, c)
    scratch array, without the (n, c, d) temporary and without the slow
    inner loop over a short axis. From 8 columns on it sums pairwise, so
    the broadcast expression itself is kept; callers bound its temporary
    by passing ``others`` in blocks. The property tests check both
    branches bit for bit.
    """
    d = points.shape[1]
    if d == 0 or d >= 8:
        return ((points[:, None, :] - others[None, :, :]) ** 2).sum(axis=2)
    # the scratch array is allocated before the result: in the other order
    # the desk benchmark's peak RSS read one block (4 MB) higher
    term = np.empty((points.shape[0], others.shape[0]), dtype=np.result_type(points, others))
    total = np.subtract(points[:, 0, None], others[None, :, 0])
    total *= total
    for j in range(1, d):
        np.subtract(points[:, j, None], others[None, :, j], out=term)
        term *= term
        total += term
    return total


# -- clustering -----------------------------------------------------------------


def _kmeans_pp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0:
            # all remaining mass on duplicates: take the lowest unchosen index
            for j in range(n):
                if j not in chosen:
                    chosen.append(j)
                    break
        else:
            j = int(rng.choice(n, p=d2 / total))
            chosen.append(j)
        d2 = np.minimum(d2, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
    return points[chosen].copy()


def kmeans(data, k: int, seed: int) -> Clustering:
    """Seeded k-means++ followed by Lloyd iterations to a fixpoint.

    At most ``KMEANS_MAX_ITERATIONS`` Lloyd iterations run. Deterministic
    for a given (data, k, seed). Empty clusters are repaired by moving in
    the point currently farthest from its own centroid, which keeps the
    objective non-increasing. The recorded history holds the objective
    after every Lloyd iteration.
    """
    points = _as_points(data)
    n = points.shape[0]
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k > n:
        raise ParameterError(f"cannot form {k} clusters from {n} points")
    rng = _seeded_rng(seed)
    centroids = _kmeans_pp_seeds(points, k, rng)
    assignment = np.full(n, -1, dtype=int)
    history: list[float] = []

    for _ in range(KMEANS_MAX_ITERATIONS):
        distances = _squared_distances(points, centroids)
        new_assignment = distances.argmin(axis=1)

        sizes = np.bincount(new_assignment, minlength=k)
        for empty in np.flatnonzero(sizes == 0):
            own = ((points - centroids[new_assignment]) ** 2).sum(axis=1)
            own[sizes[new_assignment] <= 1] = -np.inf
            moved = int(np.argmax(own))
            sizes[new_assignment[moved]] -= 1
            new_assignment[moved] = empty
            sizes[empty] = 1
            centroids[empty] = points[moved]

        for c in range(k):
            centroids[c] = points[new_assignment == c].mean(axis=0)
        objective = float(((points - centroids[new_assignment]) ** 2).sum())
        history.append(objective)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    return Clustering(
        assignment=assignment,
        centroids=centroids,
        objective=history[-1],
        objective_history=tuple(history),
        seed=seed,
    )


# -- fairness audit ---------------------------------------------------------------


def fairness_audit(clustering: Clustering, data) -> FairnessAudit:
    """Distance disadvantage per participant plus blocking coalitions.

    A blocking coalition is a group of at least ceil(n / k) participants
    who are all strictly closer to one common data point than to their own
    centroids. Candidates are exactly the data points; identical member
    sets are reported once, for the lowest candidate index.

    Candidates are measured in blocks of about ``_AUDIT_CHUNK_FLOATS``
    floats, so memory is O(n * d + block * n) rather than O(n^2 * d), and
    only candidates with enough members reach Python. The distances are
    those of the all-pairs expression bit for bit (see
    ``_squared_distances``), so the strict comparison and the output do not
    depend on the block size.
    """
    points = _as_points(data)
    n, d = points.shape
    k = clustering.centroids.shape[0]
    centroid_dist = np.sqrt(((points - clustering.centroids[clustering.assignment]) ** 2).sum(axis=1))
    all_dist = np.sqrt(_squared_distances(points, clustering.centroids))
    all_dist[np.arange(n), clustering.assignment] = np.inf
    nearest_other = all_dist.min(axis=1) if k > 1 else np.full(n, np.inf)

    threshold = ceil(n / k)
    block = max(1, _AUDIT_CHUNK_FLOATS // max(n * d, 1))
    coalitions = []
    seen: set[bytes] = set()
    for start in range(0, n, block):
        # closer[c, i]: participant i prefers candidate start + c
        closer = (np.sqrt(_squared_distances(points, points[start : start + block])) < centroid_dist[:, None]).T
        for c in np.flatnonzero(closer.sum(axis=1) >= threshold).tolist():
            row = closer[c]
            key = np.packbits(row).tobytes()
            if key not in seen:
                seen.add(key)
                members = tuple(np.flatnonzero(row).tolist())
                coalitions.append(BlockingCoalition(candidate=start + c, members=members))
    return FairnessAudit(
        centroid_distance=centroid_dist,
        nearest_other_distance=nearest_other,
        blocking_coalitions=tuple(coalitions),
    )


# -- pipeline -------------------------------------------------------------------


def build_landscape(matrix: AttitudeMatrix, k: int, seed: int, space: str = "embedded") -> Landscape:
    """Run impute -> embed -> cluster -> audit on one matrix snapshot.

    ``space`` picks where clustering happens: the 2-D embedding
    (the display pipeline) or the full imputed attitude space.
    """
    if space not in CLUSTER_SPACES:
        raise ParameterError(f"unknown clustering space {space!r}")
    complete = impute_mean(matrix)
    embedding = pca_2d(complete)
    cluster_points = embedding.points if space == "embedded" else complete.values
    clustering = kmeans(cluster_points, k, seed)
    audit = fairness_audit(clustering, cluster_points)
    return Landscape(complete=complete, embedding=embedding, clustering=clustering, audit=audit)
