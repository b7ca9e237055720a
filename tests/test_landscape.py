import itertools
import tracemalloc
from math import ceil

import numpy as np
import pytest

from delib import (
    AttitudeMatrix,
    Clustering,
    NumericalError,
    ParameterError,
    build_landscape,
    fairness_audit,
    impute_mean,
    kmeans,
    pca_2d,
)
from delib.cli import main


def random_matrix(rng, n, m, density=0.7):
    rows = [
        [int(rng.integers(0, 2)) if rng.random() < density else None for _ in range(m)]
        for _ in range(n)
    ]
    return AttitudeMatrix.from_dense(rows)


# -- imputation -----------------------------------------------------------------


def test_impute_fills_column_mean():
    m = AttitudeMatrix.from_dense([[1], [0], [None]])
    complete = impute_mean(m)
    assert complete.values[2, 0] == 0.5
    assert complete.imputed_mask[2, 0]
    assert not complete.imputed_mask[0, 0]


def test_impute_identity_on_complete_matrix():
    m = AttitudeMatrix.from_dense([[1, 0], [0, 1]])
    complete = impute_mean(m)
    assert np.array_equal(complete.values, [[1.0, 0.0], [0.0, 1.0]])
    assert not complete.imputed_mask.any()


def test_impute_empty_column_gets_half():
    m = AttitudeMatrix.from_dense([[None], [None]])
    complete = impute_mean(m)
    assert np.all(complete.values == 0.5)
    assert complete.imputed_mask.all()


def test_impute_idempotent_fill():
    # applying the column-mean fill to an already-complete matrix is a no-op
    rng = np.random.default_rng(0)
    m = random_matrix(rng, 6, 5, density=0.5)
    once = impute_mean(m)

    def fill(values, known):
        out = values.copy()
        for p in range(values.shape[1]):
            col = known[:, p]
            mean = values[col, p].mean() if col.any() else 0.5
            out[~col, p] = mean
        return out

    again = fill(once.values, np.ones_like(once.values, dtype=bool))
    assert np.array_equal(once.values, again)


# -- principal components ------------------------------------------------------------


def test_pca_identical_rows_collapse_to_origin():
    m = AttitudeMatrix.from_dense([[1, 0, 1]] * 4)
    emb = pca_2d(impute_mean(m))
    assert np.allclose(emb.points, 0.0)
    assert emb.objective == pytest.approx(0.0, abs=1e-12)


def test_pca_planar_rows_have_zero_residual():
    rng = np.random.default_rng(1)
    basis = rng.standard_normal((2, 6))
    coords = rng.standard_normal((8, 2))
    data = coords @ basis + rng.standard_normal(6)  # affine plane in 6-space
    emb = pca_2d(data)
    assert emb.objective == pytest.approx(0.0, abs=1e-8)


def test_pca_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(2, 13))
        data = rng.random((n, m))
        emb = pca_2d(data, d=2)
        centered = data - data.mean(axis=0)
        eigenvalues = np.linalg.eigvalsh(centered.T @ centered)
        oracle_objective = eigenvalues.sum() - np.sort(eigenvalues)[-2:].sum()
        assert emb.objective == pytest.approx(oracle_objective, abs=1e-6)


def test_pca_residual_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        data = rng.random((10, 7))
        emb = pca_2d(data)
        centered = data - data.mean(axis=0)
        total = (centered**2).sum()
        explained = (emb.points**2).sum()
        assert total == pytest.approx(explained + emb.objective, abs=1e-8)


def test_pca_beats_random_subspaces():
    rng = np.random.default_rng(4)
    data = rng.random((12, 8))
    emb = pca_2d(data)
    centered = data - data.mean(axis=0)
    total = (centered**2).sum()
    for _ in range(1000):
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        objective = total - ((centered @ q) ** 2).sum()
        assert emb.objective <= objective + 1e-9


def test_pca_components_orthonormal_and_sign_fixed():
    rng = np.random.default_rng(5)
    data = rng.random((9, 6))
    emb = pca_2d(data)
    gram = emb.components @ emb.components.T
    assert np.allclose(gram, np.eye(2), atol=1e-9)
    for component in emb.components:
        peak = np.argmax(np.abs(component))
        assert component[peak] > 0


def test_pca_parameter_errors():
    with pytest.raises(ParameterError):
        pca_2d(np.zeros((1, 4)))
    with pytest.raises(ParameterError):
        pca_2d(np.zeros((5, 3)), d=4)


def test_pca_embeds_a_near_degenerate_eigengap():
    # scatter eigenvalues 9, 4, 4 * (1 - 1e-7)^2, ...: the 2nd and 3rd are
    # too close for power iteration to separate in 10,000 steps
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(np.column_stack([np.ones(60), rng.standard_normal((60, 8))]))
    u = q[:, 1:]  # orthogonal to the ones vector, so centering keeps U S V^T
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    s = np.array([3, 2, 2 * (1 - 1e-7), 1, 0.5, 0.4, 0.3, 0.2])
    data = u @ np.diag(s) @ v.T + 0.5
    emb = pca_2d(data)
    centered = data - data.mean(axis=0)
    eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered))
    assert emb.objective == pytest.approx(eigenvalues[:-2].sum(), abs=1e-6)
    assert np.allclose(emb.components @ emb.components.T, np.eye(2), atol=1e-9)


def test_a_failed_eigendecomposition_exits_with_a_numerical_error(monkeypatch, tmp_path, capsys):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError):
        pca_2d(np.eye(3))
    matrix_csv = tmp_path / "matrix.csv"
    matrix_csv.write_text("p,a,b\n0,1,0\n1,0,1\n2,1,1\n")
    code = main(["landscape", "--k", "2", "--seed", "1", "--input", str(matrix_csv), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5, err
    assert err.startswith("numerical error: ") and "Traceback" not in err


# -- k-means ----------------------------------------------------------------------


def oracle_best_two_partition(points):
    """Enumerate all 2-partitions; the true minimum of the objective."""
    n = len(points)
    best = np.inf
    for labels in itertools.product([0, 1], repeat=n):
        if len(set(labels)) < 2:
            continue
        total = 0.0
        for c in (0, 1):
            members = points[[j for j in range(n) if labels[j] == c]]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_kmeans_k_equals_n():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    result = kmeans(points, 3, seed=0)
    assert result.objective == pytest.approx(0.0)
    assert sorted(result.assignment) == [0, 1, 2]


def test_kmeans_separated_groups_reach_partition_optimum():
    rng = np.random.default_rng(6)
    left = rng.normal(0.0, 0.05, size=(5, 2))
    right = rng.normal(50.0, 0.05, size=(5, 2))
    points = np.vstack([left, right])
    result = kmeans(points, 2, seed=1)
    assert len(set(result.assignment[:5])) == 1
    assert len(set(result.assignment[5:])) == 1
    assert result.assignment[0] != result.assignment[5]
    assert result.objective == pytest.approx(oracle_best_two_partition(points), abs=1e-9)


def test_kmeans_k1_is_global_variance():
    rng = np.random.default_rng(7)
    points = rng.random((8, 3))
    result = kmeans(points, 1, seed=0)
    assert result.objective == pytest.approx(((points - points.mean(axis=0)) ** 2).sum())


def test_kmeans_lloyd_objective_monotone():
    rng = np.random.default_rng(8)
    for seed in range(30):
        points = rng.random((20, 2))
        result = kmeans(points, 3, seed=seed)
        history = result.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_kmeans_centroids_are_cluster_means():
    rng = np.random.default_rng(9)
    points = rng.random((15, 2))
    result = kmeans(points, 4, seed=3)
    for c in range(4):
        members = points[result.assignment == c]
        assert members.size > 0
        assert np.allclose(result.centroids[c], members.mean(axis=0), atol=1e-9)


def test_kmeans_deterministic_bytes():
    rng = np.random.default_rng(10)
    points = rng.random((12, 2))
    a = kmeans(points, 3, seed=5)
    b = kmeans(points, 3, seed=5)
    assert a.assignment.tobytes() == b.assignment.tobytes()
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.objective == b.objective


def test_kmeans_k_above_n_rejected():
    with pytest.raises(ParameterError):
        kmeans(np.zeros((2, 2)), 3, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5])
def test_kmeans_refuses_seeds_the_generator_refuses(seed):
    points = np.random.default_rng(0).random((6, 2))
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        kmeans(points, 2, seed=seed)
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        build_landscape(random_matrix(np.random.default_rng(1), 6, 3), 2, seed)
    assert kmeans(points, 2, seed=2**70).assignment.shape == (6,)


# -- fairness audit ----------------------------------------------------------------


def oracle_blocking_sets(points, assignment, centroids, k):
    """Brute force over every candidate: members strictly closer to it."""
    n = len(points)
    own = np.array([np.linalg.norm(points[i] - centroids[assignment[i]]) for i in range(n)])
    found = set()
    for c in range(n):
        members = frozenset(
            i for i in range(n) if np.linalg.norm(points[i] - points[c]) < own[i]
        )
        if len(members) >= ceil(n / k):
            found.add(members)
    return found


def test_audit_trivial_when_every_point_is_its_centroid():
    points = np.array([[0.0], [1.0], [2.0]])
    clustering = kmeans(points, 3, seed=0)
    audit = fairness_audit(clustering, points)
    assert np.allclose(audit.centroid_distance, 0.0)
    assert audit.blocking_coalitions == ()


def test_audit_detects_stranded_group():
    # adversarial assignment: {0,1,10,11} forced onto centroid 0, {100} on 100
    points = np.array([[0.0], [1.0], [10.0], [11.0], [100.0]])
    clustering = Clustering(
        assignment=np.array([0, 0, 0, 0, 1]),
        centroids=np.array([[0.0], [100.0]]),
        objective=0.0,
        objective_history=(0.0,),
        seed=0,
    )
    audit = fairness_audit(clustering, points)
    members = {frozenset(c.members) for c in audit.blocking_coalitions}
    assert any({2, 3} <= group for group in members)  # the 10, 11 pair escapes
    assert members == oracle_blocking_sets(points, clustering.assignment, clustering.centroids, 2)


def test_audit_clean_on_well_separated_kmeans():
    rng = np.random.default_rng(11)
    points = np.vstack([rng.normal(0, 0.1, (6, 2)), rng.normal(20, 0.1, (6, 2))])
    clustering = kmeans(points, 2, seed=2)
    audit = fairness_audit(clustering, points)
    assert audit.blocking_coalitions == ()
    assert oracle_blocking_sets(points, clustering.assignment, clustering.centroids, 2) == set()


def test_audit_matches_bruteforce_on_random_clusterings():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        points = rng.random((n, 2))
        k = int(rng.integers(1, 4))
        if k > n:
            continue
        clustering = kmeans(points, k, seed=int(rng.integers(100)))
        audit = fairness_audit(clustering, points)
        reported = {frozenset(c.members) for c in audit.blocking_coalitions}
        assert reported == oracle_blocking_sets(points, clustering.assignment, clustering.centroids, k)


# -- pipeline ---------------------------------------------------------------------


def test_landscape_separates_opposing_blocs():
    half = 6
    rows = [[1] * 8 for _ in range(half)] + [[0] * 8 for _ in range(half)]
    m = AttitudeMatrix.from_dense(rows)
    scape = build_landscape(m, k=2, seed=4)
    first = set(scape.clustering.assignment[:half])
    second = set(scape.clustering.assignment[half:])
    assert len(first) == 1 and len(second) == 1 and first != second
    # embedded 1-D structure: optimum two-partition by enumeration
    assert scape.clustering.objective == pytest.approx(
        oracle_best_two_partition(scape.embedding.points), abs=1e-9
    )


def test_landscape_two_rows_two_singletons():
    m = AttitudeMatrix.from_dense([[1, 0, 1], [0, 1, 0]])
    scape = build_landscape(m, k=2, seed=0)
    assert sorted(scape.clustering.assignment) == [0, 1]


def test_landscape_deterministic():
    rng = np.random.default_rng(13)
    m = random_matrix(rng, 8, 6, density=0.6)
    a = build_landscape(m, k=2, seed=9)
    b = build_landscape(m, k=2, seed=9)
    assert a.complete.values.tobytes() == b.complete.values.tobytes()
    assert a.embedding.points.tobytes() == b.embedding.points.tobytes()
    assert a.clustering.assignment.tobytes() == b.clustering.assignment.tobytes()
    assert a.embedding.objective == b.embedding.objective
    assert a.clustering.objective == b.clustering.objective


def test_landscape_full_space_option():
    rng = np.random.default_rng(14)
    m = random_matrix(rng, 8, 5, density=0.8)
    scape = build_landscape(m, k=2, seed=1, space="full")
    assert scape.clustering.centroids.shape[1] == 5
    with pytest.raises(ParameterError):
        build_landscape(m, k=2, seed=1, space="sideways")


def test_full_space_landscape_memory_is_bounded_by_the_data():
    # all-pairs distances at 1000 x 200 would take 1.6 GB per temporary;
    # the blocked audit needs a few of its 8 MB blocks on top of the data
    rng = np.random.default_rng(15)
    cells = np.where(rng.random((1000, 200)) < 0.3, (rng.random((1000, 200)) < 0.5).astype(int), -1)
    m = AttitudeMatrix.from_dense([[None if c < 0 else c for c in row] for row in cells.tolist()])
    tracemalloc.start()
    try:
        build_landscape(m, k=2, seed=1, space="full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
