import hashlib
import json

import numpy as np
import pytest

from delib import (
    Attitude,
    AttitudeMatrix,
    FormatError,
    LoopConfig,
    MixtureComponent,
    ParameterError,
    PopulationConfig,
    ScoringKind,
    Slate,
    elicitation_ranking,
    greedy_slate,
    jr_audit,
    plan_uniform,
    proportional_ranking,
    run_loop,
)
from delib import dataio
from delib.dataio import (
    export_long_csv,
    export_results,
    export_wide_csv,
    fmt_float,
    import_long_csv,
    import_polis_long,
    import_wide_csv,
    result_text,
    write_timeline,
)

A, D, U = Attitude.APPROVE, Attitude.DISAPPROVE, Attitude.UNKNOWN


def random_matrix(rng, allow_empty=False):
    n = int(rng.integers(0 if allow_empty else 1, 7))
    m = int(rng.integers(1, 7))
    rows = [
        [int(rng.integers(0, 2)) if rng.random() < 0.6 else None for _ in range(m)]
        for _ in range(n)
    ]
    return AttitudeMatrix.from_dense(rows, texts=[f"idea {j}" for j in range(m)])


# -- wide format -----------------------------------------------------------------


def test_wide_import_example(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p,a,b\n0,1,\n1,0,1\n")
    matrix, report = import_wide_csv(path)
    assert matrix.shape == (2, 2)
    assert matrix.get(0, 0) is A
    assert matrix.get(0, 1) is U
    assert matrix.get(1, 0) is D
    assert matrix.get(1, 1) is A
    assert report.cells_set == 3
    assert report.rows_read == 2
    assert [idea.text for idea in matrix.ideas] == ["a", "b"]


def test_wide_import_empty_data_section(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p,a,b\n")
    matrix, report = import_wide_csv(path)
    assert matrix.shape == (0, 2)
    assert report.rows_read == 0


def test_wide_import_skips_bad_cells_with_location(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p,a,b\n0,2,1\n")
    matrix, report = import_wide_csv(path)
    assert matrix.get(0, 0) is U
    assert matrix.get(0, 1) is A
    assert report.skipped == [(2, 2, "2", "unmapped value")]


def test_wide_import_rejects_duplicate_headers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p,a,a\n0,1,0\n")
    with pytest.raises(FormatError):
        import_wide_csv(path)


def test_wide_export_renames_until_the_header_is_unused(tmp_path):
    # the first " [id]" suffix may collide with another text; keep suffixing
    matrix = AttitudeMatrix.from_dense([[1, 0, None]], texts=["a", "a [2]", "a"])
    path = tmp_path / "m.csv"
    export_wide_csv(matrix, path)
    assert path.read_text().splitlines()[0] == "participant,a,a [2],a [2] [2]"
    loaded, _ = import_wide_csv(path)
    assert loaded == matrix
    assert [idea.text for idea in loaded.ideas] == ["a", "a [2]", "a [2] [2]"]


def test_wide_export_quotes_a_carriage_return(tmp_path):
    matrix = AttitudeMatrix.from_dense([[1, 0]], texts=["a\rb", "c\r\nd"])
    path = tmp_path / "m.csv"
    export_wide_csv(matrix, path)
    assert path.read_bytes() == b'participant,"a\rb","c\r\nd"\n0,1,0\n'
    loaded, _ = import_wide_csv(path)
    assert loaded == matrix
    assert [idea.text for idea in loaded.ideas] == ["a\rb", "c\r\nd"]


def test_wide_export_refuses_a_header_the_reader_rejects(tmp_path):
    # the reader keeps the csv module's 131,072-character field limit
    longest = "x" * 131_072
    path = tmp_path / "m.csv"
    export_wide_csv(AttitudeMatrix.from_dense([[1]], texts=[longest]), path)
    assert [idea.text for idea in import_wide_csv(path)[0].ideas] == [longest]
    # the duplicate's " [1]" suffix pushes its header over the limit
    with pytest.raises(FormatError, match="idea 1"):
        export_wide_csv(AttitudeMatrix.from_dense([[1, 0]], texts=[longest, longest]), tmp_path / "n.csv")
    assert not (tmp_path / "n.csv").exists()


def test_wide_import_counts_known_cells_not_writes(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p,a\n0,1\n0,0\n")
    matrix, report = import_wide_csv(path)
    assert matrix.shape == (1, 1)
    assert matrix.get(0, 0) is D
    assert (report.rows_read, report.participants_created, report.cells_set) == (2, 1, 1)


@pytest.mark.parametrize("reader", [import_wide_csv, import_long_csv, import_polis_long])
@pytest.mark.parametrize(
    "content",
    [None, b"", b"participant,idea,value\n0,0,\xff\n", b"participant,idea,value\n0,0," + b"1" * 131_073 + b"\n"],
    ids=["directory", "empty", "non-utf8", "huge-field"],
)
def test_unreadable_files_raise_format_errors(tmp_path, reader, content):
    path = tmp_path / "input.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(FormatError):
        reader(path)


def test_wide_import_missing_file():
    with pytest.raises(FormatError):
        import_wide_csv("/nonexistent/nope.csv")


def test_import_totals_reconcile(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(20):
        matrix = random_matrix(rng)
        path = tmp_path / f"w{trial}.csv"
        export_wide_csv(matrix, path)
        loaded, report = import_wide_csv(path)
        n, m = loaded.shape
        unknown = sum(
            1 for i in range(n) for p in range(m) if loaded.get(i, p) is U
        )
        assert report.cells_set + report.cells_skipped + unknown == n * m


# -- long format -------------------------------------------------------------------


def test_long_round_trip_preserves_shape(tmp_path):
    matrix = AttitudeMatrix.from_dense([[None, None], [None, None]])
    path = tmp_path / "long.csv"
    export_long_csv(matrix, path)
    loaded, _ = import_long_csv(path)
    assert loaded.shape == (2, 2)
    assert loaded == matrix


def test_long_import_last_write_wins(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("participant,idea,value\n0,0,1\n0,0,0\n")
    matrix, _ = import_long_csv(path)
    assert matrix.get(0, 0) is D


def test_round_trips_random_matrices(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(150):
        matrix = random_matrix(rng, allow_empty=True)
        wide = tmp_path / "wide.csv"
        long = tmp_path / "long.csv"
        export_wide_csv(matrix, wide)
        export_long_csv(matrix, long)
        from_wide, _ = import_wide_csv(wide)
        from_long, _ = import_long_csv(long)
        assert from_wide == matrix
        if matrix.n_participants:
            assert from_long == matrix
        # idea texts survive the wide trip
        assert [i.text for i in from_wide.ideas] == [i.text for i in matrix.ideas]


# -- Polis ingestion ------------------------------------------------------------------


def test_polis_vote_mapping(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("participant,comment,vote\n5,12,1\n")
    matrix, report = import_polis_long(path)
    assert matrix.shape == (1, 1)
    assert matrix.get(0, 0) is A
    assert report.cells_set == 1


def test_polis_last_write_wins(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("participant,comment,vote\n5,12,1\n5,12,-1\n")
    matrix, _ = import_polis_long(path)
    assert matrix.get(0, 0) is D


def test_polis_pass_erases_an_earlier_vote_and_logs_it(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("participant,comment,vote\n5,12,1\n5,12,0\n")
    matrix, report = import_polis_long(path)
    assert matrix.get(0, 0) is U
    assert matrix.audit_log == ((0, 0, A, U),)
    assert report.cells_set == 0


def test_polis_pass_stays_unknown_and_is_counted(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("participant,comment,vote\n1,2,0\n")
    matrix, report = import_polis_long(path)
    assert matrix.get(0, 0) is U
    assert report.passes == 1
    remapped, _ = import_polis_long(path, pass_as="disapprove")
    assert remapped.get(0, 0) is D


def test_polis_missing_columns(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError):
        import_polis_long(path)


def test_polis_dashed_headers(tmp_path):
    # "voter-id" contains "vote": the vote column must still resolve to "vote"
    path = tmp_path / "votes.csv"
    path.write_text("voter-id,comment-id,vote\n10,3,1\n10,4,-1\n11,4,1\n")
    matrix, report = import_polis_long(path)
    assert matrix.shape == (2, 2)
    assert report.cells_set == 3
    assert matrix.get(0, 0) is A
    assert matrix.get(0, 1) is D
    assert matrix.get(1, 1) is A


def test_polis_bad_pass_mapping(tmp_path):
    with pytest.raises(ParameterError):
        import_polis_long(tmp_path / "whatever.csv", pass_as="approve")


# -- result export ----------------------------------------------------------------------


# a pair voted then passed, and a label repeated, across chunk boundaries at every size tried
CHUNKED_FILES = {
    "polis": (import_polis_long, "participant,comment,vote\n7,c1,1\n7,c1,0\n8,c2,-1\n8,c1,x\n9\n7,c1,1\n"
                                 "8,c2,0\n9,c3,1\n7,c3,-1\n8,c2,1\n"),
    "wide": (import_wide_csv, "p,a,b,c\nx,1,1,0\ny,0,1\nx,0,?,1,extra\nz,,,\nx,,1,0\ny,1,0,1\n"),
    "long": (import_long_csv, "participant,idea,value\na,x,1\na,x,\nb,y,0\na,x,0\nb\nc,y,2\nb,y,1\na,y,1\n"),
}


def read_chunked_files(tmp_path):
    results = {}
    for name, (reader, text) in CHUNKED_FILES.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        for kwargs in ({"pass_as": "unknown"}, {"pass_as": "disapprove"}) if name == "polis" else ({},):
            matrix, report = reader(path, **kwargs)
            results[name, *kwargs.values()] = (matrix.codes().tolist(), [idea.text for idea in matrix.ideas],
                                                matrix.audit_log, matrix.exposures.tolist(), report)
    return results


@pytest.mark.parametrize("chunk", [1, 3])
def test_readers_write_the_same_matrix_in_any_chunk_size(tmp_path, monkeypatch, chunk):
    expected = read_chunked_files(tmp_path)
    assert all(result[2] for result in expected.values())  # every file overwrites a known cell
    # the unmapped "?" leaves x's known cell b as it was, so the log holds no erase
    assert expected["wide",][2] == ((0, 0, A, D), (0, 2, D, A), (0, 2, A, D), (1, 0, D, A), (1, 1, A, D))
    monkeypatch.setattr(dataio, "_CHUNK_CELLS", chunk)
    assert read_chunked_files(tmp_path) == expected


def test_fmt_float_nine_significant_digits():
    assert fmt_float(1 / 3) == "0.333333333"
    assert fmt_float(2.0) == "2"
    assert fmt_float(1234567891.234) == "1.23456789e+09"


def test_export_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    matrix = random_matrix(rng)
    path = tmp_path / "matrix.csv"
    export_results(matrix, path, format="csv")
    loaded, _ = import_wide_csv(path)
    assert loaded == matrix


def test_export_slate_json_schema(tmp_path):
    matrix = AttitudeMatrix.from_dense([[1, 0], [1, 1]])
    slate = greedy_slate(matrix, 1, ScoringKind.HARMONIC)
    path = tmp_path / "slate.json"
    export_results(slate, path, format="json")
    payload = json.loads(path.read_text())
    assert set(payload) == {"ideas", "score", "rule", "k"}
    assert payload["rule"] == "harmonic"
    assert payload["ideas"] == [0]


def test_export_ranking_json(tmp_path):
    matrix = AttitudeMatrix.from_dense([[1, 0], [1, 1]])
    ranking = proportional_ranking(matrix)
    path = tmp_path / "rank.json"
    export_results(ranking, path, format="json")
    payload = json.loads(path.read_text())
    assert [row["idea"] for row in payload] == list(ranking.order)
    assert all("provenance" in row for row in payload)


def test_export_unknown_type_rejected(tmp_path):
    with pytest.raises(ParameterError):
        export_results(object(), tmp_path / "x.json")


def test_audited_slate_export(tmp_path):
    matrix = AttitudeMatrix.from_dense([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]])
    slate = Slate(ideas=frozenset({1, 0}), target_k=2, score=2.0, kind=ScoringKind.COVERAGE)
    violations = jr_audit(matrix, slate)
    export_results((slate, violations), tmp_path / "audit.json", format="json")
    payload = json.loads((tmp_path / "audit.json").read_text())
    assert payload == {"ideas": [0, 1], "score": 2.0, "rule": "coverage", "k": 2,
                       "violations": [{"group": [2, 3], "witness_ideas": [2], "group_share": 0.5}]}
    assert result_text((slate, violations), "csv") == "group,witness_ideas,group_share\n2 3,2,0.5\n"
    assert result_text((slate, []), "csv") == "group,witness_ideas,group_share\n"


def test_import_report_has_a_json_form_only(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("participant,comment,vote\n5,12,1\n5,13,x\n")
    _, report = import_polis_long(path)
    payload = json.loads(result_text(report, "json"))
    assert payload["cells_skipped"] == 1
    assert payload["skipped"] == [[3, 3, "x", "unmapped vote"]]
    with pytest.raises(ParameterError):
        result_text(report, "csv")


@pytest.mark.parametrize("value", [object(), (1, 2), ("slate",), [1]])
def test_result_text_rejects_values_it_has_no_form_for(value):
    for fmt in ("json", "csv"):
        with pytest.raises(ParameterError):
            result_text(value, fmt)


def test_result_text_rejects_unknown_formats():
    slate = greedy_slate(AttitudeMatrix.from_dense([[1]]), 1, ScoringKind.HARMONIC)
    for fmt in ("xml", "JSON", ""):
        with pytest.raises(ParameterError):
            result_text(slate, fmt)


def tiny_timeline():
    population = PopulationConfig(
        n0=6,
        approval_radius=3.0,
        mixture=(MixtureComponent(1.0, (0.0, 0.0), 1.0),),
        seed=1,
    )
    config = LoopConfig(
        population=population,
        rounds=3,
        query_budget_per_round=6,
        initial_ideas=3,
        slate_k=1,
        landscape_k=2,
        seed=2,
    )
    return run_loop(config)


def test_timeline_csv_row_count(tmp_path):
    timeline = tiny_timeline()
    write_timeline(timeline, tmp_path)
    lines = (tmp_path / "timeline.csv").read_text().strip().splitlines()
    from delib.loop import RoundMetrics

    assert len(lines) - 1 == len(timeline.rows) * len(RoundMetrics.METRIC_FIELDS)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rounds"] == 3
    long_lines = (tmp_path / "timeline_long.csv").read_text().strip().splitlines()
    assert len(long_lines) == len(lines)
    assert long_lines[0].startswith("policy,seed,round")


# SHA-256 of every export_results form and of the write_timeline files;
# any change to a serializer's bytes fails here
EXPORT_FINGERPRINTS = {
    "matrix/json": "8840739e30f05c44d64fc3bedf23ebaab594ce0ed268c0616beec97c4a6d87bf",
    "matrix/csv": "e53cff07236a5269aacbd634b80462acc748af77f2787e841003ab6e7ed79259",
    "slate/json": "d54afeacf275f34105dc0e27ec2f69931691c50a27a9bf8fbe22efa4f51b6cec",
    "slate/csv": "8f5999b4bd4c2aa21a8c30ed2702008554d93606741a19c95cfce7d264620116",
    "ranking/json": "a6bccae2c85d863f54cc8585f606687b0c96f88e7878ca9ca3c767c9ac998abf",
    "ranking/csv": "a5d1296f57ec0f69b6d3879953095b635e58f12abac3e49c8161d8b0c2c28616",
    "plan/json": "82dcfdf5340a9fc917d3dc91701102060b922ca80571dd73f94030ab535dcfc5",
    "plan/csv": "795a5988186fabbe18fb2c4e85e60765b6d014b349d390b6196a5a679a833c2e",
    "timeline/json": "45fda9b3c3da0e513e23b76bbd5d3abb6633e0578181ab33c9332c2a3cf4f5c7",
    "timeline/csv": "e1858450c5e62a7c4378caff0c1b7cb6f4944b1a62c4630728dec1ed5727681b",
    "write_timeline/summary.json": "45fda9b3c3da0e513e23b76bbd5d3abb6633e0578181ab33c9332c2a3cf4f5c7",
    "write_timeline/timeline.csv": "e1858450c5e62a7c4378caff0c1b7cb6f4944b1a62c4630728dec1ed5727681b",
    "write_timeline/timeline_long.csv": "edd9f03b97cdc65695ed054366fdf1eb0eb29bcf53267bb22d0d65359f0ac2ab",
}


def test_export_bytes_are_pinned(tmp_path):
    matrix = AttitudeMatrix.from_dense([[1, None, 0], [None, 1, 1]], texts=["a", "b, c", 'say "hi"'])
    matrix.record_attitude(0, 2, U)
    matrix.record_attitude(1, 0, D)
    values = {
        "matrix": matrix,
        "slate": greedy_slate(matrix, 2, ScoringKind.HARMONIC),
        "ranking": elicitation_ranking(matrix),
        "plan": plan_uniform(matrix, None, 3, 5),
        "timeline": tiny_timeline(),
    }
    digests = {}
    for name, value in values.items():
        for fmt in ("json", "csv"):
            path = tmp_path / f"{name}.{fmt}"
            export_results(value, path, format=fmt)
            digests[f"{name}/{fmt}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    write_timeline(values["timeline"], tmp_path / "timeline")
    for name in ("summary.json", "timeline.csv", "timeline_long.csv"):
        digests[f"write_timeline/{name}"] = hashlib.sha256((tmp_path / "timeline" / name).read_bytes()).hexdigest()
    assert digests == EXPORT_FINGERPRINTS
