"""Property tests of the matrix file formats with hostile idea texts.

Texts mix commas, quotes, both line-end characters, leading spaces, empty
strings, duplicates and `` [j]`` suffixes that collide with the names the
wide writer gives duplicated texts. A wide export must read back without
error, with the same cells and shape, and with every text that was unique;
a long export keeps cells and shape. It writes no row for a matrix without
cells, so that test draws at least one participant and one idea. Wide
files whose participant labels repeat merge into one row per label, long
files whose (participant, idea) pairs repeat merge into one cell per pair,
a later empty value never erases a known one, and the import report
accounts for every cell of the result.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delib import AttitudeMatrix
from delib.dataio import (
    atomic_write_text,
    csv_text,
    export_long_csv,
    export_wide_csv,
    import_long_csv,
    import_wide_csv,
)

PIECES = ["x", "y", ",", '"', "\n", "\r", "\r\n", " ", "  x", " [0]", " [1]", " [2]", "[", "]"]
texts = (
    st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
    | st.sampled_from(["", "x", "x [1]", "x [2]", "x [1] [2]", "x [2] [2]"])
    | st.text(max_size=6)
)
cell_values = st.sampled_from([None, None, 0, 1])
SUFFIX = re.compile(r" \[\d+\]$")


@st.composite
def matrices(draw, min_size=0):
    n = draw(st.integers(min_size, 6))
    m = draw(st.integers(min_size, 6))
    rows = draw(st.lists(st.lists(cell_values, min_size=m, max_size=m), min_size=n, max_size=n))
    return AttitudeMatrix.from_dense(rows, texts=draw(st.lists(texts, min_size=m, max_size=m)))


def round_trip(matrix, export, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.csv"
        export(matrix, path)
        return read(path)


def assert_report_accounts_for_every_cell(matrix, report):
    n, m = matrix.shape
    unknown = int((matrix.codes() < 0).sum())
    assert report.cells_set == matrix.n_known
    assert report.cells_set + report.cells_skipped + unknown == n * m
    assert (report.participants_created, report.ideas_created) == (n, m)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_wide_round_trip_keeps_cells_shape_and_unique_texts(matrix):
    loaded, report = round_trip(matrix, export_wide_csv, import_wide_csv)
    assert loaded == matrix
    assert_report_accounts_for_every_cell(loaded, report)
    original = [idea.text for idea in matrix.ideas]
    headers = [idea.text for idea in loaded.ideas]
    for j, (text, header) in enumerate(zip(original, headers)):
        # a text keeps its name unless an earlier header holds it; then it
        # gets " [j]" suffixes, and renamed headers all end in such a suffix
        assert header.startswith(text)
        assert header[len(text):] == f" [{j}]" * (len(header[len(text):]) // len(f" [{j}]"))
        if text not in headers[:j]:
            assert header == text
        if original.count(text) == 1 and not SUFFIX.search(text):
            assert header == text


@settings(max_examples=300, deadline=None)
@given(matrices(min_size=1))
def test_long_round_trip_keeps_cells_and_shape(matrix):
    loaded, report = round_trip(matrix, export_long_csv, import_long_csv)
    assert loaded == matrix
    assert_report_accounts_for_every_cell(loaded, report)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda m: st.lists(
            st.tuples(st.sampled_from(["0", "1", "a", " 0"]), st.lists(cell_values, min_size=m, max_size=m)),
            max_size=8,
        ).map(lambda rows: (m, rows))
    )
)
def test_wide_rows_with_repeated_labels_merge_last_known_value_wins(case):
    m, rows = case
    expected: dict[str, list] = {}
    for label, cells in rows:
        merged = expected.setdefault(label, [None] * m)
        for p, value in enumerate(cells):
            if value is not None:
                merged[p] = value
    text = csv_text(["participant"] + [f"idea {p}" for p in range(m)],
                    [[label] + ["" if v is None else str(v) for v in cells] for label, cells in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.csv"
        atomic_write_text(path, text)
        loaded, report = import_wide_csv(path)
    reference = AttitudeMatrix.from_dense(list(expected.values()), texts=[f"idea {p}" for p in range(m)])
    assert loaded.shape == (len(expected), m)
    assert np.array_equal(loaded.codes(), reference.codes())
    assert report.rows_read == len(rows)
    assert_report_accounts_for_every_cell(loaded, report)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["0", "1", "a", " 0"]), st.sampled_from(["0", "1", "b"]), cell_values),
        max_size=12,
    )
)
def test_long_rows_with_repeated_pairs_merge_last_known_value_wins(rows):
    participants: dict[str, int] = {}
    ideas: dict[str, int] = {}
    cells: dict[tuple[int, int], int] = {}
    overwrites = 0
    for participant, idea, value in rows:
        cell = (participants.setdefault(participant, len(participants)), ideas.setdefault(idea, len(ideas)))
        if value is not None:
            overwrites += cells.get(cell, value) != value
            cells[cell] = value
    text = csv_text(["participant", "idea", "value"],
                    [[participant, idea, "" if value is None else str(value)] for participant, idea, value in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "long.csv"
        atomic_write_text(path, text)
        loaded, report = import_long_csv(path)
    reference = [[cells.get((i, p)) for p in range(len(ideas))] for i in range(len(participants))]
    assert loaded.shape == (len(participants), len(ideas))
    assert np.array_equal(loaded.codes(), AttitudeMatrix.from_dense(reference).codes())
    assert [idea.text for idea in loaded.ideas] == [f"idea {label}" for label in ideas]
    assert len(loaded.audit_log) == overwrites
    assert report.rows_read == len(rows)
    assert_report_accounts_for_every_cell(loaded, report)
