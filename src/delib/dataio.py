"""CSV and JSON ingestion and serialization.

Two matrix file formats share one cell codec: ``1`` approve, ``0``
disapprove, empty unknown.

* wide: header ``participant,<idea text>,...``, one row per participant.
  It keeps cells, shape and idea texts, except that a text already in the
  header gets `` [id]`` suffixes until it is unique.
* long: header ``participant,idea,value``; one row per cell, empty value
  for unknown cells. It keeps cells, and the shape of a matrix with at
  least one cell, but not idea texts, which read back as ``idea <label>``.

A separate reader ingests Polis-style long exports (participant, comment,
vote with votes 1 / -1 / 0); a vote of 0 (a pass) maps to unknown by
default since the engine's attitude domain is ternary, and the mapping is
configurable and always reported. All three readers stream rows from one
UTF-8 CSV reader and write their cells to the matrix in batches of about
65,536, so a reader's temporaries stay that size. A file that cannot be
opened, decoded or parsed raises ``FormatError``.

Results have one encoder, ``result_text(value, format)``: it gives the JSON
or CSV text of a matrix, slate, audited slate, ranking, query plan,
timeline or import report. The CLI prints its text, and ``export_results``
and ``write_timeline`` write it. All writers are atomic (temp file +
rename) and serialize floats with nine significant digits.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import FormatError, ParameterError
from .landscape import Landscape
from .loop import MetricsTimeline
from .matrix import Attitude, AttitudeMatrix
from .rankings import Ranking
from .routing import QueryPlan
from .slates import Slate


@dataclass
class ImportReport:
    """Reconciliation of what an import did with every input row."""

    rows_read: int = 0
    participants_created: int = 0
    ideas_created: int = 0
    cells_set: int = 0
    passes: int = 0
    skipped: list[tuple[int, int, str, str]] = field(default_factory=list)  # (line, column, value, reason)
    value_mapping: str = ""

    @property
    def cells_skipped(self) -> int:
        return len(self.skipped)


def fmt_float(x: float) -> str:
    return format(float(x), ".9g")


def _round_floats(value):
    if isinstance(value, float):
        return float(fmt_float(value))
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:
            os.unlink(tmp)


def json_text(value) -> str:
    """Indented JSON, floats rounded to nine significant digits."""
    return json.dumps(_round_floats(value), indent=2) + "\n"


def csv_text(header: list[str], rows) -> str:
    """CSV with ``\\n`` line ends; fields are quoted only where they must be.

    The writer ends each row, in one write, with ``\\r\\n`` so that it also
    quotes a field holding a bare ``\\r``, which a reader takes for a line
    end; the ``\\r`` is then dropped.
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def write_csv_rows(path, header: list[str], rows) -> None:
    atomic_write_text(path, csv_text(header, rows))


# -- matrix files: one cell codec, one reader ----------------------------------------

_CELL_TEXT = np.array(["", "0", "1"], dtype=object)  # indexed by attitude code + 1
_KEEP = -2  # a cell code that is read but not written: the cell stays as it was
_CELL_CODE = {"": _KEEP, "0": 0, "1": 1}
_CELL_MAPPING = "1=approve, 0=disapprove, empty=unknown"
_FIELD_LIMIT = 131_072  # the csv module's default field_size_limit, which the reader keeps
_CHUNK_CELLS = 65_536  # cells a reader holds before writing them; larger chunks raised peak RSS


def _cell_texts(matrix: AttitudeMatrix) -> list[list[str]]:
    """Every cell's text, row by row."""
    # a lookup per row, not one over the matrix, keeps the object temporaries
    # row-sized; the whole-matrix one raised peak RSS on 4000 x 400 by 3 MB
    return [_CELL_TEXT[row].tolist() for row in matrix.codes() + 1]


def _csv_rows(path):
    """Yield ``(line_no, row)`` for the header (line 1) and each non-blank row.

    Rows stream from the open file. A file that cannot be opened, is not
    UTF-8, is not well-formed CSV or has no header raises ``FormatError``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise FormatError("empty file: missing header", line=1)
            yield 1, header
            for line_no, row in enumerate(reader, start=2):
                if row:
                    yield line_no, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


class _Cells:
    """Cells read for ``matrix``, written in input order every ``_CHUNK_CELLS`` cells and by ``flush``."""

    def __init__(self, matrix: AttitudeMatrix) -> None:
        self.matrix = matrix
        self._rows, self._cols, self._codes = array("q"), array("q"), array("b")

    def add(self, i: int, p: int, code: int) -> None:
        self._rows.append(i)
        self._cols.append(p)
        self._codes.append(code)
        if len(self._codes) >= _CHUNK_CELLS:
            self.flush()

    def add_row(self, i: int, cols: array, codes: list[int]) -> None:
        """Participant ``i``'s ``codes`` for ideas ``cols``."""
        self._rows.extend(array("q", (i,)) * len(codes))
        self._cols.extend(cols)
        self._codes.fromlist(codes)
        if len(self._codes) >= _CHUNK_CELLS:
            self.flush()

    def flush(self) -> None:
        codes = np.frombuffer(self._codes, dtype=np.int8)
        rows, cols = (np.frombuffer(a, dtype=np.int64)[codes != _KEEP] for a in (self._rows, self._cols))
        self.matrix._write_cells(rows, cols, codes[codes != _KEEP])
        self._rows, self._cols, self._codes = array("q"), array("q"), array("b")


class _Labels(dict):
    """Ids by label: a label gets an id, from ``create(label)``, the first time it appears."""

    def __init__(self, create) -> None:
        super().__init__()
        self._create = create

    def __missing__(self, label: str) -> int:
        self[label] = index = self._create(label)
        return index


def _counted(cells: _Cells, report: ImportReport) -> tuple[AttitudeMatrix, ImportReport]:
    """Write the last cells, then fill in the counts every reader reports from the finished matrix.

    Every participant and idea was created by its label's first
    appearance, and ``cells_set`` is the number of known cells.
    """
    cells.flush()
    matrix = cells.matrix
    report.participants_created = matrix.n_participants
    report.ideas_created = matrix.n_ideas
    report.cells_set = matrix.n_known
    return matrix, report


# -- matrix: wide format ---------------------------------------------------------


def _wide_text(matrix: AttitudeMatrix) -> str:
    """The wide format's text; idea texts become headers.

    A text already in the header gets `` [id]`` suffixes until it is
    unused, so the reader never meets a duplicated header. A header longer
    than the reader's field limit raises ``FormatError``.
    """
    texts = []
    seen: set[str] = set()
    for idea in matrix.ideas:
        text = idea.text
        while text in seen:
            text = f"{text} [{idea.id}]"
        if len(text) > _FIELD_LIMIT:
            raise FormatError(
                f"idea {idea.id}: header of {len(text)} characters exceeds the CSV field limit of {_FIELD_LIMIT}"
            )
        seen.add(text)
        texts.append(text)
    rows = [[str(i)] + cells for i, cells in enumerate(_cell_texts(matrix))]
    return csv_text(["participant"] + texts, rows)


def export_wide_csv(matrix: AttitudeMatrix, path) -> None:
    """Write the wide format, the CSV form of ``result_text``."""
    atomic_write_text(path, _wide_text(matrix))


def import_wide_csv(path) -> tuple[AttitudeMatrix, ImportReport]:
    """Read the wide format: 1 approve, 0 disapprove, empty unknown.

    Rows that repeat a participant label merge into one participant: a
    later ``0`` or ``1`` overwrites the cell (logged in the matrix's audit
    log), and a later empty cell leaves a known cell as it was. Malformed
    cells are skipped and reported with their location.
    """
    rows = _csv_rows(path)
    _, header = next(rows)
    idea_texts = header[1:]
    if len(set(idea_texts)) != len(idea_texts):
        raise FormatError("duplicate idea headers", line=1)
    matrix = AttitudeMatrix()
    for text in idea_texts:
        matrix.add_idea(text)
    m = len(idea_texts)
    participants = _Labels(lambda _: matrix.add_participant())
    report = ImportReport(value_mapping=_CELL_MAPPING)
    cells, columns = _Cells(matrix), array("q", range(m))
    for line_no, row in rows:
        report.rows_read += 1
        i = participants[row[0]]
        texts = list(map(str.strip, row[1 : m + 1]))
        if not _CELL_CODE.keys() >= set(texts):
            report.skipped.extend((line_no, p + 2, text, "unmapped value") for p, text in enumerate(texts)
                                  if text not in _CELL_CODE)
        cells.add_row(i, columns[: len(texts)], list(map(_CELL_CODE.get, texts, repeat(_KEEP))))
        report.skipped.extend(
            (line_no, column, cell, "no such idea column") for column, cell in enumerate(row[m + 1 :], start=m + 2)
        )
    return _counted(cells, report)


# -- matrix: long format ----------------------------------------------------------


def export_long_csv(matrix: AttitudeMatrix, path) -> None:
    """Write every cell as a (participant, idea, value) triple."""
    ideas = [str(p) for p in range(matrix.n_ideas)]
    rows = [[str(i), idea, cell] for i, cells in enumerate(_cell_texts(matrix)) for idea, cell in zip(ideas, cells)]
    write_csv_rows(path, ["participant", "idea", "value"], rows)


def import_long_csv(path) -> tuple[AttitudeMatrix, ImportReport]:
    """Read (participant, idea, value) triples.

    Rows that repeat a (participant, idea) pair merge as the wide reader's
    rows do: a later ``0`` or ``1`` overwrites the cell (logged in the
    matrix's audit log), and a later empty value leaves a known cell as it
    was, so ``a,x,1`` then ``a,x,`` reads back ``1``.
    """
    rows = _csv_rows(path)
    _, header = next(rows)
    if len(header) < 3:
        raise FormatError("long format needs participant, idea, value columns", line=1)
    matrix = AttitudeMatrix()
    participants = _Labels(lambda _: matrix.add_participant())
    ideas = _Labels(lambda label: matrix.add_idea(f"idea {label}"))
    report = ImportReport(value_mapping=_CELL_MAPPING)
    cells = _Cells(matrix)
    for line_no, row in rows:
        report.rows_read += 1
        if len(row) < 2:
            report.skipped.append((line_no, 1, ",".join(row), "short row"))
            continue
        i, p = participants[row[0]], ideas[row[1]]
        value = row[2].strip() if len(row) > 2 else ""
        code = _CELL_CODE.get(value)
        if code is None:
            report.skipped.append((line_no, 3, value, "unmapped value"))
        else:
            cells.add(i, p, code)
    return _counted(cells, report)


# -- Polis-style long export --------------------------------------------------------

PASS_AS = ("unknown", "disapprove")  # what a Polis pass can be read as

_POLIS_ROLES = {
    "participant": ("participant", "voter"),
    "comment": ("comment", "idea", "statement"),
    "vote": ("vote", "value"),
}


def _polis_columns(header: list[str]) -> list[int]:
    """Column of each role: exact names win, then substrings (e.g. ``voter-id``)."""
    columns: dict[str, int] = {}
    for exact in (True, False):
        for role, names in _POLIS_ROLES.items():
            if role in columns:
                continue
            for j, cell in enumerate(header):
                if j not in columns.values() and (cell in names if exact else any(name in cell for name in names)):
                    columns[role] = j
                    break
    for role, names in _POLIS_ROLES.items():
        if role not in columns:
            raise FormatError(f"missing column: one of {names}", line=1)
    return [columns[role] for role in _POLIS_ROLES]


def import_polis_long(path, pass_as: str = "unknown") -> tuple[AttitudeMatrix, ImportReport]:
    """Ingest a Polis-style vote export: participant, comment, vote.

    Votes map 1 -> approve, -1 -> disapprove, 0 -> pass. A pass becomes
    unknown by default (``pass_as="unknown"``) or an explicit disapproval
    with ``pass_as="disapprove"``. Every mapped vote is written, so a
    repeated (participant, comment) pair takes its last vote in row order:
    unlike the matrix readers' empty cells, a later pass read as unknown
    erases an earlier vote, and the overwrite is logged in the matrix's
    audit log.
    """
    if pass_as not in PASS_AS:
        raise ParameterError(f"pass_as must be 'unknown' or 'disapprove', got {pass_as!r}")
    votes = {"1": Attitude.APPROVE.value, "-1": Attitude.DISAPPROVE.value, "0": Attitude[pass_as.upper()].value}
    rows = _csv_rows(path)
    _, header = next(rows)
    col_i, col_p, col_v = _polis_columns([cell.strip().lower() for cell in header])
    last = max(col_i, col_p, col_v)
    matrix = AttitudeMatrix()
    participants = _Labels(lambda _: matrix.add_participant())
    ideas = _Labels(lambda label: matrix.add_idea(f"comment {label}"))
    report = ImportReport(value_mapping=f"1=approve, -1=disapprove, 0=pass->{pass_as}")
    cells = _Cells(matrix)
    for line_no, row in rows:
        report.rows_read += 1
        if len(row) <= last:
            report.skipped.append((line_no, 1, ",".join(row), "short row"))
            continue
        i, p, vote = participants[row[col_i]], ideas[row[col_p]], row[col_v].strip()
        if vote not in votes:
            report.skipped.append((line_no, col_v + 1, vote, "unmapped vote"))
            continue
        if vote == "0":
            report.passes += 1
        cells.add(i, p, votes[vote])
    return _counted(cells, report)


# -- results: one encoder ---------------------------------------------------------------

FORMATS = ("json", "csv")
_REPORT_KEYS = ("rows_read", "participants_created", "ideas_created", "cells_set", "cells_skipped", "passes",
                "skipped", "value_mapping")


def _slate_fields(slate: Slate) -> dict:
    return {"ideas": sorted(slate.ideas), "score": slate.score, "rule": slate.kind.value, "k": slate.target_k}


def result_text(value, format: str) -> str:
    """The JSON or CSV text of a result; ``format`` is one of ``FORMATS``.

    A matrix's CSV is the wide format, and its JSON lists the known cells
    as ``[participant, idea, code]`` in row-major order. An audited slate
    is the pair ``(slate, violations)``, the violations as ``jr_audit``
    returns them: its JSON is the slate's plus the violations, its CSV one
    row per violation. A timeline's JSON is its summary; an import report
    has no CSV form. Any other value raises ``ParameterError``.
    """
    if format not in FORMATS:
        raise ParameterError(f"unknown format {format!r}")
    as_csv = format == "csv"
    if isinstance(value, AttitudeMatrix):
        if as_csv:
            return _wide_text(value)
        codes = value.codes()
        rows, cols = np.nonzero(codes >= 0)  # row-major order
        cells = np.column_stack([rows, cols, codes[rows, cols]]).tolist()
        ideas = [idea.text for idea in value.ideas]
        return json_text({"participants": value.n_participants, "ideas": ideas, "cells": cells})
    if isinstance(value, Slate):
        if as_csv:
            return csv_text(["idea"], [[str(p)] for p in sorted(value.ideas)])
        return json_text(_slate_fields(value))
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], Slate):
        slate, violations = value
        if as_csv:
            rows = [[" ".join(map(str, sorted(v.group))), " ".join(map(str, sorted(v.witness_ideas))),
                     fmt_float(v.group_share)] for v in violations]
            return csv_text(["group", "witness_ideas", "group_share"], rows)
        records = [{"group": sorted(v.group), "witness_ideas": sorted(v.witness_ideas), "group_share": v.group_share}
                   for v in violations]
        return json_text({**_slate_fields(slate), "violations": records})
    if isinstance(value, Ranking):
        positions = list(enumerate(zip(value.order, value.provenance), start=1))
        if as_csv:
            rows = [[str(j), str(p), fmt_float(v)] for j, (p, v) in positions]
            return csv_text(["position", "idea", "provenance"], rows)
        return json_text([{"position": j, "idea": int(p), "provenance": float(v)} for j, (p, v) in positions])
    if isinstance(value, QueryPlan):
        if as_csv:
            return csv_text(["participant", "idea"], [[str(i), str(p)] for i, p in value.pairs])
        pairs = [[int(i), int(p)] for i, p in value.pairs]
        return json_text({"policy": value.policy_name, "seed": value.seed, "shortfall": value.shortfall,
                          "pairs": pairs})
    if isinstance(value, MetricsTimeline):
        if as_csv:
            rows = [[str(r), name, fmt_float(v)] for r, name, v in value.to_long_rows()]
            return csv_text(["round", "metric", "value"], rows)
        return json_text(value.summary())
    if isinstance(value, ImportReport) and not as_csv:
        return json_text({key: getattr(value, key) for key in _REPORT_KEYS})
    raise ParameterError(f"cannot serialize values of type {type(value).__name__} as {format}")


def export_results(value, path, format: str = "json") -> None:
    """Write ``result_text(value, format)`` to ``path``, atomically."""
    atomic_write_text(path, result_text(value, format))


def _output_dir(out_dir) -> Path:
    """``out_dir``, created if missing; FormatError if it cannot be."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(f"cannot create output directory {out}: {exc}") from exc
    return out


def write_landscape(scape: Landscape, out_dir) -> None:
    """embedding.csv, components.csv and audit.json under ``out_dir``."""
    out = _output_dir(out_dir)
    points = scape.embedding.points
    assignment = scape.clustering.assignment
    rows = [
        [str(i)] + [fmt_float(x) for x in points[i]] + [str(int(assignment[i]))]
        for i in range(points.shape[0])
    ]
    axis_names = ["x", "y"][: points.shape[1]]
    axis_names += [f"axis_{j}" for j in range(len(axis_names), points.shape[1])]
    write_csv_rows(out / "embedding.csv", ["participant"] + axis_names + ["cluster"], rows)

    components = scape.embedding.components
    component_rows = [
        [str(j)] + [fmt_float(x) for x in components[j]] for j in range(components.shape[0])
    ]
    idea_names = [f"idea_{p}" for p in range(components.shape[1])]
    write_csv_rows(out / "components.csv", ["component"] + idea_names, component_rows)

    audit = json_text(
        {
            "embedding_objective": scape.embedding.objective,
            "clustering_objective": scape.clustering.objective,
            "centroid_distance": [float(x) for x in scape.audit.centroid_distance],
            "nearest_other_distance": [
                None if not np.isfinite(x) else float(x) for x in scape.audit.nearest_other_distance
            ],
            "blocking_coalitions": [
                {"candidate": c.candidate, "members": list(c.members)}
                for c in scape.audit.blocking_coalitions
            ],
        }
    )
    atomic_write_text(out / "audit.json", audit)


def write_timeline(timeline: MetricsTimeline, out_dir) -> None:
    """timeline.csv and summary.json, ``result_text``'s CSV and JSON, and
    timeline_long.csv, a plot-ready CSV with the policy and seed on every row."""
    out = _output_dir(out_dir)
    atomic_write_text(out / "timeline.csv", result_text(timeline, "csv"))
    rows = [[timeline.policy, str(timeline.seed), str(r), name, fmt_float(v)] for r, name, v in timeline.to_long_rows()]
    write_csv_rows(out / "timeline_long.csv", ["policy", "seed", "round", "metric", "value"], rows)
    atomic_write_text(out / "summary.json", result_text(timeline, "json"))
