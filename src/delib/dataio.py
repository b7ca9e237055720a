"""CSV and JSON ingestion and serialization.

Two matrix file formats are supported and round-trip losslessly:

* wide: header ``participant,<idea text>,...``; cells ``1`` approve,
  ``0`` disapprove, empty unknown.
* long: header ``participant,idea,value``; one row per cell, empty value
  for unknown cells so the shape survives the trip.

A separate reader ingests Polis-style long exports (participant, comment,
vote with votes 1 / -1 / 0); a vote of 0 (a pass) maps to unknown by
default since the engine's attitude domain is ternary, and the mapping is
configurable and always reported.

All writers are atomic (temp file + rename) and serialize floats with nine
significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

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

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "participants_created": self.participants_created,
            "ideas_created": self.ideas_created,
            "cells_set": self.cells_set,
            "cells_skipped": self.cells_skipped,
            "passes": self.passes,
            "skipped": [list(item) for item in self.skipped],
            "value_mapping": self.value_mapping,
        }


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
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def json_text(value) -> str:
    """Indented JSON, floats rounded to nine significant digits."""
    return json.dumps(_round_floats(value), indent=2) + "\n"


def csv_text(header: list[str], rows) -> str:
    """CSV with ``\\n`` line ends; fields are quoted only where they must be."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_json(value, path) -> None:
    atomic_write_text(path, json_text(value))


def write_csv_rows(path, header: list[str], rows) -> None:
    atomic_write_text(path, csv_text(header, rows))


# -- matrix: wide format ---------------------------------------------------------


def export_wide_csv(matrix: AttitudeMatrix, path) -> None:
    """Write the wide format; idea texts become headers (deduplicated)."""
    texts = []
    seen: set[str] = set()
    for idea in matrix.ideas:
        text = idea.text
        if text in seen:
            text = f"{text} [{idea.id}]"
        seen.add(text)
        texts.append(text)
    codes = matrix.codes()
    rows = []
    for i in range(matrix.n_participants):
        cells = ["" if codes[i, p] < 0 else str(int(codes[i, p])) for p in range(matrix.n_ideas)]
        rows.append([str(i)] + cells)
    write_csv_rows(path, ["participant"] + texts, rows)


def import_wide_csv(path) -> tuple[AttitudeMatrix, ImportReport]:
    """Read the wide format: 1 approve, 0 disapprove, empty unknown.

    Malformed cells are skipped and reported with their location.
    """
    report = ImportReport(value_mapping="1=approve, 0=disapprove, empty=unknown")
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError("empty file: missing header", line=1) from None
            idea_texts = header[1:]
            if len(set(idea_texts)) != len(idea_texts):
                raise FormatError("duplicate idea headers", line=1)
            matrix = AttitudeMatrix()
            for text in idea_texts:
                matrix.add_idea(text)
                report.ideas_created += 1
            labels: dict[str, int] = {}
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                report.rows_read += 1
                label = row[0]
                if label in labels:
                    i = labels[label]
                else:
                    i = matrix.add_participant()
                    labels[label] = i
                    report.participants_created += 1
                for column, cell in enumerate(row[1:], start=2):
                    p = column - 2
                    if p >= matrix.n_ideas:
                        report.skipped.append((line_no, column, cell, "no such idea column"))
                        continue
                    cell = cell.strip()
                    if cell == "":
                        continue
                    if cell == "1":
                        matrix.record_attitude(i, p, Attitude.APPROVE)
                        report.cells_set += 1
                    elif cell == "0":
                        matrix.record_attitude(i, p, Attitude.DISAPPROVE)
                        report.cells_set += 1
                    else:
                        report.skipped.append((line_no, column, cell, "unmapped value"))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return matrix, report


# -- matrix: long format ----------------------------------------------------------


def export_long_csv(matrix: AttitudeMatrix, path) -> None:
    """Write every cell as a (participant, idea, value) triple."""
    codes = matrix.codes()
    rows = []
    for i in range(matrix.n_participants):
        for p in range(matrix.n_ideas):
            value = "" if codes[i, p] < 0 else str(int(codes[i, p]))
            rows.append([str(i), str(p), value])
    write_csv_rows(path, ["participant", "idea", "value"], rows)


def import_long_csv(path) -> tuple[AttitudeMatrix, ImportReport]:
    """Read (participant, idea, value) triples; later rows win."""
    report = ImportReport(value_mapping="1=approve, 0=disapprove, empty=unknown")
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError("empty file: missing header", line=1) from None
            if len(header) < 3:
                raise FormatError("long format needs participant, idea, value columns", line=1)
            matrix = AttitudeMatrix()
            labels: dict[str, int] = {}
            idea_labels: dict[str, int] = {}
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                report.rows_read += 1
                if len(row) < 2:
                    report.skipped.append((line_no, 1, ",".join(row), "short row"))
                    continue
                label, idea_label = row[0], row[1]
                value = row[2].strip() if len(row) > 2 else ""
                if label not in labels:
                    labels[label] = matrix.add_participant()
                    report.participants_created += 1
                if idea_label not in idea_labels:
                    idea_labels[idea_label] = matrix.add_idea(f"idea {idea_label}")
                    report.ideas_created += 1
                i, p = labels[label], idea_labels[idea_label]
                if value == "":
                    continue
                if value == "1":
                    matrix.record_attitude(i, p, Attitude.APPROVE)
                elif value == "0":
                    matrix.record_attitude(i, p, Attitude.DISAPPROVE)
                else:
                    report.skipped.append((line_no, 3, value, "unmapped value"))
                    continue
            report.cells_set = matrix.n_known
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return matrix, report


# -- Polis-style long export --------------------------------------------------------


def import_polis_long(path, pass_as: str = "unknown") -> tuple[AttitudeMatrix, ImportReport]:
    """Ingest a Polis-style vote export: participant, comment, vote.

    Votes map 1 -> approve, -1 -> disapprove, 0 -> pass. A pass becomes
    unknown by default (``pass_as="unknown"``) or an explicit disapproval
    with ``pass_as="disapprove"``. Duplicate votes resolve last-write-wins
    in row order.
    """
    if pass_as not in ("unknown", "disapprove"):
        raise ParameterError(f"pass_as must be 'unknown' or 'disapprove', got {pass_as!r}")
    report = ImportReport(value_mapping=f"1=approve, -1=disapprove, 0=pass->{pass_as}")
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = [cell.strip().lower() for cell in next(reader)]
            except StopIteration:
                raise FormatError("empty file: missing header", line=1) from None

            roles = {
                "participant": ("participant", "voter"),
                "comment": ("comment", "idea", "statement"),
                "vote": ("vote", "value"),
            }
            columns: dict[str, int] = {}
            for role, names in roles.items():  # exact names win
                for j, cell in enumerate(header):
                    if j not in columns.values() and cell in names:
                        columns[role] = j
                        break
            for role, names in roles.items():  # then substrings, e.g. voter-id
                if role in columns:
                    continue
                for j, cell in enumerate(header):
                    if j not in columns.values() and any(name in cell for name in names):
                        columns[role] = j
                        break
                if role not in columns:
                    raise FormatError(f"missing column: one of {names}", line=1)

            col_i, col_p, col_v = columns["participant"], columns["comment"], columns["vote"]
            matrix = AttitudeMatrix()
            labels: dict[str, int] = {}
            idea_labels: dict[str, int] = {}
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                report.rows_read += 1
                if len(row) <= max(col_i, col_p, col_v):
                    report.skipped.append((line_no, 1, ",".join(row), "short row"))
                    continue
                label, idea_label, vote = row[col_i], row[col_p], row[col_v].strip()
                if label not in labels:
                    labels[label] = matrix.add_participant()
                    report.participants_created += 1
                if idea_label not in idea_labels:
                    idea_labels[idea_label] = matrix.add_idea(f"comment {idea_label}")
                    report.ideas_created += 1
                i, p = labels[label], idea_labels[idea_label]
                if vote == "1":
                    matrix.record_attitude(i, p, Attitude.APPROVE)
                elif vote == "-1":
                    matrix.record_attitude(i, p, Attitude.DISAPPROVE)
                elif vote == "0":
                    report.passes += 1
                    if pass_as == "disapprove":
                        matrix.record_attitude(i, p, Attitude.DISAPPROVE)
                    else:
                        matrix.record_attitude(i, p, Attitude.UNKNOWN)
                else:
                    report.skipped.append((line_no, col_v + 1, vote, "unmapped vote"))
            report.cells_set = matrix.n_known
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return matrix, report


# -- result serialization --------------------------------------------------------------


def slate_to_dict(slate: Slate, violations=None) -> dict:
    out = {
        "ideas": sorted(slate.ideas),
        "score": slate.score,
        "rule": slate.kind.value,
        "k": slate.target_k,
    }
    if violations is not None:
        out["violations"] = [
            {
                "group": sorted(v.group),
                "witness_ideas": sorted(v.witness_ideas),
                "group_share": v.group_share,
            }
            for v in violations
        ]
    return out


def ranking_to_rows(ranking: Ranking) -> list[dict]:
    return [
        {"position": j + 1, "idea": int(p), "provenance": float(v)}
        for j, (p, v) in enumerate(zip(ranking.order, ranking.provenance))
    ]


def csv_table(value) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the CSV form of a slate, ranking, plan or timeline."""
    if isinstance(value, Slate):
        return ["idea"], [[str(p)] for p in sorted(value.ideas)]
    if isinstance(value, Ranking):
        rows = [[str(j + 1), str(p), fmt_float(v)] for j, (p, v) in enumerate(zip(value.order, value.provenance))]
        return ["position", "idea", "provenance"], rows
    if isinstance(value, QueryPlan):
        return ["participant", "idea"], [[str(i), str(p)] for i, p in value.pairs]
    if isinstance(value, MetricsTimeline):
        return ["round", "metric", "value"], [[str(r), name, fmt_float(v)] for r, name, v in value.to_long_rows()]
    raise ParameterError(f"cannot serialize values of type {type(value).__name__}")


def plan_to_dict(plan: QueryPlan) -> dict:
    return {
        "policy": plan.policy_name,
        "seed": plan.seed,
        "shortfall": plan.shortfall,
        "pairs": [[int(i), int(p)] for i, p in plan.pairs],
    }


def write_landscape(scape: Landscape, out_dir) -> None:
    """embedding.csv, components.csv and audit.json under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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

    write_json(
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
        },
        out / "audit.json",
    )


def write_timeline(timeline: MetricsTimeline, out_dir) -> None:
    """timeline.csv, a plot-ready long CSV, and summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header, rows = csv_table(timeline)
    write_csv_rows(out / "timeline.csv", header, rows)
    long_rows = [[timeline.policy, str(timeline.seed), *row] for row in rows]
    write_csv_rows(out / "timeline_long.csv", ["policy", "seed", *header], long_rows)
    write_json(timeline.summary(), out / "summary.json")


def export_results(value, path, format: str = "json") -> None:
    """Serialize a result object; see the module docstring for formats."""
    if format not in ("csv", "json"):
        raise ParameterError(f"unknown format {format!r}")
    if format == "json":
        write_json(_json_payload(value), path)
    elif isinstance(value, AttitudeMatrix):
        export_wide_csv(value, path)
    else:
        write_csv_rows(path, *csv_table(value))


def _json_payload(value):
    if isinstance(value, AttitudeMatrix):
        cells = [[i, p, attitude.value] for (i, p), attitude in value.known_items().items()]
        return {"participants": value.n_participants, "ideas": [idea.text for idea in value.ideas], "cells": cells}
    if isinstance(value, Slate):
        return slate_to_dict(value)
    if isinstance(value, Ranking):
        return ranking_to_rows(value)
    if isinstance(value, QueryPlan):
        return plan_to_dict(value)
    if isinstance(value, MetricsTimeline):
        return value.summary()
    raise ParameterError(f"cannot serialize values of type {type(value).__name__}")
