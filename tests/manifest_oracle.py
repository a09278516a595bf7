"""The manifest reader's first form: every line split off and parsed by json.loads.

`datapipe.read_manifest` scans each line's value in place in the decoded file and
hands a line to json.loads only when the scan does not take it whole. This module
keeps the original reader, which parses every line on its own and checks each row
with isinstance. Tests use it as the oracle that the scanning reader must agree
with on every file: the same records, or the same exception type and message. A
value of the right type out of its range names the file and line, as in the
scanning reader.
"""

import json

from glre.datapipe import LabelVector, StudyRecord
from glre.errors import ConsistencyError, FormatError
from glre.files import reading


def read_manifest(path) -> list[StudyRecord]:
    """Parse a JSONL manifest (lines end at "\n"): each line needs `study_id` and `view`,
    may add only `report`, `image_path` and `labels`, and no two share a `study_id`."""
    records, first_line = [], {}
    with reading(path) as data:
        for n, line in enumerate(data.decode("utf-8").split("\n"), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {n} column {exc.colno}: {exc.msg}") from exc
            if not isinstance(row, dict) or not {"study_id", "view"} <= row.keys():
                raise FormatError(f"line {n}: expected a JSON object with 'study_id' and 'view'")
            unknown = row.keys() - {"study_id", "view", "report", "image_path", "labels"}
            if unknown:
                raise FormatError(f"line {n}: unknown key {min(unknown)!r}")
            report, labels = row.get("report", ""), row.get("labels")
            # labels are ints or null: a JSON true or 1.0 equals 1 but is no label
            if not (isinstance(row["study_id"], str) and isinstance(row["view"], str)
                    and isinstance(report, str)
                    and isinstance(row.get("image_path"), (str, type(None)))
                    and isinstance(labels, (list, type(None)))
                    and all(v is None or type(v) is int for v in labels or ())):
                raise FormatError(f"line {n}: 'study_id', 'view' and 'report' must be "
                                  f"strings, 'image_path' a string or null and 'labels' a "
                                  f"list of integers or nulls")
            if row["study_id"] in first_line:
                raise ConsistencyError(f"manifest {path} line {n}: study_id {row['study_id']!r} "
                                       f"repeats line {first_line[row['study_id']]}")
            first_line[row["study_id"]] = n
            try:
                records.append(StudyRecord(
                    study_id=row["study_id"],
                    view=row["view"],
                    report_text=report,
                    image_path=row.get("image_path"),
                    labels=LabelVector(tuple(labels)) if labels is not None else None,
                ))
            except ValueError as exc:
                raise ValueError(f"manifest {path} line {n}: {exc}") from exc
    return records
