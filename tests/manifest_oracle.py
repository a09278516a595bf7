"""The manifest reader's and writer's first forms.

`datapipe.read_manifest` scans each line's value in place in the decoded file and
hands a line to json.loads only when the scan does not take it whole. This module
keeps the original reader, which parses every line on its own and checks each row
with isinstance. Tests use it as the oracle that the scanning reader must agree
with on every file: the same records, or the same exception type and message. A
value of the right type out of its range names the file and line, as in the
scanning reader. A string holding a lone surrogate is rejected here by encoding
every string of every row, where the scanning reader first searches the file for
the escape that alone can produce one.

`datapipe.write_manifest` fills one template per line; `write_manifest` here keeps
the json.JSONEncoder form whose bytes, or exception type, it must give.
"""

import json

from glre.datapipe import LabelVector, StudyRecord
from glre.errors import ConsistencyError, FormatError
from glre.files import reading, write_file


def write_manifest(records, path) -> None:
    """One JSON object per line; images referenced by path, not inlined."""
    encode = json.JSONEncoder(sort_keys=True).encode
    write_file(path, "".join(encode({
        "study_id": rec.study_id,
        "view": rec.view,
        "report": rec.report_text,
        "image_path": rec.image_path,
        "labels": rec.labels.as_list() if rec.labels is not None else None,
    }) + "\n" for rec in records))


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
            for key in ("study_id", "view", "report", "image_path"):
                try:
                    (row.get(key) or "").encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError(f"line {n}: {key!r} holds a lone surrogate, which "
                                      f"UTF-8 cannot encode") from None
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
