"""The one input reader and output writer of glre.

Every reader takes a file's bytes from `reading` and parses them inside its
block, decoding text as UTF-8, so a malformed input of any kind is reported
the same way: a format error that starts with the file's path; `json_value`
decodes JSON and also rejects a string that UTF-8 cannot encode. Every writer
builds its whole file in memory and hands it to `write_file`, so a write that
fails part-way leaves any earlier file as it was and no temp file behind;
`write_csv` takes its table as columns and quotes only the string ones.
`step_log`, the training loss log appended a line per step, is the one exception.
"""

import csv
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, VersionError


@contextmanager
def reading(path):
    """Yield the bytes of `path`. A FormatError or VersionError raised in the block gains
    a "<path>: " prefix, keeping its type and offset; a UnicodeDecodeError, a csv.Error, a
    RecursionError or a json.JSONDecodeError (as its line and column) becomes one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        yield data
    except (FormatError, VersionError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, csv.Error, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


# JSON text decodes to a lone surrogate only through a \ud800-\udfff escape; decoding
# joins an escaped pair into one character, so any surrogate left after it is lone
has_surrogate_escape = re.compile(r"\\ud[89a-f]", re.IGNORECASE).search
_SURROGATE = re.compile(r"[\ud800-\udfff]").search


def json_value(data: bytes):
    """The JSON value of the UTF-8 bytes `data`, read in a `reading` block. A string whose
    escapes decode to a lone surrogate, which UTF-8 cannot encode, is a FormatError; text
    with no such escape costs one regex search, and an escaped pair stays one character."""
    text = data.decode("utf-8")
    value = json.loads(text)
    if has_surrogate_escape(text) and _SURROGATE(json.dumps(value, ensure_ascii=False)):
        raise FormatError("a string holds a lone surrogate, which UTF-8 cannot encode")
    return value


def write_file(path, data: bytes | str) -> None:
    """Write `data` (text as UTF-8) to `<path>.tmp`, then rename it over `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """`obj` as indented JSON with sorted keys and a final newline."""
    write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it: quoted, quotes doubled, if it holds a comma, a quote
    or a line break."""
    return '"' + text.replace('"', '""') + '"' if re.search(r'[,"\r\n]', text) else text


def _float_fields(col: np.ndarray) -> list[str]:
    """The repr of each float64 of `col`, made once for each run of bit-equal neighbours
    (a ROC curve's rates repeat along its steps); 0.0 and -0.0 differ in their bits."""
    bits = col.view(np.int64)
    new = np.ones(len(col), dtype=bool)
    new[1:] = bits[1:] != bits[:-1]
    texts = np.array(list(map(repr, col[new].tolist())), dtype=object)
    return texts[np.cumsum(new) - 1].tolist()


def write_csv(path, header, columns) -> None:
    """The header, then one row per column entry, each ending in "\r\n": for rows of two or
    more fields, the bytes csv.writer writes. A numpy column, of float64, is written as the
    repr of each float, so it reads back exactly; any other column holds strings."""
    cells = [_float_fields(col) if isinstance(col, np.ndarray) else map(_csv_field, col)
             for col in columns]
    write_file(path, "".join(",".join(row) + "\r\n"
                             for row in [map(_csv_field, header), *zip(*cells)]))


def step_log(path):
    """The `on_step` hook of `trainer.train` that keeps a JSON-lines loss log at `path`.
    Its start call, given the start step k, cuts the log to its first k lines, creating
    it if absent; each step call appends that step's line and closes the file, so a
    crashed run keeps every step it logged."""
    def on_step(step, loss=None):
        with open(path, "a+b") as fh:  # in append mode every write goes to the end
            if loss is None:
                fh.seek(0)
                fh.truncate(sum(len(line) for _, line in zip(range(step), fh)))
            else:
                row = {"step": step, **loss.as_dict()}
                fh.write(json.dumps(row, sort_keys=True).encode() + b"\n")
    return on_step
