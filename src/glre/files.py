"""The one way glre writes an output file: all of it at once, through a temp file.

Every writer builds its whole file in memory and hands it to `write_file`, so a
write that fails part-way leaves any earlier file as it was and no temp file
behind. `trainer.train`'s step log, appended a line per step, is the one exception.
"""

import csv
import io
import json
import os
from pathlib import Path


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


def write_csv(path, header, rows) -> None:
    """The header, then the rows; numbers go in as repr, so they read back exactly."""
    buf = io.StringIO()
    csv.writer(buf).writerows([v if isinstance(v, str) else repr(float(v)) for v in row]
                              for row in [header, *rows])
    write_file(path, buf.getvalue())
