"""JSON-lines files that survive a process killed mid-write.

Outcomes and transcripts are appended one record per line. A process
killed while appending can leave a partial last line with no newline.
Reading skips that line with a warning, and the next append cuts it off
first, so the run can resume where it stopped. A malformed line anywhere
else is still an error.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

logger = logging.getLogger(__name__)


def records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, document) for each non-blank line."""
    with Path(path).open(encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                if line.endswith("\n"):
                    raise
                logger.warning(
                    "%s:%d: skipping a torn last line (%d characters); the next append cuts it",
                    path, n, len(line),
                )
                return
            yield n, doc


def append(path: str | Path, lines: Iterable[str]) -> None:
    """Append each JSON line, once a torn last line is cut off."""
    with Path(path).open("a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                _mend_last_line(fh, path)
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))


def _mend_last_line(fh, path: str | Path) -> None:
    """End a last line that lacks only its newline; cut one that does not parse."""
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        logger.warning("%s: cutting a torn last line (%d bytes)", path, len(data) - start)
        fh.truncate(start)
    else:
        fh.write(b"\n")
