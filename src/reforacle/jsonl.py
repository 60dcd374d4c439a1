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
    """(line number, object) for each non-blank line; a line that is not
    a JSON object is a ValueError naming the file and line."""
    with Path(path).open(encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as err:
                if line.endswith("\n"):
                    raise ValueError(f"{path}:{n}: not JSON: {err}") from err
                logger.warning(
                    "%s:%d: skipping a torn last line (%d characters); the next append cuts it",
                    path, n, len(line),
                )
                return
            if not isinstance(doc, dict):
                raise ValueError(f"{path}:{n}: not a JSON object")
            yield n, doc


class Appender:
    """Appends JSON lines to one file, held open from the first write to
    close(). The first write opens the file and cuts off a torn last line;
    every write is then one write() on an unbuffered handle, so a process
    killed mid-append leaves at most one torn last line. Not thread-safe:
    callers serialise their writes."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self._fh = None

    def write(self, lines: Iterable[str]) -> None:
        data = memoryview("".join(line + "\n" for line in lines).encode("utf-8"))
        if self._fh is None:
            self._fh = _open_mended(self.path)
        while data:  # a regular file takes it all in one write() unless full
            data = data[self._fh.write(data):]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Appender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open_mended(path: str | Path):
    fh = open(path, "a+b", buffering=0)
    try:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                _mend_last_line(fh, path)
    except BaseException:
        fh.close()
        raise
    return fh


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
