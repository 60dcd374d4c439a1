"""Unified diffs between two source sets, for diff-only prompting."""

from __future__ import annotations

import difflib

from .dataset import SourceSet


def unified_source_diff(original: SourceSet, resulting: SourceSet) -> str:
    """difflib-style unified diff over all files of the two versions.

    Files are matched by relative path; files present in only one version
    diff against the empty file. Output order follows the union of paths,
    original order first.
    """
    paths = list(original.paths)
    for p in resulting.paths:
        if p not in paths:
            paths.append(p)
    chunks: list[str] = []
    for path in paths:
        before = _lines(original, path)
        after = _lines(resulting, path)
        if before == after:
            continue
        diff = difflib.unified_diff(
            before,
            after,
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
            lineterm="",
        )
        chunks.extend(diff)
    return "\n".join(chunks) + ("\n" if chunks else "")


def _lines(src: SourceSet, path: str) -> list[str]:
    try:
        return src.content(path).split("\n")
    except KeyError:
        return []
