"""Prompt rendering by verbatim placeholder substitution.

Two templates ship as versioned resources: the full-source prompt (both
program versions between CODE1/CODE2 fences, three-field JSON schema)
and the diff-only prompt (unified diff between DIFF fences, two-field
schema with an UNKNOWN verdict). Payloads are spliced verbatim, never
escaped, so stripping a payload from a rendered prompt recovers the
template byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

FULL_SOURCE = "FullSource"
DIFF_ONLY = "DiffOnly"

_TEMPLATE_FILES = {
    FULL_SOURCE: "full_source_v1.txt",
    DIFF_ONLY: "diff_only_v1.txt",
}
_REQUIRED_INSTRUCTION = "Return ONLY valid JSON"


class PromptError(ValueError):
    pass


class EmptyProgram(PromptError):
    pass


class EmptyDiff(PromptError):
    pass


class NoChangeLines(PromptError):
    pass


class BadTemplate(PromptError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    kind: str  # FULL_SOURCE | DIFF_ONLY
    body: str
    version: str

    def __post_init__(self) -> None:
        placeholders = (
            ("{code1}", "{code2}") if self.kind == FULL_SOURCE else ("{diff}",)
        )
        for ph in placeholders:
            if self.body.count(ph) != 1:
                raise BadTemplate(f"{self.kind} template must contain {ph} exactly once")
        if _REQUIRED_INSTRUCTION not in self.body:
            raise BadTemplate(f"template lacks the literal {_REQUIRED_INSTRUCTION!r}")


@dataclass(frozen=True)
class RenderedPrompt:
    """Fully substituted prompt text.

    Templates carry each placeholder exactly once and rendering replaces
    exactly one occurrence, so no template placeholder can survive; a
    payload that happens to contain placeholder-looking text is spliced
    verbatim and left alone.
    """

    kind: str
    text: str
    template_version: str
    instance_id: str = ""
    variant_tag: str = ""

    @cached_property
    def hash(self) -> str:
        """sha256 of the text, taken once per rendered prompt; requests,
        the resume check and outcome rows are keyed by it."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@cache
def builtin_template(kind: str) -> PromptTemplate:
    """The shipped template of `kind`, read from the package once per
    process; the frozen template is shared by every render."""
    filename = _TEMPLATE_FILES[kind]
    body = (
        resources.files("reforacle").joinpath("templates", filename).read_text("utf-8")
    )
    return PromptTemplate(kind=kind, body=body, version=filename.removesuffix(".txt"))


def load_template(path: str | Path, kind: str) -> PromptTemplate:
    """Template override from a plain-text file; same placeholder rules."""
    path = Path(path)
    return PromptTemplate(kind=kind, body=path.read_text("utf-8"), version=path.name)


def render_full_prompt(
    code1: str,
    code2: str,
    *,
    template: PromptTemplate | None = None,
    instance_id: str = "",
    variant_tag: str = "",
) -> RenderedPrompt:
    """Splice both program versions into the full-source template."""
    if not code1.strip():
        raise EmptyProgram("code1 is empty")
    if not code2.strip():
        raise EmptyProgram("code2 is empty")
    tpl = template or builtin_template(FULL_SOURCE)
    if tpl.kind != FULL_SOURCE:
        raise BadTemplate("full-source rendering needs a FullSource template")
    text = tpl.body.replace("{code1}", code1, 1).replace("{code2}", code2, 1)
    return RenderedPrompt(
        kind=FULL_SOURCE,
        text=text,
        template_version=tpl.version,
        instance_id=instance_id,
        variant_tag=variant_tag,
    )


def render_diff_prompt(
    diff: str,
    *,
    template: PromptTemplate | None = None,
    instance_id: str = "",
    variant_tag: str = "",
) -> RenderedPrompt:
    """Splice a unified diff into the diff-only template."""
    if not diff.strip():
        raise EmptyDiff("diff is empty")
    if not has_change_lines(diff):
        raise NoChangeLines("diff contains no added or removed lines")
    tpl = template or builtin_template(DIFF_ONLY)
    if tpl.kind != DIFF_ONLY:
        raise BadTemplate("diff rendering needs a DiffOnly template")
    text = tpl.body.replace("{diff}", diff, 1)
    return RenderedPrompt(
        kind=DIFF_ONLY,
        text=text,
        template_version=tpl.version,
        instance_id=instance_id,
        variant_tag=variant_tag,
    )


def has_change_lines(diff: str) -> bool:
    """True when a +/- line is present other than a file header. `---` and
    `+++` lines are file headers only before the first `@@` hunk header;
    after it, a removed `--i;` or an added `++i;` is a change line."""
    in_hunk = False
    for line in diff.split("\n"):
        if line.startswith("@@"):
            in_hunk = True
        elif line[:1] in ("+", "-") and (in_hunk or line[:3] not in ("+++", "---")):
            return True
    return False
