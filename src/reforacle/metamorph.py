"""Behavior-preserving source transformations over original programs.

Six operators inject inert material: an unused field (AF), a comment
line (CO), an inner class (IC), an unused import (JI), a dead local
variable (LVD), or a new top-level class (TLC). Injections are whole
lines with fresh identifiers, which yields two mechanical guarantees:
deleting the manifest's lines restores the base program byte-for-byte,
and no injected name can capture or shadow an existing one. All
randomness flows from the seed through a counter-based generator, so a
variant is a pure function of (sources, operator, seed).

Each operator is one entry of `_TABLE`: its candidate places, found in
the structural index, decide both whether it applies (a non-empty list)
and where it acts (the first draw picks one). A body whose braces open
and close on one line offers no line-based insertion point; the operator
is then simply inapplicable there.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from . import javalex
from .dataset import BugCorpus, BugInstance, SourceSet, write_instance
from .javalex import METHOD_BODY, TYPE_BODY, FileScan
from .rng import CounterRng, derive_key

logger = logging.getLogger(__name__)

AF = "AF"
CO = "CO"
IC = "IC"
JI = "JI"
LVD = "LVD"
TLC = "TLC"
OPERATORS = (AF, CO, IC, JI, LVD, TLC)

IMPORT_POOL = (
    "java.util.ArrayList",
    "java.util.HashMap",
    "java.util.HashSet",
    "java.util.LinkedList",
    "java.util.TreeMap",
    "java.util.TreeSet",
    "java.util.ArrayDeque",
    "java.util.PriorityQueue",
    "java.util.BitSet",
    "java.util.StringJoiner",
    "java.util.Vector",
    "java.util.Stack",
)

_COMMENT_WORDS = ("comment", "note", "marker", "revision", "checkpoint", "reviewed")
_FIELD_PREFIXES = ("field", "aux", "extra")
_LOCAL_PREFIXES = ("local", "tmp", "unused")
_CLASS_PREFIXES = ("Aux", "Helper", "Extra")
_VALUE_PREFIXES = ("value", "data")


class NoInsertionPoint(ValueError):
    """The operator has no legal place to act in these sources."""


@dataclass(frozen=True)
class InjectedElement:
    kind: str            # field | comment | inner_class | import | local | top_level_class
    name: str            # injected identifier; "" for comments
    file: str
    line: int            # 1-based first line within the transformed file
    lines: tuple[str, ...]


@dataclass(frozen=True)
class MetamorphicVariant:
    instance: BugInstance  # what `run` scores: the base instance on the transformed original
    operator: str
    seed: int              # the element's draw key
    manifest: tuple[InjectedElement, ...]


@dataclass
class StructuralIndex:
    files: dict[str, FileScan]
    identifiers: set[str]


def index_structure(src: SourceSet) -> StructuralIndex:
    """Scan every file; the operators read their places from the scans."""
    files: dict[str, FileScan] = {}
    identifiers: set[str] = set()
    for path, content in src.files:
        files[path] = scan = javalex.scan_file(content, path)
        identifiers |= scan.identifiers
    return StructuralIndex(files=files, identifiers=identifiers)


def _body_slots(scan: FileScan, kind: str) -> list[tuple[int, str]]:
    """(1-based line, indent) just inside every multi-line body of one kind."""
    slots = []
    for ctx in scan.contexts:
        if ctx.kind != kind:
            continue
        if kind == TYPE_BODY and ctx.type_keyword not in ("class", "interface"):
            continue  # enum/record bodies have placement rules of their own
        if kind == METHOD_BODY and ctx.is_constructor:
            continue  # super()/this() must stay the first statement
        if ctx.close_line <= ctx.open_line:
            continue  # one-line body: no full line fits inside
        if not scan.line_end_in_code[ctx.open_line]:
            continue
        if scan.context_at_line_end[ctx.open_line] is not ctx:
            continue  # another brace opened later on the same line
        slots.append((ctx.open_line + 2, _indent_of(scan.lines[ctx.open_line]) + "  "))
    return slots


def fresh_identifier(index: StructuralIndex, prefix: str, rng: CounterRng) -> str:
    """A prefix plus random suffix that is new to this index.

    Issued names are claimed in the index's identifier set, so repeated
    draws are pairwise distinct.
    """
    while True:
        name = f"{prefix}{rng.randint(0, 9999)}"
        if name not in index.identifiers:
            index.identifiers.add(name)
            return name


def apply_operator(src: SourceSet, op: str, seed: int) -> tuple[SourceSet, InjectedElement]:
    """Apply one operator: (the transformed sources, the injected element);
    pure in (src, op, seed)."""
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    index = index_structure(src)
    return _apply(src, index, op, _TABLE[op].candidates(index), seed)


def transform_corpus(corpus: BugCorpus, master_seed: int) -> list[MetamorphicVariant]:
    """One variant per instance, in corpus order; operator drawn uniformly
    among applicable ones. Each variant's instance is the base instance with
    the transformed original, tag `mt-<master_seed>-<operator>` and seed
    `master_seed`.

    CO applies to every file (line 0 is always a comment point), so no
    instance is ever left without an operator. A corpus of variants is
    refused: a variant of a variant is no variant of the base instance.
    """
    if not corpus.instances:
        raise ValueError("empty corpus")
    variant = next((inst for inst in corpus.instances if inst.variant_tag), None)
    if variant is not None:
        raise ValueError(f"{variant.id} is already a variant ({variant.variant_tag}); "
                         "draw variants from the base corpus")
    variants = []
    for inst in corpus.instances:
        index = index_structure(inst.original)
        places = {op: _TABLE[op].candidates(index) for op in OPERATORS}
        applicable = [op for op in OPERATORS if places[op]]
        op = CounterRng(derive_key(master_seed, inst.id, "op")).choice(applicable)
        seed = derive_key(master_seed, inst.id)
        original, element = _apply(inst.original, index, op, places[op], seed)
        scored = replace(inst, original=original, variant_tag=f"mt-{master_seed}-{op}",
                         seed=master_seed)
        variants.append(MetamorphicVariant(scored, op, seed, (element,)))
    logger.info(
        "transformed %d instances: %s",
        len(variants),
        ", ".join(f"{op}={n}" for op, n in operator_counts(variants).items()),
    )
    return variants


def operator_counts(variants: list[MetamorphicVariant]) -> dict[str, int]:
    counts = {op: 0 for op in OPERATORS}
    for v in variants:
        counts[v.operator] += 1
    return counts


def _apply(
    src: SourceSet, index: StructuralIndex, op: str, places: list, seed: int
) -> tuple[SourceSet, InjectedElement]:
    """Draw one of `places`, build the operator's element there and splice it in."""
    if not places:
        raise NoInsertionPoint(f"{op}: {_TABLE[op].no_place}")
    rng = CounterRng(derive_key(seed, op))
    element = _TABLE[op].build(index, rng, rng.choice(places))
    return _splice(src, element), element


# ---------------------------------------------------------------- operators


@dataclass(frozen=True)
class _Operator:
    """`candidates` lists the places the operator can act, in draw order, and
    decides applicability; `build` turns one drawn place into the element."""

    candidates: Callable[[StructuralIndex], list]
    build: Callable[[StructuralIndex, CounterRng, tuple], InjectedElement]
    no_place: str  # NoInsertionPoint reason when there are no candidates


def _slots(index: StructuralIndex, kind: str) -> list[tuple[str, int, str]]:
    """(path, line, indent) just inside every multi-line body of one kind."""
    return [
        (path, line, indent)
        for path, scan in sorted(index.files.items())
        for line, indent in _body_slots(scan, kind)
    ]


def _file_ends(index: StructuralIndex) -> list[tuple[str, int, str]]:
    return [(path, len(scan.lines) + 1, "") for path, scan in sorted(index.files.items())]


def _line_starts(index: StructuralIndex) -> list[tuple[str, int]]:
    """(path, 0-based insert index) before the first line and after every
    line that ends in plain code."""
    return [
        (path, point)
        for path, scan in index.files.items()
        for point in [0] + [i + 1 for i, safe in enumerate(scan.line_end_in_code) if safe]
    ]


def _eligible_imports(index: StructuralIndex) -> list[tuple[str, str]]:
    """(path, type) for every pool type whose simple name the sources never use."""
    fresh = [fq for fq in IMPORT_POOL if fq.rsplit(".", 1)[1] not in index.identifiers]
    return [(path, fq) for path in sorted(index.files) for fq in fresh]


def _declaration(
    kind: str, prefixes: tuple[str, ...], index: StructuralIndex, rng: CounterRng, place
) -> InjectedElement:
    """An unused initialised variable: a field (AF) or a local (LVD)."""
    path, line, indent = place
    jtype, literal = _typed_literal(rng)
    name = fresh_identifier(index, rng.choice(prefixes), rng)
    text = f"{indent}{jtype} {name} = {literal};"
    return InjectedElement(kind=kind, name=name, file=path, line=line, lines=(text,))


def _class(
    kind: str, lead: tuple[str, ...], index: StructuralIndex, rng: CounterRng, place
) -> InjectedElement:
    """A class holding one initialised field: inner (IC) or top-level (TLC)."""
    path, line, indent = place
    cls = fresh_identifier(index, rng.choice(_CLASS_PREFIXES), rng)
    fld = fresh_identifier(index, rng.choice(_VALUE_PREFIXES), rng)
    jtype, literal = _typed_literal(rng)
    body = (f"{indent}class {cls} {{", f"{indent}  {jtype} {fld} = {literal};", f"{indent}}}")
    return InjectedElement(kind=kind, name=cls, file=path, line=line, lines=(*lead, *body))


def _comment(index: StructuralIndex, rng: CounterRng, place) -> InjectedElement:
    path, insert_at = place
    lines = index.files[path].lines
    indent = _indent_of(lines[insert_at]) if insert_at < len(lines) else ""
    word = rng.choice(_COMMENT_WORDS)
    text = f"{indent}// {word} {rng.randint(0, 9999)}"
    return InjectedElement(kind="comment", name="", file=path, line=insert_at + 1, lines=(text,))


def _import(index: StructuralIndex, rng: CounterRng, place) -> InjectedElement:
    path, fq = place
    simple = fq.rsplit(".", 1)[1]
    index.identifiers.add(simple)
    package_line = index.files[path].package_line
    line = package_line + 2 if package_line is not None else 1  # after it, else first
    return InjectedElement(kind="import", name=simple, file=path, line=line, lines=(f"import {fq};",))


_NO_BODY = "no class or interface body spans multiple lines"

_TABLE = {
    AF: _Operator(
        partial(_slots, kind=TYPE_BODY), partial(_declaration, "field", _FIELD_PREFIXES), _NO_BODY
    ),
    CO: _Operator(_line_starts, _comment, "no safe line boundary"),
    IC: _Operator(partial(_slots, kind=TYPE_BODY), partial(_class, "inner_class", ()), _NO_BODY),
    JI: _Operator(_eligible_imports, _import, "every pool type already occurs"),
    LVD: _Operator(
        partial(_slots, kind=METHOD_BODY),
        partial(_declaration, "local", _LOCAL_PREFIXES),
        "no method body spans multiple lines",
    ),
    TLC: _Operator(_file_ends, partial(_class, "top_level_class", ("",)), "no files"),
}


def _typed_literal(rng: CounterRng) -> tuple[str, str]:
    kind = rng.randrange(10)
    if kind == 0:
        return "int", str(rng.randint(0, 99))
    if kind == 1:
        return "long", f"{rng.randint(0, 99)}L"
    if kind == 2:
        return "double", f"{rng.randint(0, 9)}.{rng.randint(0, 9)}"
    if kind == 3:
        return "boolean", rng.choice(("true", "false"))
    if kind == 4:
        return "char", f"'{rng.choice('abcdefghijklmnopqrstuvwxyz')}'"
    if kind == 5:
        return "String", f'"s{rng.randint(0, 999)}"'
    if kind == 6:
        return "Integer", f"Integer.valueOf({rng.randint(0, 99)})"
    if kind == 7:
        return "Long", f"Long.valueOf({rng.randint(0, 99)}L)"
    if kind == 8:
        return "Double", f"Double.valueOf({rng.randint(0, 9)}.{rng.randint(0, 9)})"
    return "Boolean", rng.choice(("Boolean.TRUE", "Boolean.FALSE"))


def _indent_of(line: str) -> str:
    return line[: len(line) - len(line.lstrip(" \t"))]


def _splice(src: SourceSet, element: InjectedElement) -> SourceSet:
    """Insert the element's lines before its line; a final newline stays last."""
    at = element.line - 1
    files = []
    for path, content in src.files:
        if path == element.file:
            lines = content.split("\n")
            content = "\n".join(lines[:at] + list(element.lines) + lines[at:])
        files.append((path, content))
    return SourceSet(files=tuple(files))


def remove_injected_lines(content: str, elements: list[InjectedElement]) -> str:
    """Inverse of the splice: drop manifest lines, restoring the base text."""
    drop = {el.line - 1 + offset for el in elements for offset in range(len(el.lines))}
    return "\n".join(ln for i, ln in enumerate(content.split("\n")) if i not in drop)


# --------------------------------------------------------------- persistence


def variant_corpus(corpus: BugCorpus, master_seed: int) -> BugCorpus:
    """The corpus `run --mode metamorphic --seed <master_seed>` scores: the
    instances of `transform_corpus`."""
    return BugCorpus(tuple(v.instance for v in transform_corpus(corpus, master_seed)))


def persist_variants(variants: list[MetamorphicVariant], root: str | Path,
                     master_seed: int) -> Path:
    """Write each variant's instance, with its `manifest`, as a loadable
    corpus at <root>/variants/<master_seed>/. A target that exists and is
    not empty is refused before anything is written, so no instance of an
    earlier call is left beside these and scored with them."""
    base = Path(root) / "variants" / str(master_seed)
    if base.exists() and any(base.iterdir()):
        raise FileExistsError(f"{base} is not empty; remove it or use a new --out")
    for variant in variants:
        inst_dir = write_instance(variant.instance, base)
        manifest = {
            "operator": variant.operator,
            "seed": variant.seed,
            "elements": [asdict(el) for el in variant.manifest],
        }
        (inst_dir / "manifest").write_text(json.dumps(manifest, indent=1), "utf-8")
    return base
