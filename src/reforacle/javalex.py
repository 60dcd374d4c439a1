"""Lexical, brace-aware scanning of Java source.

Not a Java parser: a single left-to-right pass that tracks comments, string,
char and text-block literals, and brace nesting, and classifies each
opening brace as a type body, a method body, or other. That is enough
structure to find safe line-based insertion points, collect the
identifier set, and name a test's one top-level public class. Anything
ambiguous is classified conservatively (no insertion point rather than a
wrong one).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "record"})

# Brace context kinds
TYPE_BODY = "type"
METHOD_BODY = "method"
OTHER_BLOCK = "block"


class ScanError(ValueError):
    """Base for lexical scan failures."""


class UnbalancedBraces(ScanError):
    pass


class UnterminatedLiteral(ScanError):
    pass


@dataclass
class BraceContext:
    """One `{ ... }` region discovered by the scan."""

    kind: str
    open_line: int  # 0-based
    close_line: int = -1
    type_keyword: str = ""   # for TYPE_BODY: class/interface/enum/record
    name: str = ""           # type or method name when recognized
    is_constructor: bool = False
    is_public: bool = False
    top_level: bool = False


@dataclass
class FileScan:
    """Result of scanning one Java source file."""

    lines: list[str]
    identifiers: set[str] = field(default_factory=set)
    contexts: list[BraceContext] = field(default_factory=list)
    # True at index i when the boundary *after* line i is in plain code
    # (not inside a literal or block comment), so a whole line may be
    # inserted there without changing any token.
    line_end_in_code: list[bool] = field(default_factory=list)
    # Innermost open context right after each line's newline; None at depth 0.
    context_at_line_end: list[BraceContext | None] = field(default_factory=list)
    package_line: int | None = None

    def public_class_names(self) -> list[str]:
        return [
            c.name
            for c in self.contexts
            if c.kind == TYPE_BODY and c.top_level and c.is_public
        ]


# Scanner states
_CODE = 0
_LINE_COMMENT = 1
_BLOCK_COMMENT = 2
_STRING = 3
_CHAR = 4
_TEXT_BLOCK = 5

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
# What the scan steps over in one match: an identifier, a run of blanks,
# and the characters of a literal that neither end it nor escape.
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_BLANKS_RE = re.compile(r"[ \t\r]+")
_LITERAL_BODY_RE = {
    _STRING: re.compile(r'[^"\\\n]*'),
    _CHAR: re.compile(r"[^'\\\n]*"),
    _TEXT_BLOCK: re.compile(r'[^"\\\n]*'),
}


def scan_file(text: str, path: str = "<source>") -> FileScan:
    """Scan one file; raises UnbalancedBraces/UnterminatedLiteral."""
    raw_lines = text.split("\n")
    if text.endswith("\n"):
        raw_lines = raw_lines[:-1]
    result = FileScan(lines=raw_lines)

    state = _CODE
    line_no = 0
    stack: list[BraceContext] = []
    contexts: list[BraceContext] = []
    prev_token = ""          # last completed identifier-ish token
    prev_sig_char = ""       # last significant punctuation seen in code state
    pending_type_kw = ""     # a type keyword awaiting its name
    pending_type_name = ""
    pending_type_public = False
    after_paren = False      # only header-tail tokens since last ')'
    stmt_has_assign = False  # '=' seen since last ; { }
    stmt_has_new = False     # 'new' seen since last ; { }
    ident_before_paren = ""
    stmt_is_public = False

    def take_token(token: str) -> None:
        nonlocal prev_token, pending_type_kw, pending_type_name
        nonlocal stmt_has_new, pending_type_public, stmt_is_public
        result.identifiers.add(token)
        if token == "new":
            stmt_has_new = True
        if token == "public":
            stmt_is_public = True
        if token in TYPE_KEYWORDS and prev_sig_char != ".":
            pending_type_kw = token
            pending_type_name = ""
            pending_type_public = stmt_is_public
        elif pending_type_kw and not pending_type_name and prev_sig_char != ".":
            pending_type_name = token
        prev_token = token

    def end_statement() -> None:
        nonlocal stmt_has_assign, stmt_has_new, after_paren, stmt_is_public
        stmt_has_assign = False
        stmt_has_new = False
        after_paren = False
        stmt_is_public = False

    def end_line() -> None:
        nonlocal line_no
        result.line_end_in_code.append(state == _CODE)
        result.context_at_line_end.append(stack[-1] if stack else None)
        line_no += 1

    i = 0
    n = len(text)
    while i < n:
        if state == _LINE_COMMENT:
            i = text.find("\n", i)
            if i < 0:
                break
            state = _CODE
            end_line()
            i += 1
            continue

        if state == _BLOCK_COMMENT:
            close = text.find("*/", i)
            for _ in range(text.count("\n", i, n if close < 0 else close)):
                end_line()
            if close < 0:
                break
            state = _CODE
            i = close + 2
            continue

        if state != _CODE:  # a string, char or text-block literal
            i = _LITERAL_BODY_RE[state].match(text, i).end()
            if i == n:
                break
            ch = text[i]
            if ch == "\\" and text.startswith("\n", i + 1):
                i += 1  # an escaped newline still ends the line
                ch = "\n"
            if ch == "\\":
                i += 2
            elif ch == "\n":
                if state == _STRING:
                    raise UnterminatedLiteral(f"{path}:{line_no + 1}: string literal not closed")
                if state == _CHAR:
                    raise UnterminatedLiteral(f"{path}:{line_no + 1}: char literal not closed")
                end_line()
                i += 1
            elif state != _TEXT_BLOCK:  # the closing quote
                state = _CODE
                i += 1
            elif text.startswith('"""', i):
                state = _CODE
                i += 3
            else:
                i += 1
            continue

        ch = text[i]
        if ch in _IDENT_START:
            token = _IDENT_RE.match(text, i).group()
            take_token(token)
            i += len(token)
            continue

        if ch == "/" and text.startswith("//", i):
            state = _LINE_COMMENT
            i += 2
            continue
        if ch == "/" and text.startswith("/*", i):
            state = _BLOCK_COMMENT
            i += 2
            continue
        if ch == '"':
            if text.startswith('"""', i):
                state = _TEXT_BLOCK
                i += 3
            else:
                state = _STRING
                i += 1
            prev_sig_char = '"'
            after_paren = False
            continue
        if ch == "'":
            state = _CHAR
            prev_sig_char = "'"
            after_paren = False
            i += 1
            continue

        if ch == "\n":
            end_line()
            i += 1
            continue
        if ch in " \t\r":
            i = _BLANKS_RE.match(text, i).end()
            continue

        if ch == "{":
            ctx = _classify_brace(
                stack,
                pending_type_kw,
                pending_type_name,
                prev_sig_char,
                after_paren,
                stmt_has_assign,
                stmt_has_new,
                ident_before_paren,
                line_no,
            )
            if ctx.kind == TYPE_BODY:
                ctx.is_public = pending_type_public
            # any pending header is either consumed by this brace or stale
            pending_type_kw = ""
            pending_type_name = ""
            pending_type_public = False
            stack.append(ctx)
            contexts.append(ctx)
            end_statement()
            prev_sig_char = "{"
            i += 1
            continue
        if ch == "}":
            if not stack:
                raise UnbalancedBraces(f"{path}:{line_no + 1}: unmatched '}}'")
            stack.pop().close_line = line_no
            end_statement()
            prev_sig_char = "}"
            i += 1
            continue
        if ch == ";":
            end_statement()
            # a type header never contains ';', so any pending header is stale
            pending_type_kw = ""
            pending_type_name = ""
            pending_type_public = False
            prev_sig_char = ";"
            i += 1
            continue
        if ch == ")":
            after_paren = True
            prev_sig_char = ")"
            i += 1
            continue
        if ch == "(":
            ident_before_paren = prev_token
            after_paren = False
            prev_sig_char = "("
            i += 1
            continue
        if ch == "=":
            # '==' also marks the statement; conservative is fine here
            stmt_has_assign = True
            after_paren = False
            prev_sig_char = "="
            i += 1
            continue

        # remaining punctuation; '<' '>' ',' may appear in a method header
        # tail (generics, throws lists), everything else ends it
        if ch not in "<>,@":
            after_paren = False
        prev_sig_char = ch
        i += 1

    if state in (_STRING, _CHAR, _TEXT_BLOCK):
        raise UnterminatedLiteral(f"{path}: literal still open at end of file")
    if state == _BLOCK_COMMENT:
        raise UnterminatedLiteral(f"{path}: block comment still open at end of file")
    if stack:
        raise UnbalancedBraces(f"{path}: {len(stack)} unclosed '{{'")

    # a final line with no trailing newline never saw end_line()
    if len(result.line_end_in_code) < len(result.lines):
        result.line_end_in_code.append(True)
        result.context_at_line_end.append(None)

    result.contexts = contexts
    _find_package_line(result)
    return result


def _classify_brace(
    stack: list[BraceContext],
    pending_type_kw: str,
    pending_type_name: str,
    prev_sig_char: str,
    after_paren: bool,
    stmt_has_assign: bool,
    stmt_has_new: bool,
    ident_before_paren: str,
    line_no: int,
) -> BraceContext:
    parent = stack[-1] if stack else None
    if pending_type_kw and pending_type_name and not stmt_has_new:
        return BraceContext(
            kind=TYPE_BODY,
            open_line=line_no,
            type_keyword=pending_type_kw,
            name=pending_type_name,
            top_level=parent is None,
        )
    # Array initializers and annotation values open after '=', '(', ',' or '['.
    if prev_sig_char in "=,([{":
        pass
    elif (
        after_paren
        and parent is not None
        and parent.kind == TYPE_BODY
        and not stmt_has_assign
        and not stmt_has_new
    ):
        return BraceContext(
            kind=METHOD_BODY,
            open_line=line_no,
            name=ident_before_paren,
            is_constructor=ident_before_paren == parent.name,
        )
    return BraceContext(kind=OTHER_BLOCK, open_line=line_no)


def _find_package_line(result: FileScan) -> None:
    """Locate the package line textually; it is line-oriented in practice."""
    for idx, line in enumerate(result.lines):
        stripped = line.strip()
        if stripped.startswith("package ") and stripped.endswith(";"):
            result.package_line = idx
            return


def top_level_public_class(text: str) -> str | None:
    """Name of the single top-level public class; None if there is not
    exactly one or the text does not scan."""
    try:
        names = scan_file(text).public_class_names()
    except ScanError:
        return None
    return names[0] if len(names) == 1 else None
