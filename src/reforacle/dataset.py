"""Corpus of refactoring-bug instances: loading and writing the instance layout.

On-disk layout, one directory per instance:

    <root>/instances/<id>/meta          key=value lines: id, tool, refactoring, label,
                                        and on a variant its tag (variant) and seed
    <root>/instances/<id>/original/**.java
    <root>/instances/<id>/resulting/**.java
    <root>/instances/<id>/test/Test.java   only when label=BC
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

LABELS = ("BC", "CE", "PRESERVING")
TOOLS = ("Eclipse", "NetBeans", "IntelliJ", "Other")


class CorpusError(ValueError):
    """Malformed instance directory; message names the directory."""


class MissingMetadata(CorpusError):
    pass


class DuplicateId(CorpusError):
    pass


class MissingTestForBC(CorpusError):
    pass


class EmptySourceSet(CorpusError):
    pass


@dataclass(frozen=True)
class SourceSet:
    """Ordered set of Java source files for one program version."""

    files: tuple[tuple[str, str], ...]  # (relative path, content)

    def __post_init__(self) -> None:
        if not self.files:
            raise EmptySourceSet("source set has no files")
        paths = [p for p, _ in self.files]
        if len(set(paths)) != len(paths):
            raise ValueError(f"duplicate paths in source set: {paths}")
        for path, content in self.files:
            if not path.endswith(".java"):
                raise ValueError(f"not a Java source path: {path}")
            if not content:
                raise ValueError(f"empty source file: {path}")

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.files)

    def content(self, path: str) -> str:
        for p, c in self.files:
            if p == path:
                return c
        raise KeyError(path)

    def concatenated(self) -> str:
        """All file contents as one block, in file order."""
        parts = []
        for _, content in self.files:
            parts.append(content if content.endswith("\n") else content + "\n")
        return "\n".join(parts)


@dataclass(frozen=True)
class BugInstance:
    """One refactoring scenario with its ground-truth label."""

    id: str
    tool: str
    refactoring_type: str
    label: str
    original: SourceSet
    resulting: SourceSet
    exposing_test: str | None = None
    variant_tag: str = ""    # `mt-<seed>-<operator>` on a metamorphic variant
    seed: int | None = None  # the variant's master seed

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"{self.id}: unknown label {self.label!r}")
        if self.tool not in TOOLS:
            raise ValueError(f"{self.id}: unknown tool {self.tool!r}")
        if self.label == "BC" and self.exposing_test is None:
            raise MissingTestForBC(f"{self.id}: label BC requires an exposing test")
        if self.label != "BC" and self.exposing_test is not None:
            raise ValueError(f"{self.id}: exposing test only allowed for label BC")


@dataclass(frozen=True)
class BugCorpus:
    instances: tuple[BugInstance, ...]

    @property
    def total(self) -> int:
        return len(self.instances)

    @property
    def n_bc(self) -> int:
        return sum(1 for i in self.instances if i.label == "BC")

    @property
    def n_ce(self) -> int:
        return sum(1 for i in self.instances if i.label == "CE")

    @property
    def n_preserving(self) -> int:
        return sum(1 for i in self.instances if i.label == "PRESERVING")


def _read_meta(meta_path: Path) -> dict[str, str]:
    pairs = {}
    for raw in meta_path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MissingMetadata(f"{meta_path.parent}: malformed meta line {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _read_source_set(directory: Path, instance_dir: Path) -> SourceSet:
    if not directory.is_dir():
        raise EmptySourceSet(f"{instance_dir}: missing {directory.name}/ directory")
    files = []
    for path in sorted(directory.rglob("*.java")):
        rel = path.relative_to(directory).as_posix()
        files.append((rel, path.read_text(encoding="utf-8")))
    if not files:
        raise EmptySourceSet(f"{instance_dir}: no .java files under {directory.name}/")
    try:
        return SourceSet(files=tuple(files))
    except ValueError as err:
        raise EmptySourceSet(f"{instance_dir}: {err}") from err


def load_instance(instance_dir: Path) -> BugInstance:
    meta_path = instance_dir / "meta"
    if not meta_path.is_file():
        raise MissingMetadata(f"{instance_dir}: missing meta file")
    meta = _read_meta(meta_path)
    for required in ("id", "tool", "refactoring", "label"):
        if required not in meta:
            raise MissingMetadata(f"{instance_dir}: meta lacks key {required!r}")

    original = _read_source_set(instance_dir / "original", instance_dir)
    resulting = _read_source_set(instance_dir / "resulting", instance_dir)

    exposing_test: str | None = None
    test_dir = instance_dir / "test"
    if test_dir.is_dir():
        test_files = sorted(test_dir.glob("*.java"))
        if test_files:
            exposing_test = test_files[0].read_text(encoding="utf-8")

    if meta["label"] == "BC" and exposing_test is None:
        raise MissingTestForBC(f"{instance_dir}: label BC but no test/ directory")
    if meta["label"] != "BC":
        exposing_test = None
    try:
        seed = int(meta["seed"]) if "seed" in meta else None
    except ValueError:
        raise MissingMetadata(f"{instance_dir}: seed {meta['seed']!r} is not an integer") from None

    try:
        return BugInstance(
            id=meta["id"],
            tool=meta["tool"],
            refactoring_type=meta["refactoring"],
            label=meta["label"],
            original=original,
            resulting=resulting,
            exposing_test=exposing_test,
            variant_tag=meta.get("variant", ""),
            seed=seed,
        )
    except ValueError as err:
        raise MissingMetadata(f"{instance_dir}: {err}") from err


def write_instance(inst: BugInstance, root: str | Path) -> Path:
    """Write `inst` in the layout `load_instance` reads, at <root>/instances/<id>/;
    returns that directory. `variant=` and `seed=` lines are written only for a variant."""
    instance_dir = Path(root) / "instances" / inst.id
    for side in ("original", "resulting"):
        for rel, content in getattr(inst, side).files:
            path = instance_dir / side / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
    meta = (f"id={inst.id}\ntool={inst.tool}\nrefactoring={inst.refactoring_type}\n"
            f"label={inst.label}\n")
    if inst.variant_tag:
        meta += f"variant={inst.variant_tag}\nseed={inst.seed}\n"
    (instance_dir / "meta").write_text(meta, encoding="utf-8")
    if inst.exposing_test is not None:
        (instance_dir / "test").mkdir(exist_ok=True)
        (instance_dir / "test" / "Test.java").write_text(inst.exposing_test, encoding="utf-8")
    return instance_dir


def load_corpus(root: str | Path) -> BugCorpus:
    """Load every instance under <root>/instances, sorted by directory name.

    Malformed directories raise a typed CorpusError naming the directory;
    nothing is silently dropped.
    """
    root = Path(root)
    instances_dir = root / "instances"
    if not instances_dir.is_dir():
        raise CorpusError(f"{root}: no instances/ directory")
    instances = []
    seen: dict[str, Path] = {}
    for instance_dir in sorted(p for p in instances_dir.iterdir() if p.is_dir()):
        inst = load_instance(instance_dir)
        if inst.id in seen:
            raise DuplicateId(
                f"{instance_dir}: id {inst.id!r} already used by {seen[inst.id]}"
            )
        seen[inst.id] = instance_dir
        instances.append(inst)
    corpus = BugCorpus(instances=tuple(instances))
    logger.info(
        "loaded corpus: %d instances (%d BC, %d CE, %d preserving)",
        corpus.total,
        corpus.n_bc,
        corpus.n_ce,
        corpus.n_preserving,
    )
    return corpus
