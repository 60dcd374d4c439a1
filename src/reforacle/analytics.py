"""Accuracy and stability metrics over instance-by-attempt run matrices.

A RunMatrix is an N-by-K grid of assessment cells for one model
configuration. Rows containing inconclusive cells are dropped from every
metric (numerator and denominator) and counted in the report, because
they carry no information about the model.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path



class AnalyticsError(ValueError):
    pass


class EmptyMatrix(AnalyticsError):
    pass


class KOutOfRange(AnalyticsError):
    pass


class MismatchedCorpus(AnalyticsError):
    pass


@dataclass(frozen=True)
class Cell:
    answer_label: str
    correct: bool
    inconclusive: bool = False


@dataclass(frozen=True)
class RunMatrix:
    backend_name: str
    instance_ids: tuple[str, ...]
    labels: tuple[str, ...]  # BC | CE | PRESERVING per instance
    attempts: int
    cells: tuple[tuple[Cell, ...], ...]  # N rows of K cells

    def __post_init__(self) -> None:
        n = len(self.instance_ids)
        if len(self.labels) != n or len(self.cells) != n:
            raise AnalyticsError("instance_ids, labels and cells must align")
        for row in self.cells:
            if len(row) != self.attempts:
                raise AnalyticsError("matrix is not rectangular")

    def usable_rows(self) -> list[int]:
        """Row indices without inconclusive cells."""
        return [
            i
            for i, row in enumerate(self.cells)
            if not any(cell.inconclusive for cell in row)
        ]

    @property
    def dropped_rows(self) -> int:
        return len(self.instance_ids) - len(self.usable_rows())


def matrix_from_outcomes(records: list[dict], backend_name: str) -> RunMatrix:
    """Assemble a matrix from outcome records for one backend."""
    chosen = [r for r in records if r["backend_name"] == backend_name]
    if not chosen:
        raise EmptyMatrix(f"no outcomes for backend {backend_name!r}")
    by_instance: dict[str, dict[int, dict]] = {}
    labels: dict[str, str] = {}
    for r in chosen:
        by_instance.setdefault(r["instance_id"], {})[r["attempt_index"]] = r
        labels[r["instance_id"]] = r["ground_label"]
    attempts = max(max(atts) for atts in by_instance.values())
    ids = tuple(sorted(by_instance))
    rows = []
    for instance_id in ids:
        row = []
        for k in range(1, attempts + 1):
            rec = by_instance[instance_id].get(k)
            if rec is None:
                raise AnalyticsError(
                    f"{instance_id}: missing attempt {k} for {backend_name}"
                )
            row.append(
                Cell(
                    answer_label=rec["answer_label"],
                    correct=bool(rec["correct"]),
                    inconclusive=bool(rec.get("inconclusive", False)),
                )
            )
        rows.append(tuple(row))
    return RunMatrix(
        backend_name=backend_name,
        instance_ids=ids,
        labels=tuple(labels[i] for i in ids),
        attempts=attempts,
        cells=tuple(rows),
    )


def _usable(m: RunMatrix) -> list[int]:
    rows = m.usable_rows()
    if not rows or m.attempts < 1:
        raise EmptyMatrix("no usable rows in matrix")
    return rows


def per_attempt_accuracy(m: RunMatrix, attempt: int) -> float:
    """Fraction correct at one attempt (1-based) over usable rows."""
    if not 1 <= attempt <= m.attempts:
        raise KOutOfRange(f"attempt {attempt} outside 1..{m.attempts}")
    rows = _usable(m)
    return sum(1 for i in rows if m.cells[i][attempt - 1].correct) / len(rows)


def mean_accuracy(m: RunMatrix) -> float:
    """Average of correct over all usable cells."""
    rows = _usable(m)
    total = sum(1 for i in rows for cell in m.cells[i] if cell.correct)
    return total / (len(rows) * m.attempts)


def accuracy_spread(m: RunMatrix) -> float:
    """Max minus min per-attempt accuracy across the K attempts."""
    accs = [per_attempt_accuracy(m, k) for k in range(1, m.attempts + 1)]
    return max(accs) - min(accs)


def acc_at(m: RunMatrix, k: int) -> float:
    """Fraction of instances solved at least once in the first k attempts."""
    _check_k(m, k)
    rows = _usable(m)
    hits = sum(1 for i in rows if _first_success(m.cells[i]) <= k)
    return hits / len(rows)


def tar_at(m: RunMatrix, k: int) -> float:
    """Fraction of instances whose first k answer labels are all identical."""
    _check_k(m, k)
    rows = _usable(m)
    agree = 0
    for i in rows:
        first = m.cells[i][0].answer_label
        if all(cell.answer_label == first for cell in m.cells[i][:k]):
            agree += 1
    return agree / len(rows)


def cons_at(m: RunMatrix, k: int) -> float:
    """Strict-majority consensus correctness over the first k attempts.

    An instance scores 1 iff some answer label occurs more than k/2 times
    among its first k attempts and the cells carrying it are correct;
    ties score 0.
    """
    _check_k(m, k)
    rows = _usable(m)
    score = 0
    for i in rows:
        counts: dict[str, int] = {}
        correct_of: dict[str, bool] = {}
        for cell in m.cells[i][:k]:
            counts[cell.answer_label] = counts.get(cell.answer_label, 0) + 1
            correct_of[cell.answer_label] = cell.correct
        label, top = max(counts.items(), key=lambda kv: kv[1])
        if top * 2 > k and correct_of[label]:
            score += 1
    return score / len(rows)


def category_split(m: RunMatrix, k: int) -> tuple[float | None, float | None]:
    """(BC acc@k, CE acc@k); None when a category is absent."""
    _check_k(m, k)
    rows = _usable(m)
    out = []
    for wanted in ("BC", "CE"):
        subset = [i for i in rows if m.labels[i] == wanted]
        if not subset:
            out.append(None)
            continue
        hits = sum(1 for i in subset if _first_success(m.cells[i]) <= k)
        out.append(hits / len(subset))
    return out[0], out[1]


def _first_success(row: tuple[Cell, ...]) -> int:
    for j, cell in enumerate(row, start=1):
        if cell.correct:
            return j
    return len(row) + 1


def _check_k(m: RunMatrix, k: int) -> None:
    if not 1 <= k <= m.attempts:
        raise KOutOfRange(f"k={k} outside 1..{m.attempts}")


@dataclass(frozen=True)
class MetricReport:
    backend_name: str
    instances: int
    dropped_inconclusive: int
    attempts: int
    mean_accuracy: float
    accuracy_spread: float
    per_attempt: tuple[float, ...]
    acc_at: dict[int, float]
    tar_at: dict[int, float]
    cons_at: dict[int, float]
    bc_at: dict[int, float] = field(default_factory=dict)
    ce_at: dict[int, float] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "backend": self.backend_name,
            "instances": self.instances,
            "dropped_inconclusive": self.dropped_inconclusive,
            "attempts": self.attempts,
            "mean_accuracy": self.mean_accuracy,
            "accuracy_spread": self.accuracy_spread,
            "per_attempt_accuracy": list(self.per_attempt),
            "acc_at": {str(k): v for k, v in self.acc_at.items()},
            "tar_at": {str(k): v for k, v in self.tar_at.items()},
            "cons_at": {str(k): v for k, v in self.cons_at.items()},
            "bc_at": {str(k): v for k, v in self.bc_at.items()},
            "ce_at": {str(k): v for k, v in self.ce_at.items()},
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "k", "value"])
            writer.writerow(["mean_accuracy", "", f"{self.mean_accuracy:.6f}"])
            writer.writerow(["accuracy_spread", "", f"{self.accuracy_spread:.6f}"])
            for j, acc in enumerate(self.per_attempt, start=1):
                writer.writerow(["attempt_accuracy", j, f"{acc:.6f}"])
            for name, table in (
                ("acc_at", self.acc_at),
                ("tar_at", self.tar_at),
                ("cons_at", self.cons_at),
                ("bc_at", self.bc_at),
                ("ce_at", self.ce_at),
            ):
                for k, v in sorted(table.items()):
                    writer.writerow([name, k, f"{v:.6f}"])


def metric_report(m: RunMatrix) -> MetricReport:
    ks = range(1, m.attempts + 1)
    bc_at: dict[int, float] = {}
    ce_at: dict[int, float] = {}
    for k in ks:
        bc, ce = category_split(m, k)
        if bc is not None:
            bc_at[k] = bc
        if ce is not None:
            ce_at[k] = ce
    return MetricReport(
        backend_name=m.backend_name,
        instances=len(m.usable_rows()),
        dropped_inconclusive=m.dropped_rows,
        attempts=m.attempts,
        mean_accuracy=mean_accuracy(m),
        accuracy_spread=accuracy_spread(m),
        per_attempt=tuple(per_attempt_accuracy(m, k) for k in ks),
        acc_at={k: acc_at(m, k) for k in ks},
        tar_at={k: tar_at(m, k) for k in ks},
        cons_at={k: cons_at(m, k) for k in ks},
        bc_at=bc_at,
        ce_at=ce_at,
    )


@dataclass(frozen=True)
class UnionReport:
    model_names: tuple[str, ...]
    solved_sizes: dict[str, int]
    union_size: int
    regions: dict[tuple[str, ...], int]  # sorted model-name subsets -> count

    def region(self, *models: str) -> int:
        return self.regions.get(tuple(sorted(models)), 0)


def union_coverage(
    solved: dict[str, set[str]], corpus_ids: set[str] | None = None
) -> UnionReport:
    """OR-combination of per-model solved sets with exact region counts.

    Every instance in the union lands in exactly one region, keyed by the
    subset of models that solved it.
    """
    if not solved:
        raise AnalyticsError("no solved sets given")
    if corpus_ids is not None:
        for name, ids in solved.items():
            extra = ids - corpus_ids
            if extra:
                raise MismatchedCorpus(
                    f"{name}: {len(extra)} solved ids outside the corpus"
                )
    names = tuple(solved)
    union: set[str] = set()
    for ids in solved.values():
        union |= ids
    regions: dict[tuple[str, ...], int] = {}
    for instance in union:
        signature = tuple(sorted(n for n in names if instance in solved[n]))
        regions[signature] = regions.get(signature, 0) + 1
    return UnionReport(
        model_names=names,
        solved_sizes={n: len(ids) for n, ids in solved.items()},
        union_size=len(union),
        regions=regions,
    )
