"""Accuracy and stability metrics over instance-by-attempt run matrices.

A RunMatrix is an N-by-K grid of assessment cells for one model
configuration. It holds the configuration's instance set from the report
view (`cli_report.Run.conclusive`: the instances whose every attempt is
conclusive, each with one row per attempt 1..K), so every metric reads
every cell, and the report view alone decides which instances count.
`metric_report` gathers every metric into the document that `cli_report`
writes as `metrics-*.json` and `.csv`; this module does no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass


class AnalyticsError(ValueError):
    pass


class EmptyMatrix(AnalyticsError):
    pass


class KOutOfRange(AnalyticsError):
    pass


@dataclass(frozen=True)
class Cell:
    answer_label: str
    correct: bool


@dataclass(frozen=True)
class RunMatrix:
    backend_name: str
    instance_ids: tuple[str, ...]
    labels: tuple[str, ...]  # BC | CE | PRESERVING per instance
    attempts: int
    cells: tuple[tuple[Cell, ...], ...]  # N rows of K cells

    def __post_init__(self) -> None:
        n = len(self.instance_ids)
        if not n or self.attempts < 1:
            raise EmptyMatrix(f"no instances or no attempts for {self.backend_name!r}")
        if len(self.labels) != n or len(self.cells) != n:
            raise AnalyticsError("instance_ids, labels and cells must align")
        for row in self.cells:
            if len(row) != self.attempts:
                raise AnalyticsError("matrix is not rectangular")

    @classmethod
    def from_instances(cls, instances: list[list[dict]], name: str) -> RunMatrix:
        """The matrix of an instance set under the report name `name`: one
        list of outcome rows per instance, in attempt order."""
        return cls(
            backend_name=name,
            instance_ids=tuple(rows[0]["instance_id"] for rows in instances),
            labels=tuple(rows[0]["ground_label"] for rows in instances),
            attempts=len(instances[0]) if instances else 0,
            cells=tuple(tuple(Cell(r["answer_label"], bool(r["correct"])) for r in rows)
                        for rows in instances),
        )


def per_attempt_accuracy(m: RunMatrix, attempt: int) -> float:
    """Fraction correct at one attempt (1-based)."""
    if not 1 <= attempt <= m.attempts:
        raise KOutOfRange(f"attempt {attempt} outside 1..{m.attempts}")
    return sum(1 for row in m.cells if row[attempt - 1].correct) / len(m.cells)


def mean_accuracy(m: RunMatrix) -> float:
    """Average of correct over all cells."""
    total = sum(1 for row in m.cells for cell in row if cell.correct)
    return total / (len(m.cells) * m.attempts)


def accuracy_spread(m: RunMatrix) -> float:
    """Max minus min per-attempt accuracy across the K attempts."""
    accs = [per_attempt_accuracy(m, k) for k in range(1, m.attempts + 1)]
    return max(accs) - min(accs)


def acc_at(m: RunMatrix, k: int) -> float:
    """Fraction of instances solved at least once in the first k attempts."""
    _check_k(m, k)
    return sum(1 for row in m.cells if _first_success(row) <= k) / len(m.cells)


def tar_at(m: RunMatrix, k: int) -> float:
    """Fraction of instances whose first k answer labels are all identical."""
    _check_k(m, k)
    agree = 0
    for row in m.cells:
        if all(cell.answer_label == row[0].answer_label for cell in row[:k]):
            agree += 1
    return agree / len(m.cells)


def cons_at(m: RunMatrix, k: int) -> float:
    """Strict-majority consensus correctness over the first k attempts.

    An instance scores 1 iff some answer label occurs more than k/2 times
    among its first k attempts and the cells carrying it are correct;
    ties score 0.
    """
    _check_k(m, k)
    score = 0
    for row in m.cells:
        counts: dict[str, int] = {}
        correct_of: dict[str, bool] = {}
        for cell in row[:k]:
            counts[cell.answer_label] = counts.get(cell.answer_label, 0) + 1
            correct_of[cell.answer_label] = cell.correct
        label, top = max(counts.items(), key=lambda kv: kv[1])
        if top * 2 > k and correct_of[label]:
            score += 1
    return score / len(m.cells)


def category_acc_at(m: RunMatrix, label: str, k: int) -> float | None:
    """acc@k over the instances with ground label `label`; None when there
    are none."""
    _check_k(m, k)
    subset = [row for row, wanted in zip(m.cells, m.labels) if wanted == label]
    if not subset:
        return None
    return sum(1 for row in subset if _first_success(row) <= k) / len(subset)


def _first_success(row: tuple[Cell, ...]) -> int:
    for j, cell in enumerate(row, start=1):
        if cell.correct:
            return j
    return len(row) + 1


def _check_k(m: RunMatrix, k: int) -> None:
    if not 1 <= k <= m.attempts:
        raise KOutOfRange(f"k={k} outside 1..{m.attempts}")


def metric_report(m: RunMatrix, left_out: int) -> dict:
    """Every metric of `m`, with `left_out`, the number of instances the
    report view left out of its instance set: the document a metrics report
    holds. Each per-k table is keyed by k as a string, in k order; the table
    of a label no instance has is empty."""
    ks = range(1, m.attempts + 1)
    doc = {
        "backend": m.backend_name,
        "instances": len(m.instance_ids),
        "dropped_inconclusive": left_out,
        "attempts": m.attempts,
        "mean_accuracy": mean_accuracy(m),
        "accuracy_spread": accuracy_spread(m),
        "per_attempt_accuracy": [per_attempt_accuracy(m, k) for k in ks],
        "acc_at": {str(k): acc_at(m, k) for k in ks},
        "tar_at": {str(k): tar_at(m, k) for k in ks},
        "cons_at": {str(k): cons_at(m, k) for k in ks},
    }
    for label in ("BC", "CE"):
        doc[f"{label.lower()}_at"] = {str(k): category_acc_at(m, label, k) for k in ks
                                      if label in m.labels}
    return doc


@dataclass(frozen=True)
class UnionReport:
    model_names: tuple[str, ...]
    solved_sizes: dict[str, int]
    union_size: int
    regions: dict[tuple[str, ...], int]  # sorted model-name subsets -> count

    def region(self, *models: str) -> int:
        return self.regions.get(tuple(sorted(models)), 0)


def union_coverage(solved: dict[str, set[str]]) -> UnionReport:
    """OR-combination of per-model solved sets with exact region counts.

    Every instance in the union lands in exactly one region, keyed by the
    subset of models that solved it.
    """
    if not solved:
        raise AnalyticsError("no solved sets given")
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
