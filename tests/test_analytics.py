import random

import pytest

from reforacle import assessor
from reforacle.analytics import (
    Cell,
    EmptyMatrix,
    KOutOfRange,
    MismatchedCorpus,
    RunMatrix,
    acc_at,
    accuracy_spread,
    category_split,
    cons_at,
    matrix_from_outcomes,
    mean_accuracy,
    metric_report,
    per_attempt_accuracy,
    tar_at,
    union_coverage,
)

LABEL_CHOICES = list(assessor.ANSWER_LABELS)


def random_matrix(rng: random.Random, n_max: int = 30, k_max: int = 5) -> RunMatrix:
    """Rows stay consistent: correctness is a function of the answer label."""
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    ids, labels, rows = [], [], []
    for i in range(n):
        ground = rng.choice(["BC", "CE"])
        winning = assessor.correct_answer_label(ground)
        row = []
        for _ in range(k):
            answer = rng.choice(LABEL_CHOICES)
            row.append(Cell(answer_label=answer, correct=answer == winning))
        ids.append(f"i{i:03d}")
        labels.append(ground)
        rows.append(tuple(row))
    return RunMatrix(
        backend_name="m",
        instance_ids=tuple(ids),
        labels=tuple(labels),
        attempts=k,
        cells=tuple(rows),
    )


# naive re-implementations used as definitional oracles


def brute_mean(m: RunMatrix) -> float:
    cells = [c for row in m.cells for c in row]
    return sum(1 for c in cells if c.correct) / len(cells)


def brute_spread(m: RunMatrix) -> float:
    accs = []
    for j in range(m.attempts):
        accs.append(sum(1 for row in m.cells if row[j].correct) / len(m.cells))
    return max(accs) - min(accs)


def brute_acc_at(m: RunMatrix, k: int) -> float:
    hit = 0
    for row in m.cells:
        if any(cell.correct for cell in row[:k]):
            hit += 1
    return hit / len(m.cells)


def brute_tar_at(m: RunMatrix, k: int) -> float:
    same = 0
    for row in m.cells:
        labels = [cell.answer_label for cell in row[:k]]
        if all(lbl == labels[0] for lbl in labels):
            same += 1
    return same / len(m.cells)


def brute_cons_at(m: RunMatrix, k: int) -> float:
    score = 0
    for row in m.cells:
        tally: dict[str, int] = {}
        for cell in row[:k]:
            tally[cell.answer_label] = tally.get(cell.answer_label, 0) + 1
        best = max(tally.values())
        winners = [lbl for lbl, n in tally.items() if n == best]
        if len(winners) == 1 and best > k / 2:
            winner_correct = next(
                cell.correct for cell in row[:k] if cell.answer_label == winners[0]
            )
            if winner_correct:
                score += 1
    return score / len(m.cells)


class TestMetricsAgainstBruteForce:
    def test_five_hundred_random_fixtures(self):
        rng = random.Random(20240501)
        for _ in range(500):
            m = random_matrix(rng)
            assert mean_accuracy(m) == pytest.approx(brute_mean(m), abs=1e-12)
            assert accuracy_spread(m) == pytest.approx(brute_spread(m), abs=1e-12)
            for k in range(1, m.attempts + 1):
                assert acc_at(m, k) == pytest.approx(brute_acc_at(m, k), abs=1e-12)
                assert tar_at(m, k) == pytest.approx(brute_tar_at(m, k), abs=1e-12)
                assert cons_at(m, k) == pytest.approx(brute_cons_at(m, k), abs=1e-12)

    def test_invariants_on_random_fixtures(self):
        rng = random.Random(99)
        for _ in range(200):
            m = random_matrix(rng)
            accs = [acc_at(m, k) for k in range(1, m.attempts + 1)]
            tars = [tar_at(m, k) for k in range(1, m.attempts + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(tars, tars[1:]))
            assert cons_at(m, 1) == pytest.approx(acc_at(m, 1), abs=1e-12)
            assert tar_at(m, 1) == 1.0
            per_attempt = [per_attempt_accuracy(m, k) for k in range(1, m.attempts + 1)]
            assert mean_accuracy(m) == pytest.approx(
                sum(per_attempt) / len(per_attempt), abs=1e-12
            )
            for k in range(1, m.attempts + 1):
                assert acc_at(m, m.attempts) >= per_attempt[k - 1] - 1e-12


def simple_matrix(rows, labels=None, name="m"):
    n = len(rows)
    k = len(rows[0])
    return RunMatrix(
        backend_name=name,
        instance_ids=tuple(f"i{i}" for i in range(n)),
        labels=tuple(labels or ["CE"] * n),
        attempts=k,
        cells=tuple(
            tuple(
                Cell(answer_label="SAID_CE" if c else "SAID_YES", correct=bool(c))
                for c in row
            )
            for row in rows
        ),
    )


class TestDefinitionalCases:
    def test_all_correct_is_one(self):
        m = simple_matrix([[1, 1], [1, 1]])
        assert mean_accuracy(m) == 1.0

    def test_half_correct(self):
        m = simple_matrix([[1, 1], [0, 0]])
        assert mean_accuracy(m) == 0.5

    def test_k1_spread_zero(self):
        m = simple_matrix([[1], [0], [1]])
        assert accuracy_spread(m) == 0.0

    @pytest.mark.parametrize(
        "low,high,expected",
        [(757, 805, 0.048), (938, 947, 0.009)],
    )
    def test_spread_of_reference_attempt_ranges(self, low, high, expected):
        # two attempts over 1000 rows with exactly low/high successes
        rows = []
        for i in range(1000):
            rows.append([1 if i < high else 0, 1 if i < low else 0])
        m = simple_matrix(rows)
        assert accuracy_spread(m) == pytest.approx(expected, abs=1e-12)

    def test_acc_at_1_equals_first_attempt(self):
        m = simple_matrix([[0, 1], [1, 0], [0, 0]])
        assert acc_at(m, 1) == per_attempt_accuracy(m, 1)

    def test_instance_correct_only_at_attempt_5(self):
        m = simple_matrix([[0, 0, 0, 0, 1]])
        assert [acc_at(m, k) for k in range(1, 6)] == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_tar_k1_always_one(self):
        m = simple_matrix([[1, 0], [0, 1]])
        assert tar_at(m, 1) == 1.0

    def test_alternating_labels_tar_zero(self):
        m = simple_matrix([[1, 0, 1, 0]])
        assert tar_at(m, 2) == 0.0
        assert tar_at(m, 4) == 0.0

    def test_cons_majority_incorrect(self):
        # 2 correct + 3 identical incorrect answers: modal answer is wrong
        row = (
            Cell("SAID_CE", True),
            Cell("SAID_CE", True),
            Cell("SAID_YES", False),
            Cell("SAID_YES", False),
            Cell("SAID_YES", False),
        )
        m = RunMatrix(
            backend_name="m",
            instance_ids=("a",),
            labels=("CE",),
            attempts=5,
            cells=(row,),
        )
        assert cons_at(m, 5) == 0.0

    def test_cons_tie_scores_zero(self):
        m = simple_matrix([[1, 0]])
        assert cons_at(m, 2) == 0.0

    def test_category_split_restricted(self):
        m = simple_matrix([[1], [0], [1]], labels=["BC", "CE", "CE"])
        bc, ce = category_split(m, 1)
        assert bc == 1.0
        assert ce == 0.5

    def test_all_ce_corpus_has_no_bc_rate(self):
        m = simple_matrix([[1], [1]], labels=["CE", "CE"])
        bc, ce = category_split(m, 1)
        assert bc is None
        assert ce == 1.0

    def test_k_out_of_range(self):
        m = simple_matrix([[1]])
        with pytest.raises(KOutOfRange):
            acc_at(m, 2)
        with pytest.raises(KOutOfRange):
            tar_at(m, 0)

    def test_inconclusive_rows_dropped(self):
        rows = (
            (Cell("SAID_CE", True),),
            (Cell("SAID_CE", False, inconclusive=True),),
        )
        m = RunMatrix(
            backend_name="m",
            instance_ids=("a", "b"),
            labels=("CE", "CE"),
            attempts=1,
            cells=rows,
        )
        assert m.dropped_rows == 1
        assert mean_accuracy(m) == 1.0

    def test_empty_matrix_raises(self):
        rows = ((Cell("SAID_CE", True, inconclusive=True),),)
        m = RunMatrix(
            backend_name="m",
            instance_ids=("a",),
            labels=("CE",),
            attempts=1,
            cells=rows,
        )
        with pytest.raises(EmptyMatrix):
            mean_accuracy(m)


class TestUnionCoverage:
    def test_single_model(self):
        report = union_coverage({"a": {"x", "y"}})
        assert report.union_size == 2
        assert report.region("a") == 2

    def test_two_disjoint_sets(self):
        report = union_coverage({"a": {"1", "2", "3"}, "b": {"4", "5", "6", "7"}})
        assert report.union_size == 7
        assert report.region("a") == 3
        assert report.region("b") == 4
        assert report.region("a", "b") == 0

    def test_regions_partition_union(self):
        rng = random.Random(5)
        universe = [f"i{i}" for i in range(50)]
        solved = {
            name: {x for x in universe if rng.random() < p}
            for name, p in (("a", 0.5), ("b", 0.7), ("c", 0.3))
        }
        report = union_coverage(solved)
        assert sum(report.regions.values()) == report.union_size
        for name in solved:
            covered = sum(
                count for sig, count in report.regions.items() if name in sig
            )
            assert covered == len(solved[name])

    def test_removing_a_model_never_grows_union(self):
        solved = {"a": {"1", "2"}, "b": {"2", "3"}, "c": {"9"}}
        full = union_coverage(solved).union_size
        partial = union_coverage({k: v for k, v in solved.items() if k != "c"}).union_size
        assert partial <= full

    def test_mismatched_corpus(self):
        with pytest.raises(MismatchedCorpus):
            union_coverage({"a": {"x"}}, corpus_ids={"y"})


class TestMatrixFromOutcomes:
    def outcome(self, instance, attempt, correct, label="CE", backend="m", **kw):
        return {
            "backend_name": backend,
            "instance_id": instance,
            "attempt_index": attempt,
            "answer_label": "SAID_CE" if correct else "SAID_YES",
            "correct": correct,
            "ground_label": label,
            "variant_tag": kw.get("variant_tag", ""),
            "temperature": kw.get("temperature", ""),
            "inconclusive": kw.get("inconclusive", False),
        }

    def test_round_trip(self):
        records = [
            self.outcome("a", 1, True),
            self.outcome("a", 2, False),
            self.outcome("b", 1, False),
            self.outcome("b", 2, True),
        ]
        m = matrix_from_outcomes(records, "m")
        assert m.attempts == 2
        assert m.instance_ids == ("a", "b")
        assert acc_at(m, 2) == 1.0
        assert acc_at(m, 1) == 0.5

    def test_missing_attempt_raises(self):
        records = [self.outcome("a", 1, True), self.outcome("a", 3, True)]
        with pytest.raises(Exception):
            matrix_from_outcomes(records, "m")

    def test_metric_report_serializes(self, tmp_path):
        records = [
            self.outcome("a", 1, True, label="BC"),
            self.outcome("b", 1, False),
        ]
        m = matrix_from_outcomes(records, "m")
        report = metric_report(m)
        assert report.mean_accuracy == 0.5
        assert "acc_at" in report.to_json()
        csv_path = tmp_path / "metrics.csv"
        report.write_csv(csv_path)
        text = csv_path.read_text()
        assert text.splitlines()[0] == "metric,k,value"
        assert "mean_accuracy" in text
