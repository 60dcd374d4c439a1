import math
import random

import pytest

from reforacle.stats import (
    DomainError,
    PairedCounts,
    chi2_sf,
    cochran_q,
    holm_correct,
    mcnemar_exact,
    normal_quantile,
    wilson_ci,
)


def cochran_reference(matrix):
    """Textbook Cochran Q via the deviation form, independent of stats.py."""
    m = len(matrix[0])
    col = [sum(row[j] for row in matrix) for j in range(m)]
    total = sum(col)
    mean = total / m
    numerator = m * (m - 1) * sum((c - mean) ** 2 for c in col)
    denominator = sum(sum(row) * (m - sum(row)) for row in matrix)
    if denominator == 0:
        return None
    return numerator / denominator


class TestWilson:
    @pytest.mark.parametrize(
        "successes,lower,upper",
        [
            (182, 0.749, 0.852),
            (212, 0.899, 0.963),
            (214, 0.909, 0.969),
            (225, 0.975, 0.999),
        ],
    )
    def test_reference_intervals(self, successes, lower, upper):
        low, high = wilson_ci(successes, 226, 0.95)
        assert low == pytest.approx(lower, abs=1e-3)
        assert high == pytest.approx(upper, abs=1e-3)

    def test_zero_successes_lower_bound_is_zero(self):
        low, high = wilson_ci(0, 10, 0.95)
        assert low == 0.0
        assert 0.0 < high < 1.0

    def test_brackets_point_estimate(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 500)
            s = rng.randint(0, n)
            low, high = wilson_ci(s, n, 0.95)
            assert low <= s / n <= high
            assert 0.0 <= low <= high <= 1.0

    def test_shrinks_with_n(self):
        w_small = wilson_ci(8, 10, 0.95)
        w_large = wilson_ci(800, 1000, 0.95)
        assert (w_large[1] - w_large[0]) < (w_small[1] - w_small[0])

    def test_other_confidence_uses_quantile(self):
        low99, high99 = wilson_ci(50, 100, 0.99)
        low95, high95 = wilson_ci(50, 100, 0.95)
        assert (high99 - low99) > (high95 - low95)

    @pytest.mark.parametrize("args", [(-1, 10, 0.95), (11, 10, 0.95), (5, 0, 0.95), (5, 10, 1.5)])
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            wilson_ci(*args)


class TestMcNemar:
    @pytest.mark.parametrize(
        "counts,p_expected,delta_expected",
        [
            ((169, 13, 43, 1), 7.33e-5, -0.133),
            ((174, 8, 40, 4), 3.31e-6, -0.142),
            ((202, 10, 12, 2), 0.832, -0.009),
        ],
    )
    def test_reference_pairs(self, counts, p_expected, delta_expected):
        result = mcnemar_exact(PairedCounts(*counts))
        assert result.p_value == pytest.approx(p_expected, rel=0.01)
        assert result.delta == pytest.approx(delta_expected, abs=1e-3)

    def test_no_discordance(self):
        result = mcnemar_exact(PairedCounts(n11=5, n10=0, n01=0, n00=3))
        assert result.p_value == 1.0
        assert result.delta == 0.0

    def test_symmetry_under_swap(self):
        rng = random.Random(3)
        for _ in range(100):
            counts = PairedCounts(
                n11=rng.randint(0, 50),
                n10=rng.randint(0, 30),
                n01=rng.randint(0, 30),
                n00=rng.randint(0, 50),
            )
            a = mcnemar_exact(counts)
            swapped = PairedCounts(
                n11=counts.n11, n10=counts.n01, n01=counts.n10, n00=counts.n00
            )
            b = mcnemar_exact(swapped)
            assert a.p_value == pytest.approx(b.p_value, abs=1e-15)
            if counts.total:
                assert a.delta == pytest.approx(-b.delta, abs=1e-15)

    def test_matches_binomial_definition(self):
        # d = 6, b = 2: p = 2 * (C(6,0)+C(6,1)+C(6,2)) / 64 = 2 * 22 / 64
        result = mcnemar_exact(PairedCounts(n11=0, n10=2, n01=4, n00=0))
        assert result.p_value == pytest.approx(2 * 22 / 64)

    def test_capped_at_one(self):
        result = mcnemar_exact(PairedCounts(n11=0, n10=3, n01=3, n00=0))
        assert result.p_value <= 1.0


class TestCochranQ:
    def test_against_reference_on_random_matrices(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            m = rng.randint(2, 4)
            matrix = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            expected = cochran_reference(matrix)
            result = cochran_q(matrix)
            if expected is None:
                assert result.degenerate
                assert result.p_value == 1.0
            else:
                assert result.statistic == pytest.approx(expected, abs=1e-9)
                checked += 1
        assert checked > 100  # the generator must exercise the main path

    def test_row_and_column_permutation_invariance(self):
        rng = random.Random(9)
        matrix = [[rng.randint(0, 1) for _ in range(3)] for _ in range(10)]
        base = cochran_q(matrix)
        rows = matrix[::-1]
        cols = [[row[2], row[0], row[1]] for row in matrix]
        assert cochran_q(rows).statistic == pytest.approx(base.statistic, abs=1e-12)
        assert cochran_q(cols).statistic == pytest.approx(base.statistic, abs=1e-12)

    def test_identical_columns_degenerate(self):
        result = cochran_q([[1, 1], [0, 0], [1, 1]])
        assert result.degenerate
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_hand_computed_4x2(self):
        matrix = [[1, 0], [1, 0], [1, 1], [0, 1]]
        # col totals 3, 2; T = 5; rows: 1,1,2,1
        # Q = 1 * (2*(9+4) - 25) / (2*5 - (1+1+4+1)) = 1 / 3
        result = cochran_q(matrix)
        assert result.statistic == pytest.approx(1 / 3, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cochran_q([])
        with pytest.raises(DomainError):
            cochran_q([[1]])
        with pytest.raises(DomainError):
            cochran_q([[1, 2]])


class TestHolm:
    def test_reference_adjustment(self):
        raw = [7.33322e-05, 3.30527e-06, 0.831812]
        adjusted = holm_correct(raw)
        assert adjusted[0] == pytest.approx(1.47e-4, rel=0.01)
        assert adjusted[1] == pytest.approx(9.92e-6, rel=0.01)
        assert adjusted[2] == pytest.approx(0.832, rel=0.01)

    def test_single_p_unchanged(self):
        assert holm_correct([0.37]) == [0.37]

    def test_ties_clamp_to_one(self):
        # sorted x {3,2,1} = {1.5, 1.0, 0.5}; step-up then clamps all to 1.0
        assert holm_correct([0.5, 0.5, 0.5]) == [1.0, 1.0, 1.0]

    def test_pointwise_not_below_input_and_order_preserved(self):
        rng = random.Random(11)
        for _ in range(100):
            ps = [rng.random() for _ in range(rng.randint(1, 8))]
            adjusted = holm_correct(ps)
            for raw, adj in zip(ps, adjusted):
                assert adj >= raw - 1e-15
            ranked = sorted(range(len(ps)), key=lambda i: ps[i])
            for a, b in zip(ranked, ranked[1:]):
                assert adjusted[a] <= adjusted[b] + 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            holm_correct([0.5, 1.5])


class TestSpecialFunctions:
    def test_chi2_sf_reference_points(self):
        # textbook chi-square critical values
        assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
        assert chi2_sf(5.991464547107979, 2) == pytest.approx(0.05, abs=1e-9)
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(30.60, 2) == pytest.approx(2.26618e-7, rel=1e-4)

    def test_chi2_sf_monotone_in_x(self):
        values = [chi2_sf(x / 2, 3) for x in range(0, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_normal_quantile_symmetry_and_known_points(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        for p in (0.01, 0.1, 0.3):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-8)

    def test_normal_quantile_round_trip(self):
        # Phi(quantile(p)) == p using an erf-based CDF
        for p in (0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999):
            z = normal_quantile(p)
            cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert cdf == pytest.approx(p, abs=1e-7)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)
