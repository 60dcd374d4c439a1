"""Paired-binary statistics: Wilson intervals, exact McNemar, Cochran's Q,
Holm correction.

The chi-square tail and normal quantile are implemented here rather than
imported, so results are bit-stable across platforms: the regularized
incomplete gamma function uses the classic series expansion for
x < a + 1 and a Lentz-style continued fraction otherwise, and the
quantile uses Acklam's rational approximation (|error| < 1.2e-8, well
inside the 1e-7 contract). The 95% two-sided quantile is pinned to
1.959964.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Z_95 = 1.959964


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class PairedCounts:
    """2x2 paired outcomes: both correct, A only, B only, neither."""

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        for v in (self.n11, self.n10, self.n01, self.n00):
            if v < 0:
                raise DomainError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    delta: float | None = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise DomainError(f"p-value {self.p_value} outside [0, 1]")


def wilson_ci(successes: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Two-sided Wilson score interval, clamped to [0, 1]."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 <= successes <= n:
        raise DomainError("successes must lie in [0, n]")
    if not 0.0 < confidence < 1.0:
        raise DomainError("confidence must lie in (0, 1)")
    z = Z_95 if confidence == 0.95 else normal_quantile(1.0 - (1.0 - confidence) / 2.0)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    # at the boundaries the score bound is analytically exact
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == n else min(1.0, center + half)
    return (lower, upper)


def mcnemar_exact(counts: PairedCounts) -> TestResult:
    """Two-sided exact binomial test on the discordant pairs.

    With d = n10 + n01 discordant pairs and b = min(n10, n01),
    p = min(1, 2 * P[Bin(d, 1/2) <= b]); d = 0 gives p = 1.
    """
    d = counts.n10 + counts.n01
    b = min(counts.n10, counts.n01)
    if d == 0:
        p = 1.0
    else:
        tail = sum(math.comb(d, i) for i in range(b + 1))
        p = min(1.0, 2.0 * tail / 2.0**d)
    delta = (counts.n10 - counts.n01) / counts.total if counts.total else 0.0
    return TestResult(statistic=float(b), p_value=p, delta=delta)


def cochran_q(outcomes: list[list[int]]) -> TestResult:
    """Cochran's Q over an N-by-M binary outcome matrix (M matched models).

    Q = (M-1) * (M * sum(C_j^2) - T^2) / (M * T - sum(R_i^2)) with column
    totals C_j, row totals R_i and grand total T; the p-value is the
    chi-square upper tail with M-1 degrees of freedom. When every row is
    constant Q is undefined: the result carries p = 1 and a degenerate
    flag instead of raising.
    """
    if not outcomes:
        raise DomainError("empty outcome matrix")
    m = len(outcomes[0])
    if m < 2:
        raise DomainError("Cochran's Q needs at least two models")
    for row in outcomes:
        if len(row) != m:
            raise DomainError("ragged outcome matrix")
        for v in row:
            if v not in (0, 1):
                raise DomainError("outcomes must be 0 or 1")
    col_totals = [sum(row[j] for row in outcomes) for j in range(m)]
    row_totals = [sum(row) for row in outcomes]
    grand = sum(row_totals)
    denominator = m * grand - sum(r * r for r in row_totals)
    if denominator == 0:
        return TestResult(statistic=0.0, p_value=1.0, degenerate=True)
    q = (m - 1) * (m * sum(c * c for c in col_totals) - grand * grand) / denominator
    return TestResult(statistic=q, p_value=chi2_sf(q, m - 1))


def holm_correct(p_values: list[float]) -> list[float]:
    """Holm-Bonferroni step-down adjustment, returned in input order."""
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p-value {p} outside [0, 1]")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        candidate = (m - rank) * p_values[idx]
        running = max(running, candidate)
        adjusted[idx] = min(1.0, running)
    return adjusted


# ------------------------------------------------------ special functions


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with df degrees of freedom."""
    if df < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 1.0
    return _regularized_gamma_q(df / 2.0, x / 2.0)


_GAMMA_EPS = 1e-15
_GAMMA_MAX_ITER = 500


def _regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma by its power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _regularized_gamma_q_cf(a: float, x: float) -> float:
    """Upper regularized incomplete gamma by continued fraction (x >= a + 1).

    Modified Lentz evaluation of the standard continued fraction.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _regularized_gamma_q(a: float, x: float) -> float:
    if x <= 0.0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, min(1.0, 1.0 - _regularized_gamma_p(a, x)))
    return max(0.0, min(1.0, _regularized_gamma_q_cf(a, x)))


# Acklam's inverse normal CDF approximation coefficients.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam), |error| < 1.2e-8."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile argument must lie in (0, 1)")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        return (
            (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
            * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
