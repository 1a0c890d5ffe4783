"""Tolerance policies shared by the signaling, inequality, and randomness tests.

Two policies exist everywhere a verdict depends on finite-sample noise:

* ``FixedTolerance(epsilon)`` compares deviations against a constant.
* ``StatisticalTolerance(k)`` scales a binomial standard error by ``k``
  (the usual k-sigma significance rule); the error itself is computed by
  the consuming module from its own sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContexcertError


@dataclass(frozen=True)
class FixedTolerance:
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ContexcertError("fixed tolerance must be >= 0")
        if not math.isfinite(self.epsilon):
            raise ContexcertError(f"fixed tolerance must be finite, got {self.epsilon!r}")

    def describe(self) -> str:
        return f"fixed:{self.epsilon:g}"


@dataclass(frozen=True)
class StatisticalTolerance:
    k: float = 3.0

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ContexcertError("k-sigma tolerance requires k > 0")
        if not math.isfinite(self.k):
            raise ContexcertError(f"k-sigma tolerance requires a finite k, got {self.k!r}")

    def describe(self) -> str:
        return f"k-sigma:{self.k:g}"


TolerancePolicy = FixedTolerance | StatisticalTolerance


def parse_number(convert, token: str, context: str):
    """``convert(token)`` for ``int`` or ``float``; a token it cannot read
    raises a :class:`ContexcertError` that names it after ``context``."""
    try:
        return convert(token)
    except ValueError:
        raise ContexcertError(f"{context}: cannot read {token!r} as {convert.__name__}") from None


def parse_policy(text: str) -> TolerancePolicy:
    """Parse CLI policy syntax, e.g. ``fixed:0.01`` or ``k-sigma:3``."""
    name, sep, arg = text.partition(":")
    if name == "fixed":
        if not sep:
            raise ContexcertError("fixed policy needs a value, e.g. fixed:0.01")
        return FixedTolerance(parse_number(float, arg, f"tolerance policy {text!r}"))
    if name in ("k-sigma", "statistical"):
        if not sep:
            return StatisticalTolerance()
        return StatisticalTolerance(parse_number(float, arg, f"tolerance policy {text!r}"))
    raise ContexcertError(f"unknown tolerance policy {text!r}")


def resolve_tolerance(policy: TolerancePolicy, ksigma_fn) -> float:
    """The fixed epsilon, or ``ksigma_fn(k)`` under the statistical policy."""
    if isinstance(policy, FixedTolerance):
        return policy.epsilon
    return ksigma_fn(policy.k)


def binomial_sigma(p_hat: float, n: int) -> float:
    """Standard error of a frequency estimate p_hat over n trials."""
    if n <= 0:
        raise ContexcertError("sample size must be positive")
    p = min(max(p_hat, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n)


def correlation_sigma(corr: float, n: int) -> float:
    """Standard error of a +-1 product-mean estimate with value corr over n trials.

    The product a*b is itself a +-1 variable with mean corr, so the estimator
    variance is (1 - corr^2)/n.
    """
    if n <= 0:
        raise ContexcertError("sample size must be positive")
    c = min(max(corr, -1.0), 1.0)
    return math.sqrt((1.0 - c * c) / n)
