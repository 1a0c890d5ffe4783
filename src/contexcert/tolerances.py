"""Tolerance policies shared by the signaling, inequality, and randomness tests.

Two policies exist everywhere a verdict depends on finite-sample noise:

* ``FixedTolerance(epsilon)`` compares deviations against a constant.
* ``StatisticalTolerance(k)`` scales a binomial standard error by ``k``
  (the usual k-sigma significance rule); the error itself is computed by
  the consuming module from its own sample sizes.

``RunConfig`` holds the policies and every other setting of a suite run,
with the validators of its fields, so that the CLI reads its defaults
without loading the suite.
"""

from __future__ import annotations

import math
import numbers
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


def require_nonnegative(value: float, name: str) -> None:
    """Refuse a ``value`` that is not finite and >= 0 with a
    :class:`ContexcertError` that names it after ``name``."""
    if not (math.isfinite(value) and value >= 0):
        raise ContexcertError(f"{name} must be finite and >= 0, got {value!r}")


def is_integer(value) -> bool:
    """An integer that is not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_seed(seed) -> None:
    """Refuse a seed that is not an integer of at least 0, which numpy's
    ``SeedSequence`` would refuse only when a generator is made from it."""
    if not is_integer(seed):
        raise ContexcertError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ContexcertError(f"seed must be non-negative, got {seed!r}")


def require_min_retained(min_retained) -> None:
    """Refuse a ``min_retained`` that is not an integer of at least 30."""
    if not is_integer(min_retained):
        raise ContexcertError(f"min_retained must be an integer, got {min_retained!r}")
    if min_retained < 30:
        raise ContexcertError("min_retained must be at least 30")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one suite run byte for byte; its defaults are the CLI's."""

    tolerance_policy: TolerancePolicy = StatisticalTolerance(3.0)
    randomness_policy: TolerancePolicy = StatisticalTolerance(4.0)
    seed: int = 0
    delta: float = 0.01
    zero_mean_tolerance: float = 0.05
    min_retained: int = 30

    def __post_init__(self) -> None:
        require_nonnegative(self.delta, "delta")
        require_nonnegative(self.zero_mean_tolerance, "zero_mean_tolerance")
        require_min_retained(self.min_retained)
        require_seed(self.seed)
        for name in ("seed", "min_retained"):  # a numpy integer would not reach JSON
            object.__setattr__(self, name, int(getattr(self, name)))

    def to_json(self) -> dict:
        """Every field, so a report names each setting its verdicts depend on."""
        policies = ("tolerance_policy", "randomness_policy")
        return {**vars(self), **{name: getattr(self, name).describe() for name in policies}}


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
