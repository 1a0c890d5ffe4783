import pytest

from contexcert.errors import ContexcertError
from contexcert.tolerances import FixedTolerance, StatisticalTolerance, parse_policy


@pytest.mark.parametrize(
    "text, policy",
    [
        ("fixed:0.02", FixedTolerance(0.02)),
        ("fixed:0", FixedTolerance(0.0)),
        ("k-sigma:3", StatisticalTolerance(3.0)),
        ("k-sigma", StatisticalTolerance(3.0)),
        ("statistical:1e6", StatisticalTolerance(1e6)),
    ],
)
def test_finite_policies_parse(text, policy):
    assert parse_policy(text) == policy


@pytest.mark.parametrize(
    "text, message",
    [
        ("fixed:nan", "fixed tolerance must be finite, got nan"),
        ("fixed:inf", "fixed tolerance must be finite, got inf"),
        ("fixed:-inf", "fixed tolerance must be >= 0"),
        ("k-sigma:nan", "k-sigma tolerance requires a finite k, got nan"),
        ("k-sigma:inf", "k-sigma tolerance requires a finite k, got inf"),
        ("statistical:Infinity", "k-sigma tolerance requires a finite k, got inf"),
        ("k-sigma:-inf", "k-sigma tolerance requires k > 0"),
    ],
)
def test_non_finite_policies_are_refused(text, message):
    with pytest.raises(ContexcertError) as exc:
        parse_policy(text)
    assert str(exc.value) == message

