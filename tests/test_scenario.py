import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert.errors import ContexcertError
from contexcert.quantumgen import (
    DensityState,
    planar_observable,
    sample_quantum_dataset,
    singlet_state,
)
from contexcert.scenario import (
    CorrelationSet,
    Dataset,
    IncompatibleSetting,
    NonDichotomous,
    NotSubset,
    Observable,
    OutcomeRecord,
    ProbTable,
    Scenario,
    UnknownSetting,
    WrongArity,
    correlation,
    correlation_set,
    encode_rows,
    estimate_table,
    marginalize,
)


def two_obs_scenario():
    return Scenario(
        observables=(Observable("A"), Observable("B"), Observable("C")),
        compatible_sets=(frozenset({"A", "B"}), frozenset({"A", "C"})),
    )


def records(setting, rows):
    return [OutcomeRecord(setting, row) for row in rows]


class TestScenarioStructure:
    def test_singletons_implicitly_compatible(self):
        s = two_obs_scenario()
        assert s.is_compatible(("A",))
        assert s.is_compatible(("C",))

    def test_compatibility_closed_under_subsets(self):
        s = Scenario(
            observables=(Observable("A"), Observable("B"), Observable("C")),
            compatible_sets=(frozenset({"A", "B", "C"}),),
        )
        for r in (1, 2, 3):
            for ids in product("ABC", repeat=r):
                if len(set(ids)) == r:
                    assert s.is_compatible(ids)

    def test_unknown_id_in_compatible_set(self):
        with pytest.raises(ContexcertError):
            Scenario(
                observables=(Observable("A"),),
                compatible_sets=(frozenset({"A", "Z"}),),
            )

    def test_alphabet_must_be_distinct(self):
        with pytest.raises(ContexcertError):
            Observable("A", (1, 1))


class TestEstimateTable:
    def test_direct_counting(self):
        s = two_obs_scenario()
        ds = Dataset(s, records(("A", "B"), [(1, 1), (1, 1), (-1, -1), (-1, -1)]))
        t = estimate_table(ds, ("A", "B"))
        assert t.prob((1, 1)) == 0.5
        assert t.prob((-1, -1)) == 0.5
        assert t.prob((1, -1)) == 0
        assert t.prob((-1, 1)) == 0
        assert t.sample_size == 4

    def test_single_record(self):
        s = two_obs_scenario()
        ds = Dataset(s, records(("A", "B"), [(1, 1)]))
        t = estimate_table(ds, ("A", "B"))
        assert t.prob((1, 1)) == 1.0
        assert sum(t.probs.values()) == 1.0

    def test_uniform_product_sampling_seed_42(self):
        # binomial standard error at N=10000, p=0.25 is ~0.0043; 0.02 is ~4.6 sigma
        mixed = DensityState(np.eye(4) / 4.0)
        a = planar_observable("A", 0.0, qubit=0)
        b = planar_observable("B", 0.0, qubit=1)
        ds = sample_quantum_dataset(mixed, [((a, b), 10000)], seed=42)
        t = estimate_table(ds, ("A", "B"))
        for cell in t.cells():
            assert abs(t.prob(cell) - 0.25) < 0.02

    def test_order_insensitive_and_canonicalized(self):
        s = two_obs_scenario()
        ds = Dataset(
            s,
            records(("A", "B"), [(1, -1)]) + records(("B", "A"), [(-1, 1)]),
        )
        t = estimate_table(ds, ("B", "A"))
        assert t.support == ("A", "B")
        assert t.prob((1, -1)) == 1.0

    def test_zero_count_raises(self):
        s = two_obs_scenario()
        ds = Dataset(s, records(("A", "B"), [(1, 1)]))
        with pytest.raises(UnknownSetting):
            estimate_table(ds, ("A", "C"))

    def test_incompatible_setting_raises(self):
        s = two_obs_scenario()
        ds = Dataset(s, records(("A", "B"), [(1, 1)]))
        with pytest.raises(IncompatibleSetting):
            estimate_table(ds, ("B", "C"))


INT_VALUES = st.integers(-3, 3)
STR_VALUES = st.sampled_from(["a", "b", "up", "-1", "1"])


@st.composite
def scenario_and_blocks(draw, values):
    """A scenario over 1-3 observables, all jointly measurable, and blocks of
    outcome rows whose settings list the observables in any order."""
    n_obs = draw(st.integers(1, 3))
    ids = tuple(f"X{i}" for i in range(n_obs))
    alphabets = {
        obs: tuple(draw(st.lists(values, min_size=1, max_size=3, unique=True)))
        for obs in ids
    }
    scenario = Scenario(
        tuple(Observable(obs, alphabets[obs]) for obs in ids), (frozenset(ids),)
    )
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        order = tuple(draw(st.permutations(ids)))
        row = st.tuples(*(st.sampled_from(alphabets[obs]) for obs in order))
        blocks.append((order, draw(st.lists(row, max_size=30))))
    return scenario, blocks, tuple(draw(st.permutations(ids)))


class TestEstimateTableProperty:
    @pytest.mark.parametrize(
        "values",
        [INT_VALUES, STR_VALUES, st.one_of(INT_VALUES, STR_VALUES)],
        ids=["int", "str", "mixed"],
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_counter_recount(self, values, data):
        scenario, blocks, query = data.draw(scenario_and_blocks(values))
        ds = Dataset.from_rows(scenario, [(order, row) for order, rows in blocks for row in rows])
        canonical = scenario.canonical_setting(query)
        recount = Counter(
            tuple(row[order.index(obs)] for obs in canonical)
            for order, rows in blocks
            for row in rows
        )
        total = sum(recount.values())
        if total == 0:
            with pytest.raises(UnknownSetting):
                estimate_table(ds, query)
            return
        table = estimate_table(ds, query)
        assert table.support == canonical
        assert table.sample_size == total
        assert table.probs == {cell: n / total for cell, n in recount.items()}
        # ascending outcome-value order, numbers before strings
        assert list(table.probs) == sorted(
            recount, key=lambda cell: [(isinstance(v, str), v) for v in cell]
        )
        assert list(ds) == [OutcomeRecord(order, row) for order, rows in blocks for row in rows]


class TestMarginalize:
    def test_row_sums(self):
        t = ProbTable(("A", "B"), {(1, 1): 0.5, (-1, -1): 0.5}, ((1, -1), (1, -1)))
        m = marginalize(t, ("A",))
        assert m.prob((1,)) == 0.5
        assert m.prob((-1,)) == 0.5

    def test_identity(self):
        t = ProbTable(("A", "B"), {(1, 1): 0.5, (-1, -1): 0.5}, ((1, -1), (1, -1)))
        assert marginalize(t, ("A", "B")) == t

    def test_quadrupole_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        w = rng.random(16)
        w /= w.sum()
        support = ("A1", "A2", "B1", "B2")
        cells = list(product((1, -1), repeat=4))
        t = ProbTable(support, dict(zip(cells, w)), ((1, -1),) * 4)
        m = marginalize(t, ("A1", "B1"))
        for a1, b1 in product((1, -1), repeat=2):
            brute = sum(
                t.prob((a1, a2, b1, b2)) for a2, b2 in product((1, -1), repeat=2)
            )
            assert math.isclose(m.prob((a1, b1)), brute, abs_tol=1e-15)

    def test_commutes(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = rng.random(8)
            w /= w.sum()
            cells = list(product((1, -1), repeat=3))
            t = ProbTable(("A", "B", "C"), dict(zip(cells, w)), ((1, -1),) * 3)
            via_ab = marginalize(marginalize(t, ("A", "B")), ("A",))
            direct = marginalize(t, ("A",))
            for v in (1, -1):
                assert math.isclose(via_ab.prob((v,)), direct.prob((v,)), abs_tol=1e-15)

    def test_not_subset(self):
        t = ProbTable(("A",), {(1,): 1.0}, ((1, -1),))
        with pytest.raises(NotSubset):
            marginalize(t, ("B",))
        with pytest.raises(NotSubset):
            marginalize(t, ())


class TestCorrelation:
    def test_perfect(self):
        t = ProbTable(("A", "B"), {(1, 1): 0.5, (-1, -1): 0.5}, ((1, -1), (1, -1)))
        assert correlation(t) == 1.0

    def test_uniform(self):
        cells = {c: 0.25 for c in product((1, -1), repeat=2)}
        t = ProbTable(("A", "B"), cells, ((1, -1), (1, -1)))
        assert correlation(t) == 0.0

    def test_hand_sum(self):
        # 0.4 - 0.1 - 0.1 + 0.4 = 0.6
        t = ProbTable(
            ("A", "B"),
            {(1, 1): 0.4, (1, -1): 0.1, (-1, 1): 0.1, (-1, -1): 0.4},
            ((1, -1), (1, -1)),
        )
        assert math.isclose(correlation(t), 0.6, abs_tol=1e-15)

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.random(4)
            w /= w.sum()
            cells = list(product((1, -1), repeat=2))
            t = ProbTable(("A", "B"), dict(zip(cells, w)), ((1, -1), (1, -1)))
            c = correlation(t)
            assert -1.0 <= c <= 1.0
            mass_aligned = t.prob((1, 1)) + t.prob((-1, -1))
            assert (abs(c) == 1.0) == (mass_aligned in (0.0, 1.0))

    def test_wrong_arity(self):
        t = ProbTable(("A",), {(1,): 1.0}, ((1, -1),))
        with pytest.raises(WrongArity):
            correlation(t)

    def test_non_dichotomous(self):
        t = ProbTable(("A", "B"), {(0, 1): 1.0}, ((0, 1), (1, -1)))
        with pytest.raises(NonDichotomous):
            correlation(t)

    def test_exact_fraction_table(self):
        half = Fraction(1, 2)
        t = ProbTable(("A", "B"), {(1, 1): half, (-1, -1): half}, ((1, -1), (1, -1)))
        assert t.is_exact
        assert correlation(t) == 1


class TestCorrelationSet:
    def test_single_pair(self):
        s = two_obs_scenario()
        ds = Dataset(s, records(("A", "B"), [(1, 1), (-1, -1)]))
        cs = correlation_set(ds, [("A", "B")])
        assert cs.value("A", "B") == 1.0
        assert cs.means["A"] == 0.0
        assert cs.sample_size("A", "B") == 2

    def test_empty(self):
        cs = correlation_set(Dataset(two_obs_scenario()), [])
        assert not cs.entries

    def test_singlet_angles_zero_pi(self):
        a = planar_observable("A", 0.0, qubit=0)
        b = planar_observable("B", math.pi, qubit=1)
        ds = sample_quantum_dataset(singlet_state(), [((a, b), 100_000)], seed=7)
        cs = correlation_set(ds, [("A", "B")])
        assert abs(cs.value("A", "B") - 1.0) < 0.02

    def test_mean_candidates_recorded(self):
        s = two_obs_scenario()
        ds = Dataset(
            s,
            records(("A", "B"), [(1, 1), (1, -1)])
            + records(("A", "C"), [(-1, 1), (-1, -1)]),
        )
        cs = correlation_set(ds, [("A", "B"), ("A", "C")])
        assert len(cs.mean_candidates["A"]) == 2
        assert cs.means["A"] == 1.0  # first table encountered wins

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.5])
    def test_non_finite_or_out_of_range_refused(self, value):
        # a NaN correlation once reached chsh_test as a NaN statistic and
        # dumps_json wrote it as NaN, which is not JSON
        key = frozenset(("A", "B"))
        with pytest.raises(ContexcertError, match="outside"):
            CorrelationSet(entries={key: value})
        with pytest.raises(ContexcertError, match="outside"):
            CorrelationSet(entries={key: 0.0}, means={"A": value})
        with pytest.raises(ContexcertError, match="outside"):
            CorrelationSet(
                entries={key: 0.0}, means={"A": 0.0}, mean_candidates={"A": ((key, value),)}
            )


class TestTableInvariants:
    def test_normalization_enforced(self):
        with pytest.raises(ContexcertError):
            ProbTable(("A",), {(1,): 0.6, (-1,): 0.6}, ((1, -1),))

    def test_negative_rejected(self):
        with pytest.raises(ContexcertError):
            ProbTable(("A",), {(1,): 1.2, (-1,): -0.2}, ((1, -1),))

    @pytest.mark.parametrize(
        "probs, total",
        [
            ({(1,): Fraction(1, 3), (-1,): Fraction(1, 2)}, Fraction(5, 6)),
            ({(1,): 1, (-1,): 1}, Fraction(2)),
            ({}, Fraction(0)),
        ],
        ids=["fractions", "ints", "empty"],
    )
    def test_exact_normalization_message(self, probs, total):
        message = f"table not normalized: sum = {total!r}"
        with pytest.raises(ContexcertError, match=f"^{re.escape(message)}$"):
            ProbTable(("A",), probs, ((1, -1),))

    def test_exact_sum_within_tolerance(self):
        # an exact sum off 1 by less than NORMALIZATION_TOL passes, as a float one does
        ProbTable(("A",), {(1,): Fraction(1, 3), (-1,): Fraction(2, 3) + Fraction(1, 10**13)}, ((1, -1),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        kind = "negative" if value < 0 else "non-finite"
        with pytest.raises(ContexcertError, match=f"^{kind} probability {value!r} at \\(1,\\)$"):
            ProbTable(("A",), {(1,): value, (-1,): 0.5}, ((1, -1),))

    @pytest.mark.parametrize(
        "probs, message",
        [
            ({(1, 2): 1.0}, "outcome tuple (1, 2) outside alphabet product"),
            ({(1,): 1.0}, "outcome tuple (1,) outside alphabet product"),
            ({(1, 1): 1.5, (-1, -1): -0.5}, "negative probability -0.5 at (-1, -1)"),
            ({(1, 1): 2, (-1, -1): -1}, "negative probability -1 at (-1, -1)"),
            (
                {(1, 1): Fraction(3, 2), (-1, -1): Fraction(-1, 2)},
                "negative probability Fraction(-1, 2) at (-1, -1)",
            ),
            ({(1, 1): Fraction(1), (-1, -1): -math.inf}, "negative probability -inf at (-1, -1)"),
            ({(1, 1): math.nan, (-1, -1): 0.5}, "non-finite probability nan at (1, 1)"),
            ({(1, 1): Fraction(1), (-1, -1): math.inf}, "non-finite probability inf at (-1, -1)"),
            (
                {(1, 1): 0.5, (-1, -1): np.float64(math.inf)},
                "non-finite probability np.float64(inf) at (-1, -1)",
            ),
        ],
        ids=["outside", "arity", "negative", "negative-int", "negative-fraction", "minus-inf", "nan", "inf", "numpy-inf"],
    )
    def test_cell_checks_on_shared_alphabet(self, probs, message):
        # a valid table first, so the faulty one meets the alphabets' cells
        # as a table built earlier left them
        alphabets = ((1, -1), (1, -1))
        ProbTable(("A", "B"), {(1, 1): 1.0}, alphabets)
        with pytest.raises(ContexcertError, match=f"^{re.escape(message)}$"):
            ProbTable(("A", "B"), probs, alphabets)

    @pytest.mark.parametrize("alphabet", [(1, -1), (True, -1), (1.0, -1)])
    def test_bool_and_int_cells_interchange(self, alphabet):
        # True == 1 and hash(True) == hash(1): each names the other's cell
        for key in [(1,), (True,), (1.0,)]:
            table = ProbTable(("A",), {key: 1.0}, (alphabet,))
            assert table.prob((1,)) == table.prob((True,)) == 1.0
            assert type(next(iter(table.probs))[0]) is type(key[0])
        with pytest.raises(ContexcertError, match="outside alphabet product"):
            ProbTable(("A",), {(2,): 1.0}, (alphabet,))

    def test_estimate_then_marginalize_equals_projected_counts(self):
        s = Scenario(
            observables=(Observable("A"), Observable("B"), Observable("C")),
            compatible_sets=(frozenset({"A", "B", "C"}),),
        )
        rng = np.random.default_rng(8)
        rows = [tuple(rng.choice((1, -1), size=3)) for _ in range(200)]
        ds = Dataset(s, records(("A", "B", "C"), rows))
        t3 = estimate_table(ds, ("A", "B", "C"))
        m = marginalize(t3, ("A", "B"))
        # count-level oracle: project the raw records and recount
        from collections import Counter

        projected = Counter((r[0], r[1]) for r in rows)
        for cell, count in projected.items():
            assert math.isclose(m.prob(cell), count / 200, abs_tol=1e-15)


class TestDataset:
    def test_records_roundtrip_iteration(self):
        s = two_obs_scenario()
        recs = records(("A", "B"), [(1, 1), (-1, 1)]) + records(("A", "C"), [(1, -1)])
        ds = Dataset(s, recs)
        assert list(ds) == recs
        assert len(ds) == 3
        assert ds.settings() == (("A", "B"), ("A", "C"))

    def test_invalid_record_rejected(self):
        s = two_obs_scenario()
        with pytest.raises(ContexcertError):
            Dataset(s, [OutcomeRecord(("A", "B"), (2, 1))])
        with pytest.raises(IncompatibleSetting):
            Dataset(s, [OutcomeRecord(("B", "C"), (1, 1))])

    def test_interleaved_records_are_encoded_once_per_setting(self, monkeypatch):
        # Dataset(records) used to encode each run of equal settings in its own call
        s = two_obs_scenario()
        rng = random.Random(1)
        ordered = [
            OutcomeRecord(setting, (rng.choice((1, -1)), rng.choice((1, -1))))
            for setting in (("A", "B"), ("A", "C"), ("C", "A"))
            for _ in range(100)
        ]
        shuffled = rng.sample(ordered, len(ordered))
        calls = []

        def counting_encode_rows(scenario, setting, rows):
            calls.append(setting)
            return encode_rows(scenario, setting, rows)

        monkeypatch.setattr("contexcert.scenario.encode_rows", counting_encode_rows)
        ds = Dataset(s, shuffled)
        assert calls == list(dict.fromkeys(rec.setting for rec in shuffled))
        assert list(ds) == shuffled and ds.cells.dtype == np.uint8
        for setting in (("A", "B"), ("A", "C")):
            assert estimate_table(ds, setting) == estimate_table(Dataset(s, ordered), setting)

    @pytest.mark.parametrize(
        "turn, row, message",
        [(0, 4, "outcome 2 not in alphabet of C"), (5, 1, "outcome 5 not in alphabet of A")],
    )
    def test_the_first_faulty_record_is_named(self, turn, row, message):
        # records 4 and 7 (A+C) and 6 (A+B) are faulty; turned by ``turn`` places
        s = two_obs_scenario()
        recs = records(("A", "B"), [(1, 1)] * 3) + records(("A", "C"), [(1, 1), (1, 2)])
        recs += records(("A", "B"), [(1, 1), (5, 1)]) + records(("A", "C"), [(3, 1)])
        with pytest.raises(ContexcertError) as exc:
            Dataset(s, recs[turn:] + recs[:turn])
        assert (str(exc.value), exc.value.row) == (message, row)

    def test_encode_rows_validates_an_outcome_matrix(self):
        s = two_obs_scenario()
        with pytest.raises(ContexcertError):
            encode_rows(s, ("A", "B"), np.array([[1, 2]]))
