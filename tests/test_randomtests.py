import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert import randomtests
from contexcert.errors import ContexcertError
from contexcert.randomtests import (
    AllSelectionsInconclusive,
    BadCheckpoints,
    EmptySelection,
    LabelSequence,
    PlaceSelection,
    Prefix,
    RandomnessReport,
    SelectionResult,
    UnknownLabel,
    apply_selection,
    frequency,
    frequencies,
    randomness_test,
    selection_mask,
    stabilization_profile,
)
from contexcert.tolerances import (
    FixedTolerance,
    StatisticalTolerance,
    binomial_sigma,
    resolve_tolerance,
)


def coin_sequence(n, seed, bias=0.5):
    rng = np.random.default_rng(seed)
    values = tuple(int(v) for v in (rng.random(n) < bias).astype(int))
    return LabelSequence((0, 1), values)


def alternating(n, start=0):
    return LabelSequence((0, 1), tuple((start + i) % 2 for i in range(n)))


BATTERY = [
    PlaceSelection.prime_index(),
    PlaceSelection.after_pattern((0, 1)),
    PlaceSelection.index_arithmetic(2, 0),
    PlaceSelection.external_coin(seed=99),
]


class TestFrequency:
    def test_all_zeros(self):
        seq = LabelSequence((0, 1), (0,) * 50)
        assert frequency(seq, 0) == 1.0
        assert frequency(seq, 1) == 0.0

    def test_alternating(self):
        assert frequency(alternating(100), 1) == 0.5

    def test_seeded_coin_within_3_sigma(self):
        seq = coin_sequence(100_000, seed=1)
        assert abs(frequency(seq, 1) - 0.5) < 0.005

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            frequency(alternating(10), 2)


class TestStabilizationProfile:
    def test_constant(self):
        seq = LabelSequence((1,), (1,) * 100)
        assert stabilization_profile(seq, 1, [10, 50, 100]) == [
            (10, 1.0),
            (50, 1.0),
            (100, 1.0),
        ]

    def test_alternating(self):
        profile = stabilization_profile(alternating(1000), 1, [10, 100, 1000])
        assert all(f == 0.5 for _, f in profile)

    def test_coin_converges(self):
        seq = coin_sequence(100_000, seed=2)
        profile = stabilization_profile(seq, 1, [100, 1000, 10_000, 100_000])
        deviations = [abs(f - 0.5) for _, f in profile]
        assert deviations[-1] < 0.005

    def test_bad_checkpoints(self):
        with pytest.raises(BadCheckpoints):
            stabilization_profile(alternating(10), 1, [5, 3])
        with pytest.raises(BadCheckpoints):
            stabilization_profile(alternating(10), 1, [20])

    @pytest.mark.parametrize("checkpoints", [[2.5, 4], [True, 4], [2, 4.0], ["3"], [np.float64(2)]])
    def test_non_integer_checkpoints_refused(self, checkpoints):
        bad = next(c for c in checkpoints if type(c) is not int)
        with pytest.raises(BadCheckpoints, match=f"^checkpoints must be integers, got {re.escape(repr(bad))}$"):
            stabilization_profile(alternating(10), 1, checkpoints)

    def test_numpy_integer_checkpoints(self):
        profile = stabilization_profile(alternating(10), 1, np.array([2, 5], dtype=np.int16))
        assert profile == [(2, 0.5), (5, 0.4)]


class TestApplySelection:
    def test_prime_positions(self):
        seq = LabelSequence(tuple(range(10)), tuple(range(10)))
        out = apply_selection(seq, PlaceSelection.prime_index())
        # 1-based positions 2, 3, 5, 7 hold values 1, 2, 4, 6
        assert out.values == (1, 2, 4, 6)

    def test_after_pattern_hand_simulation(self):
        # alternation 0,1,0,1,...: every "01" is followed by 0
        seq = alternating(10)
        out = apply_selection(seq, PlaceSelection.after_pattern((0, 1)))
        assert out.values == (0, 0, 0, 0)
        # positions 3, 5, 7, 9 follow the occurrences at (1,2), (3,4), ...
        mask = selection_mask(seq, PlaceSelection.after_pattern((0, 1)))
        assert list(np.flatnonzero(mask) + 1) == [3, 5, 7, 9]

    def test_external_coin_reproducible_and_near_half(self):
        seq = coin_sequence(10_000, seed=3)
        sel = PlaceSelection.external_coin(seed=5, bias=0.5)
        out1 = apply_selection(seq, sel)
        out2 = apply_selection(seq, sel)
        assert out1.values == out2.values
        assert abs(len(out1) / len(seq) - 0.5) < 0.02

    @pytest.mark.parametrize("seed", [-1, np.int64(-2)])
    def test_external_coin_refuses_a_negative_seed(self, seed):
        # numpy's SeedSequence refused it only when the mask was drawn
        with pytest.raises(ContexcertError, match=f"^seed must be non-negative, got {re.escape(repr(seed))}$"):
            PlaceSelection.external_coin(seed)

    def test_mod_selection(self):
        out = apply_selection(alternating(10), PlaceSelection.index_arithmetic(2, 0))
        assert out.values == (1, 1, 1, 1, 1)

    def test_mod_mask_matches_position_arithmetic(self):
        for n in range(1, 40):
            seq = LabelSequence((0,), (0,) * n)
            for modulus in range(1, 13):
                for residue in range(modulus):
                    sel = PlaceSelection.index_arithmetic(modulus, residue)
                    assert selection_mask(seq, sel).tolist() == _reference_mod_mask(n, modulus, residue).tolist()

    @pytest.mark.parametrize("modulus, residue", [(2.5, 0), (True, 0), (2, 0.0), (2, False), ("2", 0)])
    def test_mod_selection_needs_integers(self, modulus, residue):
        with pytest.raises(ContexcertError, match="^modulus and residue must be integers"):
            PlaceSelection.index_arithmetic(modulus, residue)

    @pytest.mark.parametrize("residue", [0, 1, 2])
    def test_mod_selection_takes_numpy_integers(self, residue):
        sel = PlaceSelection.index_arithmetic(np.int64(3), np.uint8(residue))
        assert sel.description == f"positions n = {residue} (mod 3)"
        assert selection_mask(alternating(7), sel).tolist() == _reference_mod_mask(7, 3, residue).tolist()

    def test_empty_selection(self):
        seq = LabelSequence((0, 1), (0,))
        with pytest.raises(EmptySelection):
            apply_selection(seq, PlaceSelection.prime_index())

    def test_custom_prefix_is_a_view(self):
        seen = []
        sel = PlaceSelection.custom(lambda n, prefix: seen.append(prefix) or True, "all")
        selection_mask(LabelSequence((0, 1), (1, 0, 1)), sel)
        assert [len(p) for p in seen] == [0, 1, 2]
        prefix = seen[2]
        assert not isinstance(prefix, tuple)
        assert prefix == (1, 0) and (1, 0) == prefix and prefix != (1, 0, 1)
        assert prefix == Prefix((1, 0, 7), 2) and hash(prefix) == hash((1, 0))
        assert prefix[-1] == 0 and prefix[:5] == (1, 0) and prefix[::-1] == (0, 1)
        for bad in (2, -3):
            with pytest.raises(IndexError):
                prefix[bad]
        with pytest.raises(TypeError):
            prefix[1.0]
        with pytest.raises(ValueError):
            prefix.index(7)

    def test_custom_prefix_only(self):
        # retain when the prefix contains an even number of ones
        sel = PlaceSelection.custom(
            lambda n, prefix: sum(prefix) % 2 == 0, "even ones in prefix"
        )
        seq = LabelSequence((0, 1), (1, 1, 0, 1, 0))
        mask = selection_mask(seq, sel)
        assert list(mask) == [True, False, True, True, False]


class TestPrefixCausality:
    def test_truncation_replay(self):
        seq = coin_sequence(500, seed=7)
        for sel in BATTERY:
            full = selection_mask(seq, sel)
            for cut in (100, 250, 499):
                prefix = LabelSequence(seq.labels, seq.values[:cut])
                partial = selection_mask(prefix, sel)
                assert (partial == full[:cut]).all(), sel.description


class TestComposition:
    def test_frequency_over_retained_multiset(self):
        seq = coin_sequence(5000, seed=9)
        for sel in BATTERY:
            out = apply_selection(seq, sel)
            from collections import Counter

            counts = Counter(out.values)
            for label in seq.labels:
                assert frequency(out, label) == counts[label] / len(out)


class TestRandomnessTest:
    def test_alternation_fails_mod_2(self):
        report = randomness_test(
            alternating(10_000),
            [PlaceSelection.index_arithmetic(2, 0)],
            StatisticalTolerance(4.0),
        )
        assert report.verdict == "failed"
        sel = report.per_selection[0]
        assert math.isclose(sel.max_deviation, 0.5, abs_tol=1e-12)
        assert sel.status == "deviant"

    def test_fair_coin_passes_battery(self):
        seq = coin_sequence(100_000, seed=11)
        report = randomness_test(seq, BATTERY, StatisticalTolerance(4.0))
        assert report.verdict == "passed"
        assert all(r.status == "ok" for r in report.per_selection)

    def test_constant_sequence_passes_with_note(self):
        seq = LabelSequence((0, 1), (0,) * 1000)
        report = randomness_test(seq, BATTERY, StatisticalTolerance(4.0))
        assert report.verdict == "passed"
        assert any("degenerate" in note for note in report.notes)

    def test_short_retention_inconclusive(self):
        seq = coin_sequence(80, seed=1)
        report = randomness_test(
            seq,
            [PlaceSelection.prime_index(), PlaceSelection.index_arithmetic(2, 0)],
            StatisticalTolerance(4.0),
        )
        statuses = {r.description: r.status for r in report.per_selection}
        assert statuses["prime positions"] == "inconclusive"  # 22 primes <= 80
        assert statuses["positions n = 0 (mod 2)"] in ("ok", "deviant")  # 40 retained

    def test_all_inconclusive_raises(self):
        seq = LabelSequence((0, 1), (0, 1) * 10)
        with pytest.raises(AllSelectionsInconclusive):
            randomness_test(seq, [PlaceSelection.prime_index()], StatisticalTolerance(4.0))

    def test_periodic_sequences_fail_matching_modulus(self):
        for period in (2, 3, 4):
            values = tuple((i % period) % 2 for i in range(12_000))
            seq = LabelSequence((0, 1), values)
            sels = [
                PlaceSelection.index_arithmetic(period, r) for r in range(period)
            ]
            report = randomness_test(seq, sels, StatisticalTolerance(4.0))
            assert report.verdict == "failed", f"period {period}"

    def test_iid_pass_rate(self):
        # false-alarm rate at 4 sigma is ~6e-5 per selection; 200 seeds
        # with 4 selections should essentially never fail
        failures = 0
        for seed in range(200):
            seq = coin_sequence(20_000, seed=seed)
            report = randomness_test(seq, BATTERY, StatisticalTolerance(4.0))
            failures += report.verdict == "failed"
        assert failures <= 1

    def test_fixed_policy(self):
        seq = alternating(10_000)
        report = randomness_test(
            seq, [PlaceSelection.index_arithmetic(2, 0)], FixedTolerance(0.6)
        )
        assert report.verdict == "passed"

    def test_min_retained_floor(self):
        with pytest.raises(ContexcertError):
            randomness_test(alternating(100), BATTERY, min_retained=10)

    @pytest.mark.parametrize("min_retained", [math.nan, math.inf, 30.0, "30", True])
    def test_min_retained_must_be_an_integer(self, min_retained):
        # NaN once passed the floor, and then no selection counted as too
        # small: one that retained a single symbol was judged "ok"
        seq = coin_sequence(200, seed=3)
        single = PlaceSelection.index_arithmetic(1000, 1)
        with pytest.raises(ContexcertError):
            randomness_test(seq, [single, PlaceSelection.prime_index()], min_retained=min_retained)

    def test_numpy_integer_min_retained_reaches_json(self):
        report = randomness_test(coin_sequence(200, seed=3), BATTERY, min_retained=np.int64(30))
        assert json.loads(json.dumps(report.to_json()))["min_retained"] == 30


# ------------------------------------------------------------ references
# The battery and profiles as they were counted before counting in place:
# each retained subsequence copied out and counted, the arithmetic mask
# from every position's residue, each profile from a full running sum.


def _reference_mod_mask(n, modulus, residue):
    return np.arange(1, n + 1) % modulus == residue


def _reference_mask(seq, sel):
    if sel.kind == "index_arithmetic":
        return _reference_mod_mask(len(seq), sel.modulus, sel.residue)
    return selection_mask(seq, sel)


def _reference_randomness_test(seq, selections, policy, min_retained):
    if not selections:
        raise ContexcertError("need at least one selection")
    if min_retained < 30:
        raise ContexcertError("min_retained must be at least 30")
    overall = frequencies(seq)

    results = []
    for sel in selections:
        mask = _reference_mask(seq, sel)
        retained = int(mask.sum())
        if retained < min_retained:
            results.append(
                SelectionResult(sel.description, retained, {}, 0.0, 0.0, "inconclusive")
            )
            continue
        counts = np.bincount(seq.codes[mask], minlength=len(seq.labels))
        sel_freqs = {label: counts[i] / retained for i, label in enumerate(seq.labels)}
        deviations = {
            label: abs(sel_freqs[label] - overall[label]) for label in seq.labels
        }
        max_dev = max(deviations.values())
        tols = {
            label: resolve_tolerance(
                policy, lambda k: k * binomial_sigma(overall[label], retained)
            )
            for label in seq.labels
        }
        deviant = any(deviations[l] > tols[l] for l in seq.labels)
        results.append(
            SelectionResult(
                sel.description,
                retained,
                sel_freqs,
                max_dev,
                min(tols.values()),
                "deviant" if deviant else "ok",
            )
        )
    if all(r.status == "inconclusive" for r in results):
        raise AllSelectionsInconclusive(
            f"every selection retained fewer than {min_retained} elements"
        )

    notes = []
    if any(f in (0.0, 1.0) for f in overall.values()):
        notes.append(
            "degenerate frequencies: some label has frequency 0 or 1; "
            "stabilization holds but the battery cannot discriminate further"
        )
    notes.append("verdict certifies only that this battery was passed, not randomness as such")
    return RandomnessReport(
        overall_freq=overall,
        per_selection=tuple(results),
        tolerance_policy=policy.describe(),
        min_retained=min_retained,
        notes=tuple(notes),
    )


def _reference_profile(seq, label, checkpoints):
    hits = np.cumsum(seq.codes == seq.labels.index(label))
    return [(c, float(hits[c - 1]) / c) for c in checkpoints]


@st.composite
def label_streams(draw):
    """A sequence over +-1, 1-300 strings or a mix of 0, "0" and "x", built
    from its values or from uint8 codes (uint16 past 256 labels)."""
    alphabet = draw(st.sampled_from(["pm1", "strings", "mixed"]))
    if alphabet == "pm1":
        labels = tuple(draw(st.permutations((1, -1))))
    elif alphabet == "strings":
        labels = tuple(f"s{i}" for i in range(draw(st.integers(1, 300))))
    else:
        labels = tuple(draw(st.lists(st.sampled_from([0, "0", "x"]), min_size=1, max_size=3, unique=True)))
    k, n = len(labels), draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "skewed", "periodic", "constant"]))
    if shape == "uniform":
        codes = rng.integers(0, k, n)
    elif shape == "skewed":
        codes = np.minimum(rng.geometric(0.6, n) - 1, k - 1)
    elif shape == "periodic":
        codes = np.arange(n) % draw(st.integers(1, 6)) % k
    else:
        codes = np.full(n, draw(st.integers(0, k - 1)))
    if draw(st.booleans()):
        return LabelSequence.from_codes(labels, codes.astype(np.uint8 if k <= 256 else np.uint16))
    return LabelSequence.from_values([labels[c] for c in codes.tolist()], labels)


@st.composite
def place_selections(draw, labels):
    kind = draw(st.sampled_from(["prime", "after", "mod", "coin", "custom"]))
    if kind == "prime":
        return PlaceSelection.prime_index()
    if kind == "after":
        return PlaceSelection.after_pattern(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3)))
    if kind == "mod":
        modulus = draw(st.integers(1, 12))
        return PlaceSelection.index_arithmetic(modulus, draw(st.integers(0, modulus - 1)))
    if kind == "coin":
        return PlaceSelection.external_coin(draw(st.integers(0, 2**32)), draw(st.sampled_from([0.1, 0.5, 0.9, 1.0])))
    first = labels[0]
    return PlaceSelection.custom(
        lambda n, prefix: n % 3 == 0 or (len(prefix) > 0 and prefix[-1] == first),
        f"every third position or after {first!r}",
    )


def _outcome(run):
    try:
        report = run()
    except ContexcertError as exc:
        return type(exc), str(exc)
    return repr(report.to_json()), repr(report)


class TestCountingMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reports_and_profiles(self, data):
        seq = data.draw(label_streams())
        selections = data.draw(st.lists(place_selections(seq.labels), min_size=1, max_size=6))
        policy = data.draw(
            st.one_of(
                st.floats(0.0, 0.5).map(FixedTolerance),
                st.floats(0.5, 6.0).map(StatisticalTolerance),
            )
        )
        min_retained = data.draw(st.one_of(st.just(30), st.integers(30, 3100)))
        assert _outcome(lambda: randomness_test(seq, selections, policy, min_retained)) == _outcome(
            lambda: _reference_randomness_test(seq, selections, policy, min_retained)
        )
        for sel in selections:
            if sel.kind == "index_arithmetic":
                assert selection_mask(seq, sel).tolist() == _reference_mask(seq, sel).tolist()
        checkpoints = sorted(
            data.draw(st.lists(st.integers(1, len(seq)), min_size=1, max_size=12, unique=True))
        )
        for label in seq.labels:
            profile = stabilization_profile(seq, label, checkpoints)
            expected = _reference_profile(seq, label, checkpoints)
            assert profile == expected and repr(profile) == repr(expected)


@st.composite
def wide_label_streams(draw):
    """A sequence over 1-1000 int or string labels, the counts on either side
    of the one-byte codes (128) and of a group of 8 selections' grid (512),
    built from its values or from uint8/uint16 codes."""
    k = draw(st.sampled_from([1, 2, 3, 128, 129, 300, 1000]))
    labels = tuple(range(k)) if draw(st.booleans()) else tuple(f"s{i}" for i in range(k))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "skewed", "constant"]))
    if shape == "uniform":
        codes = rng.integers(0, k, n)
    elif shape == "skewed":
        codes = np.minimum(rng.geometric(0.3, n) - 1, k - 1)
    else:
        codes = np.full(n, draw(st.integers(0, k - 1)))
    if draw(st.booleans()):
        return LabelSequence.from_codes(labels, codes.astype(np.uint8 if k <= 256 else np.uint16))
    return LabelSequence.from_values([labels[c] for c in codes.tolist()], labels)


@st.composite
def batteries(draw, seq):
    """7-17 selections, among them masks that retain nothing or everything."""
    n = len(seq)
    extremes = st.sampled_from(
        [
            PlaceSelection.index_arithmetic(1, 0),  # every position
            PlaceSelection.external_coin(3, 1.0),  # every position
            PlaceSelection.index_arithmetic(n + 1, 0),  # no position
            PlaceSelection.after_pattern(seq.labels[:1] * n),  # no position
        ]
    )
    return draw(st.lists(st.one_of(place_selections(seq.labels), extremes), min_size=7, max_size=17))


class TestGroupedCountingMatchesReference:
    """Selections share one count in groups of up to 8, fewer when the labels
    are many; each group counts in pieces.  The grid bound and the piece size
    are drawn as well, so that small streams cross both."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reports(self, data):
        seq = data.draw(wide_label_streams())
        selections = data.draw(batteries(seq))
        policy = data.draw(
            st.one_of(
                st.floats(0.0, 0.5).map(FixedTolerance),
                st.floats(0.5, 6.0).map(StatisticalTolerance),
            )
        )
        retained = [int(_reference_mask(seq, sel).sum()) for sel in selections]
        admissible = [r for r in retained if r >= 30]
        min_retained = data.draw(st.sampled_from(admissible) if admissible else st.just(30))
        grid_bins = data.draw(st.sampled_from([randomtests.GRID_BINS, 1, 2000, 20_000]))
        piece = data.draw(st.sampled_from([randomtests.PIECE, 1, 100, 1000]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomtests, "GRID_BINS", grid_bins)
            mp.setattr(randomtests, "PIECE", piece)
            outcome = _outcome(lambda: randomness_test(seq, selections, policy, min_retained))
            coins = [sel for sel in selections if sel.kind == "external_coin"]
            coin_masks = [selection_mask(seq, sel).tolist() for sel in coins]
        assert outcome == _outcome(lambda: _reference_randomness_test(seq, selections, policy, min_retained))
        for sel, mask in zip(coins, coin_masks):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(sel.seed)))
            assert mask == (rng.random(len(seq)) < sel.bias).tolist()


# ------------------------------------------------------------ custom selections
# A custom predicate once received values[:i], a fresh tuple per position,
# which made the mask O(n^2).  The reference below still passes that copy.


def _reference_custom_mask(seq, predicate):
    values = seq.values
    return [bool(predicate(i + 1, values[:i])) for i in range(len(seq))]


def _prefix_predicates(first, second):
    """Predicates that each read the prefix through one tuple operation."""

    def index_of_first(n, p):
        try:
            return p.index(first, 1) % 2 == 0
        except ValueError:
            return n % 2 == 0

    return {
        "len": lambda n, p: len(p) % 3 == 0,
        "index": lambda n, p: len(p) > 1 and p[-2] == first and p[len(p) // 2] != second,
        "slice": lambda n, p: p[-3:] == (first,) * min(3, len(p)) or p[1:4:2] == (second, first),
        "reverse slice": lambda n, p: p[::-2][:2] == (second, second),
        "slice type": lambda n, p: type(p[-2:]) is tuple and p[-2:] in {(first, second), (second,)},
        "iterate": lambda n, p: sum(1 for v in p if v == first) % 2 == 0,
        "reversed": lambda n, p: next(reversed(p), None) == second,
        "in": lambda n, p: second in p[-4:] and first in p,
        "count": lambda n, p: p.count(first) > p.count(second),
        "index method": index_of_first,
        "equal": lambda n, p: p == (first,) * len(p) or (second, first) == p[-2:],
        "hash": lambda n, p: {(): 0, (first,): 1, (first, first): 2}.get(p, 3) > 1,
        "list": lambda n, p: list(p)[-1:] == [first] and tuple(p) != (first,),
    }


class TestCustomPrefix:
    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(st.sampled_from([1, -1, 0, "a"]), min_size=1, max_size=120),
        data=st.data(),
    )
    def test_masks_equal_the_tuple_copy(self, values, data):
        seq = LabelSequence.from_values(values)
        first = data.draw(st.sampled_from(seq.labels))
        second = data.draw(st.sampled_from(seq.labels))
        for name, predicate in _prefix_predicates(first, second).items():
            mask = selection_mask(seq, PlaceSelection.custom(predicate, name))
            assert mask.dtype == bool
            assert mask.tolist() == _reference_custom_mask(seq, predicate), name

    def test_forty_thousand_symbols_in_under_a_second(self):
        seq = coin_sequence(40_000, seed=5)
        sel = PlaceSelection.custom(lambda n, p: len(p) > 2 and p[-3:] == (1, 1, 1), "after 111")
        start = time.perf_counter()
        mask = selection_mask(seq, sel)
        elapsed = time.perf_counter() - start
        values = seq.values
        assert mask.tolist() == [values[i - 3 : i] == (1, 1, 1) for i in range(len(values))]
        assert elapsed < 1.0
