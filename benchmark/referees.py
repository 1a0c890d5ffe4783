"""Independent checks of contexcert's outputs.

Nothing here imports contexcert: every expected value is recomputed from the
raw inputs (the dataset CSV, the cycle correlations, the symbol lists), so a
fault in the program cannot also hide in its referee.  Each check raises
:class:`Mismatch` naming what disagreed.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np


class Mismatch(Exception):
    """A program output disagrees with the referee's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(actual, expected, tol: float, what: str) -> None:
    require(
        abs(float(actual) - float(expected)) <= tol,
        f"{what}: program {actual!r}, referee {expected!r} (tolerance {tol:g})",
    )


# ---------------------------------------------------------------- dataset CSV


class CsvRecount:
    """Per-setting cell counts and per-stream columns read from a dataset CSV.

    A setting is keyed by the frozenset of its observable ids, so the row
    order of ids inside a setting does not matter.
    """

    def __init__(self, text: str):
        lines = text.split("\n")
        require(lines[0] == "setting;outcomes", f"bad CSV header {lines[0]!r}")
        self.cells: dict[frozenset, Counter] = {}
        self.columns: dict[tuple[str, frozenset], list[int]] = {}
        for line, count in Counter(lines[1:]).items():
            if not line:
                continue
            ids, _, values = line.partition(";")
            ids = ids.split("+")
            outcomes = [int(v) for v in values.split(",")]
            cell = dict(zip(ids, outcomes))
            self.cells.setdefault(frozenset(ids), Counter())[
                tuple(sorted(cell.items()))
            ] += count
        # acquisition-order columns: only needed for the randomness entries
        body = [ln.partition(";") for ln in lines[1:] if ln]
        for ids_text, _, values in body:
            ids = ids_text.split("+")
            key = frozenset(ids)
            for obs, v in zip(ids, values.split(",")):
                self.columns.setdefault((obs, key), []).append(int(v))

    def records(self, setting: frozenset) -> int:
        return sum(self.cells[setting].values())

    def correlation(self, a: str, b: str) -> float:
        counts = self.cells[frozenset((a, b))]
        same = sum(n for cell, n in counts.items() if dict(cell)[a] == dict(cell)[b])
        total = sum(counts.values())
        return (2 * same - total) / total

    def p_plus(self, obs: str, setting: frozenset) -> float:
        counts = self.cells[setting]
        plus = sum(n for cell, n in counts.items() if dict(cell)[obs] == 1)
        return plus / sum(counts.values())


def check_singlet_correlations(recount: CsvRecount, angles: dict, n_per_setting: int, k: float) -> None:
    """Each sampled correlation lies within k sigma of -cos(a - b)."""
    for setting in recount.cells:
        a, b = sorted(setting)
        require(
            recount.records(setting) == n_per_setting,
            f"setting {a}+{b}: {recount.records(setting)} records, expected {n_per_setting}",
        )
        expected = -math.cos(angles[a] - angles[b])
        sigma = math.sqrt((1.0 - expected * expected) / n_per_setting)
        observed = recount.correlation(a, b)
        require(
            abs(observed - expected) <= k * sigma,
            f"<{a}{b}> = {observed} is more than {k} sigma from {expected}",
        )


def check_suite_report(report: dict, recount: CsvRecount, tol: float = 1e-12) -> None:
    """Term values, CHSH statistic, signaling deviations and oracle entry."""
    total = sum(recount.records(s) for s in recount.cells)
    require(
        report["provenance"]["record_count"] == total,
        f"record_count {report['provenance']['record_count']} != recount {total}",
    )
    chsh = next(t for t in report["tests"] if t["test"] == "chsh")
    pairs = [tuple(p) for p in chsh["details"]["term_pairs"]]
    values = [recount.correlation(a, b) for a, b in pairs]
    for (a, b), got, want in zip(pairs, chsh["details"]["term_values"], values):
        close(got, want, tol, f"CHSH term <{a}{b}>")
    statistic = max(
        abs(sum(-v if i == minus else v for i, v in enumerate(values)))
        for minus in range(4)
    )
    close(chsh["statistic"], statistic, tol, "CHSH statistic")

    for comp in report["signaling"]["comparisons"]:
        obs = comp["observable"]
        c1, c2 = (frozenset(c.split("+")) for c in comp["contexts"])
        deviation = abs(recount.p_plus(obs, c1) - recount.p_plus(obs, c2))
        close(comp["deviation"], deviation, tol, f"signaling deviation of {obs}")

    # the quadrupole is the 4-cycle A1-B1-A2-B2; CHSH > 2 is s_odd > n - 2
    quad = next(o for o in report["oracle"] if o["system"] == "quadrupole")
    cycle = [values[0], values[2], values[3], values[1]]
    feasible = cycle_feasible(cycle)
    require(
        (quad["status"] == "feasible") == feasible,
        f"quadrupole oracle says {quad['status']}, s_odd says "
        f"{'feasible' if feasible else 'infeasible'}",
    )
    passed = chsh["outcome"] == "passed_contextuality_test"
    require(
        quad["agrees_with_chsh"] == (feasible != passed),
        "quadrupole agrees_with_chsh flag contradicts the two verdicts",
    )


def check_suite_streams(report: dict, recount: CsvRecount, labels: list) -> None:
    """Retained counts of the suite's battery on every per-setting stream.

    The suite's after-pattern selection uses the first two alphabet labels.
    """
    streams = report["randomness"]
    require(
        len(streams) == len(recount.columns),
        f"{len(streams)} randomness entries for {len(recount.columns)} streams",
    )
    for key, entry in streams.items():
        obs, _, setting = key.partition("@")
        values = recount.columns[(obs, frozenset(setting.split("+")))]
        check_battery(entry, values, labels, tuple(labels[:2]), k=None)


# ------------------------------------------------------------------- n-cycles


def s_odd(values) -> Fraction | float:
    """max of sum(s_i * v_i) over sign vectors with an odd number of -1's."""
    n = len(values)
    best = None
    for signs in product((1, -1), repeat=n):
        if signs.count(-1) % 2 == 1:
            total = sum(s * v for s, v in zip(signs, values))
            best = total if best is None else max(best, total)
    return best


def cycle_feasible(correlations) -> bool:
    """Zero-mean pair tables on an n-cycle have a joint distribution iff
    s_odd(c) <= n - 2 (Araujo et al., PRA 88, 022118 (2013))."""
    return s_odd(correlations) <= len(correlations) - 2


def cycle_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def pair_prob(corr, a: int, b: int):
    """p(a, b) of the zero-mean +-1 pair table with correlation corr, exactly."""
    return Fraction(1, 4) * (1 + a * b * Fraction(corr))


def check_cycle_decision(correlations, status: str) -> bool:
    feasible = cycle_feasible(correlations)
    require(
        (status == "feasible") == feasible,
        f"{len(correlations)}-cycle {list(map(str, correlations))}: oracle says "
        f"{status}, s_odd = {s_odd(correlations)} vs bound {len(correlations) - 2}",
    )
    return feasible


def check_witness(correlations, witness: dict, tol: float) -> None:
    """The witness (atom outcome tuple -> probability) marginalizes to every
    pair table of the cycle: within tol, or exactly when tol is 0."""
    def agree(got, want, what):
        if tol:
            close(got, want, tol, what)
        else:
            require(got == want, f"{what}: program {got}, referee {want}")

    require(all(p >= 0 for p in witness.values()), "witness has a negative atom")
    agree(sum(witness.values()), 1, "witness total mass")
    for (i, j), corr in zip(cycle_pairs(len(correlations)), correlations):
        for a, b in product((1, -1), repeat=2):
            mass = sum(p for atom, p in witness.items() if atom[i] == a and atom[j] == b)
            agree(mass, pair_prob(corr, a, b), f"witness marginal ({i},{j})={a},{b}")


def check_certificate(correlations, normalization, cell_coeffs) -> Fraction:
    """Re-evaluate the separating functional over all 2^n atoms in Fractions.

    ``cell_coeffs`` holds (constraint index, cell, coefficient); constraint i
    is the pair (X_i, X_{i+1}).  Float coefficients are converted exactly.
    Returns the exact slack, which must be positive.
    """
    pairs = cycle_pairs(len(correlations))
    y0 = Fraction(normalization)
    terms = [(ci, tuple(cell), Fraction(c)) for ci, cell, c in cell_coeffs]
    bound = max(
        y0 + sum(c for ci, cell, c in terms if (atom[pairs[ci][0]], atom[pairs[ci][1]]) == cell)
        for atom in product((1, -1), repeat=len(correlations))
    )
    value = y0 + sum(c * pair_prob(correlations[ci], *cell) for ci, cell, c in terms)
    require(value > bound, f"certificate does not separate: value {value} <= bound {bound}")
    return value - bound


# ------------------------------------------------------------ label streams


def prime_positions(n: int) -> list[int]:
    """1-based prime positions up to n, by trial division by smaller primes."""
    primes: list[int] = []
    for m in range(2, n + 1):
        root = math.isqrt(m)
        for p in primes:
            if p > root:
                primes.append(m)
                break
            if m % p == 0:
                break
        else:
            primes.append(m)
    return primes


_PRIMES: dict[int, np.ndarray] = {}


def prime_mask(n: int) -> np.ndarray:
    if n not in _PRIMES:
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(prime_positions(n), dtype=np.int64) - 1] = True
        _PRIMES[n] = mask
    return _PRIMES[n]


def even_mask(n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[1::2] = True  # 1-based positions 2, 4, ...
    return mask


def after_mask(values: list, pattern: tuple) -> np.ndarray:
    """Position j is retained when the len(pattern) values before it equal pattern."""
    length = len(pattern)
    windows = zip(*(values[k:] for k in range(length)))
    hits = [window == pattern for window in windows][: max(len(values) - length, 0)]
    return np.asarray([False] * min(length, len(values)) + hits, dtype=bool)


def check_battery(entry: dict, values: list, labels: list, pattern: tuple, k: float | None) -> None:
    """Check one randomness report against masks computed here.

    Selections are expected in the suite's battery order: prime positions,
    after ``pattern``, even positions, independent coin.  The coin's mask is
    not recomputed; its frequencies must still be counts over its retained
    total.  With ``k`` given, every status is re-derived from the k-sigma
    rule and the verdict from the statuses.
    """
    n = len(values)
    overall = Counter(values)
    for label in labels:
        close(entry["overall_freq"][str(label)], overall[label] / n, 1e-12, f"overall freq of {label}")
    index = {label: i for i, label in enumerate(labels)}
    arr = np.asarray([index[v] for v in values])
    masks = [prime_mask(n), after_mask(values, tuple(pattern)), even_mask(n), None]
    prefixes = ["prime positions", "after pattern", "positions n = 0 (mod 2)", "independent coin"]
    selections = entry["selections"]
    require(len(selections) == 4, f"{len(selections)} selections, expected 4")
    any_deviant = False
    for sel, mask, prefix in zip(selections, masks, prefixes):
        name = sel["selection"]
        require(name.startswith(prefix), f"selection {name!r} where {prefix!r} was expected")
        retained = sel["retained"]
        if mask is not None:
            want = int(mask.sum())
            require(retained == want, f"{name}: retained {retained}, referee {want}")
            counts = np.bincount(arr[mask], minlength=len(labels))
            for i, label in enumerate(labels):
                close(sel["freqs"][str(label)], counts[i] / want, 1e-12, f"{name}: freq of {label}")
        else:
            for label in labels:
                count = sel["freqs"][str(label)] * retained
                close(count, round(count), 1e-6, f"{name}: count of {label}")
        deviations = [abs(sel["freqs"][str(l)] - overall[l] / n) for l in labels]
        close(sel["max_deviation"], max(deviations), 1e-12, f"{name}: max deviation")
        if k is not None:
            deviant = any(
                d > k * math.sqrt((overall[l] / n) * (1 - overall[l] / n) / retained)
                for d, l in zip(deviations, labels)
            )
            require(
                sel["status"] == ("deviant" if deviant else "ok"),
                f"{name}: status {sel['status']}, referee says {'deviant' if deviant else 'ok'}",
            )
            any_deviant |= deviant
    if k is not None:
        require(
            entry["verdict"] == ("failed" if any_deviant else "passed"),
            f"verdict {entry['verdict']} contradicts the selection statuses",
        )


def check_profile(profile: list, values: list, label, checkpoints: list[int]) -> None:
    require([c for c, _ in profile] == checkpoints, "stabilization checkpoints differ")
    hits = 0
    pos = 0
    for c, freq in profile:
        hits += values[pos:c].count(label)
        pos = c
        close(freq, hits / c, 1e-12, f"running frequency of {label} at {c}")
