"""Each referee accepts contexcert's real output and rejects a corrupted copy.

    python3 -m pytest benchmark/test_referees.py -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import referees  # noqa: E402
from contexcert import cli, jpdoracle, randomtests, suite  # noqa: E402
from referees import Mismatch  # noqa: E402
from workloads import build_cycle_system  # noqa: E402

ANGLES = {"A1": 0.0, "A2": math.pi / 2, "B1": math.pi / 4, "B2": 3 * math.pi / 4}
N = 3000


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("suite")
    angles = ",".join(repr(ANGLES[k]) for k in ("A1", "A2", "B1", "B2"))
    data, scen, out = work / "d.csv", work / "d.scenario.json", work / "r.json"
    assert cli.main(["generate", "singlet", "--angles", angles, "--n", str(N),
                     "--seed", "11", "--out", str(data)]) == 0
    assert cli.main(["full-suite", "--data", str(data), "--scenario", str(scen),
                     "--seed", "11", "--out", str(out)]) == 0
    return referees.CsvRecount(data.read_text()), json.loads(out.read_text())


def chsh_entry(report):
    return next(t for t in report["tests"] if t["test"] == "chsh")


def test_recount_accepts_the_suite_report(suite_run):
    recount, report = suite_run
    referees.check_singlet_correlations(recount, ANGLES, N, k=6.0)
    referees.check_suite_report(report, recount)
    referees.check_suite_streams(report, recount, [1, -1])


def test_recount_rejects_wrong_angles(suite_run):
    recount, _ = suite_run
    swapped = dict(ANGLES, B1=ANGLES["B2"], B2=ANGLES["B1"])
    with pytest.raises(Mismatch, match="sigma"):
        referees.check_singlet_correlations(recount, swapped, N, k=6.0)


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r["provenance"].update(record_count=r["provenance"]["record_count"] + 1),
     "record_count"),
    (lambda r: chsh_entry(r)["details"]["term_values"].__setitem__(
        1, chsh_entry(r)["details"]["term_values"][1] + 1e-3), "CHSH term"),
    (lambda r: chsh_entry(r).update(statistic=chsh_entry(r)["statistic"] - 1e-3),
     "CHSH statistic"),
    (lambda r: r["signaling"]["comparisons"][0].update(
        deviation=r["signaling"]["comparisons"][0]["deviation"] + 1e-4), "signaling deviation"),
    (lambda r: r["oracle"][0].update(status="feasible"), "quadrupole oracle"),
    (lambda r: r["oracle"][0].update(agrees_with_chsh=False), "agrees_with_chsh"),
])
def test_recount_rejects_corrupted_report(suite_run, corrupt, message):
    recount, report = suite_run
    bad = copy.deepcopy(report)
    corrupt(bad)
    with pytest.raises(Mismatch, match=message):
        referees.check_suite_report(bad, recount)


def test_recount_rejects_altered_stream_retained_count(suite_run):
    recount, report = suite_run
    bad = copy.deepcopy(report)
    first = next(iter(bad["randomness"].values()))
    first["selections"][0]["retained"] += 1
    with pytest.raises(Mismatch, match="retained"):
        referees.check_suite_streams(bad, recount, [1, -1])


# ------------------------------------------------------------------- n-cycles


def test_s_odd_known_values():
    assert referees.s_odd((1, 1, 1)) == 1  # boundary: one sign flipped
    assert referees.s_odd((-1, -1, -1)) == 3
    assert referees.s_odd((Fraction(1, 2),) * 4) == 1
    assert referees.s_odd((-0.5, 0.5, 0.5, 0.5)) == 2.0


def decide(corr, exact):
    return jpdoracle.jpd_feasible(build_cycle_system(corr, exact), exact=exact)


FLIP = {"feasible": "infeasible", "infeasible": "feasible"}


@pytest.mark.parametrize("corr, exact", [
    ((0.3, -0.2, 0.9), False),
    ((-0.9, -0.8, -0.95), False),
    ((0.9, 0.8, -0.7, 0.95, 0.6), False),
    ((Fraction(1), Fraction(1), Fraction(1)), True),  # on the boundary: feasible
    ((Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)), True),
    ((Fraction(-1), Fraction(-1), Fraction(-1), Fraction(1, 10)), True),
])
def test_s_odd_rejects_flipped_verdict(corr, exact):
    status = decide(corr, exact).status
    referees.check_cycle_decision(corr, status)
    with pytest.raises(Mismatch, match="oracle says"):
        referees.check_cycle_decision(corr, FLIP[status])


@pytest.mark.parametrize("corr, exact, shift", [
    ((0.3, -0.2, 0.9, 0.1), False, 1e-6),
    ((Fraction(1, 2), Fraction(-3, 10), Fraction(1, 10)), True, Fraction(1, 1000)),
])
def test_witness_check_rejects_perturbed_witness(corr, exact, shift):
    result = decide(corr, exact)
    assert result.feasible
    witness = dict(result.witness.probs)
    referees.check_witness(corr, witness, 0 if exact else 1e-9)
    # move mass between two atoms that differ in X1 only: total mass is kept
    atom = max(witness, key=witness.get)
    twin = (-atom[0],) + atom[1:]
    witness[atom] -= shift
    witness[twin] = witness.get(twin, 0) + shift
    with pytest.raises(Mismatch, match="witness marginal"):
        referees.check_witness(corr, witness, 0 if exact else 1e-9)


@pytest.mark.parametrize("corr, exact", [
    ((-0.9, -0.8, -0.95), False),
    ((0.9, 0.9, 0.9, -0.9), False),
    ((-1.0, 0.95, 0.9, 0.9, 0.85), False),
    ((Fraction(-1), Fraction(-1), Fraction(-1), Fraction(1, 10)), True),
])
def test_certificate_check_rejects_negated_functional(corr, exact):
    result = decide(corr, exact)
    assert not result.feasible
    cert = result.certificate
    assert referees.check_certificate(corr, cert.normalization_coeff, cert.cell_coeffs) > 0
    # value > max over atoms implies -value < max of the negated functional
    negated = [(ci, cell, -c) for ci, cell, c in cert.cell_coeffs]
    with pytest.raises(Mismatch, match="does not separate"):
        referees.check_certificate(corr, -cert.normalization_coeff, negated)


def test_certificate_check_is_exact():
    # -[X_i = X_j] on the three anti-correlated pairs of a 3-cycle: the data
    # give 0, every atom at most -1 (an odd cycle has an equal pair).  The
    # slack of 1 under a 1e20 normalization is lost in floats, not here.
    corr = (-1.0, -1.0, -1.0)
    cells = [(ci, cell, -1.0) for ci in range(3) for cell in ((1, 1), (-1, -1))]
    assert 1e20 - 1.0 == 1e20
    assert referees.check_certificate(corr, 1e20, cells) == 1
    with pytest.raises(Mismatch, match="does not separate"):
        referees.check_certificate(corr, 1e20, cells[:2])  # one pair only: no slack


# ------------------------------------------------------------ label streams


def test_masks_known_values():
    assert referees.prime_positions(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert referees.prime_mask(10).nonzero()[0].tolist() == [1, 2, 4, 6]
    assert referees.even_mask(5).tolist() == [False, True, False, True, False]
    values = [1, -1, 1, 1, -1, 1]
    assert referees.after_mask(values, (1, -1)).tolist() == [False, False, True, False, False, True]


def battery_entry(values, labels, coin_seed=3):
    seq = randomtests.LabelSequence.from_values(values, labels)
    report = randomtests.randomness_test(seq, suite.default_battery(seq, coin_seed))
    return report.to_json()


@pytest.fixture(scope="module")
def markov_stream():
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(5))
    values, current = [], 1
    for repeat in (rng.random(20000) < 0.7).tolist():
        current = current if repeat else -current
        values.append(current)
    return values


@pytest.mark.parametrize("index", [0, 1, 2])
def test_battery_check_rejects_altered_retained_count(markov_stream, index):
    entry = battery_entry(markov_stream, (1, -1))
    referees.check_battery(entry, markov_stream, [1, -1], (1, -1), k=4.0)
    entry["selections"][index]["retained"] -= 1
    with pytest.raises(Mismatch, match="retained"):
        referees.check_battery(entry, markov_stream, [1, -1], (1, -1), k=4.0)


def test_battery_check_rejects_flipped_verdict(markov_stream):
    entry = battery_entry(markov_stream, (1, -1))
    assert entry["verdict"] == "failed"
    entry["verdict"] = "passed"
    with pytest.raises(Mismatch, match="verdict"):
        referees.check_battery(entry, markov_stream, [1, -1], (1, -1), k=4.0)


def test_battery_check_on_string_alphabet():
    labels = ("a", "b", "c")
    values = [labels[(i * i + i // 7) % 3] for i in range(5000)]
    entry = battery_entry(values, labels)
    referees.check_battery(entry, values, list(labels), ("a", "b"), k=4.0)
    entry["selections"][1]["freqs"]["c"] += 0.01
    with pytest.raises(Mismatch, match="freq of c"):
        referees.check_battery(entry, values, list(labels), ("a", "b"), k=4.0)


def test_profile_check_rejects_altered_frequency():
    values = [1, -1, -1, 1, 1, 1, -1, 1] * 100
    seq = randomtests.LabelSequence.from_values(values, (1, -1))
    profile = randomtests.stabilization_profile(seq, 1, [8, 80, 800])
    referees.check_profile(profile, values, 1, [8, 80, 800])
    profile[1] = (80, profile[1][1] + 0.0125)
    with pytest.raises(Mismatch, match="running frequency"):
        referees.check_profile(profile, values, 1, [8, 80, 800])
