import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contexcert.belltests import ChshInput, chsh_max
from contexcert.errors import ContexcertError
from contexcert.quantumgen import (
    PRNG_NAME,
    SUBSEED_SCHEME,
    DensityState,
    InvalidState,
    LhvModel,
    NonCommuting,
    ProjectiveObservable,
    bloch_observable,
    born_table,
    commute,
    planar_observable,
    random_density_state,
    sample_lhv_dataset,
    sample_quantum_dataset,
    singlet_correlation,
    singlet_state,
    sphere_lhv_model,
)
from contexcert import quantumgen
from contexcert.scenario import (
    Dataset,
    Observable,
    Scenario,
    correlation,
    correlation_set,
    marginalize,
)


class TestDensityState:
    def test_valid(self):
        s = DensityState(np.eye(2) / 2)
        assert s.dim == 2

    def test_not_hermitian(self):
        with pytest.raises(InvalidState):
            DensityState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_not_psd(self):
        with pytest.raises(InvalidState):
            DensityState(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_trace(self):
        with pytest.raises(InvalidState):
            DensityState(np.eye(2))

    def test_dim_cap(self):
        with pytest.raises(InvalidState):
            DensityState(np.eye(32) / 32)


class TestProjectiveObservable:
    def test_planar_is_valid(self):
        obs = planar_observable("A", 0.7, qubit=0)
        p, m = obs.projectors[1], obs.projectors[-1]
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p @ m, 0, atol=1e-12)
        assert np.allclose(p + m, np.eye(4), atol=1e-12)

    def test_rejects_non_projector(self):
        with pytest.raises(ContexcertError):
            ProjectiveObservable("A", {1: np.eye(2) * 0.5, -1: np.eye(2) * 0.5})

    def test_same_qubit_different_angles_do_not_commute(self):
        a = planar_observable("A", 0.0, qubit=0)
        b = planar_observable("B", 1.0, qubit=0)
        assert not commute(a, b)

    def test_opposite_qubits_commute(self):
        a = planar_observable("A", 0.3, qubit=0)
        b = planar_observable("B", 1.1, qubit=1)
        assert commute(a, b)


class TestBornTable:
    def test_maximally_mixed_uniform(self):
        mixed = DensityState(np.eye(4) / 4)
        a = planar_observable("A", 0.0, qubit=0)
        b = planar_observable("B", 0.0, qubit=1)
        t = born_table(mixed, (a, b))
        for cell in t.cells():
            assert math.isclose(t.prob(cell), 0.25, abs_tol=1e-12)

    def test_singlet_same_axis_anticorrelated(self):
        a = planar_observable("A", 0.9, qubit=0)
        b = planar_observable("B", 0.9, qubit=1)
        t = born_table(singlet_state(), (a, b))
        assert math.isclose(t.prob((1, -1)), 0.5, abs_tol=1e-12)
        assert math.isclose(t.prob((-1, 1)), 0.5, abs_tol=1e-12)
        assert math.isclose(correlation(t), -1.0, abs_tol=1e-12)

    def test_cosine_law_100_random_angle_pairs(self):
        rng = np.random.default_rng(2)
        state = singlet_state()
        for _ in range(100):
            ang_a, ang_b = rng.uniform(0, 2 * math.pi, 2)
            a = planar_observable("A", ang_a, qubit=0)
            b = planar_observable("B", ang_b, qubit=1)
            t = born_table(state, (a, b))
            assert math.isclose(
                correlation(t), singlet_correlation(ang_a, ang_b), abs_tol=1e-10
            )

    def test_noncommuting_rejected(self):
        a = planar_observable("A", 0.0, qubit=0)
        b = planar_observable("B", 1.0, qubit=0)
        with pytest.raises(NonCommuting):
            born_table(singlet_state(), (a, b))

    def test_marginals_context_independent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            state = random_density_state(8, rng)
            x = planar_observable("X", rng.uniform(0, 2 * math.pi), qubit=0, n_qubits=3)
            y = planar_observable("Y", rng.uniform(0, 2 * math.pi), qubit=1, n_qubits=3)
            z = planar_observable("Z", rng.uniform(0, 2 * math.pi), qubit=2, n_qubits=3)
            t_xy = born_table(state, (x, y))
            t_xz = born_table(state, (x, z))
            m1 = marginalize(t_xy, ("X",))
            m2 = marginalize(t_xz, ("X",))
            for v in (1, -1):
                assert abs(m1.prob((v,)) - m2.prob((v,))) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        state = random_density_state(4, rng)
        a = planar_observable("A", 0.4, qubit=0)
        b = planar_observable("B", 2.0, qubit=1)
        t_ab = born_table(state, (a, b))
        t_ba = born_table(state, (b, a))
        for va, vb in t_ab.cells():
            assert math.isclose(t_ab.prob((va, vb)), t_ba.prob((vb, va)), abs_tol=1e-12)


class TestSingletCorrelation:
    def test_equal_angles(self):
        assert singlet_correlation(0.0, 0.0) == -1.0

    def test_orthogonal(self):
        assert abs(singlet_correlation(0.0, math.pi / 2)) < 1e-15

    def test_quarter(self):
        assert math.isclose(singlet_correlation(0.0, math.pi / 4), -math.sqrt(2) / 2)


class TestSampleQuantum:
    def pair(self, ang_a, ang_b):
        return (
            planar_observable("A", ang_a, qubit=0),
            planar_observable("B", ang_b, qubit=1),
        )

    def test_zero_count_setting_skipped(self):
        a, b = self.pair(0.0, 0.0)
        ds = sample_quantum_dataset(singlet_state(), [((a, b), 0)], seed=1)
        assert len(ds) == 0

    def test_same_axis_always_opposite(self):
        a, b = self.pair(0.3, 0.3)
        ds = sample_quantum_dataset(singlet_state(), [((a, b), 1000)], seed=5)
        records = list(ds)
        assert len(records) == 1000
        assert all(rec.outcomes[0] == -rec.outcomes[1] for rec in records)

    def test_tsirelson_empirical_chsh(self):
        state = singlet_state()
        angles = {"A1": 0.0, "A2": math.pi / 2, "B1": math.pi / 4, "B2": 3 * math.pi / 4}
        obs = {
            k: planar_observable(k, v, qubit=0 if k.startswith("A") else 1)
            for k, v in angles.items()
        }
        settings = [
            ((obs[x], obs[y]), 100_000) for x in ("A1", "A2") for y in ("B1", "B2")
        ]
        ds = sample_quantum_dataset(state, settings, seed=5)
        corr = correlation_set(ds, [(x, y) for x in ("A1", "A2") for y in ("B1", "B2")])
        inp = ChshInput(corr, ("A1", "A2"), ("B1", "B2"))
        assert abs(chsh_max(inp) - 2 * math.sqrt(2)) < 0.03

    def test_bitwise_reproducible(self):
        a, b = self.pair(0.2, 1.4)
        ds1 = sample_quantum_dataset(singlet_state(), [((a, b), 500)], seed=77)
        ds2 = sample_quantum_dataset(singlet_state(), [((a, b), 500)], seed=77)
        for (s1, c1), (s2, c2) in zip(ds1.code_blocks, ds2.code_blocks, strict=True):
            assert s1 == s2
            assert c1.dtype == c2.dtype
            assert (c1 == c2).all()

    def test_meta_records_provenance(self):
        a, b = self.pair(0.0, 1.0)
        ds = sample_quantum_dataset(singlet_state(), [((a, b), 10)], seed=3)
        assert ds.meta["prng"] == "numpy-PCG64"
        assert ds.meta["seed"] == 3
        assert "spawn_key" in ds.meta["subseed_scheme"]


class TestLhv:
    def test_constant_response(self):
        model = LhvModel(
            lambda_sampler=lambda rng, n: rng.random(n),
            response=lambda obs, lam: np.ones(len(np.atleast_1d(lam)), dtype=np.int64),
        )
        ds = sample_lhv_dataset(model, [(("A", "B"), 200)], seed=1)
        cs = correlation_set(ds, [("A", "B")])
        assert cs.value("A", "B") == 1.0

    def test_shared_lambda_same_response_perfectly_correlated(self):
        model = LhvModel(
            lambda_sampler=lambda rng, n: np.where(rng.random(n) < 0.5, 1, -1),
            response=lambda obs, lam: np.asarray(lam, dtype=np.int64),
        )
        ds = sample_lhv_dataset(model, [(("A", "A'"), 500)], seed=9)
        cs = correlation_set(ds, [("A", "A'")])
        assert cs.value("A", "A'") == 1.0

    def test_sphere_model_respects_chsh_bound(self):
        # LHV statistics can approach but not exceed 2; allow 3-sigma noise
        rng = np.random.default_rng(123)
        n = 20_000
        sigma3 = 3 * math.sqrt(4.0 / n)
        for trial in range(25):
            axes = {k: rng.normal(size=3) for k in ("A1", "A2", "B1", "B2")}
            model = sphere_lhv_model(axes)
            pairs = [(x, y) for x in ("A1", "A2") for y in ("B1", "B2")]
            ds = sample_lhv_dataset(model, [(p, n) for p in pairs], seed=trial)
            corr = correlation_set(ds, pairs)
            inp = ChshInput(corr, ("A1", "A2"), ("B1", "B2"))
            assert chsh_max(inp) <= 2 + sigma3

    @pytest.mark.parametrize("axis", [(math.nan, 0.0, 1.0), (0.0, 0.0, math.inf), (0.0, 0.0, 0.0)])
    def test_sphere_axis_must_be_finite_and_nonzero(self, axis):
        with pytest.raises(ContexcertError, match="axis for A2 must be"):
            sphere_lhv_model({"A1": (0.0, 0.0, 1.0), "A2": axis})

    def test_reproducible(self):
        model = sphere_lhv_model({k: (0.0, 0.0, 1.0) for k in ("A", "B")})
        ds1 = sample_lhv_dataset(model, [(("A", "B"), 100)], seed=4)
        ds2 = sample_lhv_dataset(model, [(("A", "B"), 100)], seed=4)
        assert len(ds1) == 100
        assert list(ds1) == list(ds2)


class TestBlochObservable:
    def test_must_be_unit(self):
        with pytest.raises(ContexcertError):
            bloch_observable("A", (1.0, 1.0, 0.0), qubit=0)

    @pytest.mark.parametrize("direction", [(math.nan, 0.0, 1.0), (0.0, math.inf, 0.0)])
    def test_must_be_finite(self, direction):
        with pytest.raises(ContexcertError, match="Bloch vector must be finite"):
            bloch_observable("A", direction, qubit=0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_planar_angle_must_be_finite(self, angle):
        with pytest.raises(ContexcertError, match="A: angle must be finite"):
            planar_observable("A", angle, qubit=0)

    def test_general_direction(self):
        v = np.array([1.0, 2.0, 3.0])
        v /= np.linalg.norm(v)
        obs = bloch_observable("A", tuple(v), qubit=0, n_qubits=1)
        t = born_table(DensityState(np.eye(2) / 2), (obs,))
        assert math.isclose(t.prob((1,)), 0.5, abs_tol=1e-12)


# ------------------------------------------------ one sampling loop for both samplers
# The references are the two samplers as they were before they shared a loop.


def _reference_rng(seed, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _reference_scenario(pair_ids):
    seen = {}
    for a, b in pair_ids:
        seen.setdefault(a)
        seen.setdefault(b)
    return Scenario(
        observables=tuple(Observable(i) for i in seen),
        compatible_sets=tuple(frozenset(p) for p in pair_ids),
    )


def reference_sample_from_table(table, count, rng):
    """The former sampler: inverse-CDF draw over outcome tuples, as values."""
    cells = np.asarray(list(table.cells()), dtype=np.int64)
    probs = np.asarray([float(table.prob(tuple(c))) for c in cells.tolist()])
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    np.clip(idx, 0, len(cells) - 1, out=idx)
    return cells[idx]


def reference_sample_quantum_dataset(state, settings, seed):
    pair_ids = [(a.id, b.id) for (a, b), _ in settings]
    scenario = _reference_scenario(pair_ids)
    blocks = []
    for index, ((obs_a, obs_b), count) in enumerate(settings):
        if count < 0:
            raise ContexcertError("sample count must be >= 0")
        if count == 0:
            continue
        table = born_table(state, (obs_a, obs_b))
        rng = _reference_rng(seed, index)
        blocks.append(((obs_a.id, obs_b.id), reference_sample_from_table(table, count, rng)))
    meta = {
        "source": "quantum",
        "prng": PRNG_NAME,
        "seed": seed,
        "subseed_scheme": SUBSEED_SCHEME,
        "state_dim": state.dim,
        "settings": [{"pair": [a, b], "count": c} for (a, b), (_, c) in zip(pair_ids, settings)],
    }
    return Dataset.from_blocks(scenario, blocks, meta)


def reference_sample_lhv_dataset(model, settings, seed):
    pair_ids = [tuple(pair) for pair, _ in settings]
    scenario = _reference_scenario(pair_ids)
    blocks = []
    for index, (pair, count) in enumerate(settings):
        if count < 0:
            raise ContexcertError("sample count must be >= 0")
        if count == 0:
            continue
        a, b = pair
        lambdas = model.lambda_sampler(_reference_rng(seed, index), count)
        col_a = np.asarray(model.response(a, lambdas), dtype=np.int64)
        col_b = np.asarray(model.response(b, lambdas), dtype=np.int64)
        if col_a.shape != (count,) or col_b.shape != (count,):
            raise ContexcertError("response must return one value per hidden draw")
        blocks.append(((a, b), np.column_stack([col_a, col_b])))
    meta = {
        "source": f"lhv:{model.description}",
        "prng": PRNG_NAME,
        "seed": seed,
        "subseed_scheme": SUBSEED_SCHEME,
        "settings": [{"pair": list(p), "count": c} for p, (_, c) in zip(pair_ids, settings)],
    }
    return Dataset.from_blocks(scenario, blocks, meta)


def sampled(sampler, *args):
    """Everything a sampled dataset carries, or the error it raised."""
    try:
        ds = sampler(*args)
    except ContexcertError as exc:
        return type(exc), str(exc)
    blocks = [(setting, codes.dtype, codes.tolist()) for setting, codes in ds.code_blocks]
    return ds.scenario, blocks, list(ds.meta.items())


SIDES = {"A": 0, "A'": 0, "B": 1, "B'": 1}
SAMPLE_PAIRS = st.lists(
    st.tuples(
        st.sampled_from([("A", "B"), ("B'", "A"), ("A'", "B'"), ("A", "B'")]),
        st.sampled_from([0, 1, 7, 40]),
    ),
    min_size=1,
    max_size=5,
)


class TestSamplersShareOneLoop:
    @settings(max_examples=60, deadline=None)
    @given(pairs=SAMPLE_PAIRS, seed=st.integers(0, 2**32 - 1), negative=st.booleans())
    def test_quantum_matches_reference(self, pairs, seed, negative):
        if negative:
            pairs = pairs + [(pairs[0][0], -1)]
        obs = {k: planar_observable(k, 0.4 * i, qubit=q) for i, (k, q) in enumerate(SIDES.items())}
        settings_ = [((obs[a], obs[b]), n) for (a, b), n in pairs]
        state = singlet_state()
        assert sampled(sample_quantum_dataset, state, settings_, seed) == sampled(
            reference_sample_quantum_dataset, state, settings_, seed
        )

    @settings(max_examples=60, deadline=None)
    @given(pairs=SAMPLE_PAIRS, seed=st.integers(0, 2**32 - 1), negative=st.booleans())
    def test_lhv_matches_reference(self, pairs, seed, negative):
        if negative:
            pairs = pairs + [(pairs[0][0], -1)]
        model = sphere_lhv_model({k: (math.sin(i), 0.0, math.cos(i)) for i, k in enumerate(SIDES)})
        assert sampled(sample_lhv_dataset, model, pairs, seed) == sampled(
            reference_sample_lhv_dataset, model, pairs, seed
        )

    def test_zero_count_setting_is_not_drawn(self):
        a = planar_observable("A", 0.0, qubit=0)
        a2 = planar_observable("A'", 1.0, qubit=0)  # does not commute with A
        ds = sample_quantum_dataset(singlet_state(), [((a, a2), 0)], seed=1)
        assert len(ds) == 0
        assert ds.meta["settings"] == [{"pair": ["A", "A'"], "count": 0}]

    def test_lhv_response_shape_checked(self):
        model = LhvModel(lambda rng, n: rng.random(n), lambda obs, lam: np.ones(2, dtype=np.int64))
        with pytest.raises(ContexcertError, match="one value per hidden draw"):
            sample_lhv_dataset(model, [(("A", "B"), 3)], seed=1)

    def test_lhv_response_values_checked(self):
        model = LhvModel(lambda rng, n: rng.random(n), lambda obs, lam: np.zeros(len(lam), dtype=int))
        with pytest.raises(ContexcertError, match="outcome 0 not in alphabet of A"):
            sample_lhv_dataset(model, [(("A", "B"), 3)], seed=1)

    def test_quantum_sampler_hands_over_the_codes_it_drew(self, monkeypatch):
        def no_encode(*args):
            raise AssertionError("encode_rows called")

        monkeypatch.setattr(quantumgen, "encode_rows", no_encode)
        monkeypatch.setattr("contexcert.scenario.encode_rows", no_encode)  # from_blocks
        obs = [planar_observable("A", 0.0, qubit=0), planar_observable("B", 0.7, qubit=1)]
        ds = sample_quantum_dataset(singlet_state(), [((obs[0], obs[1]), 50)], seed=4)
        [(setting, codes)] = ds.code_blocks
        assert setting == ("A", "B") and codes.dtype == np.uint8 and codes.shape == (50, 2)
