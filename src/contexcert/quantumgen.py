"""Ground-truth data generation on small Hilbert spaces.

Provides trace-rule probability tables for commuting projective observables,
the standard two-qubit singlet configuration with its -cos(a-b) pair
correlation, and local-hidden-variable samplers that realize a common
probability space by construction.

Sampling is deterministic: every setting draws from its own PCG64 stream
derived as SeedSequence(entropy=seed, spawn_key=(setting_index,)), and the
generator name plus derivation scheme are recorded in the dataset metadata
so runs can be reproduced bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContexcertError
from .scenario import DICHOTOMIC, Dataset, Observable, ProbTable, Scenario, code_dtype, encode_rows, setting_cells

MAX_DIM = 16
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
PROJECTOR_TOL = 1e-10
COMMUTATOR_TOL = 1e-10
DRAW_PIECE = 1 << 16  # doubles drawn at a time, so a setting never holds one per record

PRNG_NAME = "numpy-PCG64"
SUBSEED_SCHEME = "SeedSequence(entropy=seed, spawn_key=(setting_index,))"


class InvalidState(ContexcertError):
    """Matrix fails the density-operator requirements."""


class NonCommuting(ContexcertError):
    """Requested observables are incompatible; no joint table exists."""


@dataclass(frozen=True)
class DensityState:
    """A validated density operator on a Hilbert space of dimension <= 16."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidState("state matrix must be square")
        if m.shape[0] > MAX_DIM:
            raise InvalidState(f"dimension {m.shape[0]} exceeds cap {MAX_DIM}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise InvalidState("state matrix is not Hermitian")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() < -PSD_TOL:
            raise InvalidState(f"state has negative eigenvalue {eigenvalues.min():g}")
        if abs(m.trace() - 1.0) > HERMITIAN_TOL:
            raise InvalidState(f"state trace {m.trace():g} != 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProjectiveObservable:
    """A +-1 observable given by its two orthogonal eigenprojectors."""

    id: str
    projectors: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        if not self.id:
            raise ContexcertError("observable id must be nonempty")
        projs = {int(k): np.array(v, dtype=complex) for k, v in dict(self.projectors).items()}
        if set(projs) != {1, -1}:
            raise ContexcertError(f"{self.id}: projector outcomes must be exactly +1 and -1")
        dims = {p.shape for p in projs.values()}
        if len(dims) != 1 or any(s[0] != s[1] for s in dims):
            raise ContexcertError(f"{self.id}: projectors must be square and same-dimension")
        for value, p in projs.items():
            if np.max(np.abs(p - p.conj().T)) > PROJECTOR_TOL:
                raise ContexcertError(f"{self.id}: projector for {value} not Hermitian")
            if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL:
                raise ContexcertError(f"{self.id}: projector for {value} not idempotent")
        if np.max(np.abs(projs[1] @ projs[-1])) > PROJECTOR_TOL:
            raise ContexcertError(f"{self.id}: outcome projectors not orthogonal")
        dim = next(iter(dims))[0]
        if np.max(np.abs(projs[1] + projs[-1] - np.eye(dim))) > PROJECTOR_TOL:
            raise ContexcertError(f"{self.id}: projectors do not sum to identity")
        for p in projs.values():
            p.setflags(write=False)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[1].shape[0]

    @property
    def alphabet(self) -> tuple:
        return DICHOTOMIC


def commute(x: ProjectiveObservable, y: ProjectiveObservable) -> bool:
    """Whether every projector of x commutes with every projector of y."""
    for p in x.projectors.values():
        for q in y.projectors.values():
            if np.max(np.abs(p @ q - q @ p)) > COMMUTATOR_TOL:
                return False
    return True


def born_table(state: DensityState, observables: Sequence[ProjectiveObservable]) -> ProbTable:
    """Joint outcome table Tr(rho P1 ... Pn) for commuting projector families.

    Incompatible (non-commuting) requests fail: a joint table is undefined
    for them by construction, not approximated.
    """
    observables = list(observables)
    if not observables:
        raise ContexcertError("need at least one observable")
    ids = [o.id for o in observables]
    if len(set(ids)) != len(ids):
        raise ContexcertError("duplicate observable ids in joint measurement")
    for o in observables:
        if o.dim != state.dim:
            raise InvalidState(f"{o.id}: dimension {o.dim} != state dimension {state.dim}")
    for x, y in combinations(observables, 2):
        if not commute(x, y):
            raise NonCommuting(f"observables {x.id} and {y.id} do not commute")

    probs: dict[tuple, float] = {}
    for outcomes in product(DICHOTOMIC, repeat=len(observables)):
        op = state.matrix
        for o, value in zip(observables, outcomes):
            op = op @ o.projectors[value]
        p = op.trace()
        if abs(p.imag) > PSD_TOL or p.real < -PSD_TOL:
            raise InvalidState(f"trace rule produced invalid probability {p!r}")
        probs[outcomes] = max(p.real, 0.0)
    total = math.fsum(probs.values())
    if abs(total - 1.0) > PSD_TOL:
        raise InvalidState(f"trace-rule table sums to {total!r}")
    probs = {k: v / total for k, v in probs.items()}
    return ProbTable(
        support=tuple(ids),
        probs=probs,
        alphabets=(DICHOTOMIC,) * len(ids),
    )


def singlet_state() -> DensityState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) as a density operator."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    return DensityState(np.outer(psi, psi.conj()))


def planar_observable(obs_id: str, angle: float, qubit: int, n_qubits: int = 2) -> ProjectiveObservable:
    """Spin observable cos(angle)*sigma_z + sin(angle)*sigma_x on one qubit.

    All tests in this package need only angle differences within a fixed
    measurement plane, so the Bloch vector is restricted to the x-z circle.
    """
    if not math.isfinite(angle):
        raise ContexcertError(f"{obs_id}: angle must be finite, got {angle!r}")
    return bloch_observable(obs_id, (math.sin(angle), 0.0, math.cos(angle)), qubit, n_qubits)


def bloch_observable(
    obs_id: str, direction: Sequence[float], qubit: int, n_qubits: int = 2
) -> ProjectiveObservable:
    """Spin observable n.sigma for a unit Bloch vector n, embedded on one qubit."""
    nx, ny, nz = (float(v) for v in direction)
    if not all(map(math.isfinite, (nx, ny, nz))):
        raise ContexcertError(f"Bloch vector must be finite, got {(nx, ny, nz)}")
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if abs(norm - 1.0) > 1e-9:
        raise ContexcertError(f"Bloch vector must be unit length, got norm {norm:g}")
    if not 0 <= qubit < n_qubits:
        raise ContexcertError(f"qubit index {qubit} outside 0..{n_qubits - 1}")
    sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    plus = (eye2 + sigma) / 2.0
    minus = (eye2 - sigma) / 2.0

    def embed(p: np.ndarray) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for q in range(n_qubits):
            out = np.kron(out, p if q == qubit else eye2)
        return out

    return ProjectiveObservable(obs_id, {1: embed(plus), -1: embed(minus)})


def singlet_correlation(angle_a: float, angle_b: float) -> float:
    """Closed-form singlet pair correlation -cos(angle_a - angle_b)."""
    return -math.cos(angle_a - angle_b)


def _sample_from_table(table: ProbTable, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw over the cells in ``table.cells()`` order, as cell
    numbers: a cell's number in that order is its mixed-radix :func:`cell_index`.
    The doubles of ``rng.random(count)`` are drawn ``DRAW_PIECE`` at a time."""
    cdf = np.cumsum([float(table.prob(cell)) for cell in table.cells()])
    cells = np.empty(count, code_dtype([len(cdf)]))
    for start in range(0, count, DRAW_PIECE):
        idx = np.searchsorted(cdf, rng.random(min(DRAW_PIECE, count - start)), side="right")
        cells[start : start + DRAW_PIECE] = np.clip(idx, 0, len(cdf) - 1, out=idx)
    return cells


def _sample_pairs(
    pairs: Sequence[tuple[tuple[str, str], int]],
    seed: int,
    draw: Callable[[Scenario, int, int, np.random.Generator], np.ndarray],
    source: str,
    **extra_meta,
) -> Dataset:
    """The cells ``draw(scenario, index, count, rng)`` of each setting with a positive
    count, ``rng`` being the setting's own stream, plus the reproduction metadata."""
    pairs = [(tuple(pair), count) for pair, count in pairs]
    ids = dict.fromkeys(obs for pair, _ in pairs for obs in pair)
    scenario = Scenario(tuple(Observable(i) for i in ids), tuple(frozenset(p) for p, _ in pairs))
    meta = {
        "source": source,
        "prng": PRNG_NAME,
        "seed": seed,
        "subseed_scheme": SUBSEED_SCHEME,
        **extra_meta,
        "settings": [{"pair": list(pair), "count": count} for pair, count in pairs],
    }

    def blocks():  # drawn as from_cells takes them, so that one draw at a time is held at full width
        for index, (pair, count) in enumerate(pairs):
            if count < 0:
                raise ContexcertError("sample count must be >= 0")
            if count:
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
                )
                yield pair, draw(scenario, index, count, rng)

    return Dataset.from_cells(scenario, blocks(), meta)


def sample_quantum_dataset(
    state: DensityState,
    settings: Sequence[tuple[tuple[ProjectiveObservable, ProjectiveObservable], int]],
    seed: int,
) -> Dataset:
    """Draw i.i.d. joint outcomes from the trace-rule table of each setting."""

    def draw(scenario: Scenario, index: int, count: int, rng: np.random.Generator) -> np.ndarray:
        return _sample_from_table(born_table(state, settings[index][0]), count, rng)

    pairs = [((a.id, b.id), count) for (a, b), count in settings]
    return _sample_pairs(pairs, seed, draw, "quantum", state_dim=state.dim)


@dataclass(frozen=True)
class LhvModel:
    """Common-probability-space sampler: hidden values plus response functions.

    ``lambda_sampler(rng, n)`` draws n hidden values; ``response(obs_id,
    lambdas)`` maps them to +-1 outcomes elementwise.  The response never
    sees which partner observable is co-measured, so every dataset the model
    generates admits a global joint distribution by construction.
    """

    lambda_sampler: Callable[[np.random.Generator, int], np.ndarray]
    response: Callable[[str, np.ndarray], np.ndarray]
    description: str = "lhv"


def sphere_lhv_model(axes: Mapping[str, Sequence[float]]) -> LhvModel:
    """Hidden unit vector on the sphere, outcome sign(lambda . axis)."""
    unit_axes = {}
    for obs_id, axis in axes.items():
        v = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(v)
        if not np.isfinite(norm):
            raise ContexcertError(f"axis for {obs_id} must be finite, got {tuple(v.tolist())}")
        if norm == 0:
            raise ContexcertError(f"axis for {obs_id} must be nonzero")
        unit_axes[obs_id] = v / norm

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def respond(obs_id: str, lambdas: np.ndarray) -> np.ndarray:
        axis = unit_axes[obs_id]
        out = np.where(np.asarray(lambdas) @ axis >= 0.0, 1, -1)
        return out.astype(np.int64)

    return LhvModel(sample, respond, description="sphere")


def sample_lhv_dataset(
    model: LhvModel,
    settings: Sequence[tuple[tuple[str, str], int]],
    seed: int,
) -> Dataset:
    """One hidden draw per record, evaluated for both observables of the setting."""

    def draw(scenario: Scenario, index: int, count: int, rng: np.random.Generator) -> np.ndarray:
        lambdas = model.lambda_sampler(rng, count)
        pair = tuple(settings[index][0])
        columns = [np.asarray(model.response(obs, lambdas), dtype=np.int64) for obs in pair]
        if any(col.shape != (count,) for col in columns):
            raise ContexcertError("response must return one value per hidden draw")
        return setting_cells(scenario, pair, encode_rows(scenario, pair, np.column_stack(columns)))

    return _sample_pairs(settings, seed, draw, f"lhv:{model.description}")


def random_density_state(dim: int, rng: np.random.Generator) -> DensityState:
    """Haar-ish random mixed state G G^dagger / Tr, for property tests."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityState(m / m.trace())
