"""Command-line front door.

Subcommands: generate (singlet | lhv | state-file), test (chsh | sz |
bell-original), oracle, randomness, full-suite.  JSON is the canonical
output; the text format is a projection of the same data.  Exit status
signals operational failure only (I/O, parsing, bad arguments) - scientific
verdicts are data and always exit 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    ParseError,
    _parse_value,
    dumps_json,
    ingest,
    json_number,
    read_constraint_system,
    read_label_stream,
    write_dataset_csv,
    write_scenario_json,
)
from .errors import ContexcertError
from .jpdoracle import jpd_feasible
from .quantumgen import (
    DensityState,
    ProjectiveObservable,
    planar_observable,
    sample_lhv_dataset,
    sample_quantum_dataset,
    singlet_state,
    sphere_lhv_model,
)
from .randomtests import PlaceSelection, randomness_test, require_min_retained, require_seed
from .suite import RunConfig, extract_streams, run_full_suite, run_inequality_test, stream_key
from .tolerances import parse_number, parse_policy

SEED_ENV = "CONTEXCERT_SEED"
DEFAULTS = RunConfig()  # the defaults of every option that sets a RunConfig field


def _resolve_seed(value: int | None) -> int:
    if value is None:
        env = os.environ.get(SEED_ENV)
        if env is None:
            raise ContexcertError(
                f"a seed is required: pass --seed or set {SEED_ENV}"
            )
        value = parse_number(int, env, SEED_ENV)
    require_seed(value)
    return value


def _emit(payload: dict, args, out: str | None) -> None:
    """The payload in ``--format`` to the file ``out``, or to stdout when None."""
    text = _render_text(payload) if args.format == "text" else dumps_json(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload) if isinstance(payload, dict) else []:
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


def _write_generated(dataset, seed: int, args) -> None:
    """Dataset CSV to --out and its scenario beside it; generate commands use
    --out for the dataset itself, so their run summary always goes to stdout."""
    write_dataset_csv(dataset, args.out)
    write_scenario_json(dataset.scenario, args.scenario_out or Path(args.out).with_suffix(".scenario.json"))
    _emit({"written": str(args.out), "records": len(dataset), "seed": seed}, args, None)


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = [parse_number(float, tok, "--angles") for tok in text.split(",")]
    if len(parts) != 4:
        raise ContexcertError("--angles needs four comma-separated values a1,a2,b1,b2")
    return tuple(parts)


def cmd_generate_singlet(args) -> None:
    seed = _resolve_seed(args.seed)
    a1, a2, b1, b2 = _parse_angles(args.angles)
    state = singlet_state()
    obs = {
        "A1": planar_observable("A1", a1, qubit=0),
        "A2": planar_observable("A2", a2, qubit=0),
        "B1": planar_observable("B1", b1, qubit=1),
        "B2": planar_observable("B2", b2, qubit=1),
    }
    settings = [
        ((obs[x], obs[y]), args.n)
        for x in ("A1", "A2")
        for y in ("B1", "B2")
    ]
    dataset = sample_quantum_dataset(state, settings, seed)
    dataset.meta["angles"] = {"A1": a1, "A2": a2, "B1": b1, "B2": b2}
    _write_generated(dataset, seed, args)


def _parse_axes(text: str) -> dict[str, tuple[float, float, float]]:
    axes = {}
    for item in text.split(","):
        obs_id, sep, angle = item.partition(":")
        if not sep:
            raise ContexcertError("--axes format is ID:angle,ID:angle,...")
        theta = parse_number(float, angle, f"--axes {item!r}")
        if not math.isfinite(theta):
            raise ContexcertError(f"--axes {item!r}: angle must be finite")
        obs_id = obs_id.strip()
        if obs_id in axes:
            raise ContexcertError(f"--axes {item!r}: observable {obs_id!r} is given twice")
        axes[obs_id] = (math.sin(theta), 0.0, math.cos(theta))
    return axes


def cmd_generate_lhv(args) -> None:
    seed = _resolve_seed(args.seed)
    if args.model != "sphere":
        raise ContexcertError(f"unknown LHV model {args.model!r}")
    axes = _parse_axes(args.axes)
    ids = list(axes)
    if len(ids) != 4:
        raise ContexcertError("sphere model expects four observables (two per side)")
    model = sphere_lhv_model(axes)
    pairs = [(ids[0], ids[2]), (ids[0], ids[3]), (ids[1], ids[2]), (ids[1], ids[3])]
    dataset = sample_lhv_dataset(model, [(p, args.n) for p in pairs], seed)
    _write_generated(dataset, seed, args)


def _complex(entry) -> complex:
    """An [re, im] pair or a plain number."""
    return complex(entry[0], entry[1]) if isinstance(entry, (list, tuple)) else complex(entry)


def _complex_matrix(data, kind: str) -> np.ndarray:
    return np.asarray([[json_number(_complex, c, kind) for c in row] for row in data], dtype=complex)


def _load_observable(entry: dict, dim: int) -> ProjectiveObservable:
    if "angle" in entry:
        n_qubits = int(round(math.log2(dim)))
        return planar_observable(
            entry["id"], json_number(float, entry["angle"], "observables"),
            qubit=json_number(int, entry.get("qubit", 0), "observables"), n_qubits=n_qubits,
        )
    projectors = {
        json_number(int, value, "observables"): _complex_matrix(matrix, "observables")
        for value, matrix in entry["projectors"].items()
    }
    return ProjectiveObservable(entry["id"], projectors)


def cmd_generate_state_file(args) -> None:
    seed = _resolve_seed(args.seed)
    state_data = json.loads(Path(args.state).read_text())
    try:
        state = DensityState(_complex_matrix(state_data["matrix"], "state"))
    except KeyError as exc:
        raise ParseError(f"state JSON missing field: {exc}") from None
    obs_data = json.loads(Path(args.observables).read_text())
    observables = {}
    try:
        for entry in obs_data:
            if entry["id"] in observables:
                raise ContexcertError(f"observables JSON: observable {entry['id']!r} is given twice")
            observables[entry["id"]] = _load_observable(entry, state.dim)
    except KeyError as exc:
        raise ParseError(f"observables JSON missing field: {exc}") from None
    settings = []
    for item in args.pairs.split(","):
        pair, sep, count = item.rpartition(":")
        if not sep:
            raise ContexcertError("--pairs format is A+B:count,...")
        ids = [obs_id.strip() for obs_id in pair.partition("+")[::2]]
        unknown = [obs_id for obs_id in ids if obs_id not in observables]
        if unknown:
            raise ContexcertError(f"--pairs {item!r}: unknown observable {unknown[0]!r}")
        count = parse_number(int, count, f"--pairs {item!r}")
        settings.append((tuple(observables[obs_id] for obs_id in ids), count))
    dataset = sample_quantum_dataset(state, settings, seed)
    _write_generated(dataset, seed, args)


def _run_config(args, **fields) -> RunConfig:
    """The RunConfig of the options ``test`` and ``full-suite`` share, plus ``fields``."""
    return RunConfig(
        tolerance_policy=parse_policy(args.tolerance_policy),
        delta=args.delta,
        zero_mean_tolerance=args.zero_mean_tolerance,
        **fields,
    )


def cmd_test(args) -> None:
    config = _run_config(args)
    dataset = ingest(args.data, args.scenario)
    which = "suppes-zanotti" if args.which == "sz" else args.which
    run = run_inequality_test(dataset, which, config, args.constraint_pair)
    _emit(run.verdict.to_json(), args, args.out)


def cmd_oracle(args) -> None:
    system = read_constraint_system(args.constraints, exact=args.exact)
    result = jpd_feasible(system, feasibility_tol=args.tolerance, exact=args.exact)
    _emit(result.to_json(), args, args.out)


def _parse_selections(text: str, seed: int) -> list[PlaceSelection]:
    selections = []
    for token in text.split(","):
        token = token.strip()
        parts, context = token.split(":"), f"selection token {token!r}"
        if token == "prime":
            selections.append(PlaceSelection.prime_index())
        elif token.startswith("after:"):
            # one symbol per character, except that '-' joins the digit after it
            symbols = re.findall(r"-\d|.", token[len("after:"):])
            pattern = tuple(_parse_value(sym) for sym in symbols)
            selections.append(PlaceSelection.after_pattern(pattern))
        elif parts[0] == "mod":
            if len(parts) != 3:
                raise ContexcertError(f"{context}: expected mod:M:R")
            m, r = (parse_number(int, part, context) for part in parts[1:])
            selections.append(PlaceSelection.index_arithmetic(m, r))
        elif parts[0] == "coin":
            if len(parts) > 3:
                raise ContexcertError(f"{context}: expected coin, coin:SEED or coin:SEED:BIAS")
            coin_seed = parse_number(int, parts[1], context) if len(parts) > 1 else seed
            bias = parse_number(float, parts[2], context) if len(parts) > 2 else 0.5
            selections.append(PlaceSelection.external_coin(coin_seed, bias))
        else:
            raise ContexcertError(f"unknown selection token {token!r}")
    return selections


def cmd_randomness(args) -> None:
    seed = _resolve_seed(args.seed)
    selections = _parse_selections(args.selections, seed)
    policy = parse_policy(args.policy)
    require_min_retained(args.min_retained)
    if args.stream:
        seq = read_label_stream(args.stream)
    elif args.data and args.scenario and args.setting and args.observable:
        dataset = ingest(args.data, args.scenario)
        canonical = dataset.scenario.canonical_setting(args.setting.split("+"))
        key = stream_key(args.observable, canonical)
        streams = extract_streams(dataset)
        if key not in streams:
            raise ContexcertError(f"stream {key} not present in the dataset")
        seq = streams[key]
    else:
        raise ContexcertError(
            "provide --stream, or --data/--scenario/--setting/--observable"
        )
    report = randomness_test(seq, selections, policy, args.min_retained)
    _emit(report.to_json(), args, args.out)


def cmd_full_suite(args) -> None:
    seed = _resolve_seed(args.seed)
    policy = parse_policy(args.randomness_policy)
    config = _run_config(args, randomness_policy=policy, seed=seed, min_retained=args.min_retained)
    dataset = ingest(args.data, args.scenario)
    report = run_full_suite(dataset, config)
    _emit(report.to_json(), args, args.out)


def _add_tail(parser: argparse.ArgumentParser, seed: bool, generated: bool = False) -> None:
    """The options every subcommand ends with, added last so that usage lines
    and missing-argument errors keep their order."""
    if seed:
        parser.add_argument("--seed", type=int)
    parser.add_argument("--out", required=generated)
    if generated:
        parser.add_argument("--scenario-out")
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The input and test options ``test`` and ``full-suite`` share."""
    parser.add_argument("--data", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--tolerance-policy", default=DEFAULTS.tolerance_policy.describe())
    parser.add_argument("--delta", type=float, default=DEFAULTS.delta)
    parser.add_argument("--zero-mean-tolerance", type=float, default=DEFAULTS.zero_mean_tolerance)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contexcert",
        description="certification tests for contextuality and randomness",
    )
    parser.add_argument("--version", action="version", version=f"contexcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize datasets")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    g_singlet = gen_sub.add_parser("singlet", help="two-qubit singlet sampler")
    g_singlet.add_argument("--angles", required=True, help="a1,a2,b1,b2 in radians")
    g_singlet.add_argument("--n", type=int, required=True, help="records per pair")
    _add_tail(g_singlet, seed=True, generated=True)
    g_singlet.set_defaults(func=cmd_generate_singlet)

    g_lhv = gen_sub.add_parser("lhv", help="local hidden-variable sampler")
    g_lhv.add_argument("--model", default="sphere")
    g_lhv.add_argument(
        "--axes",
        default="A1:0,A2:1.5707963,B1:0.7853982,B2:2.3561945",
        help="ID:planar-angle list; first two ids form the A side",
    )
    g_lhv.add_argument("--n", type=int, required=True)
    _add_tail(g_lhv, seed=True, generated=True)
    g_lhv.set_defaults(func=cmd_generate_lhv)

    g_state = gen_sub.add_parser("state-file", help="sample from a state JSON file")
    g_state.add_argument("--state", required=True)
    g_state.add_argument("--observables", required=True)
    g_state.add_argument("--pairs", required=True, help="A+B:count,...")
    _add_tail(g_state, seed=True, generated=True)
    g_state.set_defaults(func=cmd_generate_state_file)

    test = sub.add_parser("test", help="run one inequality test")
    test.add_argument("which", choices=("chsh", "sz", "bell-original"))
    _add_run_options(test)
    test.add_argument("--constraint-pair", help="e.g. A2+B1 (bell-original only)")
    _add_tail(test, seed=False)
    test.set_defaults(func=cmd_test)

    oracle = sub.add_parser("oracle", help="joint-distribution feasibility")
    oracle.add_argument("--constraints", required=True)
    oracle.add_argument("--tolerance", type=float, default=1e-9)
    oracle.add_argument("--exact", action="store_true")
    _add_tail(oracle, seed=False)
    oracle.set_defaults(func=cmd_oracle)

    rand = sub.add_parser("randomness", help="place-selection battery")
    rand.add_argument("--stream", help="text file, one symbol per line")
    rand.add_argument("--data")
    rand.add_argument("--scenario")
    rand.add_argument("--setting", help="e.g. A1+B1")
    rand.add_argument("--observable")
    rand.add_argument("--selections", default="prime,mod:2:0,coin")
    rand.add_argument("--policy", default=DEFAULTS.randomness_policy.describe())
    rand.add_argument("--min-retained", type=int, default=DEFAULTS.min_retained)
    _add_tail(rand, seed=True)
    rand.set_defaults(func=cmd_randomness)

    full = sub.add_parser("full-suite", help="signaling + tests + oracle + randomness")
    _add_run_options(full)
    full.add_argument("--randomness-policy", default=DEFAULTS.randomness_policy.describe())
    full.add_argument("--min-retained", type=int, default=DEFAULTS.min_retained)
    _add_tail(full, seed=True)
    full.set_defaults(func=cmd_full_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ContexcertError, OSError, json.JSONDecodeError) as exc:
        print(f"contexcert: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
