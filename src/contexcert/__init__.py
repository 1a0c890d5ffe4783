"""contexcert: certification toolkit for contextuality and randomness tests
on +-1-valued measurement data.

Each name in ``__all__`` is imported from its module when it is first read,
so ``import contexcert`` loads no submodule, and a CLI process loads only the
modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ContexcertError",),
    "scenario": (
        "Observable",
        "Scenario",
        "OutcomeRecord",
        "Dataset",
        "ProbTable",
        "CorrelationSet",
        "estimate_table",
        "marginalize",
        "correlation",
        "correlation_set",
    ),
    "signaling": ("SignalingReport", "signaling_deviation", "no_signaling_test"),
    "belltests": (
        "ChshInput",
        "TripleInput",
        "TestVerdict",
        "Outcome",
        "chsh_value",
        "chsh_max",
        "chsh_test",
        "sz_test",
        "original_bell_test",
    ),
    "jpdoracle": ("MarginalConstraintSystem", "FeasibilityResult", "jpd_feasible"),
    "quantumgen": (
        "DensityState",
        "ProjectiveObservable",
        "LhvModel",
        "born_table",
        "planar_observable",
        "singlet_state",
        "singlet_correlation",
        "sample_quantum_dataset",
        "sample_lhv_dataset",
        "sphere_lhv_model",
    ),
    "randomtests": (
        "LabelSequence",
        "PlaceSelection",
        "RandomnessReport",
        "frequency",
        "stabilization_profile",
        "apply_selection",
        "randomness_test",
    ),
    "tolerances": ("FixedTolerance", "StatisticalTolerance", "parse_policy", "RunConfig"),
    "suite": ("CertReport", "run_full_suite", "triple_jpd_feasible", "fine_equivalence_check"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
