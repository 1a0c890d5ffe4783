"""contexcert: certification toolkit for contextuality and randomness tests
on +-1-valued measurement data.
"""

__version__ = "0.1.0"

from .errors import ContexcertError
from .scenario import (
    CorrelationSet,
    Dataset,
    Observable,
    OutcomeRecord,
    ProbTable,
    Scenario,
    correlation,
    correlation_set,
    estimate_table,
    marginalize,
)
from .signaling import SignalingReport, no_signaling_test, signaling_deviation
from .belltests import (
    ChshInput,
    Outcome,
    TestVerdict,
    TripleInput,
    chsh_max,
    chsh_test,
    chsh_value,
    original_bell_test,
    sz_test,
)
from .jpdoracle import (
    FeasibilityResult,
    MarginalConstraintSystem,
    jpd_feasible,
)
from .quantumgen import (
    DensityState,
    LhvModel,
    ProjectiveObservable,
    born_table,
    planar_observable,
    sample_lhv_dataset,
    sample_quantum_dataset,
    singlet_correlation,
    singlet_state,
    sphere_lhv_model,
)
from .randomtests import (
    LabelSequence,
    PlaceSelection,
    RandomnessReport,
    apply_selection,
    frequency,
    randomness_test,
    stabilization_profile,
)
from .tolerances import FixedTolerance, StatisticalTolerance, parse_policy
from .suite import CertReport, RunConfig, fine_equivalence_check, run_full_suite, triple_jpd_feasible

__all__ = [
    "ContexcertError",
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
    "SignalingReport",
    "signaling_deviation",
    "no_signaling_test",
    "ChshInput",
    "TripleInput",
    "TestVerdict",
    "Outcome",
    "chsh_value",
    "chsh_max",
    "chsh_test",
    "sz_test",
    "original_bell_test",
    "MarginalConstraintSystem",
    "FeasibilityResult",
    "jpd_feasible",
    "triple_jpd_feasible",
    "fine_equivalence_check",
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
    "LabelSequence",
    "PlaceSelection",
    "RandomnessReport",
    "frequency",
    "stabilization_profile",
    "apply_selection",
    "randomness_test",
    "FixedTolerance",
    "StatisticalTolerance",
    "parse_policy",
    "RunConfig",
    "CertReport",
    "run_full_suite",
]
