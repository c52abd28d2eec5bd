"""Gain estimation for the non-deterministic noiseless linear amplifier.

Truncated-Fock-space numerics for the sequential estimation scheme: herald
the amplifier's success or failure, then measure the conditional state.  The
package computes the quantum/classical Fisher informations of every strategy
built from that scheme, cross-validates them against fidelity
finite-difference oracles, and verifies by Monte-Carlo simulation that
maximum-likelihood estimation saturates the Cramér–Rao bound.
"""

from .fock import FockVector
from .instrument import (
    FAILURE,
    SUCCESS,
    BranchImpossible,
    GainDomain,
    MeterBatch,
    MeterState,
    NlaParams,
    branch_probability,
    conditional_state,
)
from .fisher import (
    FisherBreakdown,
    classical_fi,
    qfi_branch,
    qfi_effective,
    qfi_effective_closed_form,
    qfi_joint_meter,
    qfi_unconditional,
)
from .measurements import (
    HOMODYNE,
    PHOTON_COUNTING,
    fi_homodyne,
    fi_photon_counting,
    homodyne_distribution,
    photon_counting_dist,
    sequential_fi,
)
from .montecarlo import (
    DETECTORS,
    HERALD_ONLY,
    SUCCESS_ONLY,
    DegenerateLikelihood,
    ExperimentConfig,
    ExperimentResult,
    GainGrid,
    run_crb_experiment,
)
from .oracles import KrausImageFD, OracleReport, joint_fi_direct
from .probes import ProbeSpec, coherent_state, custom_probe, squeezed_vacuum

__version__ = "0.1.0"

__all__ = [
    "BranchImpossible",
    "DETECTORS",
    "DegenerateLikelihood",
    "ExperimentConfig",
    "ExperimentResult",
    "FAILURE",
    "FisherBreakdown",
    "FockVector",
    "GainDomain",
    "GainGrid",
    "HERALD_ONLY",
    "HOMODYNE",
    "KrausImageFD",
    "MeterBatch",
    "MeterState",
    "NlaParams",
    "OracleReport",
    "PHOTON_COUNTING",
    "ProbeSpec",
    "SUCCESS",
    "SUCCESS_ONLY",
    "branch_probability",
    "classical_fi",
    "coherent_state",
    "conditional_state",
    "custom_probe",
    "fi_homodyne",
    "fi_photon_counting",
    "homodyne_distribution",
    "joint_fi_direct",
    "photon_counting_dist",
    "qfi_branch",
    "qfi_effective",
    "qfi_effective_closed_form",
    "qfi_joint_meter",
    "qfi_unconditional",
    "run_crb_experiment",
    "sequential_fi",
    "squeezed_vacuum",
]
