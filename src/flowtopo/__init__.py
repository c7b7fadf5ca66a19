"""flowtopo: reconstruct conserved-network topology from steady-state
edge-flow measurements.

The exact lane scales each edge's samples to unit total and takes one
pivoted Cholesky factorization of their Gram matrix: its pivots are the
sink edges, its diagonal the rank, and its triangular factor the sinks
below every other edge, which is the canonical fundamental cutset matrix
(branches exactly the non-sink edges).  Realization then builds the
unique arborescence with that cutset structure.  A noisy lane adds
covariance whitening and picks the number of conservation relations by
an eigenvalue-equality test on the whitened sample covariance; the same
eigendecomposition's signal part picks the sinks by a pivoted QR that
makes the same greedy choice, and that QR's triangular factor gives the
canonical matrix as the exact lane's does, for the same realization.
``reconstruct(data, noise=None)`` runs either lane: passing a noise model
picks the noisy one.
"""

from .errors import (
    AmbiguousParent,
    DisconnectedNetwork,
    EmptySpec,
    FlowtopoError,
    FullDeficiency,
    InvalidArgument,
    LabelMismatch,
    NoInternalNodes,
    NonIntegerCutset,
    NonPositiveFlow,
    NoStableOrder,
    NotArborescence,
    NotASpanningTree,
    NotCanonicalizable,
    NotPositiveDefinite,
    NotUnique,
    NoValidPartition,
    ParseError,
    RankZero,
    SnapFailure,
)
from .graph_model import (
    ENVIRONMENT,
    CutsetMatrix,
    FlowNetwork,
    build_conservation_graph,
    fcutset_matrix,
    is_arborescence,
    reduced_incidence_matrix,
    to_label_convention,
)
from .nullspace import (
    FlowDataMatrix,
    NullBasis,
    Partition,
    estimate_null_basis,
    find_valid_partition,
    to_fcutset_form,
)
from .canonical_cutset import CanonicalCutsetMatrix, canonicalize
from .realize import (
    ReconstructionResult,
    realize_topology,
    to_dot,
    verify_against_truth,
)
from .noise_pipeline import (
    NoiseModel,
    RankTestReport,
    estimate_model_order,
    reconstruct,
    reconstruct_exact,
    reconstruct_noisy,
    whiten,
)
from .synth import (
    ArborescenceSpec,
    FlowSamplerConfig,
    SnrSetting,
    add_noise,
    binary_network_with_edges,
    family_spec,
    generate_arborescence,
    generate_within,
    sample_flows,
)
from .harness import SweepConfig, find_min_z, run_scaling_bench, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AmbiguousParent",
    "ArborescenceSpec",
    "CanonicalCutsetMatrix",
    "CutsetMatrix",
    "DisconnectedNetwork",
    "EmptySpec",
    "ENVIRONMENT",
    "FlowDataMatrix",
    "FlowNetwork",
    "FlowSamplerConfig",
    "FlowtopoError",
    "FullDeficiency",
    "InvalidArgument",
    "LabelMismatch",
    "NoInternalNodes",
    "NoiseModel",
    "NonIntegerCutset",
    "NonPositiveFlow",
    "NoStableOrder",
    "NotArborescence",
    "NotASpanningTree",
    "NotCanonicalizable",
    "NotPositiveDefinite",
    "NotUnique",
    "NoValidPartition",
    "NullBasis",
    "ParseError",
    "Partition",
    "RankTestReport",
    "RankZero",
    "ReconstructionResult",
    "SnapFailure",
    "SnrSetting",
    "SweepConfig",
    "add_noise",
    "binary_network_with_edges",
    "build_conservation_graph",
    "canonicalize",
    "estimate_model_order",
    "estimate_null_basis",
    "family_spec",
    "fcutset_matrix",
    "find_min_z",
    "find_valid_partition",
    "generate_arborescence",
    "generate_within",
    "is_arborescence",
    "realize_topology",
    "reconstruct",
    "reconstruct_exact",
    "reconstruct_noisy",
    "reduced_incidence_matrix",
    "run_scaling_bench",
    "run_sweep",
    "sample_flows",
    "to_dot",
    "to_fcutset_form",
    "to_label_convention",
    "verify_against_truth",
    "whiten",
]
