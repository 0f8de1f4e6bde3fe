"""isolab: decide when a mixed-state circuit's channel is close to a
linear isometry.

The package provides exact dense linear algebra and purity metrics, a
parseable mixed-state circuit representation compiled to its Stinespring
isometry, Kraus and Choi channel analysis read off that isometry with an
exact isometry test and a worst-case output-mixedness search, a
two-swap-test verification protocol with exact and sampled
outcome statistics, and a reduction turning verifier circuits into
channel instances whose mixing mirrors the verifier's acceptance.
"""

__version__ = "0.1.0"

from .channels import (
    ApproxIsometryDiagnostics,
    ChannelHandle,
    DimensionCapError,
    ExactIsometryResult,
    IsometryReport,
    NotNearIsometryError,
    analyze_channel,
    apply_extended,
    choi_of,
    exact_isometry_test,
    extract_approx_isometry,
    kraus_of,
    min_output_opnorm,
    probe_epsilon,
)
from .circuits import (
    AddAncilla,
    ChannelGate,
    Circuit,
    CircuitParseError,
    TraceOut,
    UnitaryGate,
    append_output_depolarizing,
    apply_circuit,
    apply_circuit_matrix,
    cdepolarize_gate,
    compile_circuit,
    dephase_gate,
    depolarize_gate,
    gate,
    isometry_matrix,
    parse_circuit,
    serialize_circuit,
    unitary_gate,
    validate_circuit,
)
from .linalg import (
    DensityMatrix,
    PureState,
    PurityMetrics,
    fidelity,
    maximally_entangled_state,
    operator_norm,
    partial_trace,
    purity_metrics,
    top_eigenpair,
    trace_norm,
)
from .protocol import (
    ProtocolBoundsReport,
    ProtocolResult,
    SwapTestResult,
    check_protocol_bounds,
    honest_witness,
    run_protocol_exact,
    run_protocol_sampled,
    swap_test,
    symmetric_witness_family,
)
from .reduction import (
    ReductionCheck,
    ReductionOutput,
    VerifierSpec,
    build_instance,
    check_reduction,
    max_accept_prob,
    parse_verifier,
    witness_injection,
)
