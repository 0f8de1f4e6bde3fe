"""Verifier-to-channel reduction.

A verifier is an isometry body acting on witness and ancilla registers,
followed by a computational-basis measurement of one output qubit; the
verifier accepts on outcome one. The reduction turns such a verifier into
a channel that is far from an isometry exactly when some witness is
accepted with high probability: instead of discarding the non-measured
outputs, it dephases the measured qubit and applies a mixing channel to
everything else controlled on it, padding with extra ancillas so the
mixed branch is spread over a large enough space.

Verifier file format: a circuit file preceded by a header block ::

    witness: <indices>
    ancilla: <indices>
    measure: <index>
    garbage: <indices>

Witness and ancilla indices partition the circuit inputs; the measured
and garbage indices partition its outputs.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelHandle,
    DimensionCapError,
    _isometry,
    _top_output,
    min_output_opnorm,
)
from .circuits import (
    AddAncilla,
    ChannelGate,
    Circuit,
    CircuitParseError,
    TraceOut,
    _compile,
    cdepolarize_gate,
    dephase_gate,
    gate,
    parse_circuit,
)
from .linalg import PureState, top_eigenpair

MAX_VERIFIER_QUBITS = 10
# Slack of check_reduction: the found mixing meets its bound within it.
REDUCTION_SLACK = 1e-3


@dataclass(eq=False)
class VerifierSpec:
    """Verifier circuit with labeled registers.

    The body may contain unitary and ancilla gates only; witness and
    ancilla indices partition its inputs, the measured qubit and garbage
    indices partition its outputs.
    """

    circuit: Circuit
    witness_qubits: tuple[int, ...]
    ancilla_qubits: tuple[int, ...]
    measured_qubit: int
    garbage_qubits: tuple[int, ...]

    def __post_init__(self):
        self.witness_qubits = tuple(sorted(int(q) for q in self.witness_qubits))
        self.ancilla_qubits = tuple(sorted(int(q) for q in self.ancilla_qubits))
        self.garbage_qubits = tuple(sorted(int(q) for q in self.garbage_qubits))
        self.measured_qubit = int(self.measured_qubit)
        validate_verifier(self)


def validate_verifier(v: VerifierSpec) -> None:
    for g in v.circuit.gates:
        if isinstance(g, (TraceOut, ChannelGate)):
            raise ValueError(
                "verifier body must be an isometry: trace-out and channel gates are not allowed"
            )
    n_in = v.circuit.input_qubits
    w, a = set(v.witness_qubits), set(v.ancilla_qubits)
    if not v.witness_qubits:
        raise ValueError("verifier needs at least one witness qubit")
    if w & a or w | a != set(range(n_in)):
        raise ValueError("witness and ancilla registers must partition the circuit inputs")
    n_out = v.circuit.output_qubits
    g = set(v.garbage_qubits)
    if v.measured_qubit in g or {v.measured_qubit} | g != set(range(n_out)):
        raise ValueError("measured and garbage registers must partition the circuit outputs")


_HEADER_KEYS = ("witness", "ancilla", "measure", "garbage")


def parse_verifier(source: str) -> VerifierSpec:
    """Parse a verifier file: register headers followed by a circuit."""
    headers: dict[str, tuple[int, list[int]]] = {}
    circuit_lines: list[str] = []
    in_circuit = False
    total = 0
    for lineno, raw in enumerate(source.splitlines(), 1):
        total = lineno
        text = raw.split("#", 1)[0].strip()
        if text.startswith("qubits"):
            in_circuit = True
        key = text.split(":", 1)[0].strip() if ":" in text else None
        if not in_circuit and key in _HEADER_KEYS:
            if key in headers:
                raise CircuitParseError(lineno, f"duplicate '{key}:' header")
            value = text.split(":", 1)[1].replace(",", " ").split()
            try:
                indices = [int(tok) for tok in value]
            except ValueError:
                raise CircuitParseError(lineno, f"bad index in '{key}:' header") from None
            headers[key] = (lineno, indices)
            circuit_lines.append("#")
        else:
            circuit_lines.append(raw)
    for key in _HEADER_KEYS:
        if key not in headers:
            raise CircuitParseError(max(total, 1), f"missing '{key}:' header")
    lineno, measure = headers["measure"]
    if len(measure) != 1:
        raise CircuitParseError(lineno, "'measure:' header takes exactly one index")
    circuit = parse_circuit("\n".join(circuit_lines))
    return VerifierSpec(
        circuit=circuit,
        witness_qubits=tuple(headers["witness"][1]),
        ancilla_qubits=tuple(headers["ancilla"][1]),
        measured_qubit=measure[0],
        garbage_qubits=tuple(headers["garbage"][1]),
    )


def _verifier_gates(v: VerifierSpec) -> list:
    """The verifier on its witness register, which opens the reduced
    channel: ancillas appended in |0> and swapped with the witness qubits
    into their declared positions, then the body."""
    order = list(v.witness_qubits) + list(v.ancilla_qubits)
    return [AddAncilla() for _ in v.ancilla_qubits] + _placement_swaps(order) + list(v.circuit.gates)


def max_accept_prob(v: VerifierSpec) -> tuple[float, PureState]:
    """Maximum acceptance probability over witnesses, with a maximizer.

    The acceptance probability is linear in the witness projector, so the
    maximum is the top eigenvalue of the induced acceptance operator on
    the witness space; this is exact, no search involved. It is read off
    ``_verifier_gates``, valid as the verifier is, compiled: an isometry,
    with a one-dimensional environment.
    """
    n_in = v.circuit.input_qubits
    if n_in > MAX_VERIFIER_QUBITS:
        raise DimensionCapError(
            f"verifier supports up to {MAX_VERIFIER_QUBITS} input qubits, got {n_in}"
        )
    t = _compile(len(v.witness_qubits), _verifier_gates(v))[0]
    n_out = v.circuit.output_qubits
    shift = n_out - 1 - v.measured_qubit
    accept = np.array(
        [(x >> shift) & 1 for x in range(2 ** n_out)], dtype=float
    )
    e = t.conj().T @ (accept[:, None] * t)
    e = (e + e.conj().T) / 2.0
    p, vec = top_eigenpair(e)
    return float(min(max(p, 0.0), 1.0)), PureState(vec)


@dataclass(eq=False)
class ReductionOutput:
    """Channel circuit produced by the reduction."""

    channel_circuit: Circuit
    padding_qubits: int
    mixing_dim: int       # dimension of the garbage-plus-padding block
    measured_qubit: int


def _placement_swaps(logical_order: list[int]) -> list:
    """SWAP gates that move logical qubit q into slot q, given the current
    slot-to-logical assignment."""
    arr = list(logical_order)
    gates = []
    for slot in range(len(arr)):
        if arr[slot] == slot:
            continue
        src = arr.index(slot)
        gates.append(gate("SWAP", slot, src))
        arr[slot], arr[src] = arr[src], arr[slot]
    return gates


def build_instance(v: VerifierSpec, epsilon: float) -> ReductionOutput:
    """Emit the channel circuit whose mixing behaviour mirrors the
    verifier's acceptance.

    The channel input is the witness register; ancillas are appended and
    swapped into their declared positions, the body runs, padding ancillas
    raise the output dimension D to satisfy D * epsilon > 2, the measured
    qubit is dephased, and the garbage-plus-padding block is mixed under
    its control.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon out of range (need 0 < epsilon < 1/2)")
    gates = _verifier_gates(v)
    n_out_body = v.circuit.output_qubits
    pad = 0
    while (2 ** (n_out_body + pad)) * epsilon <= 2.0:
        pad += 1
    gates += [AddAncilla() for _ in range(pad)]
    mix_targets = list(v.garbage_qubits) + list(range(n_out_body, n_out_body + pad))
    gates.append(dephase_gate(v.measured_qubit))
    gates.append(cdepolarize_gate(v.measured_qubit, *mix_targets))
    return ReductionOutput(
        channel_circuit=Circuit(len(v.witness_qubits), gates),
        padding_qubits=pad,
        mixing_dim=2 ** len(mix_targets),
        measured_qubit=v.measured_qubit,
    )


@dataclass
class ReductionCheck:
    """Acceptance probability of the verifier against the mixing found in
    the reduced channel, under the promise implications."""

    accept_prob: float
    epsilon: float
    min_opnorm: float
    case: str                 # "low-acceptance" | "high-acceptance" | "gap"
    bound: float | None
    bound_holds: bool | None
    optimal_witness: PureState
    instance: ReductionOutput


def check_reduction(
    v: VerifierSpec, epsilon: float, restarts: int = 16, seed: int = 0
) -> ReductionCheck:
    """Compare the verifier's exact acceptance maximum with the reduced
    channel's found mixing.

    Low acceptance (p <= eps) must leave every output nearly pure; high
    acceptance (p >= 1 - eps) must admit an input with small output
    eigenvalue, exhibited either by the search or by the explicit witness
    with an unentangled reference. In the promise gap no implication
    applies.
    """
    inst = build_instance(v, epsilon)
    p, witness = max_accept_prob(v)
    ch = ChannelHandle(inst.channel_circuit)
    m_search, _ = min_output_opnorm(ch, restarts=restarts, seed=seed)
    ref = np.zeros(ch.dim_in, dtype=complex)
    ref[0] = 1.0
    m_explicit = _top_output(_isometry(ch), np.kron(witness.amplitudes, ref))[0]
    m = min(m_search, m_explicit)
    if p <= epsilon:
        case, bound = "low-acceptance", 1.0 - epsilon
        holds = m >= bound - REDUCTION_SLACK
    elif p >= 1.0 - epsilon:
        case, bound = "high-acceptance", epsilon
        holds = m <= bound + REDUCTION_SLACK
    else:
        case, bound, holds = "gap", None, None
    return ReductionCheck(
        accept_prob=p,
        epsilon=epsilon,
        min_opnorm=m,
        case=case,
        bound=bound,
        bound_holds=holds,
        optimal_witness=witness,
        instance=inst,
    )
