"""Mixed-state circuit intermediate representation.

A circuit is an ordered list of gates acting on a register of qubits:
unitary gates, a gate that appends an ancilla qubit in |0>, a gate that
traces a qubit out, and named channel gates given by Kraus operators.
A circuit defines a quantum channel, and is compiled once to the channel's
Stinespring isometry, from which its action is read (see Execution).

Qubit indices are stable labels: ``ancilla`` appends a fresh |0> qubit at
the highest index, and ``traceout`` removes one qubit and shifts higher
indices down by one.

Text format (UTF-8, line oriented, ``#`` starts a comment)::

    qubits <n>
    gate <NAME> <t0> [t1 ...]
    umatrix <t0> [t1 ...] : <row-major complex entries>
    ancilla
    traceout <t>
    channel depolarize <t0> [t1 ...]
    channel dephase <t>
    channel cdepolarize <control> : <t0> [t1 ...]

Complex literals are written ``a+bi`` with decimal ``a`` and ``b``
(exponents allowed); serialization uses 17 significant digits so explicit
matrices round-trip exactly.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .linalg import TOL, DensityMatrix

DEFAULT_MAX_DIM = 2 ** 12

_S2 = 1.0 / np.sqrt(2.0)

BUILTIN_UNITARIES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.diag([1.0, 1j]),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

for _m in BUILTIN_UNITARIES.values():
    _m.setflags(write=False)

CHANNEL_NAMES = ("depolarize", "dephase", "cdepolarize")


class DimensionCapError(RuntimeError):
    """Raised when a computation would exceed the total dimension cap."""


def max_total_dim() -> int:
    """Dimension cap for dense computations; the ISOLAB_MAX_DIM environment
    variable overrides the default of 4096 at the user's risk."""
    raw = os.environ.get("ISOLAB_MAX_DIM")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"ISOLAB_MAX_DIM must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"ISOLAB_MAX_DIM must be at least 1, got {cap}")
    return cap


class CircuitParseError(Exception):
    """Parse or validation failure, carrying the 1-based source line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# ---------------------------------------------------------------------------
# Kraus sets of the named channels
# ---------------------------------------------------------------------------

def depolarizing_kraus(dim: int) -> np.ndarray:
    """Kraus operators |i><j| / sqrt(dim) of the uniform mixing channel
    rho -> tr(rho) I/dim, stacked as (dim^2, dim, dim)."""
    return np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim) / np.sqrt(dim)


def dephasing_kraus() -> list[np.ndarray]:
    """Kraus operators {|0><0|, |1><1|} killing qubit coherences."""
    return [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def controlled_depolarizing_kraus(dim: int) -> np.ndarray:
    """Kraus operators of the qubit-controlled uniform mixing channel on a
    *dim*-dimensional target, stacked: identity when the control is |0>,
    complete mixing when it is |1>."""
    ops = np.zeros((dim * dim + 1, 2 * dim, 2 * dim), dtype=complex)
    ops[0, :dim, :dim] = np.eye(dim)
    ops[1:, dim:, dim:] = depolarizing_kraus(dim)
    return ops


# ---------------------------------------------------------------------------
# Gate and circuit types
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UnitaryGate:
    name: str
    targets: tuple[int, ...]
    matrix: np.ndarray
    line: int = field(default=0, repr=False)

    def __post_init__(self):
        self.targets = tuple(int(t) for t in self.targets)
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        self.matrix = m

    def __eq__(self, other):
        return (
            isinstance(other, UnitaryGate)
            and self.name == other.name
            and self.targets == other.targets
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(eq=False)
class AddAncilla:
    line: int = field(default=0, repr=False)

    def __eq__(self, other):
        return isinstance(other, AddAncilla)


@dataclass(eq=False)
class TraceOut:
    target: int
    line: int = field(default=0, repr=False)

    def __eq__(self, other):
        return isinstance(other, TraceOut) and self.target == other.target


@dataclass(eq=False)
class ChannelGate:
    name: str
    targets: tuple[int, ...]
    kraus: np.ndarray  # the operators stacked as (r, 2^k, 2^k)
    line: int = field(default=0, repr=False)

    def __post_init__(self):
        self.targets = tuple(int(t) for t in self.targets)
        m = np.array(self.kraus, dtype=complex)
        m.setflags(write=False)
        self.kraus = m

    def __eq__(self, other):
        return (
            isinstance(other, ChannelGate)
            and self.name == other.name
            and self.targets == other.targets
            and np.array_equal(self.kraus, other.kraus)
        )


Gate = UnitaryGate | AddAncilla | TraceOut | ChannelGate


def gate(name: str, *targets: int) -> UnitaryGate:
    """Builtin unitary gate by name."""
    if name not in BUILTIN_UNITARIES:
        raise ValueError(f"unknown gate name '{name}'")
    m = BUILTIN_UNITARIES[name]
    arity = m.shape[0].bit_length() - 1
    if len(targets) != arity:
        raise ValueError(f"gate {name} takes {arity} target(s), got {len(targets)}")
    return UnitaryGate(name, tuple(targets), m)


def unitary_gate(matrix, *targets: int) -> UnitaryGate:
    """Explicit-matrix unitary gate on the given targets."""
    return UnitaryGate("umatrix", tuple(targets), np.asarray(matrix, dtype=complex))


def _check_kraus_cap(name: str, count: int, dim: int) -> None:
    """Refuse a Kraus tensor of *count* operators of *dim* x *dim* above
    max_total_dim()**2 entries, the largest dense matrix the cap admits."""
    entries, cap = count * dim * dim, max_total_dim()
    if entries > cap * cap:
        raise DimensionCapError(
            f"{name} needs a Kraus tensor of {entries} complex entries ({16 * entries} bytes), "
            f"over the cap of {cap}**2 (set ISOLAB_MAX_DIM to override)"
        )


def depolarize_gate(*targets: int) -> ChannelGate:
    dim = 2 ** len(targets)
    _check_kraus_cap("depolarize", dim * dim, dim)
    return ChannelGate("depolarize", tuple(targets), depolarizing_kraus(dim))


def dephase_gate(target: int) -> ChannelGate:
    return ChannelGate("dephase", (target,), tuple(dephasing_kraus()))


def cdepolarize_gate(control: int, *targets: int) -> ChannelGate:
    """Controlled mixing gate; the control qubit is the first stored target."""
    dim = 2 ** len(targets)
    _check_kraus_cap("cdepolarize", dim * dim + 1, 2 * dim)
    return ChannelGate("cdepolarize", (control,) + tuple(targets), controlled_depolarizing_kraus(dim))


@dataclass(eq=False)
class Circuit:
    input_qubits: int
    gates: list = field(default_factory=list)

    @property
    def output_qubits(self) -> int:
        return self.qubit_counts()[-1]

    def qubit_counts(self) -> list[int]:
        """Register sizes after each gate, starting from the input count."""
        counts = [self.input_qubits]
        for g in self.gates:
            n = counts[-1]
            if isinstance(g, AddAncilla):
                n += 1
            elif isinstance(g, TraceOut):
                n -= 1
            counts.append(n)
        return counts

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.input_qubits == other.input_qubits
            and len(self.gates) == len(other.gates)
            and all(a == b for a, b in zip(self.gates, other.gates))
        )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUM = rf"[+-]?{_UNSIGNED}"
_COMPLEX_RE = re.compile(rf"^({_NUM})([+-]{_UNSIGNED})i$")
# A whole row of literals, ASCII only: any other row is read token by token.
_LITERAL = rf"{_NUM}[+-]{_UNSIGNED}i"
_ROW_RE = re.compile(rf"{_LITERAL}(?:\s+{_LITERAL})*", re.ASCII)


def parse_complex(token: str) -> complex:
    """Parse an ``a+bi`` literal."""
    m = _COMPLEX_RE.match(token)
    if m is None:
        raise ValueError(f"bad complex literal '{token}'")
    return complex(float(m.group(1)), float(m.group(2)))


def _parse_complex_row(text: str) -> list[complex]:
    """The whitespace-separated ``a+bi`` literals of one row. A row that
    matches the grammar as a whole is converted by ``complex`` after the
    i -> j swap, with the same values as ``parse_complex``; any other row
    goes through ``parse_complex`` token by token, which names the first
    bad literal."""
    text = text.strip()
    if _ROW_RE.fullmatch(text):
        return [complex(tok) for tok in text.replace("i", "j").split()]
    return [parse_complex(tok) for tok in text.split()]


def format_complex(z: complex) -> str:
    """Format to 17 significant digits, enough to round-trip a double."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_int(token: str, lineno: int, what: str = "index") -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError(lineno, f"bad {what} '{token}'") from None


def _check_targets(targets: tuple[int, ...], count: int, lineno: int) -> None:
    for t in targets:
        if t < 0 or t >= count:
            raise CircuitParseError(lineno, f"target out of range: {t}")
    if len(set(targets)) != len(targets):
        raise CircuitParseError(lineno, "duplicate target")


def parse_circuit(source: str) -> Circuit:
    """Parse circuit text; raises CircuitParseError with the offending line."""
    n_qubits = None
    gates: list = []
    count = 0
    for lineno, raw in enumerate(source.splitlines(), 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if n_qubits is None:
            if tokens[0] != "qubits":
                raise CircuitParseError(lineno, "missing qubits header")
            if len(tokens) != 2:
                raise CircuitParseError(lineno, "qubits header takes a single count")
            n_qubits = _parse_int(tokens[1], lineno, "qubit count")
            if n_qubits < 1:
                raise CircuitParseError(lineno, "qubit count must be at least 1")
            count = n_qubits
            continue
        g, count = _parse_gate_line(tokens, lineno, count)
        gates.append(g)
    if n_qubits is None:
        raise CircuitParseError(1, "missing qubits header")
    circuit = Circuit(n_qubits, gates)
    validate_circuit(circuit)
    return circuit


def _parse_gate_line(tokens: list[str], lineno: int, count: int):
    kw = tokens[0]
    if kw == "gate":
        if len(tokens) < 3:
            raise CircuitParseError(lineno, "gate needs a name and targets")
        name = tokens[1]
        if name not in BUILTIN_UNITARIES:
            raise CircuitParseError(lineno, f"unknown gate name '{name}'")
        targets = tuple(_parse_int(t, lineno, "target") for t in tokens[2:])
        arity = BUILTIN_UNITARIES[name].shape[0].bit_length() - 1
        if len(targets) != arity:
            raise CircuitParseError(lineno, f"gate {name} takes {arity} target(s)")
        _check_targets(targets, count, lineno)
        return UnitaryGate(name, targets, BUILTIN_UNITARIES[name], line=lineno), count

    if kw == "umatrix":
        if ":" not in tokens:
            raise CircuitParseError(lineno, "umatrix needs a ':' separator")
        sep = tokens.index(":")
        targets = tuple(_parse_int(t, lineno, "target") for t in tokens[1:sep])
        if not targets:
            raise CircuitParseError(lineno, "umatrix needs at least one target")
        dim = 2 ** len(targets)
        entries = tokens[sep + 1:]
        if len(entries) != dim * dim:
            raise CircuitParseError(
                lineno,
                f"umatrix on {len(targets)} target(s) needs {dim * dim} entries, got {len(entries)}",
            )
        try:
            values = _parse_complex_row(" ".join(entries))
        except ValueError as exc:
            raise CircuitParseError(lineno, str(exc)) from None
        m = np.array(values, dtype=complex).reshape(dim, dim)
        if not np.all(np.isfinite(m)):
            raise CircuitParseError(lineno, "matrix entries must be finite")
        # A unitary's entries lie in the unit disc; larger ones are refused
        # before the product, which overflows above about 1e154.
        if np.abs(m).max() > 1.0 + TOL or float(np.abs(m.conj().T @ m - np.eye(dim)).max()) > TOL:
            raise CircuitParseError(lineno, "non-unitary gate")
        _check_targets(targets, count, lineno)
        return UnitaryGate("umatrix", targets, m, line=lineno), count

    if kw == "ancilla":
        if len(tokens) != 1:
            raise CircuitParseError(lineno, "ancilla takes no arguments")
        return AddAncilla(line=lineno), count + 1

    if kw == "traceout":
        if len(tokens) != 2:
            raise CircuitParseError(lineno, "traceout takes a single target")
        t = _parse_int(tokens[1], lineno, "target")
        _check_targets((t,), count, lineno)
        return TraceOut(t, line=lineno), count - 1

    if kw == "channel":
        if len(tokens) < 2:
            raise CircuitParseError(lineno, "channel needs a name")
        sub = tokens[1]
        if sub == "depolarize":
            targets = tuple(_parse_int(t, lineno, "target") for t in tokens[2:])
            if not targets:
                raise CircuitParseError(lineno, "depolarize needs at least one target")
            _check_targets(targets, count, lineno)
            g = depolarize_gate(*targets)
        elif sub == "dephase":
            if len(tokens) != 3:
                raise CircuitParseError(lineno, "dephase takes a single target")
            t = _parse_int(tokens[2], lineno, "target")
            _check_targets((t,), count, lineno)
            g = dephase_gate(t)
        elif sub == "cdepolarize":
            if len(tokens) < 5 or tokens[3] != ":":
                raise CircuitParseError(
                    lineno, "cdepolarize needs 'channel cdepolarize <control> : <targets>'"
                )
            control = _parse_int(tokens[2], lineno, "control")
            targets = tuple(_parse_int(t, lineno, "target") for t in tokens[4:])
            _check_targets((control,) + targets, count, lineno)
            g = cdepolarize_gate(control, *targets)
        else:
            raise CircuitParseError(lineno, f"unknown channel '{sub}'")
        g.line = lineno
        return g, count

    raise CircuitParseError(lineno, f"unknown directive '{kw}'")


def validate_circuit(circuit: Circuit) -> None:
    """Check every gate invariant; raises CircuitParseError on the first
    violation. Gates built programmatically report the line they would
    occupy in serialized form."""
    if circuit.input_qubits < 1:
        raise CircuitParseError(1, "qubit count must be at least 1")
    count = circuit.input_qubits
    last = len(circuit.gates) - 1
    for pos, g in enumerate(circuit.gates):
        line = g.line or pos + 2
        if isinstance(g, UnitaryGate):
            dim = 2 ** len(g.targets)
            if g.matrix.shape != (dim, dim):
                raise CircuitParseError(
                    line, f"gate matrix must be {dim}x{dim} for {len(g.targets)} target(s)"
                )
            if not np.all(np.isfinite(g.matrix)):
                raise CircuitParseError(line, "matrix entries must be finite")
            m = g.matrix
            if np.abs(m).max() > 1.0 + TOL or float(np.abs(m.conj().T @ m - np.eye(dim)).max()) > TOL:
                raise CircuitParseError(line, "non-unitary gate")
            _check_targets(g.targets, count, line)
        elif isinstance(g, ChannelGate):
            dim = 2 ** len(g.targets)
            if len(g.kraus) == 0:
                raise CircuitParseError(line, "channel gate has no Kraus operators")
            acc = np.zeros((dim, dim), dtype=complex)
            for k in g.kraus:
                if k.shape != (dim, dim):
                    raise CircuitParseError(
                        line, f"Kraus operators must be {dim}x{dim} for {len(g.targets)} target(s)"
                    )
                acc += k.conj().T @ k
            if float(np.abs(acc - np.eye(dim)).max()) > TOL:
                raise CircuitParseError(line, "not trace preserving")
            _check_targets(g.targets, count, line)
        elif isinstance(g, AddAncilla):
            count += 1
        elif isinstance(g, TraceOut):
            _check_targets((g.target,), count, line)
            count -= 1
        else:
            raise CircuitParseError(line, f"unknown gate object {type(g).__name__}")
        if count == 0 and pos < last:
            raise CircuitParseError(line, "no qubits remain before the final gate")


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in the text format; parsing the result gives back a
    structurally equal circuit."""
    lines = [f"qubits {circuit.input_qubits}"]
    for g in circuit.gates:
        if isinstance(g, UnitaryGate):
            ts = " ".join(str(t) for t in g.targets)
            if g.name == "umatrix":
                entries = " ".join(format_complex(z) for z in g.matrix.reshape(-1))
                lines.append(f"umatrix {ts} : {entries}")
            else:
                lines.append(f"gate {g.name} {ts}")
        elif isinstance(g, AddAncilla):
            lines.append("ancilla")
        elif isinstance(g, TraceOut):
            lines.append(f"traceout {g.target}")
        elif isinstance(g, ChannelGate):
            if g.name == "cdepolarize":
                rest = " ".join(str(t) for t in g.targets[1:])
                lines.append(f"channel cdepolarize {g.targets[0]} : {rest}")
            elif g.name in ("depolarize", "dephase"):
                ts = " ".join(str(t) for t in g.targets)
                lines.append(f"channel {g.name} {ts}")
            else:
                raise ValueError(f"channel gate '{g.name}' has no text representation")
        else:
            raise ValueError(f"unknown gate object {type(g).__name__}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
#
# Every circuit is compiled once to a Stinespring isometry V, stored as an
# array of shape (d_out, d_env, d_in), whose channel is
# X -> sum_e V[:, e, :] X V[:, e, :]^*. Trace-outs and channel gates grow the
# environment; everything else reads the channel off V. The output on x x^*
# is F F^* for the factor F = _lift(V, x), so it needs no validation.

def _apply_stacked(w: np.ndarray, ops: np.ndarray, targets, n: int) -> np.ndarray:
    """Contract the stacked operators *ops*, shaped (r, 2^k, 2^k), into the
    target qubits of *w*, shaped (d_env, 2^n, d_in). The operator index
    joins the environment as its last factor: (d_env * r, 2^n, d_in)."""
    k = len(targets)
    r = ops.shape[0]
    d_env, _, d_in = w.shape
    t = w.reshape((d_env,) + (2,) * n + (d_in,))
    out = np.tensordot(
        ops.reshape((r,) + (2,) * (2 * k)), t, axes=(list(range(k + 1, 2 * k + 1)), [1 + q for q in targets])
    )
    # Axes of out: r, the targets, d_env, the other qubits in order, d_in.
    rest = [q for q in range(n) if q not in targets]
    perm = [1 + targets.index(q) if q in targets else k + 2 + rest.index(q) for q in range(n)]
    return out.transpose([k + 1, 0] + perm + [n + 2]).reshape(d_env * r, 2 ** n, d_in)


def _compress(w: np.ndarray) -> np.ndarray:
    """Shrink the environment of *w*, shaped (d_env, d_sys, d_in), to
    d_sys * d_in by a thin QR when it is larger; that bounds the rank of the
    channel, so the channel is unchanged."""
    d_env, d_sys, d_in = w.shape
    if d_env <= d_sys * d_in:
        return w
    return np.linalg.qr(w.reshape(d_env, d_sys * d_in), mode="r").reshape(-1, d_sys, d_in)


def _apply_channel(w: np.ndarray, kraus: np.ndarray, targets, n: int) -> np.ndarray:
    """Contract a channel gate's stacked Kraus tensor into the environment
    of *w* in chunks of d_sys * d_in // d_env operators, compressing after
    each chunk, so the working tensor never holds more than twice the
    compressed environment."""
    d_env, d_sys, d_in = w.shape
    step = max(1, d_sys * d_in // d_env)
    out = _apply_stacked(w, kraus[:step], targets, n)
    for s in range(step, len(kraus), step):
        out = np.concatenate([out, _apply_stacked(w, kraus[s:s + step], targets, n)])
        out = _compress(out)
    return out


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """Stinespring isometry V of the circuit's channel, shaped
    (d_out, d_env, d_in), from simulating all d_in basis columns at once.

    A unitary gate is one contraction on the system axes, ``ancilla``
    appends a |0> axis, ``traceout`` moves the qubit into the environment,
    and a channel gate contracts its stacked Kraus tensor into the
    environment, a chunk of operators at a time. Whenever d_env exceeds
    d_sys * d_in, which bounds the rank of the channel so far, a thin QR
    compresses the environment to that size.
    """
    n = circuit.input_qubits
    d_in = 2 ** n
    # V is built with the environment axis first, (d_env, d_sys, d_in), so
    # that compression reshapes it without a copy.
    w = np.eye(d_in, dtype=complex)[None]
    for g in circuit.gates:
        if isinstance(g, UnitaryGate):
            w = _apply_stacked(w, g.matrix[None], g.targets, n)
        elif isinstance(g, AddAncilla):
            w = np.stack([w, np.zeros_like(w)], axis=2).reshape(w.shape[0], -1, d_in)
            n += 1
        elif isinstance(g, TraceOut):
            t = np.moveaxis(w.reshape((w.shape[0],) + (2,) * n + (d_in,)), 1 + g.target, 1)
            n -= 1
            w = t.reshape(-1, 2 ** n, d_in)
        elif isinstance(g, ChannelGate):
            w = _apply_channel(w, g.kraus, g.targets, n)
        else:
            raise ValueError(f"unknown gate object {type(g).__name__}")
        w = _compress(w)
    return np.ascontiguousarray(w.transpose(1, 0, 2))


def _lift(v: np.ndarray, x: np.ndarray, n_ref: int = 0) -> np.ndarray:
    """(V (x) I) x with the identity on *n_ref* trailing reference qubits,
    as a (d_out 2^n_ref)-row matrix with V's environment in the columns:
    for x with d_in 2^n_ref rows and k columns, rows (o, r) and columns
    (e, j). It is a factor of the channel's output on x x^*."""
    d_out, d_env, d_in = v.shape
    d_ref = 2 ** n_ref
    y = v.reshape(d_out * d_env, d_in) @ x.reshape(d_in, -1)
    return y.reshape(d_out, d_env, d_ref, -1).transpose(0, 2, 1, 3).reshape(d_out * d_ref, -1)


def _apply_isometry(v: np.ndarray, left: np.ndarray, right: np.ndarray, n_ref: int = 0) -> np.ndarray:
    """sum_e (V_e (x) I) left right^* (V_e (x) I)^* for V_e = v[:, e, :],
    with the identity on *n_ref* trailing reference qubits. *left* and
    *right* have d_in 2^n_ref rows and k columns each, so a rank-one input
    such as a pure state costs one column."""
    return _lift(v, left, n_ref) @ _lift(v, right, n_ref).conj().T


def apply_circuit_matrix(circuit: Circuit, mat: np.ndarray, n_ref: int = 0) -> np.ndarray:
    """Linear action of the circuit's channel on an arbitrary matrix.

    *n_ref* trailing reference qubits ride along untouched; ancillas are
    inserted between the circuit's own qubits and the reference block so
    gate indices stay valid.
    """
    mat = np.asarray(mat, dtype=complex)
    n = circuit.input_qubits + n_ref
    if mat.shape != (2 ** n, 2 ** n):
        raise ValueError(
            f"dimension mismatch: expected {2 ** n}x{2 ** n} input, got {mat.shape}"
        )
    return _apply_isometry(compile_circuit(circuit), mat, np.eye(2 ** n, dtype=complex), n_ref)


def apply_circuit(circuit: Circuit, rho, n_ref: int = 0) -> DensityMatrix:
    """Run the circuit on a density matrix and return a validated density
    matrix. See apply_circuit_matrix for the reference-qubit convention."""
    dm = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    return DensityMatrix(apply_circuit_matrix(circuit, dm.matrix, n_ref))


def isometry_matrix(circuit: Circuit) -> np.ndarray:
    """Explicit d_out x d_in matrix of a circuit whose compiled isometry has
    a one-dimensional environment."""
    v = compile_circuit(circuit)
    if v.shape[1] != 1:
        raise ValueError(
            "circuit is not an isometry: trace-out or channel gates leave an "
            f"environment of dimension {v.shape[1]}"
        )
    return v[:, 0, :]


def append_output_depolarizing(circuit: Circuit, strength: float) -> Circuit:
    """Return a copy of the circuit whose output suffers uniform mixing
    noise of the given strength: rho -> (1 - strength) rho + strength I/d.

    Realized inside the gate set with one extra ancilla rotated to
    sqrt(1-s)|0> + sqrt(s)|1>, a controlled mixing gate over the output
    qubits, and a trace-out of the ancilla.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must lie in [0, 1]")
    n_out = circuit.output_qubits
    if n_out < 1:
        raise ValueError("circuit has no output qubits")
    a = np.sqrt(1.0 - strength)
    b = np.sqrt(strength)
    rot = np.array([[a, -b], [b, a]], dtype=complex)
    gates = list(circuit.gates)
    gates.append(AddAncilla())
    gates.append(UnitaryGate("umatrix", (n_out,), rot))
    gates.append(cdepolarize_gate(n_out, *range(n_out)))
    gates.append(TraceOut(n_out))
    return Circuit(circuit.input_qubits, gates)
