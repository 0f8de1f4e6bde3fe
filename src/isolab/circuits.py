"""Mixed-state circuit intermediate representation.

A circuit is an ordered tuple of gates acting on a register of qubits:
unitary gates, a gate that appends an ancilla qubit in |0>, a gate that
traces a qubit out, and the named mixing channels.
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

from .linalg import TOL

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

# Fewest and most (None: any) targets of each named channel, and the rule.
_CHANNEL_ARITY = {
    "depolarize": (1, None, "needs at least one target"),
    "dephase": (1, 1, "takes a single target"),
    "cdepolarize": (2, None, "needs a control and at least one target"),
}


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
# Gate and circuit types
# ---------------------------------------------------------------------------

@dataclass(eq=False, frozen=True)
class UnitaryGate:
    name: str
    targets: tuple[int, ...]
    matrix: np.ndarray
    line: int = field(default=0, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        return (
            isinstance(other, UnitaryGate)
            and self.name == other.name
            and self.targets == other.targets
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(frozen=True)
class AddAncilla:
    line: int = field(default=0, repr=False, compare=False)


@dataclass(frozen=True)
class TraceOut:
    target: int
    line: int = field(default=0, repr=False, compare=False)


@dataclass(frozen=True)
class ChannelGate:
    """A named mixing channel: ``depolarize`` replaces its targets by the
    maximally mixed state, ``dephase`` kills the coherences of its one
    target, and ``cdepolarize`` mixes targets[1:] when the control
    targets[0] is |1> and leaves them alone when it is |0>."""

    name: str
    targets: tuple[int, ...]
    line: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


Gate = UnitaryGate | AddAncilla | TraceOut | ChannelGate


def gate(name: str, *targets: int) -> UnitaryGate:
    """Builtin unitary gate by name; the circuit it joins checks its arity."""
    if name not in BUILTIN_UNITARIES:
        raise ValueError(f"unknown gate name '{name}'")
    return UnitaryGate(name, targets, BUILTIN_UNITARIES[name])


def dephase_gate(target: int) -> ChannelGate:
    return ChannelGate("dephase", (target,))


def cdepolarize_gate(control: int, *targets: int) -> ChannelGate:
    """Controlled mixing gate; the control qubit is the first stored target."""
    return ChannelGate("cdepolarize", (control,) + targets)


@dataclass(eq=False, frozen=True)
class Circuit:
    """A register of *input_qubits* qubits and the gates applied to it in
    order. It is validated once, here, by ``validate_circuit``, and its
    gates are kept as a tuple: every circuit that exists is valid and stays
    as it was built."""

    input_qubits: int
    gates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        validate_circuit(self)

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
            and self.gates == other.gates
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
    """Parse circuit text; raises CircuitParseError with the offending line.

    The parser reads syntax only: directives, literals, builtin gate names
    and the umatrix entry count. Every rule about qubits and matrices is
    checked once, by the ``Circuit`` it builds, so a syntax error anywhere
    is reported before a semantic error on an earlier line."""
    n_qubits = None
    gates: list = []
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
            continue
        gates.append(_parse_gate_line(tokens, lineno))
    if n_qubits is None:
        raise CircuitParseError(1, "missing qubits header")
    return Circuit(n_qubits, gates)


def _parse_gate_line(tokens: list[str], lineno: int) -> Gate:
    kw = tokens[0]
    if kw == "gate":
        if len(tokens) < 3:
            raise CircuitParseError(lineno, "gate needs a name and targets")
        name = tokens[1]
        if name not in BUILTIN_UNITARIES:
            raise CircuitParseError(lineno, f"unknown gate name '{name}'")
        targets = tuple(_parse_int(t, lineno, "target") for t in tokens[2:])
        return UnitaryGate(name, targets, BUILTIN_UNITARIES[name], line=lineno)

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
        return UnitaryGate("umatrix", targets, np.array(values, dtype=complex).reshape(dim, dim), line=lineno)

    if kw == "ancilla":
        if len(tokens) != 1:
            raise CircuitParseError(lineno, "ancilla takes no arguments")
        return AddAncilla(line=lineno)

    if kw == "traceout":
        if len(tokens) != 2:
            raise CircuitParseError(lineno, "traceout takes a single target")
        return TraceOut(_parse_int(tokens[1], lineno, "target"), line=lineno)

    if kw == "channel":
        if len(tokens) < 2:
            raise CircuitParseError(lineno, "channel needs a name")
        name, args, control = tokens[1], tokens[2:], ()
        if name == "cdepolarize":
            if len(args) < 3 or args[1] != ":":
                raise CircuitParseError(
                    lineno, "cdepolarize needs 'channel cdepolarize <control> : <targets>'"
                )
            control, args = (_parse_int(args[0], lineno, "control"),), args[2:]
        return ChannelGate(name, control + tuple(_parse_int(t, lineno, "target") for t in args), line=lineno)

    raise CircuitParseError(lineno, f"unknown directive '{kw}'")


def validate_circuit(circuit: Circuit) -> None:
    """Check every gate invariant; raises CircuitParseError on the first
    violation. ``Circuit`` runs it once, when it is built; gates built
    programmatically report the line they would occupy in serialized form."""
    if circuit.input_qubits < 1:
        raise CircuitParseError(1, "qubit count must be at least 1")
    count = circuit.input_qubits
    last = len(circuit.gates) - 1
    for pos, g in enumerate(circuit.gates):
        line = g.line or pos + 2
        if isinstance(g, UnitaryGate):
            dim = 2 ** len(g.targets)
            m, builtin = g.matrix, BUILTIN_UNITARIES.get(g.name)
            if builtin is not None and builtin.shape != (dim, dim):
                arity = builtin.shape[0].bit_length() - 1
                raise CircuitParseError(line, f"gate {g.name} takes {arity} target(s)")
            if m.shape != (dim, dim):
                raise CircuitParseError(
                    line, f"gate matrix must be {dim}x{dim} for {len(g.targets)} target(s)"
                )
            if not np.all(np.isfinite(m)):
                raise CircuitParseError(line, "matrix entries must be finite")
            # A unitary's entries lie in the unit disc; larger ones are
            # refused before the product, which overflows above about 1e154.
            if np.abs(m).max() > 1.0 + TOL or float(np.abs(m.conj().T @ m - np.eye(dim)).max()) > TOL:
                raise CircuitParseError(line, "non-unitary gate")
            _check_targets(g.targets, count, line)
        elif isinstance(g, ChannelGate):
            if g.name not in _CHANNEL_ARITY:
                raise CircuitParseError(line, f"unknown channel '{g.name}'")
            least, most, rule = _CHANNEL_ARITY[g.name]
            if len(g.targets) < least or (most is not None and len(g.targets) > most):
                raise CircuitParseError(line, f"{g.name} {rule}")
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
        elif g.name == "cdepolarize":
            rest = " ".join(str(t) for t in g.targets[1:])
            lines.append(f"channel cdepolarize {g.targets[0]} : {rest}")
        else:
            ts = " ".join(str(t) for t in g.targets)
            lines.append(f"channel {g.name} {ts}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
#
# Every circuit is compiled once to a Stinespring isometry V, stored as the
# operator stack of shape (d_env, d_out, d_in), the layout of a Kraus set,
# whose channel is X -> sum_e V[e] X V[e]^*. Trace-outs and channel gates
# grow the environment; everything else reads the channel off V. The output
# on a pure input is read off its factor, so it needs no validation (see
# ``channels._top_output``).

def _apply_unitary(w: np.ndarray, u: np.ndarray, targets, n: int) -> np.ndarray:
    """Contract the 2^k x 2^k unitary *u* into the target qubits of *w*,
    shaped (d_env, 2^n, d_in)."""
    k = len(targets)
    d_env, _, d_in = w.shape
    t = w.reshape((d_env,) + (2,) * n + (d_in,))
    out = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), [1 + q for q in targets]))
    # Axes of out: the targets, d_env, the other qubits in order, d_in.
    rest = [q for q in range(n) if q not in targets]
    perm = [targets.index(q) if q in targets else k + 1 + rest.index(q) for q in range(n)]
    return out.transpose([k] + perm + [n + 1]).reshape(w.shape)


def _compress(w: np.ndarray) -> np.ndarray:
    """Shrink the environment of *w*, shaped (d_env, d_sys, d_in), to
    d_sys * d_in by a thin QR when it is larger; that bounds the rank of the
    channel, so the channel is unchanged."""
    d_env, d_sys, d_in = w.shape
    if d_env <= d_sys * d_in:
        return w
    return np.linalg.qr(w.reshape(d_env, d_sys * d_in), mode="r").reshape(-1, d_sys, d_in)


def _mix(w: np.ndarray, targets, n: int) -> np.ndarray:
    """Uniform mixing rho -> tr_T(rho) (x) I/d_T of the target qubits T of
    *w*, shaped (d_env, 2^n, d_in), as an array (a, b, 2^n, d_in) whose
    environment is (a, b). The targets move into the environment as with
    ``traceout``, giving rows (e, j); one thin QR compresses them to
    d_rest * d_in when there are more (then a = 1). The pair
    sum_y |y>_T |y>_env / sqrt(d_T) is attached with y before j, so an
    uncompressed environment is (e, y, j), a = d_env: the order of the
    Kraus operators |y><j| / sqrt(d_T) applied to each row e."""
    k = len(targets)
    d_env, _, d_in = w.shape
    d_t, cols = 2 ** k, 2 ** (n - k) * d_in
    order = [*targets, *(q for q in range(n) if q not in targets)]
    t = w.reshape((d_env,) + (2,) * n + (d_in,)).transpose([0] + [1 + q for q in order] + [n + 1])
    t = t.reshape(d_env, d_t, cols)
    if d_env * d_t > cols:
        t = np.linalg.qr(t.reshape(-1, cols), mode="r")[None]
    a, b = t.shape[:2]
    out = np.zeros((a, d_t, b) + (2,) * n + (d_in,), dtype=complex)
    # Write label y into the environment and into the targets at once,
    # through a view of out with the target axes first.
    view = out.transpose([0, 1, 2] + [3 + q for q in order] + [n + 3])
    y = np.arange(d_t)
    t = t * (1.0 / np.sqrt(d_t))
    view[(slice(None), y, slice(None)) + np.unravel_index(y, (2,) * k)] = t.reshape(
        (a, b) + (2,) * (n - k) + (d_in,)
    )
    return out.reshape(a, d_t * b, 2 ** n, d_in)


def _branch(w: np.ndarray, control: int, targets, n: int) -> np.ndarray:
    """Dephase the control qubit of *w*, shaped (d_env, 2^n, d_in), and mix
    *targets* (none for ``dephase``) on its |1> branch. The control-0 and
    control-1 parts are stacked along the environment, control-0 first;
    while the mixing keeps the rows e of *w*, within each row e, as the
    Kraus operators would be applied."""
    d_env, _, d_in = w.shape
    t = np.moveaxis(w.reshape((d_env,) + (2,) * n + (d_in,)), 1 + control, 1)
    part0 = t[:, 0].reshape(d_env, 1, -1, d_in)
    part1 = t[:, 1].reshape(d_env, 1, -1, d_in)
    if targets:
        part1 = _mix(part1[:, 0], [q - (q > control) for q in targets], n - 1)
    if part1.shape[0] != d_env:
        part0 = part0.reshape(1, d_env, -1, d_in)
    a, b0, b1 = part1.shape[0], part0.shape[1], part1.shape[1]
    out = np.zeros((a, b0 + b1) + (2,) * n + (d_in,), dtype=complex)
    view = np.moveaxis(out, 2 + control, 2)
    qubits = (2,) * (n - 1) + (d_in,)
    view[:, :b0, 0] = part0.reshape((a, b0) + qubits)
    view[:, b0:, 1] = part1.reshape((a, b1) + qubits)
    return out.reshape(-1, 2 ** n, d_in)


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """Stinespring isometry V of the circuit's channel as the stack of its
    d_env operators V[e], shaped (d_env, d_out, d_in), from simulating all
    d_in basis columns at once.

    A unitary gate is one contraction on the system axes, ``ancilla``
    appends a |0> axis, and ``traceout`` moves the qubit into the
    environment. ``depolarize`` is ``_mix`` on its targets; ``dephase`` and
    ``cdepolarize`` are ``_branch`` on their control, with no targets and
    with the rest. Whenever d_env exceeds d_sys * d_in, which bounds the
    rank of the channel so far, a thin QR compresses the environment to
    that size.
    """
    return _compile(circuit.input_qubits, circuit.gates)


def _compile(n: int, gates) -> np.ndarray:
    """``compile_circuit`` of the gates *gates* on *n* input qubits, which
    the caller vouches form a valid circuit."""
    d_in = 2 ** n
    # The environment axis comes first, so compression reshapes V without
    # a copy.
    w = np.eye(d_in, dtype=complex)[None]
    for g in gates:
        if isinstance(g, UnitaryGate):
            w = _apply_unitary(w, g.matrix, g.targets, n)
        elif isinstance(g, AddAncilla):
            w = np.stack([w, np.zeros_like(w)], axis=2).reshape(w.shape[0], -1, d_in)
            n += 1
        elif isinstance(g, TraceOut):
            t = np.moveaxis(w.reshape((w.shape[0],) + (2,) * n + (d_in,)), 1 + g.target, 1)
            n -= 1
            w = t.reshape(-1, 2 ** n, d_in)
        elif g.name == "depolarize":
            w = _mix(w, g.targets, n).reshape(-1, 2 ** n, d_in)
        else:
            w = _branch(w, g.targets[0], g.targets[1:], n)
        w = _compress(w)
    # A unitary on every qubit can leave a strided view; readers reshape V.
    return np.ascontiguousarray(w)


def isometry_matrix(circuit: Circuit) -> np.ndarray:
    """Explicit d_out x d_in matrix of a circuit whose compiled isometry has
    a one-dimensional environment: its one operator V[0]."""
    v = compile_circuit(circuit)
    if len(v) != 1:
        raise ValueError(
            "circuit is not an isometry: trace-out or channel gates leave an "
            f"environment of dimension {len(v)}"
        )
    return v[0]


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
