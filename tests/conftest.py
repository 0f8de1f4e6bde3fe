"""Shared test helpers: random objects, independent oracles, and circuit
generators."""

import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from isolab import (
    AddAncilla,
    ChannelGate,
    Circuit,
    DensityMatrix,
    PureState,
    TraceOut,
    UnitaryGate,
    cdepolarize_gate,
    dephase_gate,
    depolarize_gate,
    gate,
    maximally_entangled_state,
    unitary_gate,
)
from isolab.channels import RANK_TOL

# Every @given test draws the same examples on every run and keeps no
# example database, so the suite is deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def _call_log(monkeypatch, real):
    """First arguments of the calls to the isolab function *real* while the
    test runs, counted under every name an isolab module binds it to."""
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isolab" and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)
    return calls


@pytest.fixture
def ritz_answers(monkeypatch):
    """One entry per warm-started Lanczos run of ``top_eigenpair`` while the
    test runs: True where its certified pair answered, False where eigh
    took over."""
    import isolab.linalg as linalg

    real = linalg._certified_ritz_pair
    answers = []

    def recording(m, start):
        pair = real(m, start)
        answers.append(pair is not None)
        return pair

    monkeypatch.setattr(linalg, "_certified_ritz_pair", recording)
    return answers


def eigh_only(mp):
    """Make the search ignore warm starts, so every evaluation runs eigh;
    *mp* is a ``pytest.MonkeyPatch``."""
    import isolab.channels as channels

    real = channels.top_eigenpair
    mp.setattr(channels, "top_eigenpair", lambda m, start=None: real(m))


@pytest.fixture
def choi_calls(monkeypatch):
    """Handles passed to ``choi_of`` while the test runs."""
    import isolab.channels as channels

    return _call_log(monkeypatch, channels.choi_of)


@pytest.fixture
def compile_calls(monkeypatch):
    """Circuits passed to ``compile_circuit`` while the test runs."""
    import isolab.circuits as circuits

    return _call_log(monkeypatch, circuits.compile_circuit)


@pytest.fixture
def full_validations(monkeypatch):
    """Matrices passed to ``DensityMatrix.__init__``, the full validation,
    while the test runs."""
    calls = []
    real = DensityMatrix.__init__

    def counting(self, matrix):
        calls.append(matrix)
        real(self, matrix)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    return calls


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def tensor_oracle(a, b):
    """Kronecker product by direct index summation."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, dims, keep):
    """Partial trace by naive nested-loop index summation."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        x = 0
        for d, i in zip(dims, idx):
            x = x * d + i
        return x

    kept_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    for row_kept in np.ndindex(*kept_dims) if keep else [()]:
        for col_kept in np.ndindex(*kept_dims) if keep else [()]:
            total = 0.0 + 0.0j
            for tr in np.ndindex(*traced_dims) if traced else [()]:
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, i in zip(keep, row_kept):
                    row[pos] = i
                for pos, i in zip(keep, col_kept):
                    col[pos] = i
                for pos, i in zip(traced, tr):
                    row[pos] = i
                    col[pos] = i
                total += m[flat(row), flat(col)]
            r = flat_index(row_kept, kept_dims)
            c = flat_index(col_kept, kept_dims)
            out[r, c] = total
    return out


def flat_index(idx, dims):
    x = 0
    for d, i in zip(dims, idx):
        x = x * d + i
    return x


def power_iteration_opnorm(m, iters=20000, tol=1e-14, seed=0):
    """Largest singular value via power iteration on m* m."""
    rng = np.random.default_rng(seed)
    h = m.conj().T @ m
    x = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    x /= np.linalg.norm(x)
    last = 0.0
    for _ in range(iters):
        y = h @ x
        lam = float(np.real(np.vdot(x, y)))
        n = np.linalg.norm(y)
        if n == 0:
            return 0.0
        x = y / n
        if abs(lam - last) < tol:
            break
        last = lam
    return float(np.sqrt(max(lam, 0.0)))


def random_kraus(rng, d_in, d_out, rank):
    """Kraus set of *rank* operators cut from a Haar-like random isometry of
    shape (rank * d_out, d_in), so that sum_k A_k* A_k = I."""
    g = rng.normal(size=(rank * d_out, d_in)) + 1j * rng.normal(size=(rank * d_out, d_in))
    q, _ = np.linalg.qr(g)
    return [q[k * d_out:(k + 1) * d_out] for k in range(rank)]


def choi_rank_oracle(j, rank_tol=RANK_TOL):
    """Number of eigenvalues of the Choi matrix *j* above *rank_tol*."""
    return int(np.count_nonzero(np.linalg.eigvalsh(j) > rank_tol))


def kraus_from_choi_oracle(j, d_in, rank_tol=RANK_TOL):
    """Minimal Kraus operators from the eigendecomposition of the Choi
    matrix *j*: one per eigenvalue above *rank_tol*, largest first, the
    eigenvector reshaped to an output-by-input matrix and scaled by
    sqrt(eigenvalue * d_in)."""
    w, v = np.linalg.eigh(j)
    d_out = j.shape[0] // d_in
    return [
        np.sqrt(w[i] * d_in) * v[:, i].reshape(d_out, d_in)
        for i in range(len(w) - 1, -1, -1)
        if w[i] > rank_tol
    ]


def kraus_apply_oracle(kraus_ops, mat):
    """sum_k A_k mat A_k*, one operator at a time."""
    d_out = kraus_ops[0].shape[0]
    acc = np.zeros((d_out, d_out), dtype=complex)
    for a in kraus_ops:
        acc += a @ mat @ a.conj().T
    return acc


def completeness_defect_oracle(kraus_ops):
    """max |sum_k A_k* A_k - I|, one operator at a time."""
    d_in = kraus_ops[0].shape[1]
    acc = np.zeros((d_in, d_in), dtype=complex)
    for a in kraus_ops:
        acc += a.conj().T @ a
    return float(np.abs(acc - np.eye(d_in)).max())


def extended_output_oracle(kraus_ops, psi, d_in):
    """Extended channel output on the pure input *psi*, summed one Kraus
    operator at a time from D x D outer products; also returns the output
    slices w_k = vec(A_k Psi)."""
    pm = psi.reshape(d_in, d_in)
    ws = [(a @ pm).reshape(-1) for a in kraus_ops]
    dim = ws[0].shape[0]
    m = np.zeros((dim, dim), dtype=complex)
    for w in ws:
        m += np.outer(w, w.conj())
    return m, ws


def opnorm_gradient_oracle(kraus_ops, psi, d_in):
    """Spectrum and top eigenvector of the extended output on *psi*, and
    twice the gradient of the top eigenvalue with respect to conj(psi),
    2 sum_k <v, w_k> A_k* V, accumulated one Kraus operator at a time."""
    d_out = kraus_ops[0].shape[0]
    m, ws = extended_output_oracle(kraus_ops, psi, d_in)
    spectrum, vecs = np.linalg.eigh(m)
    v = vecs[:, -1]
    vm = v.reshape(d_out, d_in)
    g = np.zeros_like(psi)
    for a, w in zip(kraus_ops, ws):
        g += np.vdot(v, w) * (a.conj().T @ vm).reshape(-1)
    return spectrum, v, 2.0 * g


def parallel_extended_output_oracle(kraus_ops, mat, d_in):
    """Reference-extended channel applied to each copy of a two-copy matrix
    on (input (x) reference) (x) (input (x) reference), one copy at a time,
    with every Kraus operator kron-expanded to the full two-copy space."""
    d_out = kraus_ops[0].shape[0]
    d_half_in = d_in * d_in
    d_half_out = d_out * d_in
    ext = [np.kron(a, np.eye(d_in, dtype=complex)) for a in kraus_ops]

    first = [np.kron(b, np.eye(d_half_in, dtype=complex)) for b in ext]
    mid = np.zeros((d_half_out * d_half_in, d_half_out * d_half_in), dtype=complex)
    for k in first:
        mid += k @ mat @ k.conj().T

    second = [np.kron(np.eye(d_half_out, dtype=complex), b) for b in ext]
    out = np.zeros((d_half_out * d_half_out, d_half_out * d_half_out), dtype=complex)
    for k in second:
        out += k @ mid @ k.conj().T
    return out


def brute_force_min_opnorm(kraus_ops, d_in, n_samples=100_000, seed=1234, batch=20_000):
    """Smallest largest-output-eigenvalue over Haar-random extended pure
    inputs, evaluated in batches; an independent sampling oracle."""
    rng = np.random.default_rng(seed)
    d_out = kraus_ops[0].shape[0]
    best = np.inf
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        g = rng.normal(size=(m, d_in * d_in)) + 1j * rng.normal(size=(m, d_in * d_in))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        psi = g.reshape(m, d_in, d_in)
        dim = d_out * d_in
        mats = np.zeros((m, dim, dim), dtype=complex)
        for a in kraus_ops:
            w = np.einsum("oi,mir->mor", a, psi).reshape(m, dim)
            mats += np.einsum("mp,mq->mpq", w, w.conj())
        top = np.linalg.eigvalsh(mats)[:, -1]
        best = min(best, float(top.min()))
        done += m
    return best


# Density-matrix executor: applies a circuit gate by gate to a matrix on
# 2^(2 (n + n_ref)) entries. The oracle of the compiled isometry.

_KET0BRA0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _contract(tensor_in, op_t, positions, total):
    k = len(positions)
    out = np.tensordot(op_t, tensor_in, axes=(list(range(k, 2 * k)), positions))
    order = positions + [a for a in range(total) if a not in positions]
    return np.transpose(out, np.argsort(order))


def _apply_unitary_mat(rho, u, targets, n):
    k = len(targets)
    t = rho.reshape([2] * (2 * n))
    op = u.reshape([2] * (2 * k))
    t = _contract(t, op, list(targets), 2 * n)
    t = _contract(t, op.conj(), [n + q for q in targets], 2 * n)
    return t.reshape(2 ** n, 2 ** n)


def _apply_unitary_vec(psi, u, targets, n):
    k = len(targets)
    t = psi.reshape([2] * n)
    op = u.reshape([2] * (2 * k))
    out = np.tensordot(op, t, axes=(list(range(k, 2 * k)), list(targets)))
    order = list(targets) + [a for a in range(n) if a not in targets]
    return np.transpose(out, np.argsort(order)).reshape(2 ** n)


def _apply_kraus_mat(rho, kraus, targets, n):
    acc = np.zeros_like(rho)
    k = len(targets)
    t = rho.reshape([2] * (2 * n))
    col_positions = [n + q for q in targets]
    for a in kraus:
        op = a.reshape([2] * (2 * k))
        term = _contract(t, op, list(targets), 2 * n)
        term = _contract(term, op.conj(), col_positions, 2 * n)
        acc += term.reshape(2 ** n, 2 ** n)
    return acc


def _trace_out_qubit(rho, target, n):
    t = rho.reshape([2] * (2 * n))
    t = np.trace(t, axis1=target, axis2=n + target)
    return t.reshape(2 ** (n - 1), 2 ** (n - 1))


def _permute_qubit_slots(rho, perm, n):
    # perm[new_slot] = old_slot
    t = rho.reshape([2] * (2 * n))
    axes = list(perm) + [n + p for p in perm]
    return np.transpose(t, axes).reshape(2 ** n, 2 ** n)


def _insert_ancilla(rho, n, position):
    out = np.kron(rho, _KET0BRA0)
    n2 = n + 1
    if position != n2 - 1:
        perm = list(range(position)) + [n2 - 1] + list(range(position, n2 - 1))
        out = _permute_qubit_slots(out, perm, n2)
    return out


def density_oracle(circuit, mat, n_ref=0):
    """Linear action of the circuit's channel on *mat*, with *n_ref*
    trailing reference qubits untouched; ancillas go in between the
    circuit's qubits and the reference block."""
    mat = np.asarray(mat, dtype=complex)
    c = circuit.input_qubits
    n = c + n_ref
    assert mat.shape == (2 ** n, 2 ** n)
    for g in circuit.gates:
        if isinstance(g, UnitaryGate):
            mat = _apply_unitary_mat(mat, g.matrix, g.targets, n)
        elif isinstance(g, AddAncilla):
            mat = _insert_ancilla(mat, n, c)
            n += 1
            c += 1
        elif isinstance(g, TraceOut):
            mat = _trace_out_qubit(mat, g.target, n)
            n -= 1
            c -= 1
        elif isinstance(g, ChannelGate):
            mat = _apply_kraus_mat(mat, g.kraus, g.targets, n)
        else:
            raise ValueError(f"unknown gate object {type(g).__name__}")
    return mat


def choi_oracle(circuit):
    """Choi matrix from running the circuit on half of the maximally
    entangled state."""
    n = circuit.input_qubits
    phi = maximally_entangled_state(2 ** n).projector()
    return density_oracle(circuit, phi, n_ref=n)


def isometry_oracle(circuit):
    """Matrix of a unitary-and-ancilla circuit, one basis column at a time."""
    n_in = circuit.input_qubits
    cols = []
    for b in range(2 ** n_in):
        v = np.zeros(2 ** n_in, dtype=complex)
        v[b] = 1.0
        n = n_in
        for g in circuit.gates:
            if isinstance(g, UnitaryGate):
                v = _apply_unitary_vec(v, g.matrix, g.targets, n)
            else:
                v = np.kron(v, [1.0, 0.0])
                n += 1
        cols.append(v)
    return np.stack(cols, axis=1)


def swap_operator(dim):
    """Swap of two *dim*-dimensional factors, |i,j> -> |j,i>, as an explicit
    matrix."""
    w = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            w[i * dim + j, j * dim + i] = 1.0
    return w


def sym_antisym_projectors(dim):
    """Explicit projectors (I + W)/2 and (I - W)/2 onto the symmetric and
    antisymmetric subspaces of two *dim*-dimensional factors."""
    w = swap_operator(dim)
    eye = np.eye(dim * dim, dtype=complex)
    return (eye + w) / 2.0, (eye - w) / 2.0


def circuit_swap_test_probs(rho, d):
    """Swap-test outcome probabilities from the explicit ancilla circuit:
    Hadamard, controlled swap, Hadamard, measure the ancilla."""
    rho = np.asarray(rho, dtype=complex)
    dd = d * d
    w = swap_operator(d)
    cswap = np.zeros((2 * dd, 2 * dd), dtype=complex)
    cswap[:dd, :dd] = np.eye(dd)
    cswap[dd:, dd:] = w
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    u = np.kron(h, np.eye(dd)) @ cswap @ np.kron(h, np.eye(dd))
    anc0 = np.zeros((2, 2), dtype=complex)
    anc0[0, 0] = 1.0
    state = u @ np.kron(anc0, rho) @ u.conj().T
    p0 = float(np.real(np.trace(state[:dd, :dd])))
    p1 = float(np.real(np.trace(state[dd:, dd:])))
    return p0, p1


def report_oracle(obj):
    """The report as the nested lists ``json.dumps`` takes: every ndarray
    by ``tolist()``, complex entries as [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        return np.stack([obj.real, obj.imag], -1).tolist() if obj.dtype.kind == "c" else obj.tolist()
    if isinstance(obj, dict):
        return {k: report_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [report_oracle(x) for x in obj]
    return obj


# ---------------------------------------------------------------------------
# Random circuit generation
# ---------------------------------------------------------------------------

_ONE_QUBIT = ["X", "Y", "Z", "H", "S", "T"]
_TWO_QUBIT = ["CNOT", "CZ", "SWAP"]


def random_circuit(rng, max_in=3, max_total=4, isometry_only=False, n_gates=None):
    """Seeded random circuit with bounded register size."""
    n_in = int(rng.integers(1, max_in + 1))
    count = n_in
    gates = []
    n_ops = int(rng.integers(1, 7)) if n_gates is None else n_gates
    for _ in range(n_ops):
        kinds = ["builtin", "umatrix"]
        if count < max_total:
            kinds.append("ancilla")
        if not isometry_only:
            if count > 1:
                kinds.append("traceout")
            kinds += ["dephase", "depolarize"]
        kind = str(rng.choice(kinds))
        if kind == "builtin":
            if count >= 2 and rng.random() < 0.4:
                name = str(rng.choice(_TWO_QUBIT))
                t = rng.choice(count, size=2, replace=False)
                gates.append(gate(name, int(t[0]), int(t[1])))
            else:
                gates.append(gate(str(rng.choice(_ONE_QUBIT)), int(rng.integers(count))))
        elif kind == "umatrix":
            k = 2 if count >= 2 and rng.random() < 0.4 else 1
            t = rng.choice(count, size=k, replace=False)
            gates.append(unitary_gate(random_unitary(rng, 2 ** k), *(int(x) for x in t)))
        elif kind == "ancilla":
            gates.append(AddAncilla())
            count += 1
        elif kind == "traceout":
            gates.append(TraceOut(int(rng.integers(count))))
            count -= 1
        elif kind == "dephase":
            gates.append(dephase_gate(int(rng.integers(count))))
        else:
            k = 2 if count >= 2 and rng.random() < 0.3 else 1
            t = rng.choice(count, size=k, replace=False)
            gates.append(depolarize_gate(*(int(x) for x in t)))
    return Circuit(n_in, gates)


@st.composite
def mixed_circuits(draw, max_in=2, max_total=4, isometry_only=False):
    """Circuits of builtin and umatrix gates, ancillas and, unless
    *isometry_only*, trace-outs and dephase, depolarize and cdepolarize
    gates, with at most *max_total* qubits in flight."""
    n_in = draw(st.integers(1, max_in))
    count = n_in
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        kinds = ["builtin", "umatrix"]
        if count < max_total:
            kinds.append("ancilla")
        if not isometry_only:
            kinds += ["dephase", "depolarize"]
            if count > 1:
                kinds += ["traceout", "cdepolarize"]
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(count)))
        k = 2 if count > 1 and draw(st.booleans()) else 1
        if kind == "builtin":
            name = draw(st.sampled_from(["CNOT", "CZ", "SWAP"] if k == 2 else ["H", "S", "T", "X", "Y"]))
            gates.append(gate(name, *qubits[:k]))
        elif kind == "umatrix":
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            gates.append(unitary_gate(random_unitary(rng, 2 ** k), *qubits[:k]))
        elif kind == "ancilla":
            gates.append(AddAncilla())
            count += 1
        elif kind == "traceout":
            gates.append(TraceOut(qubits[0]))
            count -= 1
        elif kind == "dephase":
            gates.append(dephase_gate(qubits[0]))
        elif kind == "depolarize":
            gates.append(depolarize_gate(*qubits[:k]))
        else:
            gates.append(cdepolarize_gate(qubits[0], *qubits[1:1 + min(k, count - 1)]))
    return Circuit(n_in, gates)
