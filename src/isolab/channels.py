"""Algebraic channel representations and isometry analysis.

A circuit defines a channel; its handle compiles it once to the
Stinespring isometry V (see ``circuits.compile_circuit``) and derives
everything else from V: the minimal Kraus set, from the Gram matrix of
V's environment, and every channel output. The Choi matrix is read off V
for the ``choi`` report only. This module tests whether the channel is an
exact isometry (Kraus rank one with A*A = I), and searches for the most
mixing pure input of the reference-extended channel. The reference space
always has the dimension of the input space, which suffices for the rank
criterion.
"""

from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    DEFAULT_MAX_DIM,
    Circuit,
    DimensionCapError,
    _apply_isometry,
    _lift,
    compile_circuit,
    max_total_dim,
    validate_circuit,
)
from .linalg import (
    TOL,
    DensityMatrix,
    PureState,
    maximally_entangled_state,
    operator_norm,
    top_eigenpair,
    trace_norm,
)

RANK_TOL = 1e-7
MAX_SEARCH_DIM_IN = 16
NEAR_ISOMETRY_PROBE_FLOOR = 0.5


class NotNearIsometryError(ValueError):
    """Raised when isometry extraction is asked of a channel whose basis
    probes come out too mixed."""


@dataclass(eq=False)
class ChannelHandle:
    """A channel given by its circuit, with dimension bookkeeping. The
    compiled isometry and the minimal Kraus set derived from it are
    computed on first use and kept with the handle, so the circuit must not
    change afterwards."""

    circuit: Circuit
    _isometry: np.ndarray | None = field(default=None, init=False, repr=False)
    _kraus: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        validate_circuit(self.circuit)

    @property
    def n_in(self) -> int:
        return self.circuit.input_qubits

    @property
    def n_out(self) -> int:
        return self.circuit.output_qubits

    @property
    def dim_in(self) -> int:
        return 2 ** self.n_in

    @property
    def dim_out(self) -> int:
        return 2 ** self.n_out

    def __repr__(self):
        return f"ChannelHandle({self.dim_in} -> {self.dim_out})"


def apply_extended(ch: ChannelHandle, psi) -> DensityMatrix:
    """Output of the channel extended by an identity on a reference space of
    the input dimension, applied to a pure state on input (x) reference."""
    psi = psi if isinstance(psi, PureState) else PureState(psi)
    if psi.dim != ch.dim_in ** 2:
        raise ValueError(
            f"dimension mismatch: extended input needs dim {ch.dim_in ** 2}, got {psi.dim}"
        )
    return DensityMatrix.from_factor(_lift(_isometry(ch), psi.amplitudes[:, None], ch.n_in))


def _output_opnorm(iso: np.ndarray, x: np.ndarray, n_ref: int = 0) -> float:
    """Largest eigenvalue of the channel output on the unit vector *x*, with
    *n_ref* trailing reference qubits, read off the smaller Gram matrix of
    its factor F = _lift(iso, x), scaled to unit trace as in
    ``DensityMatrix.from_factor``: F F* and F* F share their nonzero
    spectrum."""
    f = _lift(iso, x[:, None], n_ref)
    f = f / np.sqrt(np.vdot(f, f).real)
    g = f @ f.conj().T if f.shape[0] <= f.shape[1] else f.conj().T @ f
    return float(np.linalg.eigvalsh(g)[-1])


def _check_cap(ch: ChannelHandle) -> None:
    cap = max_total_dim()
    peak = max(ch.circuit.qubit_counts())
    if ch.dim_out * ch.dim_in > cap or 2 ** (peak + ch.n_in) > cap:
        raise DimensionCapError(
            f"total dimension exceeds the cap of {cap} (set ISOLAB_MAX_DIM to override)"
        )


def _isometry(ch: ChannelHandle) -> np.ndarray:
    """The handle's compiled isometry, shaped (d_out, d_env, d_in). The cap
    is checked on every call, so over-cap input fails before compiling."""
    _check_cap(ch)
    if ch._isometry is None:
        ch._isometry = compile_circuit(ch.circuit)
    return ch._isometry


def choi_of(ch: ChannelHandle) -> DensityMatrix:
    """Choi matrix of the channel on output (x) input, F F* for F = M^T /
    sqrt(d_in) with M the isometry as a d_env x (d_out d_in) matrix. Only
    the ``choi`` report reads it, so it is formed anew on every call."""
    v = _isometry(ch)
    d_out, d_env, d_in = v.shape
    f = v.transpose(0, 2, 1).reshape(d_out * d_in, d_env)
    return DensityMatrix.from_factor(f / np.sqrt(d_in))


def kraus_of(ch: ChannelHandle) -> np.ndarray:
    """Minimal Kraus set of the channel, stacked read-only as (r, d_out,
    d_in) and computed once per handle.

    With M the isometry as a d_env x (d_out d_in) matrix, each eigenvalue
    of the Gram matrix M M* is d_in times a Choi eigenvalue. The operators
    are the rows of U_r* M, for U_r the eigenvectors whose eigenvalues
    exceed d_in * RANK_TOL, largest first: the Choi rank rule at RANK_TOL.
    """
    iso = _isometry(ch)
    if ch._kraus is None:
        d_out, d_env, d_in = iso.shape
        m = iso.transpose(1, 0, 2).reshape(d_env, d_out * d_in)
        w, u = np.linalg.eigh(m @ m.conj().T)
        u_r = u[:, ::-1][:, w[::-1] > d_in * RANK_TOL]
        kraus = (u_r.conj().T @ m).reshape(-1, d_out, d_in)
        kraus.flags.writeable = False
        ch._kraus = kraus
    return ch._kraus


@dataclass
class ExactIsometryResult:
    choi_rank: int
    exact_isometry: bool
    isometry_operator: np.ndarray | None


def exact_isometry_test(ch: ChannelHandle) -> ExactIsometryResult:
    """Exact isometry criterion: the minimal Kraus set has one operator at
    RANK_TOL, and it satisfies A*A = I within 1e-9."""
    ops = kraus_of(ch)
    rank = len(ops)
    if rank != 1:
        return ExactIsometryResult(rank, False, None)
    a = ops[0].copy()  # must not alias the handle's cached Kraus tensor
    defect = float(np.abs(a.conj().T @ a - np.eye(ch.dim_in)).max())
    if defect > TOL:
        return ExactIsometryResult(rank, False, None)
    return ExactIsometryResult(rank, True, a)


# ---------------------------------------------------------------------------
# Worst-case output mixedness search
# ---------------------------------------------------------------------------

def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _evaluate(kraus: np.ndarray, psi: np.ndarray, start=None):
    """Largest output eigenvalue of the extended channel on *psi*, its
    eigenvector v, the output slices W, and the top eigenvector u of their
    Gram matrix, which warm-starts the next evaluation as *start*.

    With w_k = (A_k Psi) flattened and W the r-by-D matrix of rows w_k, the
    output is W^T conj(W) = sum_k w_k w_k^*, whose nonzero spectrum equals
    that of G = conj(W) W^T; a top eigenvector u of G lifts to W^T u.
    """
    r, d_out, d_in = kraus.shape
    w = (kraus.reshape(r * d_out, d_in) @ psi.reshape(d_in, d_in)).reshape(r, -1)
    f, u = top_eigenpair(w.conj() @ w.T, start)
    v = w.T @ u
    return f, v / np.linalg.norm(v), w, u


def _gradient(kraus: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twice the gradient of the largest output eigenvalue with respect to
    conj(psi): 2 sum_k <v, w_k> A_k^* V, with V = v as a d_out-by-d_in
    matrix; the weighted sum of the A_k^* is the adjoint of one weighted
    sum of the stacked operators."""
    r, d_out, d_in = kraus.shape
    b = ((w.conj() @ v) @ kraus.reshape(r, -1)).reshape(d_out, d_in)
    return 2.0 * (b.conj().T @ v.reshape(d_out, d_in)).reshape(-1)


def _descend_opnorm(kraus: np.ndarray, psi: np.ndarray, max_iter: int = 400):
    """Minimize the largest output eigenvalue over the unit sphere by
    projected gradient descent with backtracking; the subgradient comes
    from the top eigenvector. Stops when the improvement drops below
    1e-10.

    Each candidate is evaluated warm from the last accepted evaluation's
    Gram eigenvector; the value returned is evaluated cold, by eigh, at the
    final input."""
    f, v, w, u = _evaluate(kraus, psi)
    step = 0.5
    for _ in range(max_iter):
        g = _gradient(kraus, w, v)
        g_tan = g - np.real(np.vdot(psi, g)) * psi
        gn2 = float(np.real(np.vdot(g_tan, g_tan)))
        if gn2 < 1e-20:
            break
        step = min(step * 2.0, 1.0)
        improved = False
        while step > 1e-16:
            cand = psi - step * g_tan
            cand = cand / np.linalg.norm(cand)
            f_new, v_new, w_new, u_new = _evaluate(kraus, cand, u)
            if f_new <= f - 1e-4 * step * gn2:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = f - f_new
        psi, f, v, w, u = cand, f_new, v_new, w_new, u_new
        if gain < 1e-10:
            break
    return psi, _evaluate(kraus, psi)[0]


def min_output_opnorm(
    ch: ChannelHandle, restarts: int = 16, seed: int = 0
) -> tuple[float, PureState]:
    """Smallest largest-output-eigenvalue found over seeded random-restart
    local searches, with the minimizing extended pure input.

    The returned value is an upper bound on the true minimum; it is
    deterministic given the seed, and using more restarts with the same
    seed never increases it. Each search step reads the top eigenpair of
    an r-by-r Gram matrix, with r the Kraus rank of the channel: above
    16 x 16 by a short Lanczos run warm-started from the previous step's
    eigenvector when its answer is certified, else by one eigh. Each
    restart's value is one eigh at its final input.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if ch.dim_in > MAX_SEARCH_DIM_IN:
        raise DimensionCapError(
            f"search supports input dimension up to {MAX_SEARCH_DIM_IN}, got {ch.dim_in}"
        )
    _check_cap(ch)
    kraus = kraus_of(ch)
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_psi = None
    for _ in range(restarts):
        x0 = _random_unit(rng, ch.dim_in * ch.dim_in)
        psi, val = _descend_opnorm(kraus, x0)
        if val < best_val:
            best_val, best_psi = val, psi
    return float(best_val), PureState(best_psi)


@dataclass
class IsometryReport:
    choi_rank: int
    exact_isometry: bool
    isometry_operator: np.ndarray | None
    min_output_opnorm: float
    minimizing_state: PureState
    classification: str
    epsilon: float


def analyze_channel(
    ch: ChannelHandle, epsilon: float, restarts: int = 16, seed: int = 0
) -> IsometryReport:
    """Full isometry report at a given promise parameter.

    Classification honors the promise gap: a yes-instance needs a found
    value at or below epsilon, a no-instance needs the exact-isometry
    certificate, and anything else stays indeterminate rather than
    guessing a lower bound the search cannot certify.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    # The search validates its arguments before the shared Kraus set is built.
    val, psi = min_output_opnorm(ch, restarts, seed)
    iso = exact_isometry_test(ch)
    if iso.exact_isometry:
        classification = "no-instance"
    elif val <= epsilon:
        classification = "yes-instance"
    else:
        classification = "indeterminate"
    return IsometryReport(
        choi_rank=iso.choi_rank,
        exact_isometry=iso.exact_isometry,
        isometry_operator=iso.isometry_operator,
        min_output_opnorm=val,
        minimizing_state=psi,
        classification=classification,
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# Approximate isometry extraction
# ---------------------------------------------------------------------------

def _basis_probe_states(dim: int) -> list[np.ndarray]:
    return [np.eye(dim, dtype=complex)[:, i] for i in range(dim)]


def _probe_family(ch: ChannelHandle, seed: int, n_random: int):
    """Pure input probes: computational basis states, equal superpositions
    of basis pairs, and seeded random states."""
    d = ch.dim_in
    basis = _basis_probe_states(d)
    probes = [("basis", v) for v in basis]
    for i in range(d):
        for j in range(i + 1, d):
            probes.append(("superposition", (basis[i] + basis[j]) / np.sqrt(2.0)))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        probes.append(("random", _random_unit(rng, d)))
    return probes


def probe_epsilon(ch: ChannelHandle, seed: int = 0, n_random: int = 50) -> float:
    """Isometry defect measured as one minus the smallest output largest-
    eigenvalue over the finite probe family; a lower bound on the true
    worst-case defect."""
    iso = _isometry(ch)
    worst = min(_output_opnorm(iso, v) for _, v in _probe_family(ch, seed, n_random))
    return max(0.0, 1.0 - worst)


@dataclass
class ApproxIsometryDiagnostics:
    eps_measured: float
    max_distance: float
    basis_distance: float
    superposition_distance: float
    random_distance: float
    n_random_probes: int
    seed: int


def extract_approx_isometry(
    ch: ChannelHandle, seed: int = 0, n_random: int = 50
) -> tuple[np.ndarray, ApproxIsometryDiagnostics]:
    """Recover the isometry a near-isometric channel approximates.

    Column i is the top eigenvector of the channel output on the i-th
    basis state; relative phases are fixed against the first column by the
    top singular pair of the channel action on the |0><i| matrix unit.
    Diagnostics report the worst trace-norm distance between the channel
    output and conjugation by the recovered operator over a finite probe
    family, so they lower-bound the true worst case.
    """
    d_in = ch.dim_in
    iso = _isometry(ch)
    basis_states = _basis_probe_states(d_in)
    # On these PSD outputs the top eigenvalue is the operator norm.
    norms, columns = zip(*(
        top_eigenpair(DensityMatrix.from_factor(_lift(iso, v[:, None])).matrix) for v in basis_states
    ))
    # The extended output on the maximally entangled state must also stay
    # nearly pure; it catches uniform mixers whose unextended basis outputs
    # sit exactly at the floor.
    entangled = operator_norm(
        apply_extended(ch, maximally_entangled_state(d_in)).matrix
    )
    floor = min(min(norms), entangled)
    if floor < NEAR_ISOMETRY_PROBE_FLOOR:
        raise NotNearIsometryError(
            f"channel is not near-isometric: probe output largest eigenvalue "
            f"{floor:.4f} < {NEAR_ISOMETRY_PROBE_FLOOR}"
        )
    phases = [1.0 + 0.0j]
    for i in range(1, d_in):
        x = _apply_isometry(iso, basis_states[0][:, None], basis_states[i][:, None])
        u, _, vh = np.linalg.svd(x)
        w = np.vdot(columns[0], u[:, 0]) * np.vdot(vh[0].conj(), columns[i])
        phases.append(np.conj(w) / abs(w) if abs(w) > 1e-12 else 1.0 + 0.0j)
    a = np.stack([c * col for c, col in zip(phases, columns)], axis=1)

    dists = {"basis": 0.0, "superposition": 0.0, "random": 0.0}
    worst_opnorm = 1.0
    for label, v in _probe_family(ch, seed, n_random):
        proj = np.outer(v, v.conj())
        out = _apply_isometry(iso, v[:, None], v[:, None])
        worst_opnorm = min(worst_opnorm, operator_norm(out))
        dist = trace_norm(out - a @ proj @ a.conj().T)
        dists[label] = max(dists[label], dist)
    diag = ApproxIsometryDiagnostics(
        eps_measured=max(0.0, 1.0 - worst_opnorm),
        max_distance=max(dists.values()),
        basis_distance=dists["basis"],
        superposition_distance=dists["superposition"],
        random_distance=dists["random"],
        n_random_probes=n_random,
        seed=seed,
    )
    return a, diag

