"""Algebraic channel representations and isometry analysis.

A circuit defines a channel; its handle compiles it once to the
Stinespring isometry V (see ``circuits.compile_circuit``), a stack of
operators V[e] laid out as a Kraus set is, kept in its Kraus basis (see
``_isometry``), and reads everything off V: the minimal Kraus set is its
leading rows. Only the ``choi`` report's Choi matrix is formed from the
isometry as compiled.
Every output on a pure input is read off V's slices, formed by one
routine, ``_slices``, and its top eigenpair by one more, ``_top_output``.
This module tests whether the channel is an exact isometry (Kraus rank
one with A*A = I), and searches for the most mixing pure input of the
reference-extended channel, with a lower bound from the dual that ends the
search once it meets the best value found (see ``_search``). The reference
space always has the dimension of the input space, which suffices for the
rank criterion.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .circuits import (
    Circuit,
    DimensionCapError,
    compile_circuit,
    max_total_dim,
)
from .linalg import (
    TOL,
    DensityMatrix,
    PureState,
    _EPS,
    _NOISE_FLOOR,
    top_eigenpair,
    trace_norm,
)

RANK_TOL = 1e-7
# Mixing search (see _descend_opnorm): a restart stops once a step gains
# less than SEARCH_GAIN_FLOOR, once the squared tangent gradient norm is
# below SEARCH_GRAD_FLOOR, when no backtracked step passes the Armijo test
# with constant SEARCH_ARMIJO, or after SEARCH_MAX_ITER steps. The
# quasi-Newton model keeps the last SEARCH_MEMORY step pairs. The search
# stops restarting once its best value is within CERT_TOL of its dual lower
# bound (see _dual_bound).
SEARCH_GAIN_FLOOR = 1e-10
SEARCH_GRAD_FLOOR = 1e-20
SEARCH_ARMIJO = 1e-4
SEARCH_MAX_ITER = 400
SEARCH_MEMORY = 8
CERT_TOL = 1e-6
MAX_SEARCH_DIM_IN = 16
NEAR_ISOMETRY_PROBE_FLOOR = 0.5


class NotNearIsometryError(ValueError):
    """Raised when isometry extraction, the polar factor of V's leading row
    (the isometry nearest to it), is asked of a channel too mixed for it: a
    basis probe's output or the Choi matrix has a top eigenvalue below
    NEAR_ISOMETRY_PROBE_FLOOR, or the Choi top is degenerate."""


@dataclass(eq=False)
class ChannelHandle:
    """A channel given by its circuit, which validated itself when it was
    built, with dimension bookkeeping. The isometry V in its Kraus basis
    (see ``_isometry``), whose leading rows are the minimal Kraus set, and
    the isometry as compiled, which only ``choi_of`` reads, are computed on
    first use and kept with the handle; nothing else is."""

    circuit: Circuit
    _isometry: np.ndarray | None = field(default=None, init=False, repr=False)
    _compiled: np.ndarray | None = field(default=None, init=False, repr=False)

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
    return DensityMatrix.from_factor(_slices(_isometry(ch), psi.amplitudes).T)


def _slices(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The output slices of the channel on the pure input *x* on input (x)
    reference, for a reference of any dimension, read off the isometry V
    shaped (r, d_out, d_in): the r-row matrix W whose row e is
    w_e = (V_e (x) I) x. The output is W^T conj(W) = sum_e w_e w_e^*, so
    W^T is its factor."""
    r, d_out, d_in = v.shape
    return (v.reshape(r * d_out, d_in) @ x.reshape(d_in, -1)).reshape(r, -1)


def _top_output(v: np.ndarray, x: np.ndarray, start=None):
    """Top eigenpair of the channel output on the pure input *x*, read off
    its slices W (see ``_slices``). Returns the largest eigenvalue f, its
    unit eigenvector v, W, and the top eigenvector u of the Gram matrix,
    which warm-starts a later call as *start*; u is None where the output
    side answers and, given a *start*, unless the warm-started answer was
    certified.

    The output W^T conj(W) shares its nonzero spectrum with the environment
    Gram matrix G = conj(W) W^T, whose top eigenvector u lifts to W^T u. G
    answers unless the output is strictly smaller; it always does for a
    reference of the input's dimension, as V has at most d_out d_in rows.
    """
    w = _slices(v, x)
    if w.shape[1] < len(w):
        return (*top_eigenpair(w.T @ w.conj()), w, None)
    f, u, certified = top_eigenpair(w.conj() @ w.T, start, return_certified=True)
    v = w.T @ u
    return f, v / np.linalg.norm(v), w, u if start is None or certified else None


def _check_cap(ch: ChannelHandle) -> None:
    cap = max_total_dim()
    peak = max(ch.circuit.qubit_counts())
    if 2 ** (peak + ch.n_in) > cap:
        raise DimensionCapError(
            f"total dimension exceeds the cap of {cap} (set ISOLAB_MAX_DIM to override)"
        )


def _isometry(ch: ChannelHandle) -> np.ndarray:
    """The handle's isometry V in its Kraus basis, read-only, shaped
    (r, d_out, d_in); the cap is checked once, before compiling. A dilation
    is fixed only up to a unitary on the environment: V = U* M for M the
    compiled isometry as a d_env x (d_out d_in) matrix and U the
    eigenvectors of M M*, largest eigenvalue first, less those at the eigh
    noise floor ``_NOISE_FLOOR``. Its rows are pairwise orthogonal, and
    their weights |V_e|_F^2 are d_in times the nonzero Choi spectrum."""
    if ch._isometry is None:
        _check_cap(ch)
        ch._compiled = compile_circuit(ch.circuit)
        d_env, d_out, d_in = ch._compiled.shape
        m = ch._compiled.reshape(d_env, d_out * d_in)
        w, u = np.linalg.eigh(m @ m.conj().T)
        u = u[:, ::-1][:, w[::-1] > _NOISE_FLOOR * max(float(w[-1]), 0.0)]
        v = (u.conj().T @ m).reshape(-1, d_out, d_in)
        v.flags.writeable = False
        ch._isometry = v
    return ch._isometry


def choi_of(ch: ChannelHandle) -> DensityMatrix:
    """Choi matrix of the channel on output (x) input, F F* for F = M^T /
    sqrt(d_in) with M the isometry as compiled, a d_env x (d_out d_in)
    matrix. Only the ``choi`` report reads it, so it is formed anew on
    every call. Not V in its Kraus basis: the compiled rows keep the
    circuit's structure, so the exact zeros of J stay zeros, where the
    rotated rows would print them as rounding of about 1e-17."""
    _isometry(ch)
    v = ch._compiled
    return DensityMatrix.from_factor(v.reshape(len(v), -1).T / np.sqrt(ch.dim_in))


def kraus_of(ch: ChannelHandle) -> np.ndarray:
    """Minimal Kraus set of the channel, stacked as (r, d_out, d_in): a
    read-only view of the leading rows of V (see ``_isometry``) whose
    weight |V_e|_F^2, d_in times a Choi eigenvalue, exceeds d_in *
    RANK_TOL: the Choi rank rule at RANK_TOL."""
    v = _isometry(ch)
    return v[:np.count_nonzero(_row_weights(v) > ch.dim_in * RANK_TOL)]


def _row_weights(v: np.ndarray) -> np.ndarray:
    """The weights |V_e|_F^2 of the rows of V, d_in times the nonzero Choi
    spectrum (see ``_isometry``)."""
    return np.einsum("eoi,eoi->e", v.conj(), v).real


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
    a = ops[0].copy()  # must not alias the handle's isometry
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


def _gradient(iso: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Twice the gradient of the largest output eigenvalue with respect to
    conj(psi): 2 sum_e <v, w_e> V_e^* Y, with Y = v as a d_out-by-d_in
    matrix; the weighted sum of the V_e^* is the adjoint of one weighted
    sum of the isometry's stacked operators *iso*. Its real view is the
    gradient on the real view of psi."""
    r, d_out, d_in = iso.shape
    b = ((w.conj() @ v) @ iso.reshape(r, -1)).reshape(d_out, d_in)
    return 2.0 * (b.conj().T @ v.reshape(d_out, d_in)).reshape(-1)


def _tangent_gradient(iso: np.ndarray, x: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient at the real unit vector *x*, projected onto the sphere's
    tangent space there."""
    g = _gradient(iso, w, v).view(float)
    return g - (x @ g) * x


def _descend_opnorm(iso: np.ndarray, psi: np.ndarray):
    """Minimize the largest output eigenvalue over the unit sphere by
    limited-memory BFGS on the real view x of psi; the subgradient comes
    from the top eigenvector.

    Each step moves along d = -H g, with g the tangent gradient and H the
    two-loop product of the last SEARCH_MEMORY pairs (s, y) with s.y > 0,
    both projected onto the tangent space where they are taken, started
    from (s.y / y.y) I for the newest pair; d is projected there too.
    Without pairs, or when d is not a descent direction, d is the unit
    vector -g / |g| and the pairs are dropped. The step backtracks from
    (x + d) / |x + d| by halving t in (x + t d) / |x + t d| until the
    Armijo condition with constant SEARCH_ARMIJO holds. A restart stops
    when |g|^2 < SEARCH_GRAD_FLOOR, when no step passes the Armijo test,
    when a step gains less than SEARCH_GAIN_FLOOR, or after
    SEARCH_MAX_ITER steps.

    Each candidate is evaluated warm from the last accepted evaluation's
    Gram eigenvector until the first warm answer that fails its
    certificate; the rest of the restart runs eigh. The value returned is
    evaluated cold, by eigh, at the final input, with the top eigenvector u
    of that evaluation's Gram matrix, which ``_dual_bound`` reads."""
    x = psi.view(float)
    # The pairs as (s, y, 1 / s.y), newest last.
    pairs = deque(maxlen=SEARCH_MEMORY)
    f, v, w, u = _top_output(iso, psi)
    g = _tangent_gradient(iso, x, w, v)
    for _ in range(SEARCH_MAX_ITER):
        gn2 = float(g @ g)
        if gn2 < SEARCH_GRAD_FLOOR:
            break
        d = -g
        alphas = []
        for s_k, y_k, rho_k in reversed(pairs):
            alphas.append(rho_k * (s_k @ d))
            d -= alphas[-1] * y_k
        if pairs:
            _, y_k, rho_k = pairs[-1]
            d *= 1.0 / (rho_k * (y_k @ y_k))
        for (s_k, y_k, rho_k), a_k in zip(pairs, reversed(alphas)):
            d += (a_k - rho_k * (y_k @ d)) * s_k
        d -= (x @ d) * x
        slope = float(g @ d)
        if not (pairs and slope < 0.0):
            gn = np.sqrt(gn2)
            d, slope = -g / gn, -gn
            pairs.clear()
        step = 1.0
        improved = False
        while step > 1e-16:
            cand = x + step * d
            cand /= np.linalg.norm(cand)
            f_new, v_new, w_new, u_new = _top_output(iso, cand.view(complex), u)
            if u_new is None:
                u = None  # the first failed certificate ends warm starts
            if f_new <= f + SEARCH_ARMIJO * step * slope:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        g_new = _tangent_gradient(iso, cand, w_new, v_new)
        s_k = cand - x
        s_k -= (cand @ s_k) * cand
        y_k = g_new - (g - (cand @ g) * cand)
        sy = float(s_k @ y_k)
        if sy > 0.0:
            pairs.append((s_k, y_k, 1.0 / sy))
        gain = f - f_new
        x, f, v, w, g = cand, f_new, v_new, w_new, g_new
        if u is not None:
            u = u_new
        if gain < SEARCH_GAIN_FLOOR:
            break
    psi = x.view(complex)
    f, _, _, u = _top_output(iso, psi)
    return psi, f, u


def _dual_bound(x: np.ndarray) -> float:
    """lambda_min(X^* X) less the rounding of eigvalsh, d_in eps |X^* X|,
    for X with d_in columns: a lower bound on the smallest largest output
    eigenvalue whenever X^* X is A(Z) = sum_{e,f} Z_fe V_f^* V_e for an
    environment density Z (King, Matsumoto, Nathanson and Ruskai,
    quant-ph/0509126): the complementary output
    Phi^c(rho)_{ef} = tr(V_e rho V_f^*) has the same top eigenvalue as the
    extended output, and lambda_max(Phi^c(rho)) >= tr(Z Phi^c(rho)) =
    tr(A(Z) rho) >= lambda_min(A(Z)). ``_search`` takes two Z:

    * Z = I/r, X = V stacked as (r d_out) x d_in over sqrt(r), so X^* X is
      the identity over r up to the rounding of V;
    * Z = conj(u) u^T for u a unit top eigenvector of the Gram matrix
      conj(W) W^T, which is Phi^c(rho) conjugated, so X = sum_e u_e V_e:
      tight to first order at a minimizer where the top is simple. Any
      unit u gives a bound; u decides only how tight it is.
    """
    a = x.conj().T @ x
    lam = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return float(lam[0]) - x.shape[1] * _EPS * float(lam[-1])


def min_output_opnorm(
    ch: ChannelHandle, restarts: int = 16, seed: int = 0
) -> tuple[float, PureState]:
    """Smallest largest-output-eigenvalue found over seeded random-restart
    local searches, with the minimizing extended pure input.

    The returned value is an upper bound on the true minimum; it is
    deterministic given the seed, and using more restarts with the same
    seed never increases it. *restarts* is a cap: the search stops once its
    best value is within CERT_TOL of a lower bound it has certified (see
    ``_search``). Each restart descends by limited-memory BFGS
    on the unit sphere: a quasi-Newton direction from the last 8 step
    pairs, then Armijo backtracking from the unit step (see
    ``_descend_opnorm``). Each evaluation reads the top eigenpair of an
    r-by-r Gram matrix, with r the environment of the isometry V (see
    ``_isometry``), the channel's numerical Choi rank: above
    16 x 16 by a short Lanczos run warm-started from the previous step's
    eigenvector when its answer is certified, else by one eigh; after the
    first uncertified answer the restart uses eigh alone. Each restart's
    value is one eigh at its final input.
    """
    val, psi, _ = _search(ch, restarts, seed)
    return val, psi


def _search(ch: ChannelHandle, restarts: int, seed: int) -> tuple[float, PureState, float]:
    """The search of ``min_output_opnorm``, with the lower end of its
    bracket: the largest ``_dual_bound`` over Z = I/r and the Z = u u* of
    each restart run.

    Restarts draw their starts from one seeded stream in order and stop
    once the best value is within CERT_TOL of the lower end, so a stopped
    search is a prefix of the one that runs every restart; a bracket that
    never closes runs all *restarts*.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if ch.dim_in > MAX_SEARCH_DIM_IN:
        raise DimensionCapError(
            f"search supports input dimension up to {MAX_SEARCH_DIM_IN}, got {ch.dim_in}"
        )
    iso = _isometry(ch)
    r, d_out, d_in = iso.shape
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_psi = None
    lower = _dual_bound(iso.reshape(-1, d_in) / np.sqrt(r))
    for _ in range(restarts):
        x0 = _random_unit(rng, d_in * d_in)
        psi, val, u = _descend_opnorm(iso, x0)
        if val < best_val:
            best_val, best_psi = val, psi
        lower = max(lower, _dual_bound((u @ iso.reshape(r, -1)).reshape(d_out, d_in)))
        if best_val - lower <= CERT_TOL:
            break
    return float(best_val), PureState(best_psi), lower


@dataclass
class IsometryReport:
    choi_rank: int
    exact_isometry: bool
    min_output_opnorm: float
    min_output_opnorm_lower: float
    minimizing_state: PureState
    classification: str


def analyze_channel(
    ch: ChannelHandle, epsilon: float, restarts: int = 16, seed: int = 0
) -> IsometryReport:
    """Full isometry report at a given promise parameter.

    The search value ``min_output_opnorm`` and its certified lower bound
    ``min_output_opnorm_lower`` bracket the true minimum (see ``_search``);
    the search ends once they are within CERT_TOL, or after *restarts*.
    Classification honors the promise gap: a yes-instance needs a found
    value at or below epsilon, a no-instance needs the exact-isometry
    certificate, and anything else stays indeterminate; the lower bound is
    reported but does not classify.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    # The search validates its arguments before the isometry is built.
    val, psi, lower = _search(ch, restarts, seed)
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
        min_output_opnorm=val,
        min_output_opnorm_lower=lower,
        minimizing_state=psi,
        classification=classification,
    )


# ---------------------------------------------------------------------------
# Approximate isometry extraction
# ---------------------------------------------------------------------------

def _probe_family(ch: ChannelHandle, seed: int, n_random: int):
    """Pure input probes: the d_in computational basis states first, then
    equal superpositions of basis pairs, and seeded random states."""
    d = ch.dim_in
    basis = np.eye(d, dtype=complex)
    probes = list(basis)
    for i in range(d):
        for j in range(i + 1, d):
            probes.append((basis[i] + basis[j]) / np.sqrt(2.0))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        probes.append(_random_unit(rng, d))
    return probes


def probe_epsilon(ch: ChannelHandle, seed: int = 0, n_random: int = 50) -> float:
    """Isometry defect measured as one minus the smallest output largest-
    eigenvalue over the finite probe family; a lower bound on the true
    worst-case defect."""
    iso = _isometry(ch)
    worst = min(_top_output(iso, v)[0] for v in _probe_family(ch, seed, n_random))
    return max(0.0, 1.0 - worst)


@dataclass
class ApproxIsometryDiagnostics:
    eps_measured: float
    max_distance: float


def extract_approx_isometry(
    ch: ChannelHandle, seed: int = 0, n_random: int = 50
) -> tuple[np.ndarray, ApproxIsometryDiagnostics]:
    """Recover the isometry a near-isometric channel approximates: the
    polar factor A = U W* of V's leading row V_0 = U S W*, the isometry
    nearest to V_0 (Higham, SIAM J. Sci. Stat. Comput. 7, 1986).

    The channel is refused when the output of a basis probe, or the Choi
    matrix, has a top eigenvalue below NEAR_ISOMETRY_PROBE_FLOOR. The Choi
    top is |V_0|_F^2 / d_in, the top of the extended output on the
    maximally entangled state; it catches channels, dephasers among them,
    whose unextended basis outputs are pure or sit exactly at the floor.
    A Choi top of at least 1/2 in a spectrum that sums to one is simple,
    and V_0 fixed up to one phase, but at the floor itself, where it can be
    two-fold degenerate; so a top within rounding of the next is refused.
    Each probe is evaluated once; the basis probes come first.

    Diagnostics report the worst trace-norm distance between the channel
    output and conjugation by A over a finite probe family, so they
    lower-bound the true worst case.
    """
    d_in = ch.dim_in
    iso = _isometry(ch)
    u, _, wh = np.linalg.svd(iso[0], full_matrices=False)
    a = u @ wh
    tops = []
    dist = 0.0
    for x in _probe_family(ch, seed, n_random):
        top, _, w, _ = _top_output(iso, x)
        y = a @ x
        tops.append(top)
        dist = max(dist, trace_norm(w.T @ w.conj() - np.outer(y, y.conj())))
    choi = (_row_weights(iso[:2]) / d_in).tolist()
    floor = min(*tops[:d_in], choi[0])
    if floor < NEAR_ISOMETRY_PROBE_FLOOR:
        raise NotNearIsometryError(
            f"channel is not near-isometric: probe output largest eigenvalue "
            f"{floor!r} < {NEAR_ISOMETRY_PROBE_FLOOR}"
        )
    # One eigh fixes this spectrum only to within rounding of its largest
    # value: the noise floor at which _isometry cuts it.
    if len(choi) > 1 and choi[0] - choi[1] <= _NOISE_FLOOR * choi[0]:
        raise NotNearIsometryError(
            f"channel is not near-isometric: Choi top eigenvalue {choi[0]!r} is degenerate"
        )
    return a, ApproxIsometryDiagnostics(eps_measured=max(0.0, 1.0 - min(tops)), max_distance=dist)
