"""Swap-test verification of channel mixing.

The verifier receives a witness on two copies of input (x) reference,
projects it onto the symmetric subspace with a swap test, applies the
reference-extended channel to each copy, and accepts only when a second
swap test on the output returns the antisymmetric outcome. A channel far
from an isometry admits witnesses accepted with probability near one
half; a channel close to an isometry keeps symmetric states nearly
symmetric, so every witness is accepted with probability close to zero.

Note on the accept condition: an alternative convention accepts the
*symmetric* outcome of the second test. That reading is inconsistent
with the acceptance lower bound (1 - eps)/2, which is exactly the
antisymmetric-outcome probability of the swap test on two copies of a
mixed output, so this implementation accepts on the antisymmetric
outcome.
"""

from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from .channels import (
    ChannelHandle,
    DimensionCapError,
    _isometry,
    exact_isometry_test,
    max_total_dim,
    min_output_opnorm,
    probe_epsilon,
)
from .linalg import TOL, DensityMatrix, PureState, as_matrix

PROB_FLOOR = 1e-12
# Slack of both checks in check_protocol_bounds: the acceptance floor and
# the 9 * eps ceiling each hold within it.
BOUNDS_SLACK = 1e-6


@dataclass
class SwapTestResult:
    p_symmetric: float
    p_antisymmetric: float
    post_symmetric: DensityMatrix | None
    post_antisymmetric: DensityMatrix | None


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _swap_probabilities(m: np.ndarray, d: int) -> tuple[float, float]:
    """Symmetric and antisymmetric outcome probabilities of the swap test on
    the matrix *m* of two *d*-dimensional factors: (tr m +/- tr(W m))/2."""
    tr_m = float(np.real(np.trace(m)))
    tr_w_m = float(np.real(np.einsum("abba->", m.reshape(d, d, d, d))))
    return _clamp01((tr_m + tr_w_m) / 2.0), _clamp01((tr_m - tr_w_m) / 2.0)


def swap_test(rho) -> SwapTestResult:
    """Two-outcome measurement with projectors P = (I +/- W)/2 on a bipartite
    state with equal factor dimensions; an array is validated in full.

    Post-measurement states are the renormalized projections (P F)(P F)*
    of rho = F F*, positive semidefinite however small the outcome
    probability; they are None when it is below 1e-12. On a two-copy input
    sigma (x) sigma the antisymmetric probability is (1 - tr(sigma^2))/2.
    """
    m = as_matrix(rho)
    total = m.shape[0]
    d = isqrt(total)
    if d * d != total or m.shape[0] != m.shape[1]:
        raise ValueError("non-square bipartition: matrix dimension is not d*d")
    m = rho.matrix if isinstance(rho, DensityMatrix) else DensityMatrix(m).matrix
    p_sym, p_anti = _swap_probabilities(m, d)
    w, v = np.linalg.eigh(m)
    f = (v * np.sqrt(np.clip(w, 0.0, None))).reshape(d, d, total)

    def _post(sign: float, p: float) -> DensityMatrix | None:
        if p < PROB_FLOOR:
            return None
        pf = (f + sign * f.transpose(1, 0, 2)).reshape(total, total)
        return DensityMatrix.from_factor(pf / np.linalg.norm(pf))

    return SwapTestResult(p_sym, p_anti, _post(1.0, p_sym), _post(-1.0, p_anti))


@dataclass
class ShotStats:
    n: int
    accepts: int
    seed: int


@dataclass
class ProtocolResult:
    p_step1_symmetric: float
    p_step3_antisymmetric_given_step1: float
    p_accept: float
    shots: ShotStats | None = None


def _check_protocol_cap(ch: ChannelHandle) -> None:
    """Refuse a protocol whose two-copy witness, or the matrix Q = M* M of
    dimension d_env d_in that it forms from V (see ``_swap_observable``),
    would exceed the cap; checked before any witness is built, and the
    witness before V is compiled."""
    cap = max_total_dim()
    if ch.dim_in ** 4 > cap or len(_isometry(ch)) * ch.dim_in > cap:
        raise DimensionCapError(
            f"protocol dimension exceeds the cap of {cap} (set ISOLAB_MAX_DIM to override)"
        )


def honest_witness(ch: ChannelHandle, psi) -> DensityMatrix:
    """Two unentangled copies of a pure extended input, as a density matrix;
    such witnesses pass the first swap test with probability one."""
    _check_protocol_cap(ch)
    psi = psi if isinstance(psi, PureState) else PureState(psi)
    if psi.dim != ch.dim_in ** 2:
        raise ValueError(
            f"dimension mismatch: witness halves need dim {ch.dim_in ** 2}, got {psi.dim}"
        )
    return DensityMatrix.from_pure(np.kron(psi.amplitudes, psi.amplitudes))


def _coerce_witness(ch: ChannelHandle, witness) -> DensityMatrix:
    """The witness as a density matrix. An array is validated in full only
    after the protocol cap and its shape are checked."""
    _check_protocol_cap(ch)
    m = as_matrix(witness)
    needed = ch.dim_in ** 4
    if m.shape != (needed, needed):
        raise ValueError(
            f"dimension mismatch: witness needs dim {needed}, got {m.shape[0]}x{m.shape[1]}"
        )
    return witness if isinstance(witness, DensityMatrix) else DensityMatrix(m)


def _swap_observable(ch: ChannelHandle) -> np.ndarray:
    """T = (Phi* (x) Phi*)(W_out), the output swap pulled back through both
    copies of the channel, axes (a, b, a', b'): with M = V as a
    d_out x (d_env d_in) matrix and Q = M* M, axes (e, a, f, b),
    T[a, b, a', b'] = sum_{e, f} Q[e, a, f, b'] Q[f, b, e, a']."""
    v = _isometry(ch)
    d_env, d_out, d_in = v.shape
    m = v.transpose(1, 0, 2).reshape(d_out, d_env * d_in)
    q = (m.conj().T @ m).reshape(d_env, d_in, d_env, d_in)
    return np.tensordot(q, q, axes=([0, 2], [2, 0])).transpose(0, 2, 3, 1)


def _check_swap_observable(ch: ChannelHandle, t: np.ndarray) -> None:
    """T is Hermitian and tr T = |Phi(I)|_F^2 with Phi(I) = sum_e V_e V_e*;
    a violation is a fault of this module, not of the witness."""
    d = ch.dim_in ** 2
    mat = t.reshape(d, d)
    dev = float(np.abs(mat - mat.conj().T).max())
    if not dev <= TOL:
        raise RuntimeError(f"pulled-back swap is not Hermitian (deviation {dev:.3e})")
    v = _isometry(ch)
    phi_id = np.tensordot(v, v.conj(), axes=([0, 2], [0, 2]))
    expected = float(np.vdot(phi_id, phi_id).real)
    tr = float(np.real(np.trace(mat)))
    if not abs(tr - expected) <= TOL:
        raise RuntimeError(f"pulled-back swap has trace {tr!r}, not |Phi(I)|_F^2 = {expected!r}")


def _pulled_back_swap(ch: ChannelHandle) -> np.ndarray:
    """The handle's pulled-back swap T, built and checked on first use."""
    if ch._swap is None:
        t = _swap_observable(ch)
        _check_swap_observable(ch, t)
        ch._swap = t
    return ch._swap


def run_protocol_exact(ch: ChannelHandle, witness) -> ProtocolResult:
    """Exact outcome probabilities of the two swap tests on a witness given
    as a DensityMatrix or as an array, which is validated in full.

    Step 1 projects the witness onto the symmetric subspace (rejecting on
    the antisymmetric outcome), step 2 applies the extended channel to
    each copy, and step 3 accepts on the antisymmetric outcome, so
    p_accept is the product of the step-1 symmetric probability and the
    conditional step-3 antisymmetric probability, (1 - <W_out>)/2 with
    <W_out> read off the pulled-back swap T.
    """
    dm = _coerce_witness(ch, witness)
    d_in = ch.dim_in
    p1, _ = _swap_probabilities(dm.matrix, d_in * d_in)
    if p1 < PROB_FLOOR:
        return ProtocolResult(p1, 0.0, 0.0)
    t = _pulled_back_swap(ch)
    # <W_out> on the step-1 block P rho P, P = (I + W)/2 for the copy swap
    # W, over the block's trace (tr rho + tr W rho)/2, which is p1 before
    # clamping. X = T (x) W_ref commutes with W, so tr(X P rho P) =
    # (tr(X rho) + tr(X W rho))/2 and the block is never formed. Axes of
    # rho: (a r b s | a' r' b' s'); the reference swap pairs r with s' and
    # s with r', and W rho reads rho with the row copies exchanged.
    view = dm.matrix.reshape((d_in,) * 8)
    w_out = np.einsum("abcd,csdrarbs->", t, view) + np.einsum("abcd,drcsarbs->", t, view)
    d2 = d_in * d_in
    block_trace = np.trace(dm.matrix) + np.einsum("abba->", dm.matrix.reshape(d2, d2, d2, d2))
    p3 = _clamp01((1.0 - float(w_out.real) / float(block_trace.real)) / 2.0)
    return ProtocolResult(p1, p3, p1 * p3)


def run_protocol_sampled(
    ch: ChannelHandle, witness, shots: int, seed: int = 0
) -> ProtocolResult:
    """Monte Carlo shots over the exact per-step distributions.

    Each shot draws one uniform for the step-1 outcome and one for the
    conditional step-3 outcome; the accept count is deterministic given
    the seed.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    exact = run_protocol_exact(ch, witness)
    rng = np.random.default_rng(seed)
    u1 = rng.random(shots)
    u2 = rng.random(shots)
    accepted = (u1 < exact.p_step1_symmetric) & (
        u2 < exact.p_step3_antisymmetric_given_step1
    )
    return replace(exact, shots=ShotStats(shots, int(np.count_nonzero(accepted)), seed))


def symmetric_witness_family(
    ch: ChannelHandle, n_random: int = 20, seed: int = 0
) -> list[DensityMatrix]:
    """Seeded family of symmetric witnesses: honest two-copy witnesses over
    the full computational basis of input (x) reference, plus random pure
    states projected onto the symmetric subspace."""
    _check_protocol_cap(ch)
    d_half = ch.dim_in ** 2
    # The honest witness on basis state i is the basis state i (d_half + 1)
    # of the two copies, built at once from that exact unit factor.
    family = []
    for i in range(d_half):
        e = np.zeros((d_half * d_half, 1), dtype=complex)
        e[i * (d_half + 1)] = 1.0
        family.append(DensityMatrix.from_factor(e))
    rng = np.random.default_rng(seed)
    while len(family) < d_half + n_random:
        v = rng.normal(size=d_half * d_half) + 1j * rng.normal(size=d_half * d_half)
        v = (v + v.reshape(d_half, d_half).T.reshape(-1)) / 2.0
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        family.append(DensityMatrix.from_pure(v / norm))
    return family


@dataclass
class CompletenessCheck:
    """Best mixing witness found and the acceptance floor it certifies."""

    min_opnorm: float
    p_accept: float
    lower_bound: float
    holds: bool


@dataclass
class SoundnessCheck:
    """Acceptance ceiling over a sampled witness family.

    The bound is universally quantified over witnesses, which no finite
    family certifies; this check reports sampled evidence only.
    """

    exact_isometry: bool
    epsilon_used: float
    epsilon_source: str
    max_p_accept: float
    upper_bound: float
    holds: bool
    n_witnesses: int
    seed: int
    evidence: str = "sampled"


@dataclass
class ProtocolBoundsReport:
    completeness: CompletenessCheck
    soundness: SoundnessCheck


def check_protocol_bounds(
    ch: ChannelHandle,
    epsilon: float | None = None,
    n_random_witnesses: int = 20,
    restarts: int = 16,
    seed: int = 0,
) -> ProtocolBoundsReport:
    """Numerically exercise both acceptance bounds of the protocol.

    Completeness: the honest witness built from the mixing search's
    minimizer must be accepted with probability at least (1 - m)/2 where m
    is the found output eigenvalue. Soundness: over the seeded symmetric
    witness family, acceptance must stay at zero for exact isometries and
    below 9 * epsilon otherwise, with epsilon taken from the caller or
    measured from probe states.
    """
    m_val, psi = min_output_opnorm(ch, restarts=restarts, seed=seed)
    honest = run_protocol_exact(ch, honest_witness(ch, psi))
    lower = (1.0 - m_val) / 2.0
    completeness = CompletenessCheck(
        min_opnorm=m_val,
        p_accept=honest.p_accept,
        lower_bound=lower,
        holds=honest.p_accept >= lower - BOUNDS_SLACK,
    )

    exact = exact_isometry_test(ch).exact_isometry
    family = symmetric_witness_family(ch, n_random=n_random_witnesses, seed=seed)
    max_p = max(run_protocol_exact(ch, w).p_accept for w in family)
    if exact:
        eps, source, slack = 0.0, "exact", TOL
    elif epsilon is not None:
        eps, source, slack = float(epsilon), "given", BOUNDS_SLACK
    else:
        eps, source, slack = probe_epsilon(ch, seed=seed), "probes", BOUNDS_SLACK
    soundness = SoundnessCheck(
        exact_isometry=exact,
        epsilon_used=eps,
        epsilon_source=source,
        max_p_accept=max_p,
        upper_bound=9.0 * eps,
        holds=max_p <= 9.0 * eps + slack,
        n_witnesses=len(family),
        seed=seed,
    )
    return ProtocolBoundsReport(completeness, soundness)
