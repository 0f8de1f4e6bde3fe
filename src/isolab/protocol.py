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
from .linalg import HERMITICITY_TOL, TRACE_TOL, DensityMatrix, PureState, as_matrix

PROB_FLOOR = 1e-12


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


def _project(m: np.ndarray, d: int, sign: float) -> np.ndarray:
    """(I + sign W) m (I + sign W) / 4 for the matrix *m* of two
    *d*-dimensional factors, unnormalized."""
    t = m.reshape(d, d, d, d)
    w_m = t.transpose(1, 0, 2, 3)
    m_w = t.transpose(0, 1, 3, 2)
    w_m_w = t.transpose(1, 0, 3, 2)
    return ((t + sign * w_m + sign * m_w + w_m_w) / 4.0).reshape(m.shape)


def swap_test(rho) -> SwapTestResult:
    """Two-outcome measurement with projectors (I +/- W)/2 on a bipartite
    state with equal factor dimensions.

    Post-measurement states are the renormalized projections; they are
    None when the outcome probability is below 1e-12. On a two-copy input
    sigma (x) sigma the antisymmetric probability is (1 - tr(sigma^2))/2.
    """
    m = as_matrix(rho)
    total = m.shape[0]
    d = isqrt(total)
    if d * d != total or m.shape[0] != m.shape[1]:
        raise ValueError("non-square bipartition: matrix dimension is not d*d")
    p_sym, p_anti = _swap_probabilities(m, d)

    def _post(sign: float, p: float) -> DensityMatrix | None:
        if p < PROB_FLOOR:
            return None
        return DensityMatrix(_project(m, d, sign) / p)

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


def honest_witness(ch: ChannelHandle, psi) -> DensityMatrix:
    """Two unentangled copies of a pure extended input, as a density matrix;
    such witnesses pass the first swap test with probability one."""
    psi = psi if isinstance(psi, PureState) else PureState(psi)
    if psi.dim != ch.dim_in ** 2:
        raise ValueError(
            f"dimension mismatch: witness halves need dim {ch.dim_in ** 2}, got {psi.dim}"
        )
    return DensityMatrix.from_pure(np.kron(psi.amplitudes, psi.amplitudes))


def _coerce_witness(ch: ChannelHandle, witness) -> DensityMatrix:
    """The witness as a density matrix. An array is validated in full only
    after its shape and the protocol cap are checked."""
    m = as_matrix(witness)
    needed = ch.dim_in ** 4
    if m.shape != (needed, needed):
        raise ValueError(
            f"dimension mismatch: witness needs dim {needed}, got {m.shape[0]}x{m.shape[1]}"
        )
    cap = max_total_dim()
    if needed > cap or (ch.dim_out * ch.dim_in) ** 2 > cap:
        raise DimensionCapError(
            f"protocol dimension exceeds the cap of {cap} (set ISOLAB_MAX_DIM to override)"
        )
    return witness if isinstance(witness, DensityMatrix) else DensityMatrix(m)


def _parallel_extended_output(ch: ChannelHandle, mat: np.ndarray) -> np.ndarray:
    """Apply the reference-extended channel to each copy of a two-copy
    matrix on (input (x) reference) (x) (input (x) reference).

    The channel's natural representation S, with vec(Phi(X)) = S vec(X) in
    row-major order, is read off the compiled isometry V by one contraction
    over the environment: S[(x, x'), (a, a')] = sum_e V[x, e, a]
    conj(V[x', e, a']). The matrix is viewed as a tensor with axes
    (a r1 b r2 | a' r1' b' r2'); S contracts (a, a') for the first copy and
    (b, b') for the second, and the reference axes pass through unchanged.
    """
    d_in, d_out = ch.dim_in, ch.dim_out
    v = _isometry(ch)
    s = np.tensordot(v, v.conj(), axes=([1], [1])).transpose(0, 2, 1, 3)
    t = np.tensordot(s, mat.reshape((d_in,) * 8), axes=([2, 3], [0, 4]))
    t = t.transpose(0, 2, 3, 4, 1, 5, 6, 7)   # (x r1 b r2 | x' r1' b' r2')
    t = np.tensordot(s, t, axes=([2, 3], [2, 6]))
    d_out_total = (d_out * d_in) ** 2
    return t.transpose(2, 3, 0, 4, 5, 6, 1, 7).reshape(d_out_total, d_out_total)


def _check_two_copy_output(sigma: np.ndarray) -> None:
    """O(D^2) checks of trace and Hermiticity on the two-copy output. The
    input to the channels is a normalized Hermitian matrix, so a violation
    is a fault of this module, not of the witness."""
    tr = float(np.real(np.trace(sigma)))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise RuntimeError(f"two-copy channel output has trace {tr!r}, not 1")
    dev = float(np.abs(sigma - sigma.conj().T).max())
    if not dev <= HERMITICITY_TOL:
        raise RuntimeError(
            f"two-copy channel output is not Hermitian (deviation {dev:.3e})"
        )


def run_protocol_exact(ch: ChannelHandle, witness) -> ProtocolResult:
    """Exact outcome probabilities of the two swap tests on a witness given
    as a DensityMatrix or as an array, which is validated in full.

    Step 1 projects the witness onto the symmetric subspace (rejecting on
    the antisymmetric outcome), step 2 applies the extended channel to
    each copy, and step 3 accepts on the antisymmetric outcome, so
    p_accept is the product of the step-1 symmetric probability and the
    conditional step-3 antisymmetric probability.
    """
    dm = _coerce_witness(ch, witness)
    d_half = ch.dim_in ** 2
    p1, _ = _swap_probabilities(dm.matrix, d_half)
    if p1 < PROB_FLOOR:
        return ProtocolResult(p1, 0.0, 0.0)
    # Normalized by its own trace and made exactly Hermitian, so that
    # rounding in the projection is not magnified by 1/p1 when p1 is small.
    block = _project(dm.matrix, d_half, 1.0)
    post = (block + block.conj().T) / (2.0 * float(np.real(np.trace(block))))
    sigma = _parallel_extended_output(ch, post)
    _check_two_copy_output(sigma)
    _, p3 = _swap_probabilities(sigma, ch.dim_out * ch.dim_in)
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


def _swap_halves(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(d, d).T.reshape(-1)


def symmetric_witness_family(
    ch: ChannelHandle, n_random: int = 20, seed: int = 0
) -> list[DensityMatrix]:
    """Seeded family of symmetric witnesses: honest two-copy witnesses over
    the full computational basis of input (x) reference, plus random pure
    states projected onto the symmetric subspace."""
    d_half = ch.dim_in ** 2
    eye = np.eye(d_half, dtype=complex)
    family = [honest_witness(ch, PureState(eye[:, i])) for i in range(d_half)]
    rng = np.random.default_rng(seed)
    while len(family) < d_half + n_random:
        v = rng.normal(size=d_half * d_half) + 1j * rng.normal(size=d_half * d_half)
        v = (v + _swap_halves(v, d_half)) / 2.0
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
        holds=honest.p_accept >= lower - 1e-6,
    )

    iso = exact_isometry_test(ch)
    family = symmetric_witness_family(ch, n_random=n_random_witnesses, seed=seed)
    max_p = max(run_protocol_exact(ch, w).p_accept for w in family)
    if iso.exact_isometry:
        soundness = SoundnessCheck(
            exact_isometry=True,
            epsilon_used=0.0,
            epsilon_source="exact",
            max_p_accept=max_p,
            upper_bound=0.0,
            holds=max_p <= 1e-9,
            n_witnesses=len(family),
            seed=seed,
        )
    else:
        if epsilon is not None:
            eps, source = float(epsilon), "given"
        else:
            eps, source = probe_epsilon(ch, seed=seed), "probes"
        soundness = SoundnessCheck(
            exact_isometry=False,
            epsilon_used=eps,
            epsilon_source=source,
            max_p_accept=max_p,
            upper_bound=9.0 * eps,
            holds=max_p <= 9.0 * eps + 1e-6,
            n_witnesses=len(family),
            seed=seed,
        )
    return ProtocolBoundsReport(completeness, soundness)
