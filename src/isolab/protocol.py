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
from .linalg import TOL, DensityMatrix, PureState, _as_density, _clamp01, as_matrix

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


def _symmetrize(f: np.ndarray, d: int, sign: float) -> np.ndarray:
    """P F for the factor F and P = (I + sign W)/2, W the swap of two
    *d*-dimensional factors."""
    f = f.reshape(d, d, -1)
    return ((f + sign * f.transpose(1, 0, 2)) / 2.0).reshape(d * d, -1)


def swap_test(rho) -> SwapTestResult:
    """Two-outcome measurement with projectors P = (I +/- W)/2 on a bipartite
    state with equal factor dimensions; an array is validated in full.

    On rho = F F* an outcome has probability |P F|_F^2, and its
    post-state is the renormalized projection (P F)(P F)*, positive
    semidefinite however small the probability; it is None when the
    probability is below 1e-12. On a two-copy input sigma (x) sigma the
    antisymmetric probability is (1 - tr(sigma^2))/2.
    """
    dm = _as_density(rho)
    d = isqrt(dm.dim)
    if d * d != dm.dim:
        raise ValueError("non-square bipartition: matrix dimension is not d*d")
    pfs = [_symmetrize(dm.factor, d, sign) for sign in (1.0, -1.0)]
    ps = [_clamp01(float(np.vdot(pf, pf).real)) for pf in pfs]
    posts = [None if p < PROB_FLOOR else DensityMatrix.from_factor(pf / np.linalg.norm(pf))
             for p, pf in zip(ps, pfs)]
    return SwapTestResult(*ps, *posts)


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
    shape = (witness.dim,) * 2 if isinstance(witness, DensityMatrix) else as_matrix(witness).shape
    needed = ch.dim_in ** 4
    if shape != (needed, needed):
        raise ValueError(
            f"dimension mismatch: witness needs dim {needed}, got {shape[0]}x{shape[1]}"
        )
    return _as_density(witness)


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
    d, d2 = ch.dim_in, ch.dim_in ** 2
    t = _pulled_back_swap(ch).reshape(d2, d2)
    # With P F the projection of the witness's factor onto the symmetric
    # subspace of the copy swap, p1 = |P F|^2 and <W_out> = <PF, X PF> /
    # p1 for X = T (x) W_ref: (X w)[a, r, b, s] = sum T[a, b, c, e]
    # w[c, s, e, r] over axes (a r b s) of input (x) reference per copy.
    # Scored d2 columns at a time, so no array as large as F is formed.
    weight = w_out = 0.0
    for j in range(0, dm.factor.shape[1], d2):
        pf = _symmetrize(dm.factor[:, j:j + d2], d2, 1.0)
        weight += float(np.vdot(pf, pf).real)
        y = pf.reshape(d, d, d, d, -1).transpose(0, 2, 1, 3, 4)
        xy = (t @ y.reshape(d2, -1)).reshape(d, d, d, d, -1).transpose(0, 1, 3, 2, 4)
        w_out += float(np.vdot(y, xy).real)
    p1 = _clamp01(weight)
    if p1 < PROB_FLOOR:
        return ProtocolResult(p1, 0.0, 0.0)
    p3 = _clamp01((1.0 - w_out / weight) / 2.0)
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
