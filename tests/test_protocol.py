import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _call_log,
    choi_rank_oracle,
    circuit_swap_test_probs,
    kraus_dilation,
    kraus_from_choi_oracle,
    maximally_mixed,
    parallel_extended_output_oracle,
    random_circuit,
    random_density,
    random_kraus,
    random_pure,
    random_unitary,
    swap_operator,
    sym_antisym_projectors,
)
from isolab import (
    AddAncilla,
    ChannelHandle,
    Circuit,
    DimensionCapError,
    DensityMatrix,
    PureState,
    TraceOut,
    UnitaryGate,
    append_output_depolarizing,
    apply_extended,
    check_protocol_bounds,
    choi_of,
    honest_witness,
    maximally_entangled_state,
    parse_circuit,
    probe_epsilon,
    run_protocol_exact,
    run_protocol_sampled,
    swap_test,
    symmetric_witness_family,
)
from isolab.channels import _isometry, _top_output
from isolab.protocol import _swap_observable

DEPOLARIZER = "qubits 1\nchannel depolarize 0\n"
COPY = "qubits 1\nancilla\ngate CNOT 0 1\n"


def handle(src):
    return ChannelHandle(parse_circuit(src))


class TestSwapTest:
    def test_pure_product_is_symmetric(self):
        rng = np.random.default_rng(60)
        psi = random_pure(rng, 3)
        rho = DensityMatrix(np.kron(psi.projector(), psi.projector()))
        res = swap_test(rho)
        assert res.p_antisymmetric == pytest.approx(0.0, abs=1e-12)
        assert res.p_symmetric == pytest.approx(1.0, abs=1e-12)
        assert res.post_antisymmetric is None

    def test_two_maximally_mixed_qubits(self):
        rho = maximally_mixed(4)
        res = swap_test(rho)
        assert res.p_antisymmetric == pytest.approx(0.25, abs=1e-12)

    def test_two_copy_purity_formula(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            sigma = random_density(rng, d)
            res = swap_test(DensityMatrix(np.kron(sigma.matrix, sigma.matrix)))
            expected = 0.5 - 0.5 * purity(sigma)
            assert res.p_antisymmetric == pytest.approx(expected, abs=1e-10)
            assert res.p_symmetric + res.p_antisymmetric == pytest.approx(1.0, abs=1e-10)

    def test_post_states_valid_and_orthogonal_fractions(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 9)
        res = swap_test(rho)
        for post in (res.post_symmetric, res.post_antisymmetric):
            assert post is not None
            assert np.trace(post.matrix) == pytest.approx(1.0, abs=1e-10)
            again = swap_test(post)
        assert swap_test(res.post_symmetric).p_symmetric == pytest.approx(1.0, abs=1e-10)
        assert swap_test(res.post_antisymmetric).p_antisymmetric == pytest.approx(1.0, abs=1e-10)

    def test_matches_circuit_realization(self):
        rng = np.random.default_rng(63)
        for d in (2, 3):
            rho = random_density(rng, d * d)
            res = swap_test(rho)
            p_sym, p_anti = circuit_swap_test_probs(rho.matrix, d)
            assert res.p_symmetric == pytest.approx(p_sym, abs=1e-9)
            assert res.p_antisymmetric == pytest.approx(p_anti, abs=1e-9)

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_small_outcome_weight_post_state(self, eps):
        # (1 - eps)|A><A| + eps|S><S| on 2 x 2 x 2 x 2 dims: the input holds
        # eps|S><S| only to rounding, which dividing the projection by eps
        # would blow up into a negative eigenvalue far above TOL.
        rng = np.random.default_rng(0)

        def halves_vector(sign):
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            v = v + sign * v.reshape(4, 4).T.reshape(-1)
            return v / np.linalg.norm(v)

        anti, sym = halves_vector(-1.0), halves_vector(1.0)
        rho = (1 - eps) * np.outer(anti, anti.conj()) + eps * np.outer(sym, sym.conj())
        res = swap_test(DensityMatrix(rho))
        assert res.p_symmetric == pytest.approx(eps, abs=1e-15)
        post = res.post_symmetric.matrix
        assert np.linalg.eigvalsh(post).min() >= -1e-15
        assert np.vdot(sym, post @ sym).real == pytest.approx(1.0, abs=1e-3)
        post_anti = res.post_antisymmetric.matrix
        assert np.vdot(anti, post_anti @ anti).real == pytest.approx(1.0, abs=1e-12)

    def test_non_square_bipartition(self):
        with pytest.raises(ValueError, match="non-square bipartition"):
            swap_test(maximally_mixed(6))


def purity(rho):
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


class TestHonestWitness:
    def test_swap_invariant(self):
        ch = handle(DEPOLARIZER)
        w = honest_witness(ch, maximally_entangled_state(2))
        assert w.dim == 16
        m = w.matrix
        t = m.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
        assert np.abs(m - t).max() < 1e-12

    def test_passes_first_test_with_probability_one(self):
        rng = np.random.default_rng(64)
        ch = handle(COPY)
        w = honest_witness(ch, random_pure(rng, 4))
        assert swap_test(w).p_symmetric == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            honest_witness(handle(DEPOLARIZER), random_pure(np.random.default_rng(0), 8))


class TestProtocolExact:
    def test_isometry_never_accepts(self):
        rng = np.random.default_rng(65)
        ch = handle(COPY)
        for w in [
            honest_witness(ch, random_pure(rng, 4)),
            random_density(rng, 16),
        ]:
            res = run_protocol_exact(ch, w)
            assert res.p_accept <= 1e-9

    def test_depolarizer_on_max_entangled(self):
        ch = handle(DEPOLARIZER)
        res = run_protocol_exact(ch, honest_witness(ch, maximally_entangled_state(2)))
        assert res.p_step1_symmetric == pytest.approx(1.0, abs=1e-9)
        assert res.p_step3_antisymmetric_given_step1 == pytest.approx(0.375, abs=1e-9)
        assert res.p_accept == pytest.approx(0.375, abs=1e-9)

    def test_probability_bounds_and_product(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            circ = random_circuit(rng, max_in=1, max_total=3)
            ch = ChannelHandle(circ)
            w = random_density(rng, 16)
            res = run_protocol_exact(ch, w)
            assert -1e-9 <= res.p_accept <= 1 + 1e-9
            assert res.p_accept == pytest.approx(
                res.p_step1_symmetric * res.p_step3_antisymmetric_given_step1, abs=1e-9
            )

    def test_witness_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_protocol_exact(handle(DEPOLARIZER), maximally_mixed(8))

    def test_small_symmetric_weight(self):
        # A witness with symmetric weight 1e-9: rounding in the symmetric
        # projection must not be magnified into an invalid post-state.
        rng = np.random.default_rng(67)
        ch = handle(DEPOLARIZER)

        def halves_vector(sign):
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            v = v + sign * v.reshape(4, 4).T.reshape(-1)
            return v / np.linalg.norm(v)

        anti, sym = halves_vector(-1.0), halves_vector(1.0)
        eps = 1e-9
        rho = (1 - eps) * np.outer(anti, anti.conj()) + eps * np.outer(sym, sym.conj())
        res = run_protocol_exact(ch, DensityMatrix(rho))
        p3 = run_protocol_exact(ch, DensityMatrix.from_pure(PureState(sym)))
        assert res.p_step1_symmetric == pytest.approx(eps, rel=1e-5)
        assert res.p_accept == pytest.approx(eps * p3.p_step3_antisymmetric_given_step1, abs=1e-12)

    def test_fully_antisymmetric_witness_always_rejected(self):
        vec = np.zeros(16, dtype=complex)
        vec[1] = 1 / np.sqrt(2)   # |01> of the two copies
        vec[4] = -1 / np.sqrt(2)  # -|10>
        res = run_protocol_exact(handle(DEPOLARIZER), DensityMatrix.from_pure(PureState(vec)))
        assert res.p_step1_symmetric <= 1e-12
        assert res.p_accept == 0.0


def kraus_channel(rng, n_in, shape, rank):
    """Circuit running a random channel of *rank* Kraus operators on all of
    its qubits, after adding an ancilla ("grow": d_out = 2 d_in) or before
    tracing out the last qubit ("shrink": d_out = d_in / 2), with the Kraus
    operators of the whole circuit derived from those of the channel."""
    n = n_in + 1 if shape == "grow" else n_in
    ops = random_kraus(rng, 2 ** n, 2 ** n, rank)
    mix = kraus_dilation(ops, range(n), n)
    if shape == "grow":
        # The ancilla is the last qubit, so |x> becomes |x>|0> at index 2x.
        embed = np.eye(2 ** n)[:, ::2]
        return Circuit(n_in, [AddAncilla(), *mix]), [a @ embed for a in ops]
    # Tracing out the last qubit in outcome m keeps the rows 2y + m.
    return Circuit(n_in, [*mix, TraceOut(n - 1)]), [a[m::2] for a in ops for m in (0, 1)]


# (n_in, shape, gate Kraus rank, Kraus rank of the whole channel)
KRAUS_CASES = [
    (1, "grow", 1, 1),
    (2, "grow", 1, 1),
    (1, "grow", 8, 8),     # full rank: d_in d_out = 8
    (2, "shrink", 4, 8),   # full rank: d_in d_out = 8
]


def pulled_back_expectation(ch, mat):
    """<W_out> on both extended channel outputs of the two-copy matrix
    *mat*, read off the pulled-back swap observable T."""
    d_in = ch.dim_in
    return np.einsum("abcd,csdrarbs->", _swap_observable(ch), mat.reshape((d_in,) * 8))


def output_swap_oracle(ops, mat, d_in):
    """tr(W_out sigma) on the explicit two-copy output sigma of the oracle."""
    sigma = parallel_extended_output_oracle(ops, mat, d_in)
    return np.trace(swap_operator(isqrt(sigma.shape[0])) @ sigma)


class TestParallelExtendedOutput:
    """The output swap pulled back through V, against the swap on the
    kron-built two-copy output."""

    @pytest.mark.parametrize("n_in,shape,rank,channel_rank", KRAUS_CASES)
    def test_matches_kron_oracle(self, n_in, shape, rank, channel_rank):
        rng = np.random.default_rng(70 + n_in + rank)
        circ, ops = kraus_channel(rng, n_in, shape, rank)
        ch = ChannelHandle(circ)
        assert ch.dim_in != ch.dim_out
        assert choi_rank_oracle(choi_of(ch).matrix) == channel_rank
        d4 = ch.dim_in ** 4
        arbitrary = rng.normal(size=(d4, d4)) + 1j * rng.normal(size=(d4, d4))
        for mat in (random_density(rng, d4).matrix, arbitrary):
            expected = output_swap_oracle(ops, mat, ch.dim_in)
            assert abs(pulled_back_expectation(ch, mat) - expected) <= 1e-12

    def test_wide_output_matches_kron_oracle(self):
        # One input qubit, four output qubits: d_out = 8 d_in.
        rng = np.random.default_rng(75)
        ops = random_kraus(rng, 16, 16, 3)
        circ = Circuit(1, [AddAncilla()] * 3 + kraus_dilation(ops, (0, 1, 2, 3), 4))
        ch = ChannelHandle(circ)
        assert (ch.dim_in, ch.dim_out) == (2, 16)
        # The ancillas are the last qubits, so |x> becomes |x>|000> at 8x.
        ops = [a[:, ::8] for a in ops]
        arbitrary = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        for mat in (random_density(rng, 16).matrix, arbitrary):
            expected = output_swap_oracle(ops, mat, ch.dim_in)
            assert abs(pulled_back_expectation(ch, mat) - expected) <= 1e-12

    # The 2-qubit "grow" case is left out: swap_test diagonalizes its
    # 1024-dim input twice, once to validate it and once for the factor of
    # its post-states.
    @pytest.mark.parametrize("n_in,shape,rank,channel_rank", KRAUS_CASES[:1] + KRAUS_CASES[2:])
    def test_probabilities_match_swap_tests_on_oracle(self, n_in, shape, rank, channel_rank):
        rng = np.random.default_rng(80 + n_in + rank)
        circ, ops = kraus_channel(rng, n_in, shape, rank)
        ch = ChannelHandle(circ)
        d_half = ch.dim_in ** 2
        witnesses = [
            random_density(rng, d_half ** 2),
            honest_witness(ch, random_pure(rng, d_half)),
        ]
        for w in witnesses:
            step1 = swap_test(w)
            sigma = parallel_extended_output_oracle(ops, step1.post_symmetric.matrix, ch.dim_in)
            p3 = swap_test(sigma).p_antisymmetric
            res = run_protocol_exact(ch, w)
            assert res.p_step1_symmetric == pytest.approx(step1.p_symmetric, abs=1e-12)
            assert res.p_step3_antisymmetric_given_step1 == pytest.approx(p3, abs=1e-12)
            assert res.p_accept == pytest.approx(step1.p_symmetric * p3, abs=1e-12)

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_circuits_match_kron_oracle(self, seed):
        # At most 2 input qubits and 3 qubits in flight, so the oracle's
        # two-copy output has dimension (d_out d_in)^2 <= 1024.
        rng = np.random.default_rng(seed)
        ch = ChannelHandle(random_circuit(rng, max_in=2, max_total=3))
        ops = kraus_from_choi_oracle(choi_of(ch).matrix, ch.dim_in, rank_tol=0.0)
        mat = random_density(rng, ch.dim_in ** 4).matrix
        expected = output_swap_oracle(ops, mat, ch.dim_in)
        assert abs(pulled_back_expectation(ch, mat) - expected) <= 1e-12

    def test_trace_fault_is_internal_error(self, monkeypatch):
        import isolab.protocol as protocol

        real = protocol._swap_observable
        monkeypatch.setattr(protocol, "_swap_observable", lambda ch: 2.0 * real(ch))
        ch = handle(DEPOLARIZER)
        with pytest.raises(RuntimeError, match="trace"):
            run_protocol_exact(ch, honest_witness(ch, maximally_entangled_state(2)))

    def test_hermiticity_fault_is_internal_error(self, monkeypatch):
        import isolab.protocol as protocol

        real = protocol._swap_observable
        monkeypatch.setattr(protocol, "_swap_observable", lambda ch: 1j * real(ch))
        ch = handle(DEPOLARIZER)
        with pytest.raises(RuntimeError, match="Hermitian"):
            run_protocol_exact(ch, honest_witness(ch, maximally_entangled_state(2)))

    def test_honest_protocol_forms_no_two_copy_output(self):
        # 1 input qubit, 4 output qubits: one (d_out d_in)^2-square array
        # would be 1024 x 1024 complex entries, 16 MiB.
        src = "qubits 1\nancilla\nancilla\nancilla\ngate H 0\ngate CNOT 0 1\n"
        ch = ChannelHandle(append_output_depolarizing(parse_circuit(src), 0.1))
        assert (ch.dim_in, ch.dim_out) == (2, 16)
        psi = maximally_entangled_state(2)
        tracemalloc.start()
        try:
            res = run_protocol_exact(ch, honest_witness(ch, psi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < res.p_accept < 0.5
        assert peak < (ch.dim_out * ch.dim_in) ** 4 * 16

    def test_honest_protocol_at_three_input_qubits(self):
        # A two-copy witness matrix would be 4096 x 4096, 256 MiB; the
        # honest witness's factor is one column of 4096 entries.
        rng = np.random.default_rng(34)
        body = Circuit(3, [UnitaryGate("umatrix", range(3), random_unitary(rng, 8))])
        ch = ChannelHandle(append_output_depolarizing(body, 0.3))
        psi = random_pure(rng, 64)
        tracemalloc.start()
        try:
            res = run_protocol_exact(ch, honest_witness(ch, psi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        # On sigma (x) sigma the step-3 antisymmetric probability is
        # (1 - tr sigma^2)/2, and tr sigma^2 = |G|_F^2 for the Gram matrix G.
        w = _top_output(_isometry(ch), psi.amplitudes)[2]
        g = w.conj() @ w.T
        assert res.p_step1_symmetric == pytest.approx(1.0, abs=1e-12)
        assert res.p_accept == pytest.approx((1.0 - np.vdot(g, g).real) / 2.0, abs=1e-12)

    def test_mixed_witness_scored_without_a_second_block(self):
        # At 2 input qubits a witness is 256 x 256, 1 MiB; its projection
        # onto the symmetric subspace would be one more of that size.
        rng = np.random.default_rng(32)
        noisy = append_output_depolarizing(parse_circuit("qubits 2\ngate H 0\ngate CNOT 0 1\n"), 0.3)
        ch = ChannelHandle(noisy)
        witness = random_density(rng, ch.dim_in ** 4)
        tracemalloc.start()
        try:
            res = run_protocol_exact(ch, witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < witness.matrix.nbytes
        p_plus, _ = sym_antisym_projectors(ch.dim_in ** 2)
        block = p_plus @ witness.matrix @ p_plus
        w_out = pulled_back_expectation(ch, block) / np.trace(block)
        assert res.p_step3_antisymmetric_given_step1 == pytest.approx((1.0 - w_out.real) / 2.0, abs=1e-12)


class TestNearIsometry:
    @pytest.mark.parametrize("s", [1e-7, 1e-8, 1e-6])
    def test_honest_acceptance_closed_form(self, s):
        # Noise below RANK_TOL: the truncated Kraus set would lose trace.
        noisy = append_output_depolarizing(parse_circuit("qubits 1\ngate H 0\n"), s)
        ch = ChannelHandle(noisy)
        res = run_protocol_exact(ch, honest_witness(ch, maximally_entangled_state(2)))
        assert res.p_accept == pytest.approx(0.75 * s - 0.375 * s * s, abs=1e-12)


class TestProtocolSampled:
    def test_isometry_zero_accepts(self):
        ch = handle(COPY)
        w = honest_witness(ch, maximally_entangled_state(2))
        res = run_protocol_sampled(ch, w, shots=10_000, seed=5)
        assert res.shots.accepts == 0

    def test_depolarizer_frequency(self):
        ch = handle(DEPOLARIZER)
        w = honest_witness(ch, maximally_entangled_state(2))
        res = run_protocol_sampled(ch, w, shots=100_000, seed=6)
        assert abs(res.shots.accepts / res.shots.n - 0.375) < 0.01

    def test_deterministic(self):
        ch = handle(DEPOLARIZER)
        w = honest_witness(ch, maximally_entangled_state(2))
        a = run_protocol_sampled(ch, w, shots=5_000, seed=7)
        b = run_protocol_sampled(ch, w, shots=5_000, seed=7)
        assert a.shots.accepts == b.shots.accepts

    def test_frequency_concentration(self):
        # Over 100 seeded runs, the observed frequency stays within the
        # four-sigma binomial band around the exact value in at least 99.
        ch = handle(DEPOLARIZER)
        w = honest_witness(ch, maximally_entangled_state(2))
        exact = run_protocol_exact(ch, w).p_accept
        shots = 100_000
        band = 4 * np.sqrt(exact * (1 - exact) / shots)
        hits = 0
        for seed in range(100):
            res = run_protocol_sampled(ch, w, shots=shots, seed=seed)
            if abs(res.shots.accepts / shots - exact) <= band:
                hits += 1
        assert hits >= 99


class TestSymmetricFamily:
    def test_family_is_symmetric(self):
        ch = handle(DEPOLARIZER)
        fam = symmetric_witness_family(ch, n_random=6, seed=8)
        assert len(fam) == 4 + 6
        for w in fam:
            assert swap_test(w).p_symmetric == pytest.approx(1.0, abs=1e-9)

    def test_isometry_step3_never_antisymmetric(self):
        ch = handle(COPY)
        for w in symmetric_witness_family(ch, n_random=8, seed=9):
            res = run_protocol_exact(ch, w)
            assert res.p_step3_antisymmetric_given_step1 <= 1e-9


class TestProtocolBounds:
    def test_compiled_once_without_choi(self, compile_calls, choi_calls):
        rep = check_protocol_bounds(handle(DEPOLARIZER), n_random_witnesses=2, restarts=2, seed=13)
        assert rep.completeness.holds
        assert len(compile_calls) == 1
        assert len(choi_calls) == 0

    def test_cap_checked_and_swap_built_once(self, monkeypatch):
        # The depolarizer is no exact isometry, so the probes run too.
        import isolab.channels as channels
        import isolab.protocol as protocol

        caps = _call_log(monkeypatch, channels._check_cap)
        builds = _call_log(monkeypatch, protocol._swap_observable)
        rep = check_protocol_bounds(handle(DEPOLARIZER), n_random_witnesses=4, restarts=2, seed=13)
        assert rep.soundness.epsilon_source == "probes"
        assert (len(caps), len(builds)) == (1, 1)

    def test_depolarizer_completeness_equality(self):
        rep = check_protocol_bounds(handle(DEPOLARIZER), n_random_witnesses=4, restarts=6, seed=10)
        assert rep.completeness.holds
        assert rep.completeness.p_accept == pytest.approx(0.375, abs=1e-9)
        assert rep.completeness.lower_bound == pytest.approx(0.375, abs=1e-3)

    def test_identity_soundness_zero(self):
        rep = check_protocol_bounds(handle("qubits 1\n"), n_random_witnesses=6, restarts=2, seed=11)
        assert rep.soundness.exact_isometry
        assert rep.soundness.max_p_accept <= 1e-9
        assert rep.soundness.holds

    def test_noisy_isometry_soundness(self):
        noisy = append_output_depolarizing(parse_circuit(COPY), 0.005)
        rep = check_protocol_bounds(ChannelHandle(noisy), n_random_witnesses=8, restarts=4, seed=12)
        assert not rep.soundness.exact_isometry
        assert rep.soundness.epsilon_source == "probes"
        assert rep.soundness.holds
        assert rep.soundness.max_p_accept <= 9 * rep.soundness.epsilon_used + 1e-6


class TestTrustBoundary:
    def test_internal_states_skip_full_validation(self, full_validations):
        rng = np.random.default_rng(90)
        ch = ChannelHandle(append_output_depolarizing(parse_circuit(COPY), 0.1))
        choi_of(ch)
        apply_extended(ch, random_pure(rng, 4))
        probe_epsilon(ch, n_random=3)
        run_protocol_exact(ch, honest_witness(ch, random_pure(rng, 4)))
        for w in symmetric_witness_family(ch, n_random=2, seed=1):
            run_protocol_exact(ch, w)
        assert full_validations == []

    def test_array_witness_validated_in_full(self, full_validations):
        rng = np.random.default_rng(91)
        w = random_density(rng, 16).matrix
        full_validations.clear()
        run_protocol_exact(handle(DEPOLARIZER), w)
        assert len(full_validations) == 1

    def test_mismatched_witness_fails_before_validation(self, full_validations):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_protocol_exact(handle(DEPOLARIZER), np.eye(64) / 64)
        assert full_validations == []

    def test_over_cap_witness_never_built(self, monkeypatch, compile_calls):
        # At 2 input qubits a two-copy witness is 256 x 256, over a cap of 64.
        monkeypatch.setenv("ISOLAB_MAX_DIM", "64")
        factors = []
        real = DensityMatrix.from_factor.__func__

        def counting(cls, f):
            factors.append(f)
            return real(cls, f)

        monkeypatch.setattr(DensityMatrix, "from_factor", classmethod(counting))
        ch = handle("qubits 2\n")
        with pytest.raises(DimensionCapError):
            honest_witness(ch, PureState(np.eye(16)[0]))
        with pytest.raises(DimensionCapError):
            symmetric_witness_family(ch, n_random=1)
        assert factors == []
        assert compile_calls == []

    def test_over_cap_witness_fails_before_validation(self, full_validations, monkeypatch):
        monkeypatch.setenv("ISOLAB_MAX_DIM", "8")
        with pytest.raises(DimensionCapError):
            run_protocol_exact(handle(DEPOLARIZER), np.eye(16) / 16)
        assert full_validations == []
