import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_min_opnorm,
    choi_oracle,
    choi_rank_oracle,
    completeness_defect_oracle,
    density_oracle,
    eigh_only,
    extended_output_oracle,
    kraus_apply_oracle,
    kraus_from_choi_oracle,
    mixed_circuits,
    opnorm_gradient_oracle,
    partial_trace_oracle,
    random_circuit,
    random_density,
    random_kraus,
    random_pure,
    random_unitary,
)
from isolab import (
    ChannelHandle,
    DimensionCapError,
    NotNearIsometryError,
    analyze_channel,
    append_output_depolarizing,
    apply_extended,
    choi_of,
    compile_circuit,
    exact_isometry_test,
    extract_approx_isometry,
    isometry_matrix,
    kraus_of,
    maximally_entangled_state,
    min_output_opnorm,
    operator_norm,
    parse_circuit,
    probe_epsilon,
    purity_metrics,
    trace_norm,
)
from isolab.channels import _gradient, _isometry, _probe_family, _top_output
from isolab.circuits import AddAncilla, Circuit, TraceOut, UnitaryGate, cdepolarize_gate
from isolab.linalg import _NOISE_FLOOR

IDENTITY = "qubits 1\n"
DEPOLARIZER = "qubits 1\nchannel depolarize 0\n"
RESET = "qubits 1\nancilla\ntraceout 0\n"        # rho -> |0><0|
COPY = "qubits 1\nancilla\ngate CNOT 0 1\n"      # |x> -> |x,x>
DEPHASE = "qubits 1\nchannel dephase 0\n"


def handle(src):
    return ChannelHandle(parse_circuit(src))


class TestChoi:
    def test_identity_channel(self):
        c = choi_of(handle(IDENTITY))
        phi = maximally_entangled_state(2).projector()
        assert np.abs(c.matrix - phi).max() < 1e-12
        assert choi_rank_oracle(c.matrix) == 1

    def test_depolarizer_is_maximally_mixed(self):
        c = choi_of(handle(DEPOLARIZER))
        assert np.abs(c.matrix - np.eye(4) / 4).max() < 1e-12

    def test_reset_channel(self):
        c = choi_of(handle(RESET))
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.abs(c.matrix - expected).max() < 1e-12
        assert choi_rank_oracle(c.matrix) == 2

    def test_trace_preservation_marginal(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            ch = ChannelHandle(random_circuit(rng))
            marg = partial_trace_oracle(choi_of(ch).matrix, [ch.dim_out, ch.dim_in], keep=[1])
            assert np.abs(marg - np.eye(ch.dim_in) / ch.dim_in).max() < 1e-9

    def test_payload_keeps_compiled_zeros(self):
        # The payload is formed from the isometry as compiled, whose rows
        # keep the circuit's structure; V's Kraus basis would print some of
        # these exact zeros as rounding (1790 of 3840 on one circuit here).
        rng = np.random.default_rng(7)
        for _ in range(60):
            circuit = random_circuit(rng)
            v = compile_circuit(circuit)
            f = v.reshape(len(v), -1).T
            assert np.array_equal(choi_of(ChannelHandle(circuit)).matrix == 0, f @ f.conj().T == 0)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            choi_of(handle("qubits 13\n"))

    def test_dimension_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("ISOLAB_MAX_DIM", "2")
        with pytest.raises(DimensionCapError):
            choi_of(handle(IDENTITY))
        monkeypatch.setenv("ISOLAB_MAX_DIM", "4")
        assert choi_of(handle(IDENTITY)).dim == 4

    @pytest.mark.parametrize("raw", ["abc", "4.0", "0", "-4"])
    def test_dimension_cap_env_invalid(self, monkeypatch, raw):
        monkeypatch.setenv("ISOLAB_MAX_DIM", raw)
        with pytest.raises(ValueError, match="ISOLAB_MAX_DIM"):
            choi_of(handle(IDENTITY))

    def test_dimension_cap_before_compiling(self, monkeypatch):
        import isolab.channels as channels

        def refuse(circuit):
            raise AssertionError("compiled an over-cap circuit")

        monkeypatch.setattr(channels, "compile_circuit", refuse)
        with pytest.raises(DimensionCapError):
            choi_of(handle("qubits 13\n"))

    def test_isometry_compiled_once_per_handle(self, monkeypatch):
        import isolab.channels as channels

        calls = []
        real = channels.compile_circuit
        monkeypatch.setattr(channels, "compile_circuit", lambda c: calls.append(c) or real(c))
        ch = handle(DEPHASE)
        choi_of(ch)
        apply_extended(ch, maximally_entangled_state(2))
        probe_epsilon(ch, n_random=2)
        assert len(calls) == 1


def natural_rep(kraus_ops):
    """sum_k A_k (x) conj(A_k), the same for every Kraus set of a channel."""
    return sum(np.kron(a, a.conj()) for a in kraus_ops)


class TestKraus:
    """The Kraus set read off the compiled isometry against the Choi
    eigendecomposition and the operator-at-a-time channel action of the
    conftest oracles."""

    def test_identity_single_operator(self):
        ops = kraus_of(handle(IDENTITY))
        assert len(ops) == 1
        a = ops[0]
        phase = a[0, 0] / abs(a[0, 0])
        assert np.abs(a / phase - np.eye(2)).max() < 1e-9

    def test_depolarizer_operators(self):
        ops = kraus_of(handle(DEPOLARIZER))
        assert len(ops) == 4
        # Any unitary mix of the four matrix units |i><j| / sqrt(2) is a
        # minimal Kraus set; all share these invariants. The channel is
        # X -> tr(X) I/2, so its natural representation is vec(I) vec(I)^T / 2.
        gram = np.einsum("koi,loi->kl", ops.conj(), ops)
        assert np.abs(gram - np.eye(4) / 2).max() < 1e-9
        vec_i = np.eye(2).reshape(-1)
        assert np.abs(natural_rep(ops) - np.outer(vec_i, vec_i) / 2).max() < 1e-9
        assert completeness_defect_oracle(ops) < 1e-9

    def test_dephase_reconstruction(self):
        ch = handle(DEPHASE)
        ops = kraus_of(ch)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                direct = density_oracle(ch.circuit, unit)
                assert np.abs(kraus_apply_oracle(ops, unit) - direct).max() < 1e-8

    def test_reconstruction_on_random_circuits(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            ch = ChannelHandle(random_circuit(rng))
            ops = kraus_of(ch)
            assert completeness_defect_oracle(ops) < 1e-8
            d = ch.dim_in
            for i in range(d):
                for j in range(d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[i, j] = 1.0
                    direct = density_oracle(ch.circuit, unit)
                    assert np.abs(kraus_apply_oracle(ops, unit) - direct).max() < 1e-8

    @staticmethod
    def check_against_choi_oracle(circuit):
        """Equal rank, equal natural representation and pairwise orthogonal
        operators; returns the operators."""
        ops = kraus_of(ChannelHandle(circuit))
        d_in = 2 ** circuit.input_qubits
        expected = kraus_from_choi_oracle(choi_oracle(circuit), d_in)
        assert len(ops) == len(expected)
        assert np.abs(natural_rep(ops) - natural_rep(expected)).max() <= 1e-12
        gram = np.einsum("koi,loi->kl", ops.conj(), ops)
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12
        return ops

    @settings(max_examples=60)
    @given(circuit=mixed_circuits())
    def test_matches_choi_oracle(self, circuit):
        ops = self.check_against_choi_oracle(circuit)
        assert completeness_defect_oracle(ops) <= 1e-12

    @pytest.mark.parametrize("s", [1e-8, 1e-6])
    def test_near_rank_threshold(self, s):
        # Output depolarizing of strength s adds three Choi eigenvalues of
        # s/4, and RANK_TOL (1e-7) lies between the two strengths: at 1e-8
        # one operator is kept and the dropped weight 3s/4 shows as the
        # completeness defect; at 1e-6 all four are kept.
        circuit = append_output_depolarizing(parse_circuit("qubits 1\ngate H 0\n"), s)
        ops = self.check_against_choi_oracle(circuit)
        dropped = s < 1e-7
        assert len(ops) == (1 if dropped else 4)
        assert completeness_defect_oracle(ops) == pytest.approx(0.75 * s if dropped else 0.0, abs=1e-12)

    def test_read_only_and_cached(self, monkeypatch):
        # The Kraus set is a view of V's leading rows, read without any
        # decomposition of its own.
        ch = handle(DEPHASE)
        v = _isometry(ch)

        def refuse(*args, **kwargs):
            raise AssertionError("kraus_of decomposed a matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        ops = kraus_of(ch)
        assert np.shares_memory(ops, v)
        with pytest.raises(ValueError, match="read-only"):
            ops[0, 0, 0] = 1.0


class TestKrausBasis:
    """V is kept in the eigenbasis of its environment Gram matrix: its rows
    are pairwise orthogonal, largest weight first, none at the eigh noise
    floor, and V stays an isometry."""

    @settings(max_examples=60)
    @given(circuit=mixed_circuits())
    def test_rows_orthogonal_and_ordered(self, circuit):
        ch = ChannelHandle(circuit)
        v = _isometry(ch)
        m = v.reshape(len(v), -1)
        gram = m.conj() @ m.T
        weights = np.diag(gram).real
        assert np.abs(gram - np.diag(weights)).max() <= 1e-12
        assert np.all(np.diff(weights) <= 1e-12)
        assert weights.min() > _NOISE_FLOOR * weights.max()
        vv = np.tensordot(v.conj(), v, axes=([0, 1], [0, 1]))
        assert np.abs(vv - np.eye(ch.dim_in)).max() <= 1e-12

    def test_output_depolarized_unitary_at_zero_strength(self):
        # The compile leaves an environment of d_out d_in = 64 for this
        # rank-one channel; all but one direction is rounding.
        circuit = depolarized_unitary(3, 0.0, seed=5)
        assert len(compile_circuit(circuit)) == 64
        assert _isometry(ChannelHandle(circuit)).shape == (1, 8, 8)


class TestExactIsometry:
    def test_copy_isometry(self):
        res = exact_isometry_test(handle(COPY))
        assert res.exact_isometry
        assert res.choi_rank == 1
        a = res.isometry_operator
        assert a.shape == (4, 2)
        assert np.abs(a.conj().T @ a - np.eye(2)).max() < 1e-9

    def test_reset_is_rank_two(self):
        res = exact_isometry_test(handle(RESET))
        assert not res.exact_isometry
        assert res.choi_rank == 2

    def test_depolarizer_is_rank_four(self):
        res = exact_isometry_test(handle(DEPOLARIZER))
        assert not res.exact_isometry
        assert res.choi_rank == 4


class TestApplyExtended:
    def test_identity_keeps_state(self):
        rng = np.random.default_rng(52)
        psi = random_pure(rng, 4)
        out = apply_extended(handle(IDENTITY), psi)
        assert np.abs(out.matrix - psi.projector()).max() < 1e-12

    def test_depolarizer_on_max_entangled(self):
        out = apply_extended(handle(DEPOLARIZER), maximally_entangled_state(2))
        assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-12

    def test_reset_on_max_entangled(self):
        out = apply_extended(handle(RESET), maximally_entangled_state(2))
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.abs(out.matrix - expected).max() < 1e-12
        assert operator_norm(out.matrix) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_extended(handle(IDENTITY), random_pure(np.random.default_rng(0), 8))


class TestMinOutputOpnorm:
    def test_identity_every_restart(self):
        val, _ = min_output_opnorm(handle(IDENTITY), restarts=4, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_depolarizer(self):
        val, psi = min_output_opnorm(handle(DEPOLARIZER), restarts=8, seed=1)
        assert val == pytest.approx(0.25, abs=1e-9)
        # minimizer's output is the maximally mixed extension
        out = apply_extended(handle(DEPOLARIZER), psi)
        assert operator_norm(out.matrix) == pytest.approx(val, abs=1e-9)

    def test_reset_with_brute_force_oracle(self):
        ch = handle(RESET)
        val, _ = min_output_opnorm(ch, restarts=8, seed=2)
        assert val == pytest.approx(0.5, abs=1e-9)
        ops = kraus_from_choi_oracle(choi_oracle(ch.circuit), 2)
        sampled = brute_force_min_opnorm(ops, 2, n_samples=20_000, seed=99)
        assert sampled >= val - 1e-6

    def test_deterministic(self):
        a = min_output_opnorm(handle(DEPHASE), restarts=5, seed=7)
        b = min_output_opnorm(handle(DEPHASE), restarts=5, seed=7)
        assert a[0] == b[0]
        assert np.array_equal(a[1].amplitudes, b[1].amplitudes)

    def test_monotone_in_restarts(self):
        ch = handle(DEPHASE)
        vals = [min_output_opnorm(ch, restarts=r, seed=3)[0] for r in (1, 2, 4, 8)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi

    def test_search_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            min_output_opnorm(handle("qubits 5\n"), restarts=1, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            min_output_opnorm(handle(IDENTITY), restarts=restarts, seed=0)


def depolarized_unitary(n, s, seed, ancillas=0):
    """A Haar unitary on n qubits and *ancillas* fresh ancillas, followed by
    output depolarizing of strength s."""
    k = n + ancillas
    u = random_unitary(np.random.default_rng(seed), 2 ** k)
    gates = [AddAncilla() for _ in range(ancillas)] + [UnitaryGate("umatrix", range(k), u)]
    return append_output_depolarizing(Circuit(n, gates), s)


def weakly_noisy_isometry(rng):
    """A random isometry circuit on at most 2 input qubits followed by one
    or two controlled depolarizations of strength sin^2(theta), theta in
    [0.05, 0.5], each on one or two output qubits: an ancilla rotated to
    cos(theta)|0> + sin(theta)|1> controls the mixer and is traced out."""
    circ = random_circuit(rng, max_in=2, isometry_only=True)
    n = circ.output_qubits
    gates = list(circ.gates)
    for _ in range(int(rng.integers(1, 3))):
        theta = rng.uniform(0.05, 0.5)
        c, s = np.cos(theta), np.sin(theta)
        targets = rng.choice(n, size=int(rng.integers(1, min(n, 2) + 1)), replace=False)
        rot = UnitaryGate("umatrix", (n,), np.array([[c, -s], [s, c]], dtype=complex))
        gates += [AddAncilla(), rot, cdepolarize_gate(n, *map(int, targets)), TraceOut(n)]
    return Circuit(circ.input_qubits, gates)


def phase_distance(a, b):
    """max |a - e^{i theta} b| at the one phase that aligns b with a."""
    overlap = np.vdot(b, a)
    return float(np.abs(a - overlap / abs(overlap) * b).max())


# (d_in, d_out, Kraus rank): r = 1, r < D = d_out * d_in, and r = D
SEARCH_SHAPES = [(4, 8, 1), (4, 32, 10), (4, 2, 8)]


class TestSearchEvaluation:
    """The Gram-matrix evaluation of the search against the per-operator
    D x D construction of the conftest oracle."""

    @pytest.mark.parametrize("d_in,d_out,rank", SEARCH_SHAPES)
    def test_matches_oracle(self, d_in, d_out, rank):
        rng = np.random.default_rng(60 + rank)
        ops = random_kraus(rng, d_in, d_out, rank)
        kraus = np.stack(ops)
        for _ in range(5):
            psi = random_pure(rng, d_in * d_in).amplitudes
            f, v, w, _ = _top_output(kraus, psi)
            spectrum, v_oracle, g_oracle = opnorm_gradient_oracle(ops, psi, d_in)
            assert spectrum[-1] - spectrum[-2] > 1e-6  # simple top eigenvalue
            assert abs(f - spectrum[-1]) < 1e-12
            assert abs(abs(np.vdot(v_oracle, v)) - 1.0) < 1e-9
            assert np.abs(_gradient(kraus, w, v) - g_oracle).max() < 1e-10

    def test_warm_start_matches_oracle(self, ritz_answers):
        # Output depolarizing of a 2 -> 3-qubit isometry has Kraus rank 32,
        # above the 16 x 16 Gram matrices that always take eigh.
        ops = list(kraus_of(ChannelHandle(depolarized_unitary(2, 0.3, seed=61, ancillas=1))))
        assert len(ops) == 32
        kraus = np.stack(ops)
        rng = np.random.default_rng(62)
        psi = random_pure(rng, 16).amplitudes
        *_, u = _top_output(kraus, psi)
        for _ in range(5):
            psi = psi + 0.05 * random_pure(rng, 16).amplitudes
            psi = psi / np.linalg.norm(psi)
            f, v, w, u = _top_output(kraus, psi, u)
            spectrum, v_oracle, g_oracle = opnorm_gradient_oracle(ops, psi, 4)
            assert abs(f - spectrum[-1]) < 1e-12
            assert abs(abs(np.vdot(v_oracle, v)) - 1.0) < 1e-9
            assert np.abs(_gradient(kraus, w, v) - g_oracle).max() < 1e-10
        assert ritz_answers == [True] * 5

    @pytest.mark.parametrize("d_in,d_out,rank", SEARCH_SHAPES)
    def test_gradient_finite_difference(self, d_in, d_out, rank):
        rng = np.random.default_rng(70 + rank)
        ops = random_kraus(rng, d_in, d_out, rank)
        kraus = np.stack(ops)
        psi = random_pure(rng, d_in * d_in).amplitudes
        f, v, w, _ = _top_output(kraus, psi)
        g = _gradient(kraus, w, v)

        def top(x):
            return np.linalg.eigvalsh(extended_output_oracle(ops, x, d_in)[0])[-1]

        t = 1e-6
        for _ in range(3):
            delta = rng.normal(size=psi.size) + 1j * rng.normal(size=psi.size)
            slope = (top(psi + t * delta) - top(psi - t * delta)) / (2 * t)
            assert slope == pytest.approx(np.real(np.vdot(g, delta)), abs=1e-6)


class TestWarmSearch:
    """The search with warm-started evaluations against the same search with
    eigh at every evaluation."""

    @staticmethod
    def both(circuit, restarts, seed):
        warm = min_output_opnorm(ChannelHandle(circuit), restarts=restarts, seed=seed)[0]
        with pytest.MonkeyPatch.context() as mp:
            eigh_only(mp)
            cold = min_output_opnorm(ChannelHandle(circuit), restarts=restarts, seed=seed)[0]
        return warm, cold

    @pytest.mark.parametrize("s", [1 / 3, 2 / 3, 0.9])
    def test_output_depolarized_3q(self, ritz_answers, s):
        warm, cold = self.both(depolarized_unitary(3, s, seed=int(100 * s)), restarts=2, seed=5)
        assert abs(warm - cold) <= 1e-12
        assert warm == pytest.approx((1.0 - s) + s / 64, abs=1e-7)
        assert ritz_answers and all(ritz_answers)

    @settings(max_examples=40)
    @given(circuit=mixed_circuits(), s=st.sampled_from([None, 0.3, 0.8]))
    def test_mixed_circuits(self, circuit, s):
        # Output depolarizing raises the Kraus rank past 16, where the warm
        # start is tried.
        if s is not None:
            circuit = append_output_depolarizing(circuit, s)
        warm, cold = self.both(circuit, restarts=2, seed=9)
        assert abs(warm - cold) <= 1e-12


# The 3-qubit circuit whose output-depolarized search stalled under
# projected steepest descent: with 16 restarts at seed 0 every restart used
# its 400 steps and stopped 6.5e-5 (s = 0.01) or 1.1e-6 (s = 0.1) above the
# closed form.
STALL_3Q = "qubits 3\ngate H 0\ngate CNOT 0 1\ngate CNOT 1 2\ngate T 2\n"


def closed_form_min(n, s):
    """min over pure psi of the extended output's largest eigenvalue for a
    unitary on n qubits followed by output depolarizing of strength s."""
    return (1.0 - s) + s / 4 ** n


def per_restart(monkeypatch, *logs):
    """For each log, the number of entries each restart of the search adds
    to it, as an array with one row per restart."""
    import isolab.channels as channels

    real = channels._descend_opnorm
    marks = [[0] * len(logs)]

    def descend(kraus, psi):
        out = real(kraus, psi)
        marks.append([len(log) for log in logs])
        return out

    monkeypatch.setattr(channels, "_descend_opnorm", descend)
    return marks


class TestQuasiNewtonSearch:
    """The limited-memory BFGS search against the closed form of
    output-depolarized unitaries."""

    @pytest.mark.parametrize("s", [0.01, 0.1])
    def test_near_isometry_reaches_closed_form(self, s):
        ch = ChannelHandle(append_output_depolarizing(parse_circuit(STALL_3Q), s))
        val, _ = min_output_opnorm(ch, restarts=16, seed=0)
        assert abs(val - closed_form_min(3, s)) <= 1e-12

    def test_evaluation_budget(self, monkeypatch, evaluate_calls):
        marks = per_restart(monkeypatch, evaluate_calls)
        ch = ChannelHandle(append_output_depolarizing(parse_circuit(STALL_3Q), 0.01))
        min_output_opnorm(ch, restarts=16, seed=0)
        evals = np.diff(marks, axis=0)[:, 0]
        assert len(evals) == 16
        assert evals.max() <= 40

    @settings(max_examples=40)
    @given(n=st.integers(1, 3), s=st.floats(0.0, 0.95), seed=st.integers(0, 2 ** 16))
    def test_output_depolarized_haar(self, n, s, seed):
        # Derandomized by the suite's hypothesis profile.
        val, _ = min_output_opnorm(ChannelHandle(depolarized_unitary(n, s, seed)), restarts=2, seed=seed)
        gap = val - closed_form_min(n, s)
        assert -1e-12 <= gap <= 1e-9


class TestStickyEigh:
    """After the first warm answer that fails its certificate, a restart
    evaluates with eigh alone."""

    def test_no_warm_attempt_after_a_failure(self, monkeypatch, ritz_answers, evaluate_calls):
        # At s = 1 the output I/8 (x) rho_ref has a degenerate top
        # eigenvalue at every input, which no warm answer can certify; the
        # Kraus rank is 64, above the size where warm starts are tried.
        marks = per_restart(monkeypatch, ritz_answers, evaluate_calls)
        min_output_opnorm(ChannelHandle(depolarized_unitary(3, 1.0, seed=80)), restarts=2, seed=3)
        assert len(marks) == 3
        for (lo, _), (hi, _), (n_attempts, n_evals) in zip(marks, marks[1:], np.diff(marks, axis=0)):
            answers = ritz_answers[lo:hi]
            assert answers[-1] is False
            assert False not in answers[:-1]
            # The restart went on with eigh: its first and last evaluations
            # are cold too.
            assert n_evals > n_attempts + 2


class TestOutputOpnorm:
    """The top eigenpair of a pure input's output, read off the isometry's
    operator stack through the smaller Gram matrix, against the full output
    of the density-matrix oracle."""

    @pytest.mark.parametrize(
        "circuit,sides",
        [
            # d_env = 16: d_out = 4 rows without a reference, 16 with one.
            (depolarized_unitary(2, 0.3, seed=71), ("output", "tie")),
            # d_env = 2 against 16 and 64 output rows.
            (
                parse_circuit("qubits 2\nancilla\nancilla\ngate H 0\ngate CNOT 0 3\nchannel dephase 2\n"),
                ("environment", "environment"),
            ),
        ],
        ids=["output-gram-smaller", "environment-gram-smaller"],
    )
    def test_matches_full_output(self, circuit, sides):
        ch = ChannelHandle(circuit)
        iso = _isometry(ch)
        rng = np.random.default_rng(72)
        for n_ref, side in zip((0, ch.n_in), sides):
            rows = ch.dim_out * 2 ** n_ref
            assert side == ("output" if rows < len(iso) else "tie" if rows == len(iso) else "environment")
            for _ in range(4):
                x = random_pure(rng, ch.dim_in * 2 ** n_ref).amplitudes
                full = density_oracle(circuit, np.outer(x, x.conj()), n_ref)
                top, vec, w, u = _top_output(iso, x)
                assert abs(top - operator_norm(full)) <= 1e-12
                assert abs(np.vdot(vec, full @ vec) - top) <= 1e-12
                assert np.abs(w.T @ w.conj() - full).max() <= 1e-12
                # A tie goes to the environment side, which returns its
                # Gram eigenvector.
                assert (u is None) == (side == "output")

    def test_probe_epsilon_matches_full_outputs(self):
        circuit = depolarized_unitary(2, 0.05, seed=73)
        ch = ChannelHandle(circuit)
        worst = min(
            operator_norm(density_oracle(circuit, np.outer(v, v.conj())))
            for _, v in _probe_family(ch, 4, 20)
        )
        assert abs(probe_epsilon(ch, seed=4, n_random=20) - (1.0 - worst)) <= 1e-12


class TestClassification:
    def test_depolarizer_yes(self):
        assert analyze_channel(handle(DEPOLARIZER), 0.3, restarts=4, seed=0).classification == "yes-instance"

    def test_identity_no(self):
        assert analyze_channel(handle(IDENTITY), 0.3, restarts=2, seed=0).classification == "no-instance"

    def test_reset_indeterminate(self):
        assert analyze_channel(handle(RESET), 0.3, restarts=4, seed=0).classification == "indeterminate"

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            analyze_channel(handle(IDENTITY), 0.5)

    def test_compiled_once_without_choi(self, compile_calls, choi_calls):
        assert analyze_channel(handle(RESET), 0.3, restarts=2, seed=0).classification == "indeterminate"
        assert len(compile_calls) == 1
        assert len(choi_calls) == 0


class TestRankOneEquivalence:
    def test_three_way_equivalence_on_random_circuits(self):
        rng = np.random.default_rng(53)
        circuits = [random_circuit(rng, isometry_only=True) for _ in range(12)]
        circuits += [random_circuit(rng) for _ in range(12)]
        for circ in circuits:
            ch = ChannelHandle(circ)
            rank_one = choi_rank_oracle(choi_of(ch).matrix) == 1
            ops = kraus_of(ch)
            if len(ops) == 1:
                a = ops[0]
                kraus_isometric = np.abs(a.conj().T @ a - np.eye(ch.dim_in)).max() <= 1e-8
            else:
                kraus_isometric = False
            val, _ = min_output_opnorm(ch, restarts=2, seed=11)
            assert rank_one == kraus_isometric == (val >= 1 - 1e-6)

    def test_choi_purity_detects_isometry(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            circ = random_circuit(rng)
            ch = ChannelHandle(circ)
            pure = purity_metrics(choi_of(ch).matrix).purity
            exact = exact_isometry_test(ch).exact_isometry
            assert (abs(pure - 1.0) < 1e-8) == exact


class TestExtractApproxIsometry:
    def test_exact_isometry_recovered(self):
        circ = parse_circuit("qubits 2\nancilla\ngate CNOT 0 2\ngate T 1\ngate H 0\n")
        a, diag = extract_approx_isometry(ChannelHandle(circ), seed=5, n_random=25)
        assert diag.max_distance <= 1e-8
        v = isometry_matrix(circ)
        for i in range(4):
            overlap = abs(np.vdot(v[:, i], a[:, i]))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_noisy_isometry_within_bound(self):
        circ = parse_circuit("qubits 2\nancilla\ngate CNOT 0 2\ngate T 1\ngate H 0\n")
        noisy = append_output_depolarizing(circ, 0.01)
        a, diag = extract_approx_isometry(ChannelHandle(noisy), seed=5, n_random=25)
        assert diag.eps_measured > 0
        assert diag.max_distance <= 9 * diag.eps_measured

    def test_conjugation_matches_channel_on_fresh_probes(self):
        circ = parse_circuit("qubits 1\nancilla\ngate CNOT 0 1\ngate H 1\n")
        ch = ChannelHandle(circ)
        a, _ = extract_approx_isometry(ch, seed=6, n_random=10)
        rng = np.random.default_rng(1234)
        for _ in range(10):
            rho = random_density(rng, 2)
            out = density_oracle(ch.circuit, rho.matrix)
            assert trace_norm(out - a @ rho.matrix @ a.conj().T) < 1e-8

    def test_weakly_noisy_isometries(self):
        # A is an exact isometry however far V_0 is from one, and the probe
        # distances stay within the protocol's 9 eps.
        rng = np.random.default_rng(75)
        for i in range(80):
            ch = ChannelHandle(weakly_noisy_isometry(rng))
            a, diag = extract_approx_isometry(ch, seed=i, n_random=20)
            assert np.abs(a.conj().T @ a - np.eye(ch.dim_in)).max() <= 1e-12
            assert 0.0 < diag.max_distance <= 9 * diag.eps_measured

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.0, 0.01, 0.1, 0.3])
    def test_output_depolarized_unitary_recovered(self, n, s):
        # The Choi top eigenvector is U itself, so A is U up to one phase
        # for all columns.
        circ = depolarized_unitary(n, s, seed=76 + n)
        a, _ = extract_approx_isometry(ChannelHandle(circ), seed=0, n_random=5)
        u = random_unitary(np.random.default_rng(76 + n), 2 ** n)
        assert phase_distance(a, u) <= 1e-12

    def test_exact_isometries_are_their_own_extraction(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            ch = ChannelHandle(random_circuit(rng, isometry_only=True))
            a, diag = extract_approx_isometry(ch, seed=1, n_random=5)
            assert phase_distance(a, exact_isometry_test(ch).isometry_operator) <= 1e-12
            assert diag.max_distance <= 1e-12

    @staticmethod
    def assert_refused(source, floor):
        with pytest.raises(NotNearIsometryError) as info:
            extract_approx_isometry(handle(source))
        printed = re.fullmatch(
            r"channel is not near-isometric: probe output largest eigenvalue (\S+) < 0\.5",
            str(info.value),
        ).group(1)
        # The floor is printed in full, so it never reads as 0.5 < 0.5.
        assert printed == repr(float(printed))
        assert float(printed) < 0.5
        assert float(printed) == pytest.approx(floor, abs=1e-12)

    def test_depolarizer_rejected(self):
        self.assert_refused(DEPOLARIZER, 0.25)

    @pytest.mark.parametrize(
        "source,floor",
        [
            # Pure basis outputs; only the Choi top, 1/4, refuses it.
            ("qubits 2\nchannel dephase 0\nchannel dephase 1\n", 0.25),
            # A Choi top of 1/2 that rounds to just below it.
            ("qubits 2\ngate H 0\nchannel dephase 1\n", 0.5),
            # A Choi top of exactly 1/2, two-fold degenerate: V's leading
            # row, and with it A, is any vector of that eigenspace.
            ("qubits 1\nchannel dephase 0\n", None),
            ("qubits 2\nchannel dephase 1\n", None),
        ],
        ids=["dephase-both", "dephase-at-floor", "dephase-1q-degenerate", "dephase-2q-degenerate"],
    )
    def test_choi_top_rejected(self, source, floor):
        if floor is not None:
            self.assert_refused(source, floor)
            return
        message = r"^channel is not near-isometric: Choi top eigenvalue 0\.5 is degenerate$"
        with pytest.raises(NotNearIsometryError, match=message):
            extract_approx_isometry(handle(source))
