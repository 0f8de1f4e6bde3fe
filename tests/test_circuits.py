import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    choi_oracle,
    density_oracle,
    isometry_oracle,
    mixed_circuits,
    random_circuit,
    random_density,
    random_pure,
    random_unitary,
)
from isolab import (
    ChannelGate,
    ChannelHandle,
    Circuit,
    CircuitParseError,
    DensityMatrix,
    PureState,
    append_output_depolarizing,
    apply_circuit,
    apply_circuit_matrix,
    choi_of,
    compile_circuit,
    dephase_gate,
    depolarize_gate,
    isometry_matrix,
    parse_circuit,
    purity_metrics,
    serialize_circuit,
    unitary_gate,
    validate_circuit,
)
from isolab.circuits import format_complex, parse_complex


class TestParse:
    def test_smallest_circuit(self):
        c = parse_circuit("qubits 1\ngate H 0\n")
        assert c.input_qubits == 1
        assert len(c.gates) == 1
        assert c.gates[0].name == "H"

    def test_ancilla_bookkeeping(self):
        c = parse_circuit("qubits 1\nancilla\ngate CNOT 0 1\n")
        assert c.output_qubits == 2

    def test_target_out_of_range(self):
        with pytest.raises(CircuitParseError, match="target out of range") as err:
            parse_circuit("qubits 1\ngate CNOT 0 5\n")
        assert err.value.line == 2

    def test_missing_qubits_header(self):
        with pytest.raises(CircuitParseError, match="missing qubits header"):
            parse_circuit("")
        with pytest.raises(CircuitParseError, match="missing qubits header"):
            parse_circuit("gate H 0\n")

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError, match="unknown gate name"):
            parse_circuit("qubits 1\ngate FOO 0\n")

    def test_duplicate_target(self):
        with pytest.raises(CircuitParseError, match="duplicate target"):
            parse_circuit("qubits 2\ngate CNOT 0 0\n")

    def test_non_unitary_umatrix(self):
        with pytest.raises(CircuitParseError, match="non-unitary gate"):
            parse_circuit("qubits 1\numatrix 0 : 1+0i 0+0i 1+0i 1+0i\n")

    def test_comments_and_blanks(self):
        c = parse_circuit("# header\n\nqubits 2  # two qubits\n\ngate X 1 # flip\n")
        assert c.input_qubits == 2
        assert len(c.gates) == 1

    def test_cdepolarize_line(self):
        c = parse_circuit("qubits 3\nchannel cdepolarize 0 : 1 2\n")
        g = c.gates[0]
        assert g.name == "cdepolarize"
        assert g.targets == (0, 1, 2)
        assert len(g.kraus) == 1 + 16

    def test_traceout_of_last_qubit_must_be_final(self):
        with pytest.raises(CircuitParseError, match="no qubits remain"):
            parse_circuit("qubits 1\ntraceout 0\nancilla\n")
        c = parse_circuit("qubits 1\ntraceout 0\n")
        assert c.output_qubits == 0

    def test_gateless_circuit(self):
        c = parse_circuit("qubits 3\n")
        assert c.gates == []
        assert serialize_circuit(c) == "qubits 3\n"


class TestValidate:
    def test_valid_circuit(self):
        c = parse_circuit("qubits 1\nancilla\ngate H 0\nchannel dephase 1\ntraceout 1\n")
        assert validate_circuit(c) is None

    def test_programmatic_non_unitary(self):
        c = Circuit(1, [unitary_gate(np.array([[1, 0], [1, 1]]), 0)])
        with pytest.raises(CircuitParseError, match="non-unitary gate"):
            validate_circuit(c)

    def test_perturbed_kraus_rejected(self):
        g = depolarize_gate(0)
        broken = tuple(k + 1e-3 for k in g.kraus)
        c = Circuit(1, [ChannelGate("depolarize", (0,), broken)])
        with pytest.raises(CircuitParseError, match="not trace preserving"):
            validate_circuit(c)


class TestApply:
    def test_identity_circuit(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        out = apply_circuit(parse_circuit("qubits 2\n"), rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_copy_then_discard_dephases(self):
        # Hand-multiplied oracle: |+><+| (x) |0><0|, conjugate by CNOT,
        # trace the second qubit; coherences vanish.
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = np.outer(plus, plus)
        big = np.kron(rho, np.diag([1.0, 0.0]))
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        stepped = cnot @ big @ cnot.conj().T
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    oracle[i, j] += stepped[2 * i + k, 2 * j + k]
        c = parse_circuit("qubits 1\nancilla\ngate CNOT 0 1\ntraceout 1\n")
        out = apply_circuit(c, DensityMatrix(rho))
        assert np.abs(out.matrix - oracle).max() < 1e-12
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_full_trace_gives_scalar_one(self):
        rng = np.random.default_rng(1)
        out = apply_circuit(parse_circuit("qubits 1\ntraceout 0\n"), random_density(rng, 2))
        assert out.matrix.shape == (1, 1)
        assert out.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_circuit(parse_circuit("qubits 2\n"), DensityMatrix.maximally_mixed(2))

    def test_trace_preserved_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            c = random_circuit(rng)
            rho = random_density(rng, 2 ** c.input_qubits)
            raw = apply_circuit_matrix(c, rho.matrix)
            assert abs(np.trace(raw) - 1.0) < 1e-9
            DensityMatrix(raw)  # validates positivity within clamping

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = random_circuit(rng)
            d = 2 ** c.input_qubits
            r1, r2 = random_density(rng, d), random_density(rng, d)
            alpha = float(rng.random())
            mix = alpha * r1.matrix + (1 - alpha) * r2.matrix
            lhs = apply_circuit_matrix(c, mix)
            rhs = alpha * apply_circuit_matrix(c, r1.matrix) + (1 - alpha) * apply_circuit_matrix(c, r2.matrix)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_isometry_circuits_preserve_purity(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            c = random_circuit(rng, isometry_only=True)
            psi = random_pure(rng, 2 ** c.input_qubits)
            out = apply_circuit(c, psi.density())
            assert purity_metrics(out).purity == pytest.approx(1.0, abs=1e-9)

    def test_unitary_on_reversed_targets(self):
        # CNOT with control 1, target 0 flips the first qubit.
        c = parse_circuit("qubits 2\ngate CNOT 1 0\n")
        rho = DensityMatrix.from_pure(PureState(np.array([0, 1, 0, 0], dtype=complex)))
        out = apply_circuit(c, rho)  # |01> -> |11>
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.abs(out.matrix - expected).max() < 1e-12


class TestRoundTrip:
    def test_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            c = random_circuit(rng)
            text = serialize_circuit(c)
            back = parse_circuit(text)
            assert back == c
            assert serialize_circuit(back) == text

    def test_umatrix_entries_exact(self):
        rng = np.random.default_rng(43)
        u = random_unitary(rng, 4)
        c = Circuit(2, [unitary_gate(u, 0, 1)])
        back = parse_circuit(serialize_circuit(c))
        assert np.array_equal(back.gates[0].matrix, c.gates[0].matrix)

    def test_complex_literal_round_trip(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            z = complex(rng.normal() * 10.0 ** int(rng.integers(-8, 8)), rng.normal())
            assert parse_complex(format_complex(z)) == z

    def test_custom_kraus_channel_not_serializable(self):
        g = ChannelGate("mystery", (0,), tuple(dephase_gate(0).kraus))
        with pytest.raises(ValueError, match="no text representation"):
            serialize_circuit(Circuit(1, [g]))


class TestIsometryMatrix:
    def test_copy_circuit_columns(self):
        c = parse_circuit("qubits 1\nancilla\ngate CNOT 0 1\n")
        v = isometry_matrix(c)
        assert v.shape == (4, 2)
        assert np.abs(v[:, 0] - np.array([1, 0, 0, 0])).max() < 1e-12
        assert np.abs(v[:, 1] - np.array([0, 0, 0, 1])).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12

    def test_matches_channel_action(self):
        rng = np.random.default_rng(45)
        c = random_circuit(rng, isometry_only=True, n_gates=4)
        v = isometry_matrix(c)
        rho = random_density(rng, 2 ** c.input_qubits)
        out = apply_circuit(c, rho)
        assert np.abs(out.matrix - v @ rho.matrix @ v.conj().T).max() < 1e-10

    def test_rejects_channels(self):
        with pytest.raises(ValueError, match="not an isometry"):
            isometry_matrix(parse_circuit("qubits 1\nchannel dephase 0\n"))


class TestOutputDepolarizing:
    def test_mixes_with_identity(self):
        rng = np.random.default_rng(46)
        rho = random_density(rng, 2)
        noisy = append_output_depolarizing(parse_circuit("qubits 1\n"), 0.3)
        out = apply_circuit(noisy, rho)
        expected = 0.7 * rho.matrix + 0.3 * np.eye(2) / 2
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(47)
        rho = random_density(rng, 4)
        c = parse_circuit("qubits 2\ngate H 0\n")
        noisy = append_output_depolarizing(c, 0.0)
        assert np.abs(apply_circuit(noisy, rho).matrix - apply_circuit(c, rho).matrix).max() < 1e-12

    def test_emitted_gates_round_trip(self):
        noisy = append_output_depolarizing(parse_circuit("qubits 1\ngate H 0\n"), 0.25)
        assert parse_circuit(serialize_circuit(noisy)) == noisy


class TestCompiledIsometry:
    """The compiled isometry against the density-matrix executor of the
    conftest oracle."""

    @settings(max_examples=60)
    @given(circuit=mixed_circuits(), seed=st.integers(0, 2 ** 32 - 1), with_ref=st.booleans())
    def test_apply_matches_density_oracle(self, circuit, seed, with_ref):
        n_ref = circuit.input_qubits if with_ref else 0
        d = 2 ** (circuit.input_qubits + n_ref)
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = apply_circuit_matrix(circuit, mat, n_ref)
        assert np.abs(got - density_oracle(circuit, mat, n_ref)).max() <= 1e-12

    @settings(max_examples=60)
    @given(circuit=mixed_circuits())
    def test_choi_matches_density_oracle(self, circuit):
        got = choi_of(ChannelHandle(circuit)).matrix
        assert np.abs(got - choi_oracle(circuit)).max() <= 1e-12

    @settings(max_examples=40)
    @given(circuit=mixed_circuits(max_in=3, isometry_only=True))
    def test_isometry_matrix_matches_vector_oracle(self, circuit):
        v = isometry_matrix(circuit)
        assert v.shape == (2 ** circuit.output_qubits, 2 ** circuit.input_qubits)
        assert np.abs(v - isometry_oracle(circuit)).max() <= 1e-12

    def test_environment_compressed(self):
        # Uncompressed, three depolarizers leave an environment of 4^3 = 64;
        # the bound d_sys d_in is 4.
        circuit = parse_circuit("qubits 1\n" + "channel depolarize 0\n" * 3)
        v = compile_circuit(circuit)
        assert v.shape == (2, 4, 2)
        m = v.reshape(-1, 2)
        assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-12
        got = choi_of(ChannelHandle(circuit)).matrix
        assert np.abs(got - choi_oracle(circuit)).max() <= 1e-12
        assert np.abs(got - np.eye(4) / 4).max() <= 1e-12

    def test_saturated_environment_applied_in_chunks(self):
        # The environment reaches its bound d_sys d_in = 256 after the
        # second depolarizer; applied whole, each later one would hold 16
        # times that. In chunks with a compression after each, the traced
        # peak stays within a few Choi-sized arrays.
        circuit = parse_circuit("qubits 4\n" + "channel depolarize 0 1\nchannel depolarize 2 3\n" * 2)
        choi_bytes = 256 ** 2 * 16
        tracemalloc.start()
        try:
            v = compile_circuit(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.shape == (16, 256, 16)
        assert peak <= 10 * choi_bytes
        m = v.reshape(-1, 16)
        assert np.abs(m.conj().T @ m - np.eye(16)).max() <= 1e-12
        got = choi_of(ChannelHandle(circuit)).matrix
        assert np.abs(got - choi_oracle(circuit)).max() <= 1e-12

    def test_traceout_moves_qubit_to_environment(self):
        v = compile_circuit(parse_circuit("qubits 2\ntraceout 0\n"))
        assert v.shape == (2, 2, 4)
