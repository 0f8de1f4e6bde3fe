import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _call_log,
    choi_oracle,
    compiled_action,
    density_oracle,
    isometry_oracle,
    mixed_circuits,
    random_circuit,
    random_density,
    random_pure,
    random_unitary,
)
from isolab import (
    AddAncilla,
    ChannelGate,
    ChannelHandle,
    Circuit,
    CircuitParseError,
    DensityMatrix,
    PureState,
    TraceOut,
    UnitaryGate,
    append_output_depolarizing,
    cdepolarize_gate,
    choi_of,
    compile_circuit,
    gate,
    isometry_matrix,
    parse_circuit,
    purity_metrics,
    serialize_circuit,
    validate_circuit,
)
from isolab.circuits import _ROW_RE, _parse_complex_row, format_complex, parse_complex
from isolab.cli import main


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
        assert g == cdepolarize_gate(0, 1, 2)
        assert g.targets == (0, 1, 2)
        assert g.line == 2

    def test_traceout_of_last_qubit_must_be_final(self):
        with pytest.raises(CircuitParseError, match="no qubits remain"):
            parse_circuit("qubits 1\ntraceout 0\nancilla\n")
        c = parse_circuit("qubits 1\ntraceout 0\n")
        assert c.output_qubits == 0

    def test_gateless_circuit(self):
        c = parse_circuit("qubits 3\n")
        assert c.gates == ()
        assert serialize_circuit(c) == "qubits 3\n"


class TestValidate:
    def test_valid_circuit(self):
        c = parse_circuit("qubits 1\nancilla\ngate H 0\nchannel dephase 1\ntraceout 1\n")
        assert validate_circuit(c) is None

    def test_programmatic_non_unitary(self):
        with pytest.raises(CircuitParseError, match="non-unitary gate"):
            Circuit(1, [UnitaryGate("umatrix", (0,), np.array([[1, 0], [1, 1]]))])

    # Each rule as text and as gates built in code, with the bad gate on the
    # same line: built programmatically, a gate reports the line it would
    # occupy in serialized form.
    @pytest.mark.parametrize(
        "text,n,gates,message,line",
        [
            ("qubits 1\ngate CNOT 0 5\n", 1, [gate("CNOT", 0, 5)], "target out of range: 5", 2),
            ("qubits 2\ngate CNOT 0 0\n", 2, [gate("CNOT", 0, 0)], "duplicate target", 2),
            ("qubits 2\ngate H 0\ngate CNOT 1\n", 2, [gate("H", 0), gate("CNOT", 1)],
             "gate CNOT takes 2 target(s)", 3),
            ("qubits 1\numatrix 0 : 1+0i 0+0i 1+0i 1+0i\n", 1,
             [UnitaryGate("umatrix", (0,), [[1, 0], [1, 1]])], "non-unitary gate", 2),
            ("qubits 1\numatrix 0 : 1e400+0i 0+0i 0+0i 1+0i\n", 1,
             [UnitaryGate("umatrix", (0,), [[np.inf, 0], [0, 1]])], "matrix entries must be finite", 2),
            ("qubits 2\nchannel dephase 0 1\n", 2, [ChannelGate("dephase", (0, 1))],
             "dephase takes a single target", 2),
            ("qubits 1\nchannel mystery 0\n", 1, [ChannelGate("mystery", (0,))], "unknown channel 'mystery'", 2),
            ("qubits 1\ntraceout 0\nancilla\n", 1, [TraceOut(0), AddAncilla()],
             "no qubits remain before the final gate", 2),
        ],
        ids=["range", "duplicate-target", "builtin-arity", "non-unitary", "non-finite", "channel-arity",
             "unknown-channel", "no-qubits-remaining"],
    )
    def test_rule_same_from_text_and_code(self, text, n, gates, message, line):
        with pytest.raises(CircuitParseError) as parsed:
            parse_circuit(text)
        with pytest.raises(CircuitParseError) as built:
            Circuit(n, gates)
        for err in (parsed, built):
            assert (err.value.message, err.value.line) == (message, line)

    @pytest.mark.parametrize(
        "g,message",
        [
            (ChannelGate("mystery", (0,)), "unknown channel 'mystery'"),
            (ChannelGate("dephase", ()), "dephase takes a single target"),
            (ChannelGate("dephase", (0, 1)), "dephase takes a single target"),
            (ChannelGate("cdepolarize", (0,)), "cdepolarize needs a control and at least one target"),
            (ChannelGate("depolarize", ()), "depolarize needs at least one target"),
        ],
        ids=["unknown-name", "dephase-no-target", "dephase-two-targets", "cdepolarize-no-target", "depolarize-no-target"],
    )
    def test_named_channel_checked(self, g, message):
        # Built programmatically, the gate reports the line it would occupy.
        with pytest.raises(CircuitParseError, match=re.escape(message)) as err:
            Circuit(2, [UnitaryGate("umatrix", (0,), np.eye(2)), g])
        assert err.value.line == 3

    def test_syntax_error_reported_before_earlier_semantic_error(self):
        # The parser reads syntax only, so the bad directive on line 3 is
        # found before the out-of-range target on line 2.
        with pytest.raises(CircuitParseError, match="unknown directive 'bogus'") as err:
            parse_circuit("qubits 1\ngate CNOT 0 5\nbogus\n")
        assert err.value.line == 3

    def test_circuit_validated_once_and_frozen(self, monkeypatch):
        import isolab.circuits as circuits

        calls = _call_log(monkeypatch, circuits.validate_circuit)
        c = Circuit(2, [gate("CNOT", 0, 1)])
        ChannelHandle(c)
        assert calls == [c]
        assert c.gates == (gate("CNOT", 0, 1),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.gates = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.gates[0].targets = (1, 0)


class TestMixingGateCap:
    def test_wide_depolarize_parses_without_tensor(self, tmp_path):
        # As a Kraus tensor, 7 targets would have held 16^7 entries, 4 GiB.
        text = "qubits 7\nchannel depolarize 0 1 2 3 4 5 6\n"
        tracemalloc.start()
        try:
            c = parse_circuit(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert c.gates == (ChannelGate("depolarize", range(7)),)
        path = tmp_path / "wide.circuit"
        path.write_text(text)
        runner = CliRunner()
        assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
        # The channel itself, 128 x 128 on 128 x 128, is over the dimension cap.
        res = runner.invoke(main, ["kraus", str(path)])
        assert res.exit_code == 3
        assert "cap" in res.output


class TestApply:
    """The channel's action as read off the compiled isometry."""

    def test_identity_circuit(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        out = compiled_action(parse_circuit("qubits 2\n"), rho.matrix)
        assert np.abs(out - rho.matrix).max() < 1e-12

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
        out = compiled_action(c, rho)
        assert np.abs(out - oracle).max() < 1e-12
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_full_trace_gives_scalar_one(self):
        rng = np.random.default_rng(1)
        out = compiled_action(parse_circuit("qubits 1\ntraceout 0\n"), random_density(rng, 2).matrix)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_trace_preserved_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            c = random_circuit(rng)
            rho = random_density(rng, 2 ** c.input_qubits)
            raw = compiled_action(c, rho.matrix)
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
            lhs = compiled_action(c, mix)
            rhs = alpha * compiled_action(c, r1.matrix) + (1 - alpha) * compiled_action(c, r2.matrix)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_isometry_circuits_preserve_purity(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            c = random_circuit(rng, isometry_only=True)
            psi = random_pure(rng, 2 ** c.input_qubits)
            out = DensityMatrix(compiled_action(c, psi.projector()))
            assert purity_metrics(out).purity == pytest.approx(1.0, abs=1e-9)

    def test_unitary_on_reversed_targets(self):
        # CNOT with control 1, target 0 flips the first qubit.
        c = parse_circuit("qubits 2\ngate CNOT 1 0\n")
        rho = PureState(np.array([0, 1, 0, 0], dtype=complex)).projector()
        out = compiled_action(c, rho)  # |01> -> |11>
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.abs(out - expected).max() < 1e-12


class TestRoundTrip:
    def test_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            c = random_circuit(rng)
            text = serialize_circuit(c)
            back = parse_circuit(text)
            assert back == c
            assert serialize_circuit(back) == text

    def test_gate_equality_ignores_source_line(self):
        assert AddAncilla(line=3) == AddAncilla()
        assert TraceOut(1, line=4) == TraceOut(1) != TraceOut(0)
        assert ChannelGate("dephase", (0,), line=5) == ChannelGate("dephase", (0,))
        assert AddAncilla() != TraceOut(0)
        assert len({TraceOut(1, line=2), TraceOut(1, line=7), AddAncilla(line=1)}) == 2

    def test_umatrix_entries_exact(self):
        rng = np.random.default_rng(43)
        u = random_unitary(rng, 4)
        c = Circuit(2, [UnitaryGate("umatrix", (0, 1), u)])
        back = parse_circuit(serialize_circuit(c))
        assert np.array_equal(back.gates[0].matrix, c.gates[0].matrix)

    def test_complex_literal_round_trip(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            z = complex(rng.normal() * 10.0 ** int(rng.integers(-8, 8)), rng.normal())
            assert parse_complex(format_complex(z)) == z

    PART = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-320, 1e300, -1e300]) | st.floats(
        allow_nan=False, allow_infinity=False
    )

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.builds(complex, PART, PART), min_size=1, max_size=8),
                st.sampled_from([" ", "  ", "\t", " \t "]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_row_reader_matches_parse_complex(self, rows):
        for values, sep in rows:
            text = f" {sep.join(format_complex(z) for z in values)}{sep}\n"
            assert _ROW_RE.fullmatch(text.strip()) is not None
            got = np.array(_parse_complex_row(text), dtype=complex)
            ref = np.array([parse_complex(tok) for tok in text.split()], dtype=complex)
            assert got.tobytes() == ref.tobytes()
            assert got.tobytes() == np.array(values, dtype=complex).tobytes()

    @pytest.mark.parametrize("bad", ["1+2j", "1+2i3", "inf+0i", "1+i", "+-1+0i"])
    def test_row_reader_names_bad_literal(self, bad):
        with pytest.raises(ValueError, match=f"^bad complex literal '{re.escape(bad)}'$"):
            _parse_complex_row(f"0+1i {bad} 1+0i")
        with pytest.raises(CircuitParseError, match=re.escape(f"bad complex literal '{bad}'")):
            parse_circuit(f"qubits 1\numatrix 0 : 1+0i {bad} 0+0i 1+0i\n")

    # Every part a unitary entry can hold beyond 0 and +-1: signed zeros
    # and subnormals.
    TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320])

    @settings(max_examples=60)
    @given(circuit=mixed_circuits(), data=st.data())
    def test_extreme_literals_round_trip_whole_circuit(self, circuit, data):
        # A phased permutation matrix whose zero parts are drawn from TINY,
        # appended as a umatrix to a whole generated circuit.
        n = circuit.output_qubits
        qubits = data.draw(st.permutations(range(n)))
        k = 2 if n > 1 and data.draw(st.booleans()) else 1
        dim = 2 ** k
        perm = data.draw(st.permutations(range(dim)))
        m = np.empty((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                re, im = data.draw(self.TINY), data.draw(self.TINY)
                if perm[j] == i:
                    unit = data.draw(st.sampled_from([1.0, -1.0]))
                    re, im = (unit, im) if data.draw(st.booleans()) else (re, unit)
                m[i, j] = complex(re, im)
        c = Circuit(circuit.input_qubits, [*circuit.gates, UnitaryGate("umatrix", qubits[:k], m)])
        text = serialize_circuit(c)
        back = parse_circuit(text)
        assert back == c
        assert serialize_circuit(back) == text
        assert back.gates[-1].matrix.tobytes() == m.tobytes()

    @pytest.mark.parametrize("big", ["1e300+0i", "-1e300+0i", "0+1e300i"])
    def test_huge_finite_literal_is_not_unitary(self, big):
        with pytest.raises(CircuitParseError, match="non-unitary gate"):
            parse_circuit(f"qubits 1\numatrix 0 : {big} 0+0i 0+0i 1+0i\n")

    TOKENS = st.sampled_from(
        ["qubits", "gate", "umatrix", "ancilla", "traceout", "channel", "depolarize", "dephase",
         "cdepolarize", ":", "#", "H", "CNOT", "SWAP", "0", "1", "2", "3", "-1", "99", "1_0",
         "\u0661", "1+0i", "0+0i", "-0+1i", "0.70710678118654757+0i", "1e300+0i", "1e400+0i", "nan+0i", "1+i", "x"]
    ) | st.text(max_size=5)
    LINES = st.lists(TOKENS, max_size=7).map(" ".join) | st.text(max_size=20)

    @settings(max_examples=300)
    @given(header=st.sampled_from(["qubits 1", "qubits 2", "qubits 3", "qubits 0", "qubits x", ""]),
           lines=st.lists(LINES, max_size=6))
    def test_garbage_raises_only_parse_error(self, header, lines):
        try:
            parse_circuit("\n".join([header, *lines]))
        except CircuitParseError:
            pass


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
        out = density_oracle(c, rho.matrix)
        assert np.abs(out - v @ rho.matrix @ v.conj().T).max() < 1e-10

    def test_rejects_channels(self):
        with pytest.raises(ValueError, match="not an isometry"):
            isometry_matrix(parse_circuit("qubits 1\nchannel dephase 0\n"))


class TestOutputDepolarizing:
    def test_mixes_with_identity(self):
        rng = np.random.default_rng(46)
        rho = random_density(rng, 2)
        noisy = append_output_depolarizing(parse_circuit("qubits 1\n"), 0.3)
        out = compiled_action(noisy, rho.matrix)
        expected = 0.7 * rho.matrix + 0.3 * np.eye(2) / 2
        assert np.abs(out - expected).max() < 1e-12

    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(47)
        rho = random_density(rng, 4)
        c = parse_circuit("qubits 2\ngate H 0\n")
        noisy = append_output_depolarizing(c, 0.0)
        assert np.abs(compiled_action(noisy, rho.matrix) - compiled_action(c, rho.matrix)).max() < 1e-12

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
        got = compiled_action(circuit, mat, n_ref)
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
        assert v.shape == (4, 2, 2)
        m = v.reshape(-1, 2)
        assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-12
        got = choi_of(ChannelHandle(circuit)).matrix
        assert np.abs(got - choi_oracle(circuit)).max() <= 1e-12
        assert np.abs(got - np.eye(4) / 4).max() <= 1e-12

    @pytest.mark.parametrize(
        "text,shape",
        [
            # The environment reaches its bound d_sys d_in = 256 after the
            # second depolarizer; each later one moves its targets into the
            # environment, compresses, and only then grows it 4-fold.
            ("qubits 4\n" + "channel depolarize 0 1\nchannel depolarize 2 3\n" * 2, (256, 16, 16)),
            # The |1> branch is compressed before it grows 8-fold; the
            # stacked branches are compressed after the gate.
            ("qubits 4\n" + "channel cdepolarize 0 : 1 2 3\n" * 3, (256, 16, 16)),
        ],
        ids=["depolarize", "cdepolarize"],
    )
    def test_saturated_environment_stays_bounded(self, text, shape):
        circuit = parse_circuit(text)
        choi_bytes = 256 ** 2 * 16
        tracemalloc.start()
        try:
            v = compile_circuit(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.shape == shape
        assert peak <= 10 * choi_bytes
        m = v.reshape(-1, 16)
        assert np.abs(m.conj().T @ m - np.eye(16)).max() <= 1e-12
        got = choi_of(ChannelHandle(circuit)).matrix
        assert np.abs(got - choi_oracle(circuit)).max() <= 1e-12

    def test_traceout_moves_qubit_to_environment(self):
        v = compile_circuit(parse_circuit("qubits 2\ntraceout 0\n"))
        assert v.shape == (2, 2, 4)
