import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import density_oracle, kraus_apply_oracle
from isolab import append_output_depolarizing, parse_circuit, serialize_circuit, validate_circuit
from isolab.cli import _complex_payload, main

DEPOLARIZER = "qubits 1\nchannel depolarize 0\n"
IDENTITY = "qubits 1\n"

ACCEPT_IF_ONE = """witness: 0
ancilla:
measure: 0
garbage:
qubits 1
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidate:
    def test_valid_file(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", "qubits 2\ngate CNOT 0 1\n")
        res = runner.invoke(main, ["validate", path])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["results"]["valid"] is True
        assert report["results"]["qubits"] == 2

    def test_bad_gate_line_reported(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", "qubits 1\ngate NOPE 0\n")
        res = runner.invoke(main, ["validate", path])
        assert res.exit_code == 2
        assert "line 2" in res.output

    def test_empty_file(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", "")
        res = runner.invoke(main, ["validate", path])
        assert res.exit_code == 2
        assert "missing qubits header" in res.output


class TestAnalyze:
    def test_identity_is_exact_isometry(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", IDENTITY)
        res = runner.invoke(main, ["analyze", path, "--epsilon", "0.3", "--restarts", "2"])
        assert res.exit_code == 0
        r = json.loads(res.output)["results"]
        assert r["exact_isometry"] is True
        assert r["classification"] == "no-instance"
        assert r["choi_rank"] == 1

    def test_depolarizer_yes_instance(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["analyze", path, "--epsilon", "0.3", "--restarts", "4", "--seed", "1"])
        r = json.loads(res.output)["results"]
        assert r["classification"] == "yes-instance"
        assert abs(r["min_output_opnorm"] - 0.25) < 1e-3
        assert abs(r["minimizer_output_opnorm"] - 0.25) < 1e-3

    def test_oversized_circuit_exit_code(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", "qubits 13\n")
        res = runner.invoke(main, ["analyze", path])
        assert res.exit_code == 3

    def test_zero_restarts_is_input_error(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["analyze", path, "--restarts", "0"])
        assert res.exit_code == 2
        assert "restarts must be at least 1" in res.output

    def test_invalid_dimension_cap_is_input_error(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["analyze", path], env={"ISOLAB_MAX_DIM": "abc"})
        assert res.exit_code == 2
        assert "ISOLAB_MAX_DIM" in res.output


class TestChoiKraus:
    def test_choi_identity(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", IDENTITY)
        res = runner.invoke(main, ["choi", path])
        r = json.loads(res.output)["results"]
        assert r["rank"] == 1
        assert abs(r["eigenvalues"][0] - 1.0) < 1e-9

    def test_choi_depolarizer_eigenvalues(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["choi", path])
        r = json.loads(res.output)["results"]
        assert r["rank"] == 4
        assert np.allclose(r["eigenvalues"], [0.25] * 4)

    def test_kraus_residual(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", "qubits 1\nancilla\ngate CNOT 0 1\ntraceout 1\n")
        res = runner.invoke(main, ["kraus", path])
        r = json.loads(res.output)["results"]
        assert r["count"] == 2
        assert r["reconstruction_residual"] < 1e-8
        assert r["completeness_defect"] < 1e-8
        op = np.array([[complex(re, im) for re, im in row] for row in r["operators"][0]])
        assert op.shape == (2, 2)


    @pytest.mark.parametrize("strength", [1e-8, 0.3])
    def test_kraus_residual_is_matrix_unit_error(self, runner, tmp_path, strength):
        # Output noise of 1e-8 lies below the Kraus rank tolerance, so the
        # truncated Kraus set leaves a residual of the order of the noise.
        circuit = append_output_depolarizing(parse_circuit("qubits 2\ngate H 0\ngate CNOT 0 1\n"), strength)
        path = write(tmp_path, "c.circuit", serialize_circuit(circuit))
        r = json.loads(runner.invoke(main, ["kraus", path]).output)["results"]
        ops = [np.array([[complex(re, im) for re, im in row] for row in op]) for op in r["operators"]]
        loop = 0.0
        for i in range(4):
            for j in range(4):
                unit = np.zeros((4, 4), dtype=complex)
                unit[i, j] = 1.0
                loop = max(loop, float(np.abs(kraus_apply_oracle(ops, unit) - density_oracle(circuit, unit)).max()))
        assert r["reconstruction_residual"] == pytest.approx(loop, abs=1e-14)
        assert (loop > 1e-9) == (strength < 1e-7)

    def test_linalg_error_is_internal(self, runner, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["choi", path])
        assert res.exit_code == 1
        assert res.output == "error: linear algebra failed: Eigenvalues did not converge\n"


class TestComplexPayload:
    """One stacked conversion against the per-entry [re, im] construction,
    compared as serialized JSON."""

    @staticmethod
    def per_entry(a):
        if a.ndim == 0:
            return [float(a.real), float(a.imag)]
        return [TestComplexPayload.per_entry(x) for x in a]

    @pytest.mark.parametrize("shape", [(7,), (64, 64), (3, 4, 2)])
    def test_matches_per_entry_json(self, shape):
        rng = np.random.default_rng(90)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = a.reshape(-1)
        flat[:6] = [-0.0 + 0.0j, complex(0.0, -0.0), 1e-320 - 1e-320j, 1e300 + 0j, -1e300j, 5e-324]
        assert json.dumps(_complex_payload(a)) == json.dumps(self.per_entry(a))


class TestProtocol:
    def test_depolarizer_auto(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["protocol", path, "--seed", "4"])
        r = json.loads(res.output)["results"]
        assert abs(r["p_accept"] - 0.375) < 1e-6
        assert r["shots"] is None

    def test_isometry_rejects(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", "qubits 1\nancilla\ngate CNOT 0 1\n")
        res = runner.invoke(main, ["protocol", path, "--restarts", "2"])
        r = json.loads(res.output)["results"]
        assert r["p_accept"] <= 1e-9

    def test_psi_file(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        s = 1 / np.sqrt(2)
        psi = write(tmp_path, "psi.state", f"{s:.17g}+0i 0+0i 0+0i {s:.17g}+0i\n")
        res = runner.invoke(main, ["protocol", path, "--psi", "file", "--psi-file", psi])
        r = json.loads(res.output)["results"]
        assert abs(r["p_accept"] - 0.375) < 1e-9

    def test_witness_file_dimension_mismatch(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        witness = write(tmp_path, "w.matrix", "1+0i 0+0i\n0+0i 0+0i\n")
        res = runner.invoke(
            main, ["protocol", path, "--witness", "file", "--witness-file", witness]
        )
        assert res.exit_code == 2

    def test_witness_file_mismatch_not_validated(self, runner, tmp_path, full_validations):
        # The shape is checked on the loaded array, before the eigh of a
        # full validation.
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        rows = [" ".join("0.03125+0i" if i == j else "0+0i" for j in range(32)) for i in range(32)]
        witness = write(tmp_path, "w.matrix", "\n".join(rows) + "\n")
        res = runner.invoke(
            main, ["protocol", path, "--witness", "file", "--witness-file", witness]
        )
        assert res.exit_code == 2
        assert "dimension mismatch" in res.output
        assert full_validations == []

    def test_witness_file_accepted(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        rows = []
        for i in range(16):
            rows.append(" ".join("0.0625+0i" if i == j else "0+0i" for j in range(16)))
        witness = write(tmp_path, "w.matrix", "\n".join(rows) + "\n")
        res = runner.invoke(
            main, ["protocol", path, "--witness", "file", "--witness-file", witness]
        )
        assert res.exit_code == 0
        r = json.loads(res.output)["results"]
        assert 0.0 <= r["p_accept"] <= 1.0
        assert r["psi"] is None

    def test_witness_file_compiled_once_without_choi(self, runner, tmp_path, compile_calls, choi_calls):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        rows = [" ".join("0.0625+0i" if i == j else "0+0i" for j in range(16)) for i in range(16)]
        witness = write(tmp_path, "w.matrix", "\n".join(rows) + "\n")
        res = runner.invoke(
            main, ["protocol", path, "--witness", "file", "--witness-file", witness]
        )
        assert res.exit_code == 0
        assert len(compile_calls) == 1
        assert len(choi_calls) == 0

    def test_near_isometry_runs(self, runner, tmp_path):
        # Output noise of 1e-7 sits below the Kraus rank tolerance.
        noisy = append_output_depolarizing(parse_circuit("qubits 1\ngate H 0\n"), 1e-7)
        path = write(tmp_path, "c.circuit", serialize_circuit(noisy))
        res = runner.invoke(main, ["protocol", path, "--restarts", "2"])
        assert res.exit_code == 0
        assert 0.0 <= json.loads(res.output)["results"]["p_accept"] <= 1e-6

    def test_internal_fault_exit_code(self, runner, tmp_path, monkeypatch):
        import isolab.protocol as protocol

        real = protocol._parallel_extended_output
        monkeypatch.setattr(protocol, "_parallel_extended_output", lambda ch, m: 2.0 * real(ch, m))
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["protocol", path, "--restarts", "2"])
        assert res.exit_code == 1
        assert isinstance(res.exception, RuntimeError)

    def test_negative_shots_is_input_error(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["protocol", path, "--shots", "-3"])
        assert res.exit_code == 2
        assert "--shots" in res.output

    def test_shots_deterministic(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        args = ["protocol", path, "--shots", "2000", "--seed", "9"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        r = json.loads(out1)["results"]
        assert r["shots"]["n"] == 2000


class TestReduce:
    def test_emits_validating_instance(self, runner, tmp_path):
        path = write(tmp_path, "v.verifier", ACCEPT_IF_ONE)
        out_path = str(tmp_path / "instance.circuit")
        res = runner.invoke(main, ["reduce", path, "--epsilon", "0.3", "--output", out_path])
        assert res.exit_code == 0
        r = json.loads(res.output)["results"]
        assert r["accept_prob"] == pytest.approx(1.0, abs=1e-9)
        assert r["padding_qubits"] == 2
        with open(out_path) as fh:
            circuit = parse_circuit(fh.read())
        validate_circuit(circuit)
        assert circuit.output_qubits == 3

    def test_check_embedded(self, runner, tmp_path):
        path = write(tmp_path, "v.verifier", ACCEPT_IF_ONE)
        out_path = str(tmp_path / "instance.circuit")
        res = runner.invoke(
            main,
            ["reduce", path, "--epsilon", "0.3", "--check", "--output", out_path, "--seed", "3"],
        )
        r = json.loads(res.output)["results"]
        assert r["check"]["case"] == "high-acceptance"
        assert r["check"]["bound_holds"] is True
        assert r["check"]["min_output_opnorm"] <= 0.3 + 1e-3

    def test_malformed_header(self, runner, tmp_path):
        path = write(tmp_path, "v.verifier", "witness: 0\nqubits 1\n")
        res = runner.invoke(main, ["reduce", path])
        assert res.exit_code == 2


class TestDeterminism:
    def test_seeded_reports_byte_identical(self, runner, tmp_path):
        circuit = write(tmp_path, "c.circuit", DEPOLARIZER)
        verifier = write(tmp_path, "v.verifier", ACCEPT_IF_ONE)
        out_path = str(tmp_path / "i.circuit")
        commands = [
            ["analyze", circuit, "--epsilon", "0.3", "--seed", "5"],
            ["protocol", circuit, "--shots", "500", "--seed", "5"],
            ["reduce", verifier, "--check", "--seed", "5", "--output", out_path],
            ["choi", circuit],
            ["kraus", circuit],
        ]
        for args in commands:
            first = runner.invoke(main, args)
            second = runner.invoke(main, args)
            assert first.exit_code == 0
            assert first.output == second.output
