import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import choi_oracle, density_oracle, kraus_apply_oracle, mixed_circuits, report_oracle
from isolab import (
    ChannelHandle,
    append_output_depolarizing,
    choi_of,
    parse_circuit,
    serialize_circuit,
    validate_circuit,
)
from isolab.channels import RANK_TOL
from isolab.cli import _dumps, main

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

    @settings(max_examples=40)
    @given(circuit=mixed_circuits())
    def test_choi_eigenvalues_match_oracle(self, tmp_path_factory, circuit):
        path = tmp_path_factory.mktemp("choi") / "c.circuit"
        path.write_text(serialize_circuit(circuit))
        r = json.loads(CliRunner().invoke(main, ["choi", str(path)]).output)["results"]
        expected = np.linalg.eigvalsh(choi_oracle(circuit))[::-1]
        assert np.abs(np.array(r["eigenvalues"]) - expected).max() <= 1e-12
        assert sum(w > RANK_TOL for w in r["eigenvalues"]) == r["rank"]

    def test_choi_diagonalizes_only_environment_gram(self, runner, tmp_path, monkeypatch):
        # The dephase leaves an environment of dimension 2 on a 64 x 64 Choi
        # matrix.
        shapes = []
        real = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        path = write(tmp_path, "c.circuit", "qubits 3\ngate H 0\ngate CNOT 0 1\ngate CNOT 1 2\nchannel dephase 2\n")
        res = runner.invoke(main, ["choi", path])
        assert res.exit_code == 0
        assert shapes == [(2, 2)]
        assert json.loads(res.output)["results"]["rank"] == 2

    def test_kraus_forms_no_choi_sized_array(self, runner, tmp_path, choi_calls):
        body = "".join(f"gate H {q}\ngate CNOT {q} {(q + 1) % 5}\n" for q in range(5))
        path = write(tmp_path, "c.circuit", "qubits 5\n" + 2 * body + "channel dephase 0\n")
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["kraus", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert json.loads(res.output)["results"]["count"] == 2
        assert choi_calls == []
        assert peak < 1024 * 1024 * 16

    def test_linalg_error_is_internal(self, runner, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["choi", path])
        assert res.exit_code == 1
        assert res.output == "error: linear algebra failed: Eigenvalues did not converge\n"


class TestComplexPayload:
    """The emitter's array rendering against the per-entry [re, im]
    construction, compared as indented report text."""

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
        assert _dumps(a) == json.dumps(self.per_entry(a), indent=2, sort_keys=True)


FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-320, 1e300, -1e300, math.nan, math.inf, -math.inf]) | st.floats()
SHAPES = st.sampled_from([(), (0,), (2, 0, 3)]) | hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)
ARRAYS = hnp.arrays(np.float64, SHAPES, elements=FLOATS) | hnp.arrays(
    np.complex128, SHAPES, elements=st.builds(complex, FLOATS, FLOATS)
)
SCALARS = (
    st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1b\u2028'), max_size=6)
    | st.integers()
    | st.booleans()
    | st.none()
    | FLOATS
)
REPORTS = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


class TestReportText:
    """The emitter against ``json.dumps(indent=2, sort_keys=True)`` on the
    same report with every array turned into nested lists."""

    @settings(max_examples=300)
    @given(report=REPORTS)
    def test_matches_json_dumps(self, report):
        assert _dumps(report) == json.dumps(report_oracle(report), indent=2, sort_keys=True)

    def test_array_views(self):
        # Transposed, reversed and strided views render as their tolist().
        a = np.arange(24, dtype=float).reshape(2, 3, 4) - 11.5
        z = a + 1j * a[::-1]
        for view in (a.T, a[:, ::-1, ::2], z.transpose(2, 0, 1), z[..., ::-3]):
            assert _dumps({"v": view}) == json.dumps(report_oracle({"v": view}), indent=2, sort_keys=True)


ISOMETRY_3Q = "qubits 3\nancilla\ngate H 0\ngate CNOT 0 3\ngate CNOT 1 2\ngate T 2\n"
NOISY_2Q = "qubits 2\ngate H 0\ngate CNOT 0 1\nchannel dephase 1\n"


class TestHarnessShapedRun:
    """Each report goes where ``sys.stdout`` points at call time, as an
    in-process caller that redirects stdout into a file reads it."""

    @pytest.mark.parametrize(
        "argv, circuit",
        [
            (["choi"], ISOMETRY_3Q),
            (["choi"], NOISY_2Q),
            (["kraus"], ISOMETRY_3Q),
            (["kraus"], NOISY_2Q),
            (["analyze", "--restarts", "2", "--seed", "3"], NOISY_2Q),
            (["protocol", "--restarts", "2", "--seed", "3"], DEPOLARIZER),
        ],
        ids=["choi-isometry-3q", "choi-noisy-2q", "kraus-isometry-3q", "kraus-noisy-2q", "analyze", "protocol"],
    )
    def test_report_is_canonical_json_on_redirected_stdout(self, tmp_path, capfd, argv, circuit):
        path = write(tmp_path, "c.circuit", circuit)
        report_path = tmp_path / "report.json"
        with open(report_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            main.main(args=[argv[0], path, *argv[1:]], prog_name="isolab", standalone_mode=False)
        text = report_path.read_text(encoding="utf-8")
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert capfd.readouterr().out == ""
        if argv[0] == "choi":
            m = report["results"]["matrix"]
            trace = complex(sum(m[i][i][0] for i in range(len(m))), sum(m[i][i][1] for i in range(len(m))))
            assert abs(trace - 1.0) <= 1e-9

    def test_choi_stdout_is_the_json_text_and_a_newline(self, tmp_path, capfdbinary, monkeypatch):
        # The bytes that reach the process's stdout are the canonical JSON
        # text and one newline; click.echo is not on the path.
        import isolab.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("report written through click.echo")

        monkeypatch.setattr(cli.click, "echo", refuse)
        path = write(tmp_path, "c.circuit", NOISY_2Q)
        main.main(args=["choi", path], prog_name="isolab", standalone_mode=False)
        out = capfdbinary.readouterr().out
        report = json.loads(out)
        assert out == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
        ch = ChannelHandle(parse_circuit(NOISY_2Q))
        assert report["results"]["matrix"] == report_oracle(choi_of(ch).matrix)
        assert report["command"] == "choi"


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

    def test_witness_file_bad_literal(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        witness = write(tmp_path, "w.matrix", "1+0i 0+0i\n0+0i 0+1j\n")
        res = runner.invoke(
            main, ["protocol", path, "--witness", "file", "--witness-file", witness]
        )
        assert res.exit_code == 2
        assert "bad complex literal '0+1j'" in res.output

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

        real = protocol._swap_observable
        monkeypatch.setattr(protocol, "_swap_observable", lambda ch: 2.0 * real(ch))
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

    def test_over_cap_mixing_gate_exit_code(self, runner, tmp_path):
        # At epsilon 0.01 the mixing gate spans 7 qubits: a 16 GiB Kraus tensor.
        path = write(tmp_path, "v.verifier", ACCEPT_IF_ONE)
        res = runner.invoke(main, ["reduce", path, "--epsilon", "0.01", "--output", str(tmp_path / "i")])
        assert res.exit_code == 3
        assert "cdepolarize needs a Kraus tensor" in res.output


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
