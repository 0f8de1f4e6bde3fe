import contextlib
import errno
import io
import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    _call_log,
    choi_oracle,
    density_oracle,
    kraus_apply_oracle,
    mixed_circuits,
    random_unitary,
    report_oracle,
)
from isolab import (
    AddAncilla,
    ChannelHandle,
    Circuit,
    UnitaryGate,
    append_output_depolarizing,
    build_instance,
    choi_of,
    compile_circuit,
    parse_circuit,
    parse_verifier,
    serialize_circuit,
)
from isolab.channels import RANK_TOL
from isolab import cli
from isolab.cli import _emit, _write, main

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


def written(obj):
    """The text the report writer writes for *obj*."""
    out = io.StringIO()
    _write(out, obj)
    return out.getvalue()


def dumps(obj):
    """The oracle: ``json.dumps`` on the report as nested lists."""
    return json.dumps(report_oracle(obj), indent=2, sort_keys=True)


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
        # matrix: one eigh of its Gram matrix gives both rank and spectrum.
        shapes = []
        real = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("choi ran eigvalsh")

        monkeypatch.setattr(np.linalg, "eigh", recording)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        path = write(tmp_path, "c.circuit", "qubits 3\ngate H 0\ngate CNOT 0 1\ngate CNOT 1 2\nchannel dephase 2\n")
        res = runner.invoke(main, ["choi", path])
        assert res.exit_code == 0
        assert shapes == [(2, 2)]
        assert json.loads(res.output)["results"]["rank"] == 2

    def test_rank_counts_spectrum_at_threshold(self, runner, tmp_path):
        # Output noise of strength s adds three Choi eigenvalues of s/4;
        # within rounding of s = 4 RANK_TOL they straddle the rank cut, and
        # the rank must still count the reported eigenvalues above it.
        for seed in range(48):
            rng = np.random.default_rng(seed)
            base = Circuit(1, [UnitaryGate("umatrix", (0,), random_unitary(rng, 2))])
            s = 4.0 * RANK_TOL * (1.0 + rng.uniform(-1e-14, 1e-14))
            path = write(tmp_path, f"c{seed}.circuit", serialize_circuit(append_output_depolarizing(base, s)))
            r = json.loads(runner.invoke(main, ["choi", path]).output)["results"]
            assert r["rank"] == sum(w > RANK_TOL for w in r["eigenvalues"]), seed

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

        monkeypatch.setattr(np.linalg, "eigh", diverge)
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        res = runner.invoke(main, ["choi", path])
        assert res.exit_code == 1
        assert res.output == "error: linear algebra failed: Eigenvalues did not converge\n"


def pairs(re, im):
    """The complex array with these parts, bit for bit (``re + 1j * im``
    would turn an infinite part into NaNs)."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


class TestComplexPayload:
    """The writer's array rendering against the per-entry [re, im]
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
        assert written(a) == json.dumps(self.per_entry(a), indent=2, sort_keys=True)

    def test_negative_nan_prints_nan(self):
        # The sign of a NaN is not folded out: no "-" goes before it.
        nan = np.array([math.nan, 1.0]).view(np.int64)
        nan[0] |= np.int64(-(1 << 63))
        a = nan.view(float)
        assert np.signbit(a[0]) and np.isnan(a[0])
        assert written(a) == "[\n  NaN,\n  1.0\n]"
        z = pairs(a[::-1], a)
        assert np.signbit(z[0].imag) and np.signbit(z[1].real)
        assert written({"z": z}) == dumps({"z": z})

    @pytest.mark.parametrize("first", [-0.0, 0.0, -5e-324, 5e-324, -math.inf])
    def test_signed_extremes(self, first):
        # Each value leads the array (its "-" on the opening bracket) and
        # follows each separator kind, next to its own magnitude.
        vals = np.array([first, -0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, -1.5, 1.5])
        for a in (vals, vals.reshape(3, 3), vals[:8].reshape(2, 2, 2), pairs(vals, vals[::-1])):
            assert written(a) == dumps(a)
        assert written(vals).startswith("[\n  -" if np.signbit(first) else "[\n  ")

    def test_hermitian_matrix(self):
        # Mirror entries share their magnitudes and differ in the sign of
        # the imaginary part.
        rng = np.random.default_rng(91)
        x = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        h = x + x.conj().T
        assert np.array_equal(h, h.conj().T)
        assert written(h) == json.dumps(self.per_entry(h), indent=2, sort_keys=True)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_block_edges(self, delta):
        rng = np.random.default_rng(92)
        a = rng.normal(size=cli._BLOCK + delta)
        assert written({"a": a}) == dumps({"a": a})

    def test_rows_straddle_blocks(self):
        # A 3-d complex array whose rows of 7 [re, im] pairs (14 leaves)
        # do not divide the block, so blocks end inside rows, pairs and
        # matrices.
        rng = np.random.default_rng(93)
        a = rng.normal(size=(3, 1700, 7)) - 1j * rng.normal(size=(3, 1700, 7))
        assert a.size * 2 > 2 * cli._BLOCK and cli._BLOCK % 14 and cli._BLOCK % (1700 * 14)
        assert written({"a": [a]}) == dumps({"a": [a]})


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
    """The writer against ``json.dumps(indent=2, sort_keys=True)`` on the
    same report with every array turned into nested lists."""

    @settings(max_examples=300)
    @given(report=REPORTS)
    def test_matches_json_dumps(self, report):
        assert written(report) == dumps(report)

    @settings(max_examples=200)
    @given(report=REPORTS)
    def test_small_blocks(self, report):
        # Blocks of three leaves end between every kind of separator.
        with mock.patch.object(cli, "_BLOCK", 3):
            assert written(report) == dumps(report)

    def test_array_views(self):
        # Transposed, reversed and strided views render as their tolist().
        a = np.arange(24, dtype=float).reshape(2, 3, 4) - 11.5
        z = a + 1j * a[::-1]
        for view in (a.T, a[:, ::-1, ::2], z.transpose(2, 0, 1), z[..., ::-3]):
            assert written({"v": view}) == dumps({"v": view})


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


class WriteLog:
    """A stdout that keeps only the length of each write."""

    def __init__(self):
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return len(text)

    def flush(self):
        pass


class TestStreamedReport:
    def test_choi_report_is_streamed(self, monkeypatch):
        # A Haar-random isometry of 4 input qubits that keeps one ancilla:
        # a dense 512 x 512 Choi payload, a 22.8 MB report.
        u = random_unitary(np.random.default_rng(94), 32)
        ch = ChannelHandle(Circuit(4, (AddAncilla(), UnitaryGate("umatrix", (0, 1, 2, 3, 4), u))))
        results = {"matrix": choi_of(ch).matrix}
        assert results["matrix"].shape == (512, 512)
        sink = WriteLog()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            _emit("choi", {"path": "c.circuit"}, results)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = sum(sink.lengths)
        assert total > 20_000_000
        assert max(sink.lengths) <= total / 8
        assert peak < 3 * total


class FailingStdout(WriteLog):
    """A stdout whose second write fails, as on a full disk."""

    def write(self, text):
        if len(self.lengths) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


class TestOutputFailure:
    def run(self, monkeypatch, args):
        monkeypatch.setattr(sys, "stdout", FailingStdout())
        with pytest.raises(SystemExit) as exc:
            main.main(args=args, prog_name="isolab", standalone_mode=False)
        return exc.value.code

    def test_failed_write_is_internal(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "c.circuit", NOISY_2Q)
        assert self.run(monkeypatch, ["choi", path]) == 1
        assert capsys.readouterr().err == "error: writing the report failed: [Errno 28] No space left on device\n"

    def test_missing_witness_file_is_input_error(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        assert self.run(monkeypatch, ["protocol", path, "--witness", "file"]) == 2
        assert capsys.readouterr().err == "error: --witness file needs --witness-file\n"

    def test_unreadable_input_is_input_error(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        witness = write(tmp_path, "w.txt", "1 0\n0 0\n")

        def failing_open(name, *args, **kwargs):
            if name == witness:
                raise OSError(errno.EIO, "Input/output error", name)
            return open(name, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        assert self.run(monkeypatch, ["protocol", path, "--witness", "file", "--witness-file", witness]) == 2
        assert capsys.readouterr().err == f"error: [Errno 5] Input/output error: '{witness}'\n"


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

    @pytest.mark.parametrize(
        "flags,message",
        [
            # The honest search would run and the witness be ignored.
            (["--witness-file", "{f}"], "--witness-file needs --witness file"),
            (["--psi-file", "{f}"], "--psi-file needs --psi file"),
        ],
        ids=["witness-file", "psi-file"],
    )
    def test_stray_file_is_input_error(self, runner, tmp_path, flags, message):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        stray = write(tmp_path, "stray.txt", "1+0i 0+0i\n0+0i 0+0i\n")
        res = runner.invoke(main, ["protocol", path, *(f.format(f=stray) for f in flags)])
        assert res.exit_code == 2
        assert res.output == f"error: {message}\n"

    def test_shots_deterministic(self, runner, tmp_path):
        path = write(tmp_path, "c.circuit", DEPOLARIZER)
        args = ["protocol", path, "--shots", "2000", "--seed", "9"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        r = json.loads(out1)["results"]
        assert r["shots"]["n"] == 2000


class TestProtocolCap:
    def test_wide_output_runs_at_default_cap(self, runner, tmp_path):
        # 1 -> 6 qubits: a two-copy output of (64 * 2)^2 entries a side, which
        # the protocol never forms; Q = M* M is 2 x 2.
        path = write(tmp_path, "c.circuit", "qubits 1\n" + "ancilla\n" * 5 + "gate H 0\ngate CNOT 0 1\n")
        res = runner.invoke(main, ["protocol", path, "--restarts", "2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["results"]["p_accept"] <= 1e-9

    def test_environment_over_cap_refused_before_q(self, runner, tmp_path, monkeypatch):
        # Depolarizing three qubits of a 1-qubit input leaves a Choi rank of
        # 16, so Q has dimension 16 * 2 = 32, over a cap of 16 that the
        # channel itself (8 x 2) and the witness (16) meet.
        import isolab.protocol as protocol

        def refuse(ch):
            raise AssertionError("formed Q over the cap")

        monkeypatch.setattr(protocol, "_swap_observable", refuse)
        path = write(tmp_path, "c.circuit", "qubits 1\nancilla\nancilla\nchannel depolarize 0 1 2\n")
        res = runner.invoke(main, ["protocol", path, "--restarts", "1"], env={"ISOLAB_MAX_DIM": "16"})
        assert res.exit_code == 3
        assert "protocol dimension exceeds the cap of 16" in res.output


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

    def test_failed_check_writes_no_instance(self, runner, tmp_path, monkeypatch):
        # The cap refuses the instance's search, d_out d_in = 16 > 8.
        monkeypatch.setenv("ISOLAB_MAX_DIM", "8")
        path = write(tmp_path, "v.verifier", ACCEPT_IF_ONE)
        out_path = tmp_path / "instance.circuit"
        res = runner.invoke(main, ["reduce", path, "--check", "--output", str(out_path)])
        assert res.exit_code == 3
        assert not out_path.exists()

    def test_malformed_header(self, runner, tmp_path):
        path = write(tmp_path, "v.verifier", "witness: 0\nqubits 1\n")
        res = runner.invoke(main, ["reduce", path])
        assert res.exit_code == 2

    def test_small_epsilon_check_holds(self, runner, tmp_path):
        # At epsilon 0.03 the mixing gate spans 6 qubits; as a Kraus tensor
        # it would need 1 GiB.
        path = write(tmp_path, "v.verifier", ACCEPT_IF_ONE)
        args = ["reduce", path, "--epsilon", "0.03", "--check", "--restarts", "2", "--output", str(tmp_path / "i")]
        first, second = runner.invoke(main, args), runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        check = json.loads(first.output)["results"]["check"]
        assert check["case"] == "high-acceptance"
        assert check["bound_holds"] is True


class TestOneDecomposition:
    """Each command decomposes the environment Gram matrix of the compiled
    isometry once: one d_env x d_env eigh outside the top eigenpairs of the
    search and of the acceptance operator, and no eigvalsh of it."""

    SEARCH = {"top_eigenpair", "_certified_ritz_pair"}

    @pytest.mark.parametrize(
        "command,extra",
        [
            # The analyze report adds the purity metrics of the minimizer's
            # extended output, read off the 2 x 2 Gram matrix of its slices
            # (V has 2 rows) rather than the 64 x 64 output.
            (["analyze", "{c}", "--restarts", "2"], [("eigvalsh", (2, 2))]),
            (["choi", "{c}"], []),
            (["kraus", "{c}"], []),
            (["reduce", "{v}", "--check", "--restarts", "1", "--output", "{i}"], []),
        ],
        ids=["analyze", "choi", "kraus", "reduce-check"],
    )
    def test_one_environment_eigh(self, runner, tmp_path, monkeypatch, command, extra):
        source = "qubits 3\ngate H 0\ngate CNOT 0 1\ngate CNOT 1 2\nchannel dephase 2\n"
        paths = {
            "c": write(tmp_path, "c.circuit", source),
            "v": write(tmp_path, "v.verifier", ACCEPT_IF_ONE),
            "i": str(tmp_path / "i.circuit"),
        }
        if command[0] == "reduce":
            circuit = build_instance(parse_verifier(ACCEPT_IF_ONE), 0.3).channel_circuit
        else:
            circuit = parse_circuit(source)
        d_env = len(compile_circuit(circuit))
        calls = []

        def recording(real):
            def wrapper(a, *args, **kwargs):
                if sys._getframe(1).f_code.co_name not in self.SEARCH:
                    calls.append((real.__name__, np.shape(a)))
                return real(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        res = runner.invoke(main, [a.format(**paths) for a in command])
        assert res.exit_code == 0
        assert calls == [("eigh", (d_env, d_env))] + extra


class TestValidationPasses:
    """A circuit is validated once, when it is built: once per command for
    the circuit file, and once per reduced instance built."""

    @pytest.mark.parametrize(
        "args,passes",
        [
            (["validate", "{c}"], 1),
            (["analyze", "{c}", "--restarts", "1"], 1),
            (["protocol", "{c}", "--restarts", "1"], 1),
            (["reduce", "{v}", "--output", "{i}"], 2),
            (["reduce", "{v}", "--check", "--restarts", "1", "--output", "{i}"], 2),
        ],
        ids=["validate", "analyze", "protocol", "reduce", "reduce-check"],
    )
    def test_validate_circuit_calls(self, runner, tmp_path, monkeypatch, args, passes):
        import isolab.circuits as circuits

        paths = {
            "c": write(tmp_path, "c.circuit", DEPOLARIZER),
            "v": write(tmp_path, "v.verifier", ACCEPT_IF_ONE),
            "i": str(tmp_path / "i.circuit"),
        }
        calls = _call_log(monkeypatch, circuits.validate_circuit)
        res = runner.invoke(main, [a.format(**paths) for a in args])
        assert res.exit_code == 0
        assert len(calls) == passes


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
