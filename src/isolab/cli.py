"""Command-line front end.

Every command prints a JSON report: exactly the text of
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, with each
array written as its nested lists and complex numbers as two-element
[re, im] arrays. Given identical input files, flags, and seed the report is
byte-identical across runs. Exit codes: 0 success, 2 input error, 3
resource cap exceeded, 1 internal failure.
"""

import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .channels import (
    ChannelHandle,
    DimensionCapError,
    _isometry,
    analyze_channel,
    apply_extended,
    choi_of,
    kraus_of,
    min_output_opnorm,
)
from .circuits import (
    CircuitParseError,
    _parse_complex_row,
    parse_circuit,
    serialize_circuit,
    validate_circuit,
)
from .linalg import PureState, purity_metrics
from .protocol import honest_witness, run_protocol_exact, run_protocol_sampled
from .reduction import build_instance, check_reduction, max_accept_prob, parse_verifier


# The C encoder: floats as their shortest repr, NaN and Infinity spelled as
# json.dumps spells them, strings escaped to ASCII.
_ENCODER = json.JSONEncoder()


def _dumps(obj, level: int = 0) -> str:
    """*obj* laid out as ``json.dumps(obj, indent=2, sort_keys=True)`` lays
    it out at nesting depth *level*, with each ndarray standing for its
    ``tolist()`` and complex entries for [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        return _dumps_array(obj, level)
    pad, end = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, dict):
        items = (f"{_ENCODER.encode(k)}: {_dumps(obj[k], level + 1)}" for k in sorted(obj))
        return "{" + pad + ("," + pad).join(items) + end + "}" if obj else "{}"
    if isinstance(obj, (list, tuple)):
        items = (_dumps(x, level + 1) for x in obj)
        return "[" + pad + ("," + pad).join(items) + end + "]" if obj else "[]"
    return _ENCODER.encode(obj)


def _dumps_array(a: np.ndarray, level: int) -> str:
    """A float or complex array at depth *level*: each distinct float64 bit
    pattern is formatted once, and between two leaves goes one of nd
    separators, chosen by how many trailing axes close there."""
    if a.dtype.kind == "c":
        a = np.asarray(a, dtype=complex)
        a = a.reshape(-1).view(float).reshape(a.shape + (2,))
    else:
        a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.size == 0:
        return _dumps(a.tolist(), level)
    bits, inverse = np.unique(a.reshape(-1).view(np.int64), return_inverse=True)
    texts = _ENCODER.encode(bits.view(float).tolist())[1:-1].split(", ")
    nd = a.ndim
    pads = ["\n" + "  " * (level + k) for k in range(nd + 1)]
    opens = ["[" + pads[k + 1] for k in range(nd)]
    closes = [pads[k] + "]" for k in range(nd)]
    seps = ["".join(closes[nd - 1:nd - 1 - c:-1]) + "," + pads[nd - c] + "".join(opens[nd - c:])
            for c in range(nd)]
    which = np.zeros(a.size - 1, dtype=np.intp)
    stride = 1
    for c in range(1, nd):
        stride *= a.shape[nd - c]
        which[stride - 1::stride] = c
    out = np.empty(2 * a.size - 1, dtype=object)
    out[0::2] = np.array(texts, dtype=object)[inverse]
    out[1::2] = np.array(seps, dtype=object)[which]
    return "".join(opens) + "".join(out.tolist()) + "".join(reversed(closes))


def _emit(command: str, inputs: dict, results: dict, seed=None) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "version": __version__,
    }
    # Written as is: click.echo would copy the text once more and scan it
    # for ANSI escapes whenever stdout is not a terminal.
    out = sys.stdout
    out.write(_dumps(report))
    out.write("\n")
    out.flush()


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DimensionCapError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except np.linalg.LinAlgError as exc:
            # A ValueError subclass, but a fault of the computation, not of
            # the input.
            click.echo(f"error: linear algebra failed: {exc}", err=True)
            sys.exit(1)
        except (CircuitParseError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_circuit(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def _load_rows(path: str) -> list[list[complex]]:
    """The complex literals of a text file, one list per non-blank line;
    ``#`` starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = (_parse_complex_row(raw.split("#", 1)[0]) for raw in fh)
        return [row for row in rows if row]


def _load_state(path: str) -> PureState:
    return PureState(np.array([z for row in _load_rows(path) for z in row], dtype=complex))


def _load_matrix(path: str) -> np.ndarray:
    rows = _load_rows(path)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError(f"matrix file {path} is not square")
    return np.array(rows, dtype=complex)


@click.group()
@click.version_option(__version__)
def main():
    """Analyze how close a mixed-state circuit's channel is to an isometry."""


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_guarded
def validate(path):
    """Parse and validate a circuit file."""
    circuit = _load_circuit(path)
    validate_circuit(circuit)
    _emit(
        "validate",
        {"path": path},
        {
            "valid": True,
            "qubits": circuit.input_qubits,
            "output_qubits": circuit.output_qubits,
            "gates": len(circuit.gates),
        },
    )


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@click.option("--restarts", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_guarded
def analyze(path, epsilon, restarts, seed):
    """Isometry report: Choi rank, exact test, mixing search, classification."""
    ch = ChannelHandle(_load_circuit(path))
    report = analyze_channel(ch, epsilon, restarts=restarts, seed=seed)
    metrics = purity_metrics(apply_extended(ch, report.minimizing_state))
    results = {
        "choi_rank": report.choi_rank,
        "exact_isometry": report.exact_isometry,
        "min_output_opnorm": report.min_output_opnorm,
        "classification": report.classification,
        "epsilon": epsilon,
        "minimizer": report.minimizing_state.amplitudes,
        "minimizer_output_purity": metrics.purity,
        "minimizer_output_opnorm": metrics.opnorm,
        "minimizer_output_tdist_to_pure": metrics.tdist_to_pure,
    }
    _emit(
        "analyze",
        {"path": path, "epsilon": epsilon, "restarts": restarts, "seed": seed},
        results,
        seed=seed,
    )


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_guarded
def choi(path):
    """Choi matrix payload: eigenvalues, rank, and entries."""
    ch = ChannelHandle(_load_circuit(path))
    v = _isometry(ch)
    d_out, d_env, d_in = v.shape
    # The nonzero Choi spectrum is that of the environment Gram matrix M M*
    # over d_in, with M the isometry as a d_env x (d_out d_in) matrix.
    m = v.transpose(1, 0, 2).reshape(d_env, d_out * d_in)
    w = np.linalg.eigvalsh(m @ m.conj().T) / d_in
    w = np.sort(np.concatenate([w, np.zeros(d_out * d_in - d_env)]))[::-1]
    _emit(
        "choi",
        {"path": path},
        {
            "dim_in": ch.dim_in,
            "dim_out": ch.dim_out,
            "rank": len(kraus_of(ch)),
            "eigenvalues": w,
            "matrix": choi_of(ch).matrix,
        },
    )


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_guarded
def kraus(path):
    """Minimal Kraus operators and the reconstruction residual."""
    ch = ChannelHandle(_load_circuit(path))
    k = kraus_of(ch)
    # d_in max|J_Kraus - J| against the Choi matrix J of the compiled
    # circuit: the largest entry error of the Kraus set's output on any
    # matrix unit |i><j|. d_in (J - J_Kraus) is the Choi part of the
    # environment directions the Kraus set drops, positive semidefinite, so
    # its largest entry lies on its diagonal: a difference of column weights.
    weights = np.sum(np.abs(_isometry(ch)) ** 2, axis=1)
    residual = float(np.abs(weights - np.sum(np.abs(k) ** 2, axis=0)).max())
    gram = np.tensordot(k.conj(), k, axes=([0, 1], [0, 1]))
    _emit(
        "kraus",
        {"path": path},
        {
            "count": len(k),
            "operators": k,
            "completeness_defect": float(np.abs(gram - np.eye(ch.dim_in)).max()),
            "reconstruction_residual": residual,
        },
    )


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--witness", "witness_kind", type=click.Choice(["honest", "file"]), default="honest", show_default=True)
@click.option("--witness-file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--psi", "psi_kind", type=click.Choice(["auto", "file"]), default="auto", show_default=True)
@click.option("--psi-file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--shots", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_guarded
def protocol(path, witness_kind, witness_file, psi_kind, psi_file, shots, restarts, seed):
    """Run the two-swap-test protocol on a witness, exactly and sampled."""
    if shots < 0:
        raise ValueError(f"--shots must be 0 (exact) or positive, got {shots}")
    ch = ChannelHandle(_load_circuit(path))
    if witness_kind == "file":
        if witness_file is None:
            raise ValueError("--witness file needs --witness-file")
        witness = _load_matrix(witness_file)
        psi_used = None
    else:
        if psi_kind == "file":
            if psi_file is None:
                raise ValueError("--psi file needs --psi-file")
            psi = _load_state(psi_file)
        else:
            _, psi = min_output_opnorm(ch, restarts=restarts, seed=seed)
        witness = honest_witness(ch, psi)
        psi_used = psi.amplitudes
    if shots > 0:
        result = run_protocol_sampled(ch, witness, shots, seed)
    else:
        result = run_protocol_exact(ch, witness)
    results = {
        "p_step1_symmetric": result.p_step1_symmetric,
        "p_step3_antisymmetric_given_step1": result.p_step3_antisymmetric_given_step1,
        "p_accept": result.p_accept,
        "psi": psi_used,
        "witness": witness_kind,
        "shots": None
        if result.shots is None
        else {
            "n": result.shots.n,
            "accepts": result.shots.accepts,
            "frequency": result.shots.accepts / result.shots.n,
            "seed": result.shots.seed,
        },
    }
    _emit(
        "protocol",
        {
            "path": path,
            "witness": witness_kind,
            "witness_file": witness_file,
            "psi": psi_kind,
            "psi_file": psi_file,
            "shots": shots,
            "restarts": restarts,
            "seed": seed,
        },
        results,
        seed=seed,
    )


@main.command()
@click.argument("verifier_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=0.3, show_default=True)
@click.option("--check/--no-check", default=False, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Where to write the reduced circuit [default: VERIFIER_PATH.instance].")
@click.option("--restarts", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_guarded
def reduce(verifier_path, epsilon, check, output, restarts, seed):
    """Build the channel instance of a verifier and optionally check it."""
    with open(verifier_path, "r", encoding="utf-8") as fh:
        verifier = parse_verifier(fh.read())
    inst = build_instance(verifier, epsilon)
    out_path = output if output is not None else verifier_path + ".instance"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_circuit(inst.channel_circuit))
    p, _ = max_accept_prob(verifier)
    results = {
        "accept_prob": p,
        "epsilon": epsilon,
        "padding_qubits": inst.padding_qubits,
        "mixing_dim": inst.mixing_dim,
        "instance_path": out_path,
        "instance_qubits": inst.channel_circuit.input_qubits,
        "instance_output_qubits": inst.channel_circuit.output_qubits,
    }
    if check:
        rc = check_reduction(verifier, epsilon, restarts=restarts, seed=seed)
        results["check"] = {
            "accept_prob": rc.accept_prob,
            "min_output_opnorm": rc.min_opnorm,
            "case": rc.case,
            "bound": rc.bound,
            "bound_holds": rc.bound_holds,
        }
    _emit(
        "reduce",
        {
            "verifier_path": verifier_path,
            "epsilon": epsilon,
            "check": check,
            "output": out_path,
            "restarts": restarts,
            "seed": seed,
        },
        results,
        seed=seed,
    )


if __name__ == "__main__":
    main()
