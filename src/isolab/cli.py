"""Command-line front end.

Every command prints a JSON report with sorted keys; given identical
input files, flags, and seed the report is byte-identical across runs.
Complex numbers are serialized as two-element [re, im] arrays. Exit
codes: 0 success, 2 input error, 3 resource cap exceeded, 1 internal
failure.
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
    analyze_channel,
    apply_extended,
    choi_of,
    kraus_of,
    min_output_opnorm,
)
from .circuits import (
    CircuitParseError,
    parse_circuit,
    serialize_circuit,
    validate_circuit,
)
from .linalg import PureState, purity_metrics
from .protocol import honest_witness, run_protocol_exact, run_protocol_sampled
from .reduction import build_instance, check_reduction, max_accept_prob, parse_verifier


def _complex_payload(a) -> list:
    """Nested lists of the array's entries as [re, im] pairs."""
    return np.stack([a.real, a.imag], -1).tolist()


def _emit(command: str, inputs: dict, results: dict, seed=None) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "version": __version__,
    }
    click.echo(json.dumps(report, indent=2, sort_keys=True))


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


def _parse_state_tokens(text: str) -> list[complex]:
    from .circuits import parse_complex

    values = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        for tok in line.split():
            values.append(parse_complex(tok))
    return values


def _load_state(path: str) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return PureState(np.array(_parse_state_tokens(fh.read()), dtype=complex))


def _load_matrix(path: str) -> np.ndarray:
    from .circuits import parse_complex

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            rows.append([parse_complex(tok) for tok in line.split()])
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
        "minimizer": _complex_payload(report.minimizing_state.amplitudes),
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
    j = choi_of(ch).matrix
    w = np.linalg.eigvalsh(j)[::-1]
    _emit(
        "choi",
        {"path": path},
        {
            "dim_in": ch.dim_in,
            "dim_out": ch.dim_out,
            "rank": len(kraus_of(ch)),
            "eigenvalues": [float(x) for x in w],
            "matrix": _complex_payload(j),
        },
    )


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@_guarded
def kraus(path):
    """Minimal Kraus operators and the reconstruction residual."""
    ch = ChannelHandle(_load_circuit(path))
    k = kraus_of(ch)
    flat = k.reshape(len(k), -1)
    # d_in max|J_Kraus - J| against the Choi matrix J of the compiled
    # circuit: the largest entry error of the Kraus set's output on any
    # matrix unit |i><j| of the input. The difference is formed in place,
    # as J_Kraus - J scaled by the power of two d_in, which is exact.
    diff = flat.T @ flat.conj()
    diff /= ch.dim_in
    diff -= choi_of(ch).matrix
    residual = ch.dim_in * float(np.abs(diff).max())
    gram = np.tensordot(k.conj(), k, axes=([0, 1], [0, 1]))
    _emit(
        "kraus",
        {"path": path},
        {
            "count": len(k),
            "operators": _complex_payload(k),
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
        psi_used = _complex_payload(psi.amplitudes)
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
