"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from conftest import (
    brute_force_min_opnorm,
    choi_oracle,
    choi_rank_oracle,
    circuit_swap_test_probs,
    kraus_from_choi_oracle,
    random_circuit,
    random_density,
    random_pure,
)
from isolab import (
    ChannelHandle,
    DensityMatrix,
    PureState,
    append_output_depolarizing,
    apply_extended,
    check_reduction,
    choi_of,
    extract_approx_isometry,
    fidelity,
    honest_witness,
    isometry_matrix,
    kraus_of,
    max_accept_prob,
    maximally_entangled_state,
    min_output_opnorm,
    operator_norm,
    parse_circuit,
    parse_verifier,
    probe_epsilon,
    purity_metrics,
    run_protocol_exact,
    run_protocol_sampled,
    swap_test,
    symmetric_witness_family,
    trace_norm,
)
from isolab.cli import main as cli_main

DEPOLARIZER = "qubits 1\nchannel depolarize 0\n"
RESET = "qubits 1\nancilla\ntraceout 0\n"
COPY = "qubits 1\nancilla\ngate CNOT 0 1\n"
TWO_TO_THREE = "qubits 2\nancilla\ngate CNOT 0 2\ngate T 1\ngate H 0\n"

ACCEPT_IF_ONE = "witness: 0\nancilla:\nmeasure: 0\ngarbage:\nqubits 1\n"
ALWAYS_REJECT = "witness: 0\nancilla: 1\nmeasure: 1\ngarbage: 0\nqubits 2\n"


def _pass(message):
    print(f"PASS: {message}")


def test_purity_sandwich_and_closest_pure_state_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(500):
        dim = int(rng.choice([2, 3, 4, 8]))
        rho = random_density(rng, dim)
        m = purity_metrics(rho)
        assert m.purity - m.opnorm ** 2 >= -1e-10
        assert m.opnorm - m.purity >= -1e-10
        top = np.linalg.eigh(rho.matrix)[1][:, -1]
        achieved = trace_norm(rho.matrix - np.outer(top, top.conj()))
        assert abs(achieved - m.tdist_to_pure) <= 1e-10
        probe = random_pure(rng, dim)
        dist = trace_norm(rho.matrix - probe.projector())
        assert m.opnorm >= 1 - dist / 2 - 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(
        "purity sandwich and closest-pure-state equivalence on 500 random "
        f"states in {elapsed:.2f}s"
    )


def test_fidelity_trace_norm_inequality():
    rng = np.random.default_rng(102)
    for _ in range(500):
        dim = int(rng.choice([2, 3, 4, 8]))
        rho = random_density(rng, dim)
        psi = random_pure(rng, dim)
        f = fidelity(rho, psi.density())
        tnorm = trace_norm(rho.matrix - psi.projector())
        assert tnorm - (2 - 2 * f ** 2) >= -1e-10
    _pass("fidelity vs trace-norm inequality on 500 random state pairs")


def test_rank_one_choi_iff_isometric_kraus_iff_unit_min_opnorm():
    rng = np.random.default_rng(103)
    circuits = [random_circuit(rng, isometry_only=True) for _ in range(25)]
    circuits += [random_circuit(rng) for _ in range(25)]
    disagreements = 0
    for circ in circuits:
        ch = ChannelHandle(circ)
        rank_one = choi_rank_oracle(choi_of(ch).matrix) == 1
        ops = kraus_of(ch)
        if len(ops) == 1:
            a = ops[0]
            isometric = float(np.abs(a.conj().T @ a - np.eye(ch.dim_in)).max()) <= 1e-8
        else:
            isometric = False
        val, _ = min_output_opnorm(ch, restarts=2, seed=13)
        near_unit = val >= 1 - 1e-6
        if not rank_one == isometric == near_unit:
            disagreements += 1
    assert disagreements == 0
    _pass("rank-one Choi, isometric Kraus, and unit search minimum agree on 50 circuits")


def test_swap_test_purity_formula_and_circuit_realization():
    rng = np.random.default_rng(104)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        sigma = random_density(rng, d)
        res = swap_test(DensityMatrix(np.kron(sigma.matrix, sigma.matrix)))
        expected = 0.5 - 0.5 * float(np.real(np.trace(sigma.matrix @ sigma.matrix)))
        assert abs(res.p_antisymmetric - expected) <= 1e-10
    for d in (2, 3, 4):
        rho = random_density(rng, d * d)
        res = swap_test(rho)
        p_sym, p_anti = circuit_swap_test_probs(rho.matrix, d)
        assert abs(res.p_symmetric - p_sym) <= 1e-9
        assert abs(res.p_antisymmetric - p_anti) <= 1e-9
    _pass("swap-test antisymmetric probability matches the purity formula and the gate realization")


def test_reset_channel_worked_example():
    ch = ChannelHandle(parse_circuit(RESET))
    out = apply_extended(ch, maximally_entangled_state(2))
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert np.abs(out.matrix - expected).max() <= 1e-12
    val, _ = min_output_opnorm(ch, restarts=8, seed=105)
    assert abs(val - 0.5) <= 1e-3
    ops = kraus_from_choi_oracle(choi_oracle(ch.circuit), 2)
    sampled = brute_force_min_opnorm(ops, 2, n_samples=100_000, seed=105)
    assert sampled >= val - 1e-6
    assert abs(sampled - 0.5) <= 0.1
    _pass(
        "reset channel: extended output exactly |0><0| (x) I/2, search minimum "
        f"{val:.6f} confirmed against a 1e5-sample oracle ({sampled:.6f})"
    )


def test_reduction_accepting_verifier():
    started = time.perf_counter()
    v = parse_verifier(ACCEPT_IF_ONE)
    p, witness = max_accept_prob(v)
    assert abs(p - 1.0) <= 1e-10
    rc = check_reduction(v, 0.3, restarts=8, seed=106)
    assert rc.instance.mixing_dim >= 4
    assert rc.min_opnorm <= 0.25 + 1e-3
    # the explicit unentangled witness realizes max(1 - p, p/d) exactly
    ch = ChannelHandle(rc.instance.channel_circuit)
    ref = np.zeros(ch.dim_in, dtype=complex)
    ref[0] = 1.0
    gamma = PureState(np.kron(witness.amplitudes, ref))
    explicit = operator_norm(apply_extended(ch, gamma).matrix)
    d = rc.instance.mixing_dim
    assert abs(explicit - max(1 - p, p / d)) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(
        f"accepting verifier: p = 1, instance minimum {rc.min_opnorm:.4f} <= 0.25 + 1e-3, "
        f"explicit witness hits p/d = {explicit:.4f} in {elapsed:.2f}s"
    )


def test_reduction_rejecting_verifier():
    v = parse_verifier(ALWAYS_REJECT)
    p, _ = max_accept_prob(v)
    assert abs(p) <= 1e-10
    rc = check_reduction(v, 0.3, restarts=64, seed=107)
    assert abs(rc.min_opnorm - 1.0) <= 1e-6
    assert rc.case == "low-acceptance"
    assert rc.bound_holds
    _pass("rejecting verifier: p = 0 and the instance minimum stays 1 over 64 restarts")


def test_protocol_acceptance_floor_for_depolarizer():
    ch = ChannelHandle(parse_circuit(DEPOLARIZER))
    val, psi = min_output_opnorm(ch, restarts=8, seed=108)
    witness = honest_witness(ch, psi)
    res = run_protocol_exact(ch, witness)
    assert abs(res.p_accept - 0.375) <= 1e-9
    assert abs(res.p_accept - (1 - 0.25) / 2) <= 1e-9
    sampled = run_protocol_sampled(ch, witness, shots=100_000, seed=108)
    assert abs(sampled.shots.accepts / sampled.shots.n - 0.375) <= 0.01
    _pass(
        "uniform mixer accepts its honest witness with probability exactly 0.375; "
        f"sampled frequency {sampled.shots.accepts / sampled.shots.n:.4f}"
    )


def test_protocol_acceptance_ceiling_sampled_evidence():
    for src in (COPY, "qubits 1\ngate H 0\n"):
        ch = ChannelHandle(parse_circuit(src))
        family = symmetric_witness_family(ch, n_random=16, seed=109)
        assert len(family) >= 20
        for w in family:
            assert run_protocol_exact(ch, w).p_accept <= 1e-9
    noisy = ChannelHandle(append_output_depolarizing(parse_circuit(COPY), 0.005))
    eps = probe_epsilon(noisy, seed=109)
    assert eps > 0
    family = symmetric_witness_family(noisy, n_random=16, seed=109)
    worst = max(run_protocol_exact(noisy, w).p_accept for w in family)
    assert worst <= 9 * eps + 1e-6
    _pass(
        "isometries never accept on 20 seeded symmetric witnesses; the 0.005-noisy "
        f"isometry stays below 9 * measured defect ({worst:.5f} <= {9 * eps:.5f})"
    )


def test_isometry_extraction_probe_distances():
    circ = parse_circuit(TWO_TO_THREE)
    a, diag = extract_approx_isometry(ChannelHandle(circ), seed=110, n_random=50)
    assert diag.max_distance <= 1e-8
    v = isometry_matrix(circ)
    for i in range(v.shape[1]):
        assert abs(abs(np.vdot(v[:, i], a[:, i])) - 1.0) <= 1e-9
    noisy = append_output_depolarizing(circ, 0.01)
    _, noisy_diag = extract_approx_isometry(ChannelHandle(noisy), seed=110, n_random=50)
    assert noisy_diag.max_distance <= 9 * noisy_diag.eps_measured
    _pass(
        "isometry extraction: exact recovery to 1e-8, noisy recovery within "
        f"9 * measured defect ({noisy_diag.max_distance:.5f} <= {9 * noisy_diag.eps_measured:.5f})"
    )


def test_seeded_commands_are_byte_identical(tmp_path):
    runner = CliRunner()
    circuit_path = tmp_path / "mixer.circuit"
    circuit_path.write_text(DEPOLARIZER)
    verifier_path = tmp_path / "acceptor.verifier"
    verifier_path.write_text(ACCEPT_IF_ONE)
    instance_path = tmp_path / "instance.circuit"
    commands = [
        ["validate", str(circuit_path)],
        ["analyze", str(circuit_path), "--epsilon", "0.3", "--seed", "11"],
        ["choi", str(circuit_path)],
        ["kraus", str(circuit_path)],
        ["protocol", str(circuit_path), "--shots", "1000", "--seed", "11"],
        [
            "reduce", str(verifier_path), "--epsilon", "0.3", "--check",
            "--seed", "11", "--output", str(instance_path),
        ],
    ]
    for args in commands:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        assert first.exit_code == 0, first.output
        assert first.output == second.output
        json.loads(first.output)
    _pass("all seeded commands produce byte-identical reports across repeated runs")
