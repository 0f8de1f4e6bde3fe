import tracemalloc

import numpy as np
import pytest

from conftest import (
    completeness_defect_oracle,
    controlled_depolarizing_kraus,
    density_oracle,
    depolarizing_kraus,
    kraus_apply_oracle,
    random_pure,
    random_unitary,
    witness_injection_oracle,
)
from isolab import (
    ChannelHandle,
    CircuitParseError,
    Circuit,
    UnitaryGate,
    apply_extended,
    build_instance,
    check_reduction,
    isometry_matrix,
    max_accept_prob,
    operator_norm,
    parse_circuit,
    parse_verifier,
    serialize_circuit,
)
from isolab.circuits import _compile
from isolab.reduction import VerifierSpec, _verifier_gates

ACCEPT_IF_ONE = """witness: 0
ancilla:
measure: 0
garbage:
qubits 1
"""

ALWAYS_REJECT = """witness: 0
ancilla: 1
measure: 1
garbage: 0
qubits 2
"""

COIN_FLIP = """witness: 0
ancilla: 1
measure: 1
garbage: 0
qubits 2
gate H 1
"""


class TestControlledDepolarizeKraus:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_kron_loop(self, dim):
        mixing = []
        for i in range(dim):
            for j in range(dim):
                m = np.zeros((dim, dim), dtype=complex)
                m[i, j] = 1.0 / np.sqrt(dim)
                mixing.append(m)
        assert np.array_equal(depolarizing_kraus(dim), np.array(mixing))
        expected = [np.kron(np.diag([1.0, 0.0]), np.eye(dim))]
        expected += [np.kron(np.diag([0.0, 1.0]), m) for m in mixing]
        assert np.array_equal(controlled_depolarizing_kraus(dim), np.array(expected))

    def test_operator_count_and_completeness(self):
        ops = controlled_depolarizing_kraus(2)
        assert len(ops) == 5
        assert completeness_defect_oracle(ops) < 1e-12

    def test_control_off_leaves_target(self):
        rng = np.random.default_rng(70)
        ops = controlled_depolarizing_kraus(3)
        target = np.array(np.outer(*(2 * [random_pure(rng, 3).amplitudes.conj()])).conj())
        state = np.kron(np.diag([1.0, 0.0]), target)
        out = kraus_apply_oracle(ops, state)
        assert np.abs(out - state).max() < 1e-12

    def test_control_on_mixes_target(self):
        rng = np.random.default_rng(71)
        ops = controlled_depolarizing_kraus(4)
        target = np.outer(random_pure(rng, 4).amplitudes, random_pure(rng, 4).amplitudes.conj())
        target = (target + target.conj().T) / 2
        target /= np.trace(target)
        state = np.kron(np.diag([0.0, 1.0]), target)
        out = kraus_apply_oracle(ops, state)
        expected = np.kron(np.diag([0.0, 1.0]), np.eye(4) / 4)
        assert np.abs(out - expected).max() < 1e-12

    def test_block_form_on_superposed_control(self):
        # sqrt(1-p)|0>|a> + sqrt(p)|1>|b> maps to the dephased block mixture.
        rng = np.random.default_rng(72)
        p = 0.3
        a = random_pure(rng, 2).amplitudes
        b = random_pure(rng, 2).amplitudes
        vec = np.concatenate([np.sqrt(1 - p) * a, np.sqrt(p) * b])
        ops = controlled_depolarizing_kraus(2)
        out = kraus_apply_oracle(ops, np.outer(vec, vec.conj()))
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = (1 - p) * np.outer(a, a.conj())
        expected[2:, 2:] = p * np.eye(2) / 2
        assert np.abs(out - expected).max() < 1e-12


class TestParseVerifier:
    def test_round_trip_fields(self):
        v = parse_verifier(COIN_FLIP)
        assert v.witness_qubits == (0,)
        assert v.ancilla_qubits == (1,)
        assert v.measured_qubit == 1
        assert v.garbage_qubits == (0,)
        assert len(v.circuit.gates) == 1

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="missing 'measure:'"):
            parse_verifier("witness: 0\nancilla:\ngarbage:\nqubits 1\n")

    def test_bad_index(self):
        with pytest.raises(CircuitParseError, match="bad index"):
            parse_verifier("witness: x\nancilla:\nmeasure: 0\ngarbage:\nqubits 1\n")

    def test_duplicate_header(self):
        with pytest.raises(CircuitParseError, match="duplicate"):
            parse_verifier(
                "witness: 0\nwitness: 0\nancilla:\nmeasure: 0\ngarbage:\nqubits 1\n"
            )

    def test_register_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            parse_verifier("witness: 0\nancilla: 0\nmeasure: 0\ngarbage:\nqubits 1\n")
        with pytest.raises(ValueError, match="partition"):
            parse_verifier("witness: 0\nancilla:\nmeasure: 1\ngarbage:\nqubits 1\n")

    def test_body_must_be_isometry(self):
        with pytest.raises(ValueError, match="isometry"):
            parse_verifier(
                "witness: 0\nancilla:\nmeasure: 0\ngarbage:\nqubits 1\nchannel dephase 0\n"
            )

    def test_body_built_in_code_checked_where_built(self):
        # diag(2, 1) is not unitary: the verifier fails where it is built
        # instead of reporting an acceptance probability of one.
        body = [UnitaryGate("umatrix", (0,), np.diag([2.0, 1.0]))]
        with pytest.raises(CircuitParseError, match="non-unitary gate") as err:
            VerifierSpec(Circuit(1, body), (0,), (), 0, ())
        assert err.value.line == 2


class TestMaxAcceptProb:
    def test_accept_iff_one(self):
        p, w = max_accept_prob(parse_verifier(ACCEPT_IF_ONE))
        assert p == pytest.approx(1.0, abs=1e-10)
        assert abs(w.amplitudes[1]) == pytest.approx(1.0, abs=1e-9)

    def test_rotated_measurement(self):
        # The body rotates the witness with H before measuring it, so the
        # acceptance operator is a rank-one projector with eigenvalue one.
        v = parse_verifier("witness: 0\nancilla:\nmeasure: 0\ngarbage:\nqubits 1\ngate H 0\n")
        p, w = max_accept_prob(v)
        assert p == pytest.approx(1.0, abs=1e-10)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(np.vdot(minus, w.amplitudes)) == pytest.approx(1.0, abs=1e-9)

    def test_coin_flip_half_for_every_witness(self):
        v = parse_verifier(COIN_FLIP)
        body = isometry_matrix(v.circuit)
        j = witness_injection_oracle(v)
        t = body @ j
        accept = np.diag([(x >> 0) & 1 for x in range(4)]).astype(float)
        e = t.conj().T @ accept @ t
        assert np.abs(e - np.eye(2) / 2).max() < 1e-10
        p, _ = max_accept_prob(v)
        assert p == pytest.approx(0.5, abs=1e-10)

    def test_layout_matches_witness_injection_oracle(self):
        # The verifier's gates on its witness register against the body's
        # matrix on a witness placed by bit arithmetic.
        rng = np.random.default_rng(74)
        for _ in range(6):
            v = _random_verifier(rng)
            t = _compile(len(v.witness_qubits), _verifier_gates(v))[0]
            assert np.abs(t - isometry_matrix(v.circuit) @ witness_injection_oracle(v)).max() <= 1e-12

    def test_always_reject(self):
        p, _ = max_accept_prob(parse_verifier(ALWAYS_REJECT))
        assert p == pytest.approx(0.0, abs=1e-10)

    def test_consistent_with_direct_simulation(self):
        rng = np.random.default_rng(73)
        v = _random_verifier(rng)
        p, w = max_accept_prob(v)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(_simulate_accept_prob(v, w), abs=1e-9)


def _random_verifier(rng, n_qubits=3):
    gates = []
    for _ in range(4):
        k = 2 if rng.random() < 0.5 else 1
        t = rng.choice(n_qubits, size=k, replace=False)
        gates.append(UnitaryGate("umatrix", t, random_unitary(rng, 2 ** k)))
    qubits = list(range(n_qubits))
    rng.shuffle(qubits)
    w = tuple(sorted(qubits[:2]))
    a = tuple(sorted(qubits[2:]))
    m = int(rng.integers(n_qubits))
    g = tuple(q for q in range(n_qubits) if q != m)
    return VerifierSpec(Circuit(n_qubits, gates), w, a, m, g)


def _simulate_accept_prob(v, witness):
    """Accept probability read off the measured-qubit marginal after running
    the body on witness (x) |0> ancillas."""
    body = isometry_matrix(v.circuit)
    j = witness_injection_oracle(v)
    out_vec = body @ j @ witness.amplitudes
    n_out = v.circuit.output_qubits
    shift = n_out - 1 - v.measured_qubit
    p = 0.0
    for x, amp in enumerate(out_vec):
        if (x >> shift) & 1:
            p += abs(amp) ** 2
    return p


class TestBuildInstance:
    def test_accept_iff_one_instance(self):
        v = parse_verifier(ACCEPT_IF_ONE)
        inst = build_instance(v, 0.3)
        assert inst.padding_qubits == 2
        assert inst.mixing_dim == 4
        circ = inst.channel_circuit
        assert circ.input_qubits == 1
        assert circ.output_qubits == 3
        # witness |1>: measured qubit reads one, the rest is fully mixed
        out = density_oracle(circ, np.diag([0.0, 1.0]))
        expected = np.kron(np.diag([0.0, 1.0]), np.eye(4) / 4)
        assert np.abs(out - expected).max() < 1e-12
        assert operator_norm(out) == pytest.approx(0.25, abs=1e-12)

    def test_dimension_requirement(self):
        v = parse_verifier(ACCEPT_IF_ONE)
        for eps in (0.3, 0.25, 0.45, 0.05):
            inst = build_instance(v, eps)
            assert 2 ** inst.channel_circuit.output_qubits * eps > 2.0

    def test_small_epsilon_instance_stays_small(self):
        # At epsilon 0.01 the mixing block spans 7 qubits; as a Kraus tensor
        # its cdepolarize gate would have held (4^7 + 1) 4^8 entries, 16 GiB.
        v = parse_verifier(ACCEPT_IF_ONE)
        tracemalloc.start()
        try:
            inst = build_instance(v, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert inst.mixing_dim == 128
        assert 2 ** inst.channel_circuit.output_qubits * 0.01 > 2.0

    def test_epsilon_range(self):
        v = parse_verifier(ACCEPT_IF_ONE)
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError, match="epsilon out of range"):
                build_instance(v, eps)

    def test_round_trip(self):
        v = parse_verifier(COIN_FLIP)
        inst = build_instance(v, 0.3)
        assert parse_circuit(serialize_circuit(inst.channel_circuit)) == inst.channel_circuit

    def test_register_permutation(self):
        # ancilla at index 0, witness at index 1: needs a SWAP to place them
        v = parse_verifier("witness: 1\nancilla: 0\nmeasure: 0\ngarbage: 1\nqubits 2\ngate X 0\n")
        inst = build_instance(v, 0.3)
        ch = ChannelHandle(inst.channel_circuit)
        # the ancilla is flipped to |1>, so every witness is accepted and
        # the garbage-plus-padding block is fully mixed
        rng = np.random.default_rng(74)
        out = density_oracle(ch.circuit, random_pure(rng, 2).projector())
        d = inst.mixing_dim
        sub = out.reshape(2, d, 2, d)
        block1 = sub[1, :, 1, :]
        assert np.trace(block1) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(block1 - np.eye(d) / d).max() < 1e-9


class TestInstanceOutputStructure:
    def test_measured_qubit_blocks_decohere(self):
        # after the instance channel the output commutes with the measured
        # qubit's basis projectors: the off-diagonal blocks vanish
        rng = np.random.default_rng(75)
        v = _random_verifier(rng)
        inst = build_instance(v, 0.3)
        ch = ChannelHandle(inst.channel_circuit)
        for _ in range(5):
            psi = random_pure(rng, ch.dim_in ** 2)
            out = apply_extended(ch, psi).matrix
            n_total = int(np.log2(out.shape[0]))
            m = v.measured_qubit
            t = out.reshape([2] * (2 * n_total))
            off = np.moveaxis(t, (m, n_total + m), (0, 1))[0, 1]
            assert np.abs(off).max() < 1e-10

    def test_output_opnorm_formula(self):
        # output largest eigenvalue equals
        # max(1 - p, (p / d) * opnorm(residual reference state))
        rng = np.random.default_rng(76)
        v = _random_verifier(rng)
        inst = build_instance(v, 0.3)
        ch = ChannelHandle(inst.channel_circuit)
        for _ in range(8):
            psi = random_pure(rng, ch.dim_in ** 2)
            got = operator_norm(apply_extended(ch, psi).matrix)
            p, rho_res = _premeasurement_split(v, inst, psi)
            want = max(1 - p, (p / inst.mixing_dim) * operator_norm(rho_res))
            assert got == pytest.approx(want, abs=1e-9)


def _premeasurement_split(v, inst, psi):
    """Accept amplitude weight and residual reference state of the pure
    pre-measurement state, computed independently of the channel engine."""
    body = isometry_matrix(v.circuit)
    j = witness_injection_oracle(v)
    d_w = j.shape[1]
    phi = np.kron(body @ j, np.eye(d_w)) @ psi.amplitudes
    n_out = v.circuit.output_qubits
    # axes: body output qubits, then the reference factor
    t = phi.reshape([2] * n_out + [d_w])
    t = np.moveaxis(t, v.measured_qubit, 0)
    branch = t[1].reshape(-1, d_w)
    p = float(np.sum(np.abs(branch) ** 2))
    if p < 1e-12:
        return 0.0, np.zeros((d_w, d_w), dtype=complex)
    branch = branch / np.sqrt(p)
    rho_res = np.einsum("ab,ac->bc", branch, branch.conj())
    return p, rho_res


class TestCheckReduction:
    def test_accepting_verifier(self):
        rc = check_reduction(parse_verifier(ACCEPT_IF_ONE), 0.3, restarts=6, seed=0)
        assert rc.case == "high-acceptance"
        assert rc.accept_prob == pytest.approx(1.0, abs=1e-10)
        assert rc.min_opnorm <= 0.3 + 1e-3
        assert rc.bound_holds

    def test_rejecting_verifier(self):
        rc = check_reduction(parse_verifier(ALWAYS_REJECT), 0.3, restarts=6, seed=0)
        assert rc.case == "low-acceptance"
        assert rc.accept_prob == pytest.approx(0.0, abs=1e-10)
        assert rc.min_opnorm == pytest.approx(1.0, abs=1e-6)
        assert rc.bound_holds

    def test_certified_search_runs_one_restart(self, monkeypatch):
        # The instance's minimum is 1/r, which the search's I/r bound
        # certifies after its first restart.
        import isolab.channels as channels

        real = channels._descend_opnorm
        runs = []

        def counting(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(channels, "_descend_opnorm", counting)
        rc = check_reduction(parse_verifier(ACCEPT_IF_ONE), 0.03, restarts=16, seed=0)
        assert rc.bound_holds
        assert len(runs) == 1

    def test_gap_verifier(self):
        rc = check_reduction(parse_verifier(COIN_FLIP), 0.3, restarts=6, seed=0)
        assert rc.case == "gap"
        assert rc.bound_holds is None
        # with p = 1/2 on every input the output eigenvalue is exactly 1/2
        assert rc.min_opnorm == pytest.approx(0.5, abs=1e-3)
