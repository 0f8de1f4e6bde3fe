"""Seeded input generator for the benchmark workloads.

Every workload is a list of rounds. A round is a fixed mix of jobs (the
same kinds, sizes, strengths and flags in every round); only the random
content of the circuits, verifiers and witnesses and the search seeds
change from round to round and from seed to seed. So the work in a run,
and the metrics, depend little on the seed.

The generator writes only text files in the isolab formats. It keeps the
closed-form reference of everything it builds (body unitaries, the
depolarizing strength, which circuits are isometries, the exact maximum
acceptance of each verifier) in the job records, which the checks read and
the program never sees. This module does not import isolab.
"""

import os
from dataclasses import dataclass, field

import numpy as np

# Rounds one run measures, per workload: 24 jobs each on dense-4q and
# protocol-2q, and 36 on search-3q, whose jobs are the cheapest. The extra
# jobs steady the median and tail there without pushing the run's wall time
# past the other two workloads'.
ROUNDS = {"dense-4q": 3, "search-3q": 6, "protocol-2q": 4}


@dataclass
class Job:
    kind: str                 # "cli" or "bounds"
    label: str                # job type, e.g. "choi" or "protocol-witness-file"
    argv: list = field(default_factory=list)
    path: str = ""            # circuit file of a "bounds" job
    bounds_args: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def umatrix_line(targets, m) -> str:
    ts = " ".join(str(t) for t in targets)
    return f"umatrix {ts} : " + " ".join(fmt_complex(z) for z in np.asarray(m).reshape(-1))


def haar_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# dense-4q: Choi and Kraus jobs on noisy 4-qubit circuits
# ---------------------------------------------------------------------------

DENSE_QUBITS = 4
DENSE_DEPTH = 40
# (ancillas, noise gates) of the circuits of one round. One in four is a
# pure isometry (no noise) that keeps its ancilla (a 512x512 Choi matrix);
# the others trace their ancillas back out, so every noisy circuit maps 4
# qubits to 4 qubits (a 256x256 Choi matrix).
# Fixing the noise kinds per position keeps the Kraus rank, and with it the
# cost of a round, alike across seeds.
DENSE_ROUND = ((1, ("dephase",)), (2, ("depolarize", "dephase")), (2, ("depolarize2",)), (1, ()))
_SINGLE = ("H", "T", "S", "X")


def dense_circuit(rng, ancillas: int, noise: tuple) -> str:
    """Depth-40 circuit over H/T/S/X/CNOT/umatrix. A noisy circuit starts
    with a depolarizer on an input qubit, which makes its channel
    non-isometric whatever follows; its other noise gates sit anywhere
    after the ancillas, and it traces out as many qubits as it appended."""
    n = DENSE_QUBITS
    isometry = not noise
    n_trace = 0 if isometry else ancillas
    head = [] if isometry else [f"channel depolarize {int(rng.integers(n))}"]
    middle = ["unitary"] * (DENSE_DEPTH - len(head) - ancillas - len(noise) - n_trace) + list(noise)
    rng.shuffle(middle)
    half = len(middle) // 2
    order = ["ancilla"] * ancillas + middle[:half] + ["traceout"] * n_trace + middle[half:]
    lines = [f"qubits {n}"] + head
    count = n
    for kind in order:
        if kind == "ancilla":
            lines.append("ancilla")
            count += 1
        elif kind == "traceout":
            lines.append(f"traceout {int(rng.integers(count))}")
            count -= 1
        elif kind == "dephase":
            lines.append(f"channel dephase {int(rng.integers(count))}")
        elif kind.startswith("depolarize"):
            k = 2 if kind.endswith("2") else 1
            t = rng.choice(count, size=k, replace=False)
            lines.append("channel depolarize " + " ".join(str(int(x)) for x in t))
        else:
            r = rng.random()
            if r < 0.5:
                lines.append(f"gate {_SINGLE[int(rng.integers(4))]} {int(rng.integers(count))}")
            elif r < 0.8:
                t = rng.choice(count, size=2, replace=False)
                lines.append(f"gate CNOT {int(t[0])} {int(t[1])}")
            else:
                k = 2 if rng.random() < 0.5 else 1
                t = [int(x) for x in rng.choice(count, size=k, replace=False)]
                lines.append(umatrix_line(t, haar_unitary(rng, 2 ** k)))
    return "\n".join(lines) + "\n"


def dense_jobs(rng, work: str, n_rounds: int) -> list:
    rounds = []
    for r in range(n_rounds):
        jobs = []
        for i, (anc, noise) in enumerate(DENSE_ROUND):
            path = os.path.join(work, f"dense-r{r}-c{i}.circuit")
            write(path, dense_circuit(rng, anc, noise))
            iso = not noise
            ref = {"isometry": iso, "dim_out": 2 ** (DENSE_QUBITS + (anc if iso else 0))}
            jobs.append(Job("cli", "choi", ["choi", path], ref=ref))
            jobs.append(Job("cli", "kraus", ["kraus", path], ref=ref))
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# Output-depolarized unitaries (search-3q and protocol-2q)
# ---------------------------------------------------------------------------

def depolarized_unitary(rng, n: int, s: float):
    """Haar unitary body on n qubits followed by output mixing of strength
    s, realized as in the isolab gate set: an ancilla rotated to
    sqrt(1-s)|0> + sqrt(s)|1> controls a uniform mixer on the outputs and
    is traced out."""
    u = haar_unitary(rng, 2 ** n)
    a, b = np.sqrt(1.0 - s), np.sqrt(s)
    rot = np.array([[a, -b], [b, a]], dtype=complex)
    outs = " ".join(str(q) for q in range(n))
    text = "\n".join([
        f"qubits {n}",
        umatrix_line(range(n), u),
        "ancilla",
        umatrix_line([n], rot),
        f"channel cdepolarize {n} : {outs}",
        f"traceout {n}",
    ]) + "\n"
    ref = {"s": s, "n": n, "u": u, "closed_form_min": (1.0 - s) + s / 4 ** n}
    return text, ref


# ---------------------------------------------------------------------------
# search-3q: the mixing search through analyze and reduce --check
# ---------------------------------------------------------------------------

SEARCH_QUBITS = 3
# (strength s, restarts) of the analyze jobs of one round. The search's
# cost depends mostly on s: at s = 1/3 a restart takes about 250 line-search
# evaluations, at s = 0.9 about 95, and at s = 0 (the exact isometry) the
# gradient vanishes at once. So s is fixed per position, and the seed
# varies only the body unitary and the restart points. s = 1 is left out:
# its landscape is degenerate, a restart takes 250 to 800 evaluations, and
# that spread would dominate the run-to-run spread of this workload.
SEARCH_ROUND = ((0.0, 2), (1 / 3, 3), (2 / 3, 4), (0.9, 3))
# (epsilon, ancillas, promise side) of the reduce jobs of one round: the
# padded output dimension is 16 at epsilon 0.3 and 32 at epsilon 0.1, and
# the two jobs check the two implications of the reduction.
REDUCE_ROUND = ((0.3, 2, "high-acceptance"), (0.1, 1, "low-acceptance"))
REDUCE_RESTARTS = 1


def _rot(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def verifier(rng, ancillas: int, p_max: float):
    """Verifier with 2 witness qubits and 1-2 ancillas whose maximum
    acceptance is p_max in closed form.

    A Haar unitary scrambles the witness register; a rotation of the
    measured ancilla controlled on witness qubit 0 accepts with
    probability p_max on |1> and p_max/2 on |0>; a last Haar unitary
    scrambles garbage qubits only. The maximum over witnesses is therefore
    p_max exactly.
    """
    n = 2 + ancillas
    m = 2
    ctrl = np.zeros((4, 4), dtype=complex)
    ctrl[:2, :2] = _rot(2 * np.arcsin(np.sqrt(p_max / 2)))
    ctrl[2:, 2:] = _rot(2 * np.arcsin(np.sqrt(p_max)))
    garbage = [q for q in range(n) if q != m]
    lines = [
        "witness: 0 1",
        "ancilla: " + " ".join(str(q) for q in range(2, n)),
        f"measure: {m}",
        "garbage: " + " ".join(str(q) for q in garbage),
        f"qubits {n}",
        umatrix_line([0, 1], haar_unitary(rng, 4)),
        umatrix_line([0, m], ctrl),
        umatrix_line(garbage[-2:], haar_unitary(rng, 4)),
    ]
    return "\n".join(lines) + "\n"


def _seed_arg(rng) -> str:
    return str(int(rng.integers(1 << 16)))


def search_jobs(rng, work: str, n_rounds: int) -> list:
    rounds = []
    for r in range(n_rounds):
        jobs = []
        for i, (s, restarts) in enumerate(SEARCH_ROUND):
            text, ref = depolarized_unitary(rng, SEARCH_QUBITS, s)
            path = os.path.join(work, f"search-r{r}-c{i}.circuit")
            write(path, text)
            argv = ["analyze", path, "--epsilon", "0.3", "--restarts", str(restarts),
                    "--seed", _seed_arg(rng)]
            jobs.append(Job("cli", "analyze", argv, ref=ref))
        for i, (eps, ancillas, case) in enumerate(REDUCE_ROUND):
            p_max = 1.0 - eps / 2 if case == "high-acceptance" else eps / 2
            path = os.path.join(work, f"search-r{r}-v{i}.verifier")
            write(path, verifier(rng, ancillas, p_max))
            argv = ["reduce", path, "--epsilon", str(eps), "--check",
                    "--output", path + ".instance", "--restarts", str(REDUCE_RESTARTS),
                    "--seed", _seed_arg(rng)]
            jobs.append(Job("cli", "reduce", argv, ref={"p_max": p_max, "case": case}))
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# protocol-2q: swap-test protocol jobs and bounds checks
# ---------------------------------------------------------------------------

PROTOCOL_QUBITS = 2
PROTOCOL_RESTARTS = 4
PROTOCOL_SHOTS = 2000
# (job type, strength s) of one round: five protocol commands and one
# bounds call. The bounds call checks soundness over the 16 honest basis
# witnesses only (no random ones): it still takes about 6 s, and with the
# library default of 20 random witnesses it takes about 13 s.
PROTOCOL_ROUND = (("honest", 0.25), ("witness-file", 0.5), ("shots", 0.75),
                  ("honest", 1.0), ("witness-file", 0.25), ("bounds", 0.5))
BOUNDS_RANDOM_WITNESSES = 0


def symmetric_mixed_witness(rng, d_half: int, rank: int = 3) -> np.ndarray:
    """Mixture of random pure states on two copies of input (x) reference,
    each projected onto the symmetric subspace."""
    rho = np.zeros((d_half * d_half, d_half * d_half), dtype=complex)
    for w in rng.dirichlet(np.ones(rank)):
        v = random_unit(rng, d_half * d_half)
        v = v + v.reshape(d_half, d_half).T.reshape(-1)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def matrix_text(m) -> str:
    return "\n".join(" ".join(fmt_complex(z) for z in row) for row in m) + "\n"


def protocol_jobs(rng, work: str, n_rounds: int) -> list:
    d_half = 4 ** PROTOCOL_QUBITS
    rounds = []
    for r in range(n_rounds):
        jobs = []
        for i, (kind, s) in enumerate(PROTOCOL_ROUND):
            text, ref = depolarized_unitary(rng, PROTOCOL_QUBITS, s)
            path = os.path.join(work, f"protocol-r{r}-c{i}.circuit")
            write(path, text)
            if kind == "honest":
                argv = ["protocol", path, "--restarts", str(PROTOCOL_RESTARTS), "--seed", _seed_arg(rng)]
                jobs.append(Job("cli", "protocol-honest", argv, ref=ref))
            elif kind == "witness-file":
                wpath = path + ".witness"
                write(wpath, matrix_text(symmetric_mixed_witness(rng, d_half)))
                argv = ["protocol", path, "--witness", "file", "--witness-file", wpath]
                jobs.append(Job("cli", "protocol-witness-file", argv, ref=ref))
            elif kind == "shots":
                ppath = path + ".psi"
                write(ppath, " ".join(fmt_complex(z) for z in random_unit(rng, d_half)) + "\n")
                argv = ["protocol", path, "--psi", "file", "--psi-file", ppath,
                        "--shots", str(PROTOCOL_SHOTS), "--seed", _seed_arg(rng)]
                jobs.append(Job("cli", "protocol-shots", argv, ref=ref))
            else:
                args = {"restarts": PROTOCOL_RESTARTS, "seed": int(_seed_arg(rng)),
                        "n_random_witnesses": BOUNDS_RANDOM_WITNESSES}
                jobs.append(Job("bounds", "check_protocol_bounds", path=path,
                                bounds_args=args, ref=ref))
        rounds.append(jobs)
    return rounds


WORKLOADS = {
    "dense-4q": dense_jobs,
    "search-3q": search_jobs,
    "protocol-2q": protocol_jobs,
}


def generate(workload: str, seed: int, work: str) -> list:
    """Write the inputs of *workload* for *seed* under *work*; return the
    rounds of jobs. The same seed gives byte-identical files."""
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, work, ROUNDS[workload])
