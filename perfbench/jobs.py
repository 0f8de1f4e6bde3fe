"""Running one benchmark job in-process, and checking its output.

A CLI job calls ``isolab.cli.main`` with the job's arguments; the JSON
report it prints goes to a file, which the checks read later. A bounds job calls
``isolab.protocol.check_protocol_bounds``, which has no command. Every
check compares the report with the closed-form reference the generator
kept; a job whose check fails counts as failed.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
from click.exceptions import ClickException

# Library functions are looked up on their modules at call time, so the
# span tracer's wrappers see these calls too.
from isolab import channels, circuits, cli, protocol

from inputs import PROTOCOL_SHOTS

TOL = 1e-9
# At s < 1 a converged search (it stops once a step gains less than 1e-10)
# lands within about 1.1e-9 of the closed form; SEARCH_TOL leaves a margin
# of a hundred, and a search stopped early misses by more. At s = 1 the top
# output eigenvalue is degenerate at the minimum and the descent stalls
# about a hundredth above it, so only the lower bound is checked there.
SEARCH_TOL = 1e-7


def execute(job, report_path):
    """Run the job with stdout sent to *report_path*, as a shell redirect
    would; return (exit code, error text)."""
    err = io.StringIO()
    code = 0
    with open(report_path, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if job.kind == "cli":
                    cli.main.main(args=job.argv, prog_name="isolab", standalone_mode=False)
                else:
                    with open(job.path, "r", encoding="utf-8") as fh:
                        ch = channels.ChannelHandle(circuits.parse_circuit(fh.read()))
                    report = protocol.check_protocol_bounds(ch, **job.bounds_args)
                    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except ClickException as exc:
                code = exc.exit_code
                err.write(exc.format_message())
            except Exception as exc:  # the job fails; the run goes on
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
    return code, err.getvalue()


def check(job, code, text, err):
    """Return (ok, reason, gap); gap is the found minimum's excess over the
    closed form, or None when the job reports no search minimum."""
    if code != 0:
        return False, f"exit {code}: {err.strip()[:200]}", None
    try:
        report = json.loads(text)
    except ValueError:
        return False, "report is not JSON", None
    problems, gap = CHECKS[job.label](job.ref, report)
    return not problems, "; ".join(problems), gap


def _choi(ref, rep):
    res = rep["results"]
    m = res["matrix"]
    trace = complex(sum(m[i][i][0] for i in range(len(m))), sum(m[i][i][1] for i in range(len(m))))
    problems = []
    if res["dim_out"] != ref["dim_out"]:
        problems.append(f"dim_out {res['dim_out']} != {ref['dim_out']}")
    if abs(trace - 1.0) > TOL:
        problems.append(f"Choi trace {trace}")
    if (res["rank"] == 1) != ref["isometry"]:
        problems.append(f"Choi rank {res['rank']} for isometry={ref['isometry']}")
    return problems, None


def _kraus(ref, rep):
    res = rep["results"]
    problems = []
    if res["completeness_defect"] > TOL:
        problems.append(f"completeness defect {res['completeness_defect']}")
    if res["reconstruction_residual"] > TOL:
        problems.append(f"reconstruction residual {res['reconstruction_residual']}")
    if (res["count"] == 1) != ref["isometry"]:
        problems.append(f"Kraus rank {res['count']} for isometry={ref['isometry']}")
    return problems, None


def _search_min(ref, found):
    problems = []
    gap = found - ref["closed_form_min"]
    if gap < -TOL:
        problems.append(f"found minimum {found} below the closed form {ref['closed_form_min']}")
    if ref["s"] < 1.0 and gap > SEARCH_TOL:
        problems.append(f"found minimum {found} exceeds the closed form {ref['closed_form_min']} by {gap:.3g}")
    return problems, gap


def _analyze(ref, rep):
    res = rep["results"]
    problems, gap = _search_min(ref, res["min_output_opnorm"])
    if res["exact_isometry"] != (ref["s"] == 0.0):
        problems.append(f"exact_isometry {res['exact_isometry']} at s={ref['s']}")
    return problems, gap


def _reduce(ref, rep):
    res = rep["results"]
    problems = []
    if abs(res["accept_prob"] - ref["p_max"]) > TOL:
        problems.append(f"accept_prob {res['accept_prob']} != {ref['p_max']}")
    if res["check"]["case"] != ref["case"]:
        problems.append(f"case {res['check']['case']} != {ref['case']}")
    if res["check"]["bound_holds"] is False:
        problems.append("bound_holds false")
    return problems, None


def extended_opnorm(ref, psi) -> float:
    """Largest eigenvalue of the output-depolarized unitary's extended
    output on psi, from the closed form
    (1-s) (U (x) I)|psi><psi|(U (x) I)* + s I/d (x) rho_ref."""
    d = 2 ** ref["n"]
    m = np.asarray(psi, dtype=complex).reshape(d, d)
    w = (ref["u"] @ m).reshape(-1)
    sigma = (1.0 - ref["s"]) * np.outer(w, w.conj()) + ref["s"] * np.kron(np.eye(d) / d, m.T @ m.conj())
    return float(np.linalg.eigvalsh(sigma)[-1])


def _protocol(ref, rep):
    res = rep["results"]
    p = res["p_accept"]
    problems, gap = [], None
    if not 0.0 <= p <= 1.0:
        problems.append(f"p_accept {p} outside [0, 1]")
    if res["psi"] is not None:
        m = extended_opnorm(ref, [complex(a, b) for a, b in res["psi"]])
        if p < (1.0 - m) / 2.0 - TOL:
            problems.append(f"p_accept {p} below the floor {(1.0 - m) / 2.0}")
        if rep["inputs"]["psi"] == "auto":
            more, gap = _search_min(ref, m)
            problems += more
    shots = rep["inputs"]["shots"]
    if shots:
        s = res["shots"]
        if s["n"] != PROTOCOL_SHOTS or not 0 <= s["accepts"] <= s["n"]:
            problems.append(f"shot record {s}")
    return problems, gap


def _bounds(ref, rep):
    problems, gap = _search_min(ref, rep["completeness"]["min_opnorm"])
    for part in ("completeness", "soundness"):
        if not rep[part]["holds"]:
            problems.append(f"{part} check does not hold")
    return problems, gap


CHECKS = {
    "choi": _choi,
    "kraus": _kraus,
    "analyze": _analyze,
    "reduce": _reduce,
    "protocol-honest": _protocol,
    "protocol-witness-file": _protocol,
    "protocol-shots": _protocol,
    "check_protocol_bounds": _bounds,
}
