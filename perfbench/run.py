"""isolab benchmark: seeded workloads, end-to-end job metrics, and a traced
per-layer run.

Run from the root of an isolab checkout:

    python3 perfbench/run.py --workload dense-4q --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One client runs jobs in a closed loop with no think time. A job is one
``isolab`` command run in-process through ``isolab.cli.main`` (or one
``check_protocol_bounds`` call, which has no command) on files the seeded
generator wrote. Jobs run in round order (see inputs.py) until their summed
wall time reaches ``--seconds`` and every generated round is done (24 jobs
on dense-4q and protocol-2q, 36 on search-3q). At today's job costs the
count binds, so every run of a workload measures the same mix of jobs.
The job loop runs in a forked child that leaves each report in a file; the
parent checks the reports once the child has ended, so the child's peak
memory is the program's alone.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
that BENCHMARK.json bounds.
With ``--trace 1`` each job runs twice, once plain and once with the span
tracer installed (which runs first alternates), and the last line holds the
per-layer metrics; the plain runs give the tracing overhead. The line
before the result holds the machine record, the digest of the first
round's reports, the failed share and the search gap, and in a traced run
each layer's share of job time. BENCHMARK.json bounds neither of the last
two metrics: the failed share is 0 when all is well, and the job checks
fail any search that stops short of the closed-form minimum (see jobs.py).
"""

import argparse
import collections
import contextlib
import hashlib
import itertools
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
SETUP_STARTS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One run of one job: the report is left in the file at *path* for the
# checks, which run after the job loop.
Record = collections.namedtuple("Record", "round index traced seconds code err path")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_threads():
    """Run BLAS and OpenMP on one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def declared(kind):
    """Metric names and units of *kind* ("end_to_end" or "per_layer") in
    BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_program():
    """Import isolab from ./src of the checkout, refusing any other copy."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "isolab", "cli.py")):
        fail("no isolab sources under ./src; run from the root of an isolab checkout")
    sys.path.insert(0, src)
    sys.path.insert(1, BENCH_DIR)
    import isolab
    if not os.path.abspath(isolab.__file__).startswith(src + os.sep):
        fail(f"imported isolab from {isolab.__file__}, not from ./src")


def machine_record():
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(starts):
    """Median wall time of a fresh interpreter up to ``isolab.cli``
    imported, over *starts* starts after one unmeasured start that fills
    the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, "-c", "import isolab.cli"]
    times = []
    for i in range(starts + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class JobLoop:
    """Runs jobs in a closed loop and records each run. The reports stay in
    files; nothing here reads them, so the loop's process holds only what
    the program itself allocates."""

    def __init__(self, work, tracer=None, calls=None):
        import jobs

        self.execute = jobs.execute
        self.work = work
        self.tracer = tracer
        self.calls = calls        # CallCounter checking the tracer, or None
        self.records = []
        self.profile = {}         # span name -> summed job_profile entries
        self.pairs_by_label = {}

    def _one(self, r, i, job, traced):
        from spans import add_counts, job_profile

        path = os.path.join(self.work, f"report-{len(self.records)}.json")
        if traced:
            self.tracer.install()
            try:
                with self.calls or contextlib.nullcontext():
                    (code, err), start = self.tracer.root(self.execute, job, path)
            finally:
                self.tracer.uninstall()
            _, t0, t1, _, _ = self.tracer.spans[start]
            for name, agg in job_profile(self.tracer.spans, start).items():
                add_counts(self.profile.setdefault(name, {}), agg)
            elapsed = t1 - t0
        else:
            t0 = time.perf_counter()
            code, err = self.execute(job, path)
            elapsed = time.perf_counter() - t0
        self.records.append(Record(r, i, traced, elapsed, code, err, path))
        return elapsed

    def run_job(self, r, i, job):
        if self.tracer is None:
            return self._one(r, i, job, False)
        # Alternate which run comes first per job type, so a warm-up
        # effect of the second run cancels in the overhead.
        seen = self.pairs_by_label.get(job.label, 0)
        self.pairs_by_label[job.label] = seen + 1
        order = (False, True) if seen % 2 == 0 else (True, False)
        return sum(self._one(r, i, job, traced) for traced in order)

    def run(self, rounds, seconds, min_jobs, whole_rounds):
        """Run jobs in round order until their summed time reaches
        *seconds* and *min_jobs* are done, stopping only at the end of a
        round if *whole_rounds*."""
        spent, done = 0.0, 0
        for r in itertools.count():
            for i, job in enumerate(rounds[r % len(rounds)]):
                spent += self.run_job(r, i, job)
                done += 1
                if spent >= seconds and done >= min_jobs and not whole_rounds:
                    return
            if spent >= seconds and done >= min_jobs:
                return


def in_child(fn):
    """Run fn() in a forked child and return its result with the child's
    peak resident memory in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(rfd)
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(fn(), fh)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        fail("the job loop failed")
    return pickle.loads(data), usage.ru_maxrss / 1024.0


def check_records(rounds, records):
    """Check every recorded report against its reference and delete it.
    Returns the ok flag of each record, the failures, the search gaps, the
    digest of the first round's plain reports and the report bytes of the
    traced runs."""
    import jobs

    oks, failures, gaps = [], [], []
    round0 = hashlib.sha256()
    traced_bytes = 0
    pair = {}                     # (round, index) -> (ok, report digest)
    for rec in records:
        job = rounds[rec.round % len(rounds)][rec.index]
        with open(rec.path, "rb") as fh:
            text = fh.read()
        os.remove(rec.path)
        ok, reason, gap = jobs.check(job, rec.code, text, rec.err)
        oks.append(ok)
        if gap is not None:
            gaps.append(gap)
        if not ok:
            failures.append(f"{job.label} {' '.join(job.argv) or job.path}: {reason}")
        if rec.round == 0 and not rec.traced:
            round0.update(text)
        if rec.traced:
            traced_bytes += len(text)
        digest = hashlib.sha256(text).digest()
        other = pair.pop((rec.round, rec.index), None)
        if other is None:
            pair[(rec.round, rec.index)] = (ok, digest)
        elif ok and other[0] and digest != other[1]:
            failures.append(f"{job.label}: traced report differs from the plain one")
    return oks, failures, gaps, round0.hexdigest(), traced_bytes


def tail_percentile(n_jobs):
    """The highest percentile with ten jobs beyond it in a run of *n_jobs*
    jobs, the workload's generated rounds: the 58th of 24, the 72nd of 36.
    It stays the same in a longer run, so a faster program that fits more
    jobs into --seconds is not measured at a higher percentile than its
    parent."""
    return 100.0 * (n_jobs - 10) / n_jobs


def tail(times, percentile):
    """Wall time at *percentile* (nearest rank)."""
    ordered = sorted(times)
    return ordered[math.ceil(percentile / 100.0 * len(ordered)) - 1]


def per_layer_metrics(profile, n_jobs, known):
    """Per-layer metrics of BENCHMARK.json from the summed profile of
    *n_jobs* traced jobs, starting from the *known* values; also returns
    each layer's share of traced job time."""
    from spans import LAYERS, ROOT

    def get(name, key):
        return profile.get(name, {}).get(key, 0)

    n = max(n_jobs, 1)
    values = dict(known)
    values["cli.self_s"] = get(ROOT, "self_s") / n
    values["circuits.apply_circuit_matrix.max_dim"] = get("circuits.apply_circuit_matrix", "max_dim")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(a["self_s"] for k, a in profile.items() if k.startswith(layer + ".")) / n
    restarts = get("channels.min_output_opnorm", "restarts")
    kraus_calls = get("channels.kraus_from_choi", "calls")
    values["channels.min_output_opnorm.evals_per_restart"] = (
        get("channels.min_output_opnorm", "evals") / restarts if restarts else 0.0)
    values["channels.kraus_from_choi.rank"] = (
        get("channels.kraus_from_choi", "rank") / kraus_calls if kraus_calls else 0.0)
    for name in declared("per_layer"):
        if name not in values:
            func, key = name.rsplit(".", 1)
            values[name] = get(func, key) / n
    total = sum(a["self_s"] for a in profile.values())
    shares = {"cli": values["cli.self_s"] * n / total}
    shares.update({layer: values[f"{layer}.self_s"] * n / total for layer in LAYERS})
    return values, shares


def run_workload(workload, seed, seconds, trace, setup_starts=SETUP_STARTS, max_rounds=None,
                 count_calls=False):
    """One benchmark run; returns (info, result) as dicts. The job loop
    runs in a forked child; the reports are checked after it has ended."""
    import inputs
    from spans import CallCounter, Tracer

    work = os.path.join(WORK_ROOT, f"{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    setup = measure_setup(setup_starts) if not trace else None
    rounds = inputs.generate(workload, seed, work)
    n_jobs = sum(len(r) for r in rounds)
    percentile = tail_percentile(n_jobs)
    if max_rounds is not None:
        rounds = rounds[:max_rounds]
    whole_rounds = trace or max_rounds is not None
    min_jobs = len(rounds[0]) if whole_rounds else n_jobs
    spans_path = os.path.join(WORK_ROOT, f"spans-{workload}-{seed}.jsonl")

    def loop():
        tracer = Tracer() if trace else None
        calls = CallCounter(tracer) if count_calls else None
        runner = JobLoop(work, tracer, calls)
        # Warm the CLI path (click, the parser, lazy numpy imports) untimed.
        warm = inputs.Job("cli", "validate", ["validate", rounds[0][0].argv[1]])
        runner.execute(warm, os.path.join(work, "warm.json"))
        runner.run(rounds, seconds, min_jobs, whole_rounds)
        out = {"records": runner.records, "profile": runner.profile}
        if trace:
            tracer.write(spans_path)
        if calls is not None:
            out["reached"] = sorted(calls.counts)
            out["coverage_problems"] = calls.problems()
        return out

    out, peak_mb = in_child(loop)
    records = out["records"]
    oks, failures, gaps, digest, traced_bytes = check_records(rounds, records)
    failed = len(failures)
    info = {
        "workload": workload,
        "seed": seed,
        "machine": machine_record(),
        "round0_digest": digest,
        "failures": failures[:10],
        # End-to-end metrics that BENCHMARK.json does not bound: a share
        # that is 0 when all is well, and the search quality, which the
        # job checks bound instead.
        "metrics": {"failed_share": {"value": failed / len(records), "unit": "share"}},
    }
    if gaps:
        info["metrics"]["search_gap"] = {"value": max(gaps), "unit": "opnorm"}
    if trace:
        traced = [r.seconds for r in records if r.traced]
        plain = [r.seconds for r in records if not r.traced]
        known = {
            "cli.report_bytes": traced_bytes / len(traced),
            "search_gap": max(gaps, default=0.0),
            "trace_overhead": sum(traced) / sum(plain) - 1.0,
        }
        values, shares = per_layer_metrics(out["profile"], len(traced), known)
        info["shares"] = shares
        info["trace_overhead"] = values["trace_overhead"]
        if count_calls:
            info["reached"] = out["reached"]
            info["coverage_problems"] = out["coverage_problems"]
        units = declared("per_layer")
    else:
        times = [r.seconds for r, ok in zip(records, oks) if ok] or [0.0]
        values = {
            "jobs_per_s": sum(oks) / sum(r.seconds for r in records),
            "job_s_p50": statistics.median(times),
            "job_s_tail": tail(times, percentile),
            "setup_s": setup,
            "peak_rss_mb": peak_mb,
        }
        info["samples"] = {"jobs": sum(oks), "tail_percentile": percentile,
                           "setup_starts": setup_starts}
        units = declared("end_to_end")
    shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}}
    return info, result


def smoke():
    """Run every workload briefly (one round plain, one traced) and assert
    that every metric is emitted with its unit, that the traced run has a
    span for every call into a wrapped function (counted independently by
    the profile hook), and that two runs give the same report digest."""
    import inputs

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(inputs.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from inputs.WORKLOADS")
    for workload in sorted(inputs.WORKLOADS):
        info, plain = run_workload(workload, 0, 0, trace=False, setup_starts=2, max_rounds=1)
        tinfo, traced = run_workload(workload, 0, 0, trace=True, max_rounds=1, count_calls=True)
        for out in (info, plain, tinfo, traced):
            print(json.dumps(out, sort_keys=True))
        for res, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            for name, unit in declared(kind).items():
                got = res["metrics"].get(name)
                if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload}: metric {name} missing or without unit {unit}")
        extra = {"failed_share": "share"}
        if workload != "dense-4q":
            extra["search_gap"] = "opnorm"
        for name, unit in extra.items():
            if info["metrics"].get(name, {}).get("unit") != unit:
                problems.append(f"{workload}: metric {name} missing or without unit {unit}")
        if info["round0_digest"] != tinfo["round0_digest"]:
            problems.append(f"{workload}: report digest differs between two runs")
        problems += [f"{workload}: {p}" for p in info["failures"] + tinfo["failures"]]
        problems += [f"{workload}: {p}" for p in tinfo["coverage_problems"]]
        if not tinfo["reached"]:
            problems.append(f"{workload}: no wrapped function reached")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly and assert the metric set")
    args = parser.parse_args(argv)
    pin_threads()
    import_program()
    if args.smoke:
        return smoke()
    import inputs
    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(inputs.WORKLOADS)}")
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
