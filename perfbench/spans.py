"""Span tracer that times isolab's layers from outside the program.

While installed, every public function of the library modules, every
public method of their classes and the ``DensityMatrix`` constructor is
replaced by a wrapper that records a span
(name, start, end, parent) and, for a few functions, counters taken from
the call's arguments and result. Each function is replaced under every
name that refers to it in any isolab module, so calls from one module into
another are seen. Spans stay in memory; ``write`` stores them at the end.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("circuits", "linalg", "channels", "protocol", "reduction")
ROOT = "job"


def _apply_counts(args, kwargs, result):
    # The register peak is counted here rather than by Circuit.qubit_counts,
    # which is wrapped too: the tracer makes no spans of its own.
    circuit = args[0]
    n_ref = args[2] if len(args) > 2 else kwargs.get("n_ref", 0)
    n = peak = circuit.input_qubits
    for gate in circuit.gates:
        n += {"AddAncilla": 1, "TraceOut": -1}.get(type(gate).__name__, 0)
        peak = max(peak, n)
    return {"gates": len(circuit.gates), "max_dim": 2 ** (peak + n_ref)}


def _density_counts(args, kwargs, result):
    return {"bytes": 16 * args[0].matrix.shape[0] ** 2}


def _kraus_counts(args, kwargs, result):
    return {"rank": len(result.operators)}


def _search_counts(args, kwargs, result):
    restarts = args[1] if len(args) > 1 else kwargs.get("restarts", 16)
    return {"restarts": max(1, int(restarts))}


def add_counts(total, counts):
    """Add *counts* into *total*; ``max_dim`` keeps the maximum."""
    for key, val in counts.items():
        total[key] = max(total.get(key, 0), val) if key == "max_dim" else total.get(key, 0) + val


COUNTERS = {
    "circuits.apply_circuit_matrix": _apply_counts,
    "linalg.DensityMatrix": _density_counts,
    "channels.kraus_from_choi": _kraus_counts,
    "channels.min_output_opnorm": _search_counts,
}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall()
    restores the originals."""

    def __init__(self):
        self.spans = []           # (name, start, end, parent index, counters)
        self.originals = {}       # span name -> original function
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if counter is not None:
                spans[idx] = (name, t0, t1, parent, counter(args, kwargs, result))
            return result

        self.originals[name] = fn
        return wrapper

    def install(self):
        import isolab
        import isolab.cli

        modules = [importlib.import_module(f"isolab.{m}") for m in LAYERS]
        namespaces = modules + [isolab, isolab.cli]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, key, wrapper)
            for cname, cls in list(vars(mod).items()):
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    self._wrap_methods(f"{layer}.{cname}", cls)
        dm = importlib.import_module("isolab.linalg").DensityMatrix
        self._patch(dm, "__init__", self._wrap("linalg.DensityMatrix", dm.__init__))

    def _wrap_methods(self, prefix, cls):
        """Wrap the public plain methods and classmethods of *cls*."""
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", val))
            elif isinstance(val, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", val.__func__)))

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for ns, key, obj in reversed(self._undo):
            setattr(ns, key, obj)
        self._undo.clear()

    def root(self, fn, *args):
        """Run fn(*args) under a root span named ``job``; return its result
        and the index of the root span."""
        start = len(self.spans)
        self.spans.append(None)
        self._stack.append(start)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[start] = (ROOT, t0, t1, -1, None)
        return result, start

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": names, "fields": ["name", "start", "end", "parent"]}) + "\n")
            for name, t0, t1, parent, _ in self.spans:
                fh.write(f"[{ids[name]},{t0!r},{t1!r},{parent}]\n")


def job_profile(spans, start):
    """Per-name totals of the spans of one job, which begin at index
    *start* with the root span: self time (duration minus the time direct
    children cover), calls, summed counters, and the number of
    top_eigenpair calls made under the mixing search."""
    out = {}
    child = [0.0] * (len(spans) - start)
    in_search = [False] * (len(spans) - start)
    for i in range(start, len(spans)):
        name, t0, t1, parent, _ = spans[i]
        if parent >= start:
            child[parent - start] += t1 - t0
            in_search[i - start] = in_search[parent - start]
        if name == "channels.min_output_opnorm":
            in_search[i - start] = True
    for i in range(start, len(spans)):
        name, t0, t1, _, counts = spans[i]
        agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += (t1 - t0) - child[i - start]
        agg["calls"] += 1
        add_counts(agg, counts or {})
        if name == "linalg.top_eigenpair" and in_search[i - start]:
            search = out.setdefault("channels.min_output_opnorm", {"self_s": 0.0, "calls": 0})
            search["evals"] = search.get("evals", 0) + 1
    return out


class CallCounter:
    """Independent count of calls into the original functions behind the
    tracer's wrappers, taken with the interpreter's profile hook; it shows
    whether the wrappers see every call."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts = {}
        self._by_code = {}

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self._by_code.get(frame.f_code)
            if name is not None:
                self.counts[name] = self.counts.get(name, 0) + 1

    def __enter__(self):
        self._by_code = {fn.__code__: name for name, fn in self.tracer.originals.items()}
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

    def problems(self):
        """Functions whose calls and spans disagree in number."""
        spans = {}
        for name, *_ in self.tracer.spans:
            spans[name] = spans.get(name, 0) + 1
        return [f"{name}: {calls} calls but {spans.get(name, 0)} spans"
                for name, calls in sorted(self.counts.items()) if spans.get(name, 0) != calls]
