"""Spans recorded from outside the program, around its layer functions.

:func:`install` swaps each traced public function for a wrapper that
records one span per call: name, start, end, parent span and run id
(the benchmark call it belongs to).  Spans stay in memory until
:meth:`Recorder.write` at the end of the run.  Wrappers are installed on
classes and modules, never on instances (``QuotientSpec`` is frozen),
and record nothing in forked workers or other threads — worker-side
spans are out of scope — so there they only pass the call through.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict


def _mc_step_units(args, _result):
    """(cell updates, computed bytes) of one ``McKernel.step`` call.

    Computed bytes count each input plane read once and the output plane
    written once: ``(width + 1) * n * words * 8``.  Cache misses are not
    measured, so these are computed, not moved, bytes.
    """
    kernel = args[0]
    plane = kernel.n * kernel.nwords * 8
    return kernel.n * kernel.lanes, (len(kernel.offsets) + 1) * plane


def _enum_units(args, result):
    """(codes scanned, representatives kept) of one enumeration call."""
    _n, lo, hi = args[:3]
    return max(0, hi - lo), int(result.size)


#: (span name, owner import path, attribute, work units of one call)
#: Units are a function of (args, result) feeding rates and computed bytes.
TRACED = (
    ("mc.engine", "repro.mc.engine", "build_mc_estimate", None),
    ("mc.sampler", "repro.mc.sampler", "sample_planes", None),
    ("mc.step", "repro.mc.kernel:McKernel", "step", _mc_step_units),
    ("mc.energy", "repro.mc.kernel:McKernel", "energy2", None),
    ("mc.classify", "repro.mc.kernel:McKernel", "census_range", None),
    ("mc.merge", "repro.mc.engine", "merge_mc_counts", None),
    ("census.driver", "repro.analysis.census", "build_attractor_census", None),
    ("quotient.enum", "repro.analysis.quotient", "orbit_reps_in_range", _enum_units),
    ("quotient.weights", "repro.analysis.quotient", "orbit_weights", None),
    ("attractor.range", "repro.perf.attractor:AttractorKernel", "census_range", None),
    ("attractor.classify", "repro.perf.attractor:AttractorKernel", "classify", None),
    ("census.merge", "repro.perf.attractor", "merge_counts", None),
    ("process.sweep", "repro.perf.process:ProcessBackend", "governed_sweep", None),
)


class Recorder:
    """In-memory span store with a parent stack; one per traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        #: [name, start, end, parent index, run id, units or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn, units):
        recorder = self

        def traced(*args, **kwargs):
            if (
                os.getpid() != recorder.pid
                or threading.get_ident() != recorder.thread
            ):
                return fn(*args, **kwargs)
            parent = recorder.stack[-1] if recorder.stack else -1
            idx = len(recorder.spans)
            rec = [name, time.perf_counter(), 0.0, parent, recorder.run_id, None]
            recorder.spans.append(rec)
            recorder.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                recorder.stack.pop()
            if units is not None:
                rec[5] = units(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def durations(self) -> tuple[dict, dict, dict]:
        """Per span name: busy (inclusive) seconds, self seconds, calls."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _rid, _u in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, t0, t1, _p, _rid, _u) in enumerate(self.spans):
            busy[name] += t1 - t0
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
        return busy, self_s, calls

    def units(self, name: str) -> tuple[int, int]:
        """Summed work units of every ``name`` span."""
        a = b = 0
        for rec in self.spans:
            if rec[0] == name and rec[5] is not None:
                a += rec[5][0]
                b += rec[5][1]
        return a, b

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, s, e, parent, rid, _u) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": s - t0, "end_s": e - t0,
                    "parent": parent, "run_id": rid,
                }) + "\n")


def cost_per_span(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, net of the bare call."""
    def noop():
        return None

    wrapped = Recorder().wrap("probe", noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every :data:`TRACED` function; returns what :func:`uninstall` needs."""
    saved = []
    for name, path, attr, units in TRACED:
        owner = _resolve(path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, raw))
        setattr(owner, attr, recorder.wrap(name, raw, units))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)
