"""Benchmark runner: one workload, one process, closed loop, one caller.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mc-ring-1e6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` reports the end-to-end metrics with nothing wrapped;
``--trace 1`` runs half the time untraced and half with spans recorded
around each layer's public functions (see ``spans.py``) and reports the
per-layer metrics.  Human-readable lines go first; the last line of
standard output is the JSON result.  Spans and the environment and
sizing record are written under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 5


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"run.py: no program source at {SRC}/repro")
    sys.path.insert(0, SRC)


# -- set-up probes (run in a fresh interpreter) ----------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Time ``import`` of the program and the workload's construction."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    t1 = time.perf_counter()
    state = workloads.WORKLOADS[name].setup(seed)
    t2 = time.perf_counter()
    del state
    print(json.dumps({"import_s": t1 - t0, "construct_s": t2 - t1}))


def run_setup_probes(name: str, seed: int) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# -- environment and sizing record ---------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    import platform

    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = (_read(f"{base}/{idx}/level") or "").strip()
        kind = (_read(f"{base}/{idx}/type") or "").strip()
        size = (_read(f"{base}/{idx}/size") or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def _commit() -> str:
    """HEAD of the checkout's git metadata, read as files (no git call)."""
    head = (_read(os.path.join(ROOT, ".git", "HEAD")) or "").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref))
        if sha:
            return sha.strip()
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return head or "unknown (not a git checkout)"


def environment(wl, state) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": _commit(),
        "workers": getattr(wl, "workers", None) or 1,
        "workload": wl.name,
        "seed": state.seed,
        "seed_used": wl.kind == "mc",
        "sizing": state.sizing,
    }


# -- the closed loop -------------------------------------------------------------


class Loop:
    """Closed-loop caller: the next call starts when the last returns."""

    def __init__(self, wl, state):
        self.wl, self.state = wl, state
        self.results: list = []  # (result or None, error or None)
        self.index = 0

    def call(self) -> float:
        arg = self.wl.prepare(self.state, self.index)
        self.index += 1
        t0 = time.perf_counter()
        try:
            result, error = self.wl.call(self.state, arg), None
        except Exception as exc:  # a raising call is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.results.append((result, error))
        return dt

    def run_for(self, seconds: float, on_call=None) -> list[float]:
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            if on_call is not None:
                on_call(self.index)
            times.append(self.call())
        return times


def account(wl, state, results, expect=None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every call's output checks."""
    failed, messages = 0, []
    for i, (result, error) in enumerate(results):
        if error is None:
            try:
                fails = wl.check(state, result, expect)
            except Exception as exc:  # a crashing check is a failed check
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            fails = [error]
        if fails:
            failed += 1
            messages.append(f"call {i}: " + "; ".join(fails))
    return len(results), failed, messages


def serial_reference(wl, state) -> dict | None:
    """The serial census row a sharded census must equal field for field."""
    if getattr(wl, "backend", None) != "process":
        return None
    import workloads

    serial = workloads.CensusWorkload(
        "serial-reference", "bitplane", None, "", n=wl.n
    )
    try:
        partial = serial.call(serial.setup(state.seed), None)
    except Exception as exc:  # every sharded result then fails its check
        return {"serial reference raised": f"{type(exc).__name__}: {exc}"}
    return partial.value.summary() if partial.complete else {"incomplete": True}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile of ``values`` with at least ten samples beyond it.

    Below 22 samples that percentile would fall under the median, so the
    maximum stands in for it.
    """
    s = sorted(values)
    k = len(s) - 11
    if k < len(s) // 2:
        return s[-1], f"max of {len(s)}"
    return s[k], f"p{100 * (k + 1) // len(s)} of {len(s)}"


def peak_rss_mb() -> float:
    """Run process peak RSS plus the largest reaped child (the workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def stop_helpers() -> None:
    """Reap finished workers and stop the shared-memory resource tracker."""
    import multiprocessing

    multiprocessing.active_children()
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    except (ImportError, AttributeError, OSError):
        pass


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, state, seconds: float) -> tuple[dict, Loop]:
    loop = Loop(wl, state)
    loop.call()  # warm-up: page-in and first-touch, checked, not timed
    times = loop.run_for(seconds)
    rss = peak_rss_mb()  # before the set-up probes become children
    work = wl.work(state)
    state.reference = serial_reference(wl, state)
    probes = run_setup_probes(wl.name, state.seed)
    setup = statistics.median(p["import_s"] + p["construct_s"] for p in probes)
    med = statistics.median(times)
    metrics = {
        "setup_s": metric(setup, "s"),
        "rate_per_s": metric(work / med, "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    slow, slow_label = tail(times)
    print(f"# {wl.name}: {len(times)} timed calls of {work} {wl.unit}; "
          f"setup probes = {len(probes)}")
    print(f"# call time median {med:.4f} s ({work / med:.6g} {wl.unit}/s), "
          f"tail {slow_label} {slow:.4f} s ({work / slow:.6g} {wl.unit}/s)")
    print("# call_s: " + " ".join(f"{t:.4f}" for t in times))
    return metrics, loop


def per_layer(wl, state, seconds: float) -> tuple[dict, Loop]:
    import spans
    from repro import obs

    loop = Loop(wl, state)
    loop.call()  # warm-up
    base = loop.run_for(seconds / 2)
    before = obs.REGISTRY.snapshot()["counters"]
    recorder = spans.Recorder()
    saved = spans.install(recorder)
    first = loop.index

    def tag(i):
        recorder.run_id = i

    try:
        traced = loop.run_for(seconds / 2, on_call=tag)
    finally:
        spans.uninstall(saved)
    after = obs.REGISTRY.snapshot()
    state.reference = serial_reference(wl, state)
    probes = run_setup_probes(wl.name, state.seed)
    recorder.write(os.path.join(OUT, f"{wl.name}.spans.jsonl"))

    calls = len(traced)
    wall = sum(traced)
    busy, self_s, ncalls = recorder.durations()
    overhead = statistics.median(traced) / statistics.median(base) - 1.0
    span_cost = len(recorder.spans) * spans.cost_per_span() / wall
    unattributed = 1.0 - sum(self_s.values()) / wall

    def delta(key):
        return (after["counters"].get(key, 0) - before.get(key, 0)) / calls

    cell_updates, step_bytes = recorder.units("mc.step")
    codes, reps = recorder.units("quotient.enum")
    outcomes = [r.value["counts"] for r, e in loop.results[first:]
                if e is None and wl.kind == "mc" and r.complete]
    samples = sum(c["samples"] for c in outcomes)
    decided = sum(c["fixed_point"] + c["two_cycle"] for c in outcomes)
    m = {
        "import.repro_s": metric(statistics.median(p["import_s"] for p in probes), "s"),
        "setup.construct_s": metric(
            statistics.median(p["construct_s"] for p in probes), "s"),
        "mc.sampler.busy_s": metric(busy["mc.sampler"], "s"),
        "mc.step.busy_s": metric(busy["mc.step"], "s"),
        "mc.energy.busy_s": metric(busy["mc.energy"], "s"),
        "mc.merge.busy_s": metric(busy["mc.merge"], "s"),
        "mc.sampler.calls": metric(ncalls["mc.sampler"] / calls, "count"),
        "mc.step.calls": metric(ncalls["mc.step"] / calls, "count"),
        "mc.energy.calls": metric(ncalls["mc.energy"] / calls, "count"),
        "mc.classify.self_s": metric(self_s["mc.classify"], "s"),
        "mc.engine.self_s": metric(self_s["mc.engine"], "s"),
        "mc.step.cell_updates_per_s": metric(
            cell_updates / busy["mc.step"] if busy["mc.step"] else 0.0, "1/s"),
        "mc.step.bytes_computed": metric(step_bytes / calls, "B"),
        "mc.steps_per_batch": metric(
            ncalls["mc.step"] / ncalls["mc.sampler"] if ncalls["mc.sampler"] else 0.0,
            "ratio"),
        "mc.decided_frac": metric(decided / samples if samples else 0.0, "ratio"),
        "quotient.enum.busy_s": metric(busy["quotient.enum"], "s"),
        "quotient.weights.busy_s": metric(busy["quotient.weights"], "s"),
        "quotient.reps": metric(reps / calls, "count"),
        "quotient.rep_ratio": metric(reps / codes if codes else 0.0, "ratio"),
        "attractor.classify.busy_s": metric(busy["attractor.classify"], "s"),
        "attractor.classify.calls": metric(
            ncalls["attractor.classify"] / calls, "count"),
        "attractor.range.self_s": metric(self_s["attractor.range"], "s"),
        "census.merge.busy_s": metric(busy["census.merge"], "s"),
        "census.driver.self_s": metric(self_s["census.driver"], "s"),
        "process.sweep.busy_s": metric(busy["process.sweep"], "s"),
        "process.shards_done": metric(delta("perf.process.shards_done"), "count"),
        "process.redispatches": metric(delta("perf.process.redispatches"), "count"),
        "process.worker_deaths": metric(delta("perf.process.worker_deaths"), "count"),
        "process.degraded": metric(
            float(after["gauges"].get("perf.process.degraded", 0.0)), "count"),
        "trace.overhead_frac": metric(overhead, "ratio"),
        "trace.wall_s": metric(wall, "s"),
        "trace.span_cost_frac": metric(span_cost, "ratio"),
        "trace.unattributed_frac": metric(unattributed, "ratio"),
        "trace.calls": metric(float(calls), "count"),
    }
    print(f"# {wl.name}: {len(base)} untraced + {calls} traced calls; "
          f"{len(recorder.spans)} spans")
    print(f"# layer self times sum to {1 - unattributed:.6f} of traced wall; "
          f"|unattributed| {'<=' if abs(unattributed) <= abs(overhead) else '>'} "
          f"|trace.overhead_frac| = {abs(overhead):.4f}")
    return m, loop


# -- self-check of the output checks ---------------------------------------------


def self_check() -> int:
    """Feed one wrong expected value per check; it must count as a failure."""
    import workloads

    ok = True
    for wl in (
        workloads.CensusWorkload("self-census", "bitplane", None, "", n=12),
        workloads.McWorkload("self-mc", 12, "sweep", ""),
    ):
        state = wl.setup(0)
        state_arg = wl.prepare(state, 0)
        results = [(wl.call(state, state_arg), None)]
        right = wl.expected(state)
        key = next(k for k in right if k.startswith("fixed_point"))
        wrong = dict(right, **{key: right[key] + 1})
        good = account(wl, state, results, right)
        bad = account(wl, state, results, wrong)
        print(f"{wl.name}: right {good[:2]}, wrong {key} {bad[:2]} {bad[2]}")
        ok &= good[1] == 0 and bad[1] == 1
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    _import_program()
    if args.self_check:
        return self_check()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, loop = measure(wl, state, args.seconds)
    finally:
        stop_helpers()
    attempted, failed, messages = account(wl, state, loop.results)
    env = environment(wl, state)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}.env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    for msg in messages[:10]:
        print(f"# FAILED {msg}")
    print(f"# fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
