"""Sweep-backend protocol and the generic ``numpy`` reference backend.

A *sweep backend* computes whole-phase-space maps — the packed parallel
successor of every configuration in a range, or the packed single-node
(sequential) successors — for one bound automaton.  The engine
(:class:`repro.core.automaton.CellularAutomaton`) delegates its chunked
``step_all_range`` / ``node_successors`` hot paths to its backend, so the
governed builders in :mod:`repro.core.phase_space` and
:mod:`repro.core.nondet` are backend-agnostic: budgets, frontiers and
resume semantics are identical whichever kernel does the arithmetic.

Backends are duck-typed against the automaton: they read ``ca.n``,
``ca._windows`` / ``ca._lengths`` (the padded window matrix, sentinel
``ca.n`` = quiescent 0), ``ca.rule_at(i)`` and ``ca._rule_groups()`` —
which both the homogeneous and the heterogeneous engines provide.

*Direct kernels* — the exact attractor census
(:class:`repro.perf.attractor.AttractorKernel`) and the Monte-Carlo
estimator (:class:`repro.mc.kernel.McKernel`) — never build a successor
array: ``census_range(lo, hi)`` reduces a range to a fixed-size int64
counts vector, and counts of disjoint ranges ``merge`` exactly in any
order.  :func:`governed_direct_sweep` is their one governed sweep; the
attributes it and the sharded ``governed_sweep`` read are ``n``,
``census_range``, ``counts_slots``, ``merge``, ``transient_bytes()``,
``shard_align``, ``poll_chunk`` and ``shards_per_worker``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CHUNK",
    "MAX_SWEEP_N",
    "MAX_ATTRACTOR_N",
    "BackendUnsupported",
    "SweepBackend",
    "NumpyBackend",
    "governed_direct_sweep",
]

#: configurations processed per chunk in whole-space sweeps (2**16 keeps the
#: intermediate scratch of every backend in the tens of megabytes at most)
CHUNK = 1 << 16

#: hard ceiling on exact *materialized* whole-space sweeps: 2**28
#: successor entries are 2 GB of int64, the most a governed single-host
#: build can usefully hold (disk-backed frontiers included).  Above this,
#: go attractor-direct — or sample.
MAX_SWEEP_N = 28

#: hard ceiling on exact *attractor-direct* sweeps
#: (:mod:`repro.perf.attractor`).  No per-configuration array is ever
#: held — the census streams orbit representatives through bounded lane
#: batches — so this ceiling is set by scan time, not memory.
MAX_ATTRACTOR_N = 34


class BackendUnsupported(ValueError):
    """An explicitly requested backend cannot run the given automaton.

    The ``auto`` policy never raises this — it falls through to the next
    applicable backend; only a direct ``backend=...`` request surfaces it
    (the CLI renders it as a one-line error instead of a traceback).
    """


class SweepBackend:
    """One compiled sweep strategy bound to one automaton.

    Subclasses implement the three range kernels; ``supports`` is a
    classmethod returning ``None`` when the backend can handle the
    automaton and a human-readable reason when it cannot (the ``auto``
    policy falls through to the next backend on a reason).
    """

    name = "?"
    #: True for backends that split sweeps across worker processes; the
    #: governed builders hand those the whole range at once instead of
    #: driving the chunk loop themselves.  Sharded backends own their
    #: workers' failure semantics: a worker death must never corrupt the
    #: governed prefix — the backend either heals (re-dispatching the
    #: lost shards, possibly serially) or raises a typed error
    #: (``repro.perf.supervise.ShardFailed``); it never hangs and never
    #: returns a range it did not fully compute.
    is_sharded = False

    def __init__(self, ca):
        self.ca = ca

    @classmethod
    def supports(cls, ca) -> str | None:
        """``None`` if this backend can run ``ca``, else the reason not."""
        return None

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.ca.describe()})"

    # -- range kernels ---------------------------------------------------------

    def step_all_range(self, lo: int, hi: int) -> np.ndarray:
        """Packed synchronous successors of configurations ``lo .. hi-1``."""
        raise NotImplementedError

    def node_successors_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        """Packed successors under updating only node ``i``, for the range."""
        raise NotImplementedError

    def sweep_all_nodes_range(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Fill ``out[(n, hi-lo)]`` with every node's successor row at once.

        Backends override this to share the per-chunk setup (config
        unpacking, input planes) across all ``n`` rows — one pass over the
        range instead of ``n``.
        """
        for i in range(self.ca.n):
            out[i] = self.node_successors_range(i, lo, hi)

    def transient_bytes(self) -> int:
        """Peak per-chunk scratch bytes (for deterministic budget charging)."""
        raise NotImplementedError


class NumpyBackend(SweepBackend):
    """The generic window-gather backend: works for every space and rule.

    One bounded chunk = unpack the codes to uint8 bit vectors, gather each
    node's window through the padded window matrix, apply the vectorized
    rule.  This is the reference implementation the compiled backends are
    property-tested against (and the fallback when they do not apply).
    """

    name = "numpy"

    def _ext(self, lo: int, hi: int) -> np.ndarray:
        """Bit-unpacked configs with the trailing quiescent slot appended."""
        configs = self.ca._config_chunk(lo, hi)
        return np.concatenate(
            [configs, np.zeros((hi - lo, 1), dtype=np.uint8)], axis=1
        )

    def step_all_range(self, lo: int, hi: int) -> np.ndarray:
        ca = self.ca
        ext = self._ext(lo, hi)
        out = np.zeros(hi - lo, dtype=np.int64)
        for rule, nodes in ca._rule_groups():
            inputs = ext[:, ca._windows[nodes]]
            bits = rule.apply_windows(inputs, ca._lengths[nodes]).astype(np.int64)
            out |= bits @ (np.int64(1) << nodes.astype(np.int64))
        return out

    def _node_bits(self, ext: np.ndarray, i: int) -> np.ndarray:
        """New-state bit of node ``i`` for every config in the chunk."""
        ca = self.ca
        # Slice off rectangular padding: beyond the node's true window
        # length every entry is the quiescent slot, which fixed-arity
        # rules must not see as an extra input.
        window = ca._windows[i][: ca._lengths[i]]
        inputs = ext[:, window]
        return ca.rule_at(i).apply_windows(
            inputs, ca._lengths[i : i + 1]
        ).astype(np.int64)

    def node_successors_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        codes = np.arange(lo, hi, dtype=np.int64)
        new_bits = self._node_bits(self._ext(lo, hi), i)
        old_bits = (codes >> i) & 1
        return codes ^ ((old_bits ^ new_bits) << i)

    def sweep_all_nodes_range(self, lo: int, hi: int, out: np.ndarray) -> None:
        # The whole point: unpack the chunk once, then fill all n rows.
        codes = np.arange(lo, hi, dtype=np.int64)
        ext = self._ext(lo, hi)
        for i in range(self.ca.n):
            new_bits = self._node_bits(ext, i)
            old_bits = (codes >> i) & 1
            out[i] = codes ^ ((old_bits ^ new_bits) << i)

    def transient_bytes(self) -> int:
        n = self.ca.n
        k_max = self.ca._windows.shape[1]
        # configs + ext + gathered inputs (uint8 each), new (uint8),
        # packed output (int64)
        return CHUNK * ((n + 1) + n * k_max + n + 8)


def governed_direct_sweep(
    kernel,
    counts: np.ndarray,
    budget,
    frontier: dict | None,
    *,
    identity: dict,
    total: int,
    step: int,
    merge,
    fault_site: str,
    backend=None,
) -> tuple[int, str | None]:
    """Fold ``kernel.census_range`` over ``[start, total)`` into ``counts``.

    ``identity`` names the run (``kind``, ``n`` and whatever else decides
    its counts); the caller's frontier records it next to ``total``,
    ``next_lo`` and ``counts``.  A ``frontier`` resumes only a run with
    the same identity and ``total`` — anything else, a missing entry
    included, raises ``ValueError`` — and its counts are loaded into
    ``counts``.  A sharded ``backend`` then runs the rest through its
    supervised ``governed_sweep``; otherwise ``step``-wide chunks run
    serially, each admitted against the budget, probed at ``fault_site``,
    folded with ``merge`` (the caller's module-level name, so a wrapper
    installed there sees every fold) and charged one state per unit.
    Returns ``(next_lo, reason)``: ``reason`` is ``None`` when the range
    completed, else the budget trip and ``next_lo`` the resume point.
    """
    from repro.harness import faults

    start = 0
    if frontier is not None:
        for key, want in {**identity, "total": total}.items():
            if frontier.get(key) != want:
                raise ValueError(
                    f"frontier covers another run: its {key} is "
                    f"{frontier.get(key)!r}, this run has {want!r}"
                )
        prior = np.asarray(frontier.get("counts", []), dtype=np.int64)
        start = int(frontier.get("next_lo", -1))
        aligned = start % kernel.shard_align == 0 or start == total
        if prior.size != kernel.counts_slots or not (
            0 <= start <= total and aligned
        ):
            raise ValueError(
                f"frontier is malformed: {prior.size} count slots (expected "
                f"{kernel.counts_slots}), resume point {start} (expected "
                f"{total} or a {kernel.shard_align}-aligned point below it)"
            )
        counts[:] = prior
    if backend is not None and backend.is_sharded:
        return backend.governed_sweep(
            counts, budget, start=start, total=total, kernel=kernel
        )
    transient = kernel.transient_bytes()
    lo = start
    while lo < total:
        hi = min(lo + step, total)
        reason = budget.over(pending_bytes=transient, pending_states=hi - lo)
        if reason is not None:
            return lo, reason
        faults.inject(fault_site)
        merge(counts, kernel.census_range(lo, hi))
        budget.charge(states=hi - lo, bytes_=0)
        lo = hi
    return total, None
