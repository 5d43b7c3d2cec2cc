"""Governed streaming Monte-Carlo estimation.

:func:`build_mc_estimate` runs through the same governed sweep as the
exact attractor census (:func:`repro.perf.base.governed_direct_sweep`):
the same ``Partial`` honesty contract, pure-JSON frontier, budget-trip /
``--resume`` semantics, ``process``-shard path and fault-injection point,
but over a *sample* range instead of a code range — samples ``[lo, hi)``
of the deterministic seeded stream, always in whole lane-aligned batches,
so counts of disjoint ranges merge exactly and serial / sharded / resumed
runs are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.budget import Budget, Partial, resolve_budget
from repro.core.durable import durable_write_json, register_write_site
from repro.obs import inc, set_gauge, span

from repro.mc.estimators import (
    IDX,
    MC_COUNT_FIELDS,
    mc_estimates,
    merge_mc_counts,
    zero_mc_counts,
)
from repro.mc.kernel import McKernel
from repro.perf.base import governed_direct_sweep

__all__ = [
    "MC_SCHEMA",
    "build_mc_estimate",
    "round_samples",
    "write_mc_artifact",
]

MC_SCHEMA = "repro-mc/1"

#: batches folded per governed chunk (budget-trip / cancel granularity)
_CHUNK_BATCHES = 4

register_write_site(
    "mc.artifact", "streaming Monte-Carlo estimate artifact (mc.json)"
)


def round_samples(samples: int, lanes: int) -> int:
    """Round a sample request up to whole ``lanes``-wide batches."""
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return max(lanes, ((samples + lanes - 1) // lanes) * lanes)


def build_mc_estimate(
    kernel: McKernel,
    samples: int,
    budget: Budget | None = None,
    frontier: dict[str, object] | None = None,
    backend=None,
) -> Partial[dict]:
    """Governed MC estimate: complete, or truncated + resumable.

    ``backend`` is an optional sweep backend; a sharded one routes
    batches through the supervised ``process`` worker layer (worker
    death costs only the in-flight batch).  Anything else runs the
    kernel's serial loop — the kernel is already 64-way SWAR-parallel,
    so serial is the default even on multicore hosts.

    A ``frontier`` resumes only the run that recorded it: its automaton,
    seed, family, horizon, density, flips, lanes and rounded sample count
    must all match this run, else ``ValueError``.
    """
    budget = resolve_budget(budget)
    total = round_samples(samples, kernel.lanes)
    counts = zero_mc_counts()
    # Everything that decides which samples are drawn and how they are
    # classified (the rounded sample count is checked too).
    identity = {
        "kind": "mc",
        "n": kernel.n,
        "automaton": kernel.describe(),
        "seed": kernel.seed,
        "family": kernel.family,
        "horizon": kernel.horizon,
        "density": kernel.density,
        "flips": kernel.flips,
        "lanes": kernel.lanes,
    }
    # Disable the energy stream when no threshold form exists or the
    # exact integer power sums could overflow their int64 slots.
    bound = kernel.energy2_bound()
    if bound is None or total * (2 * bound) ** 2 >= 1 << 62:
        kernel.energy_enabled = False

    def _frontier(next_lo: int) -> dict[str, object]:
        return {
            **identity,
            "total": total,
            "next_lo": next_lo,
            "counts": [int(v) for v in counts],
        }

    def _stats() -> dict[str, int]:
        return {
            "samples_so_far": int(counts[IDX["samples"]]),
            "fixed_point_so_far": int(counts[IDX["fixed_point"]]),
            "two_cycle_so_far": int(counts[IDX["two_cycle"]]),
        }

    def _payload() -> dict[str, object]:
        return {
            "schema": MC_SCHEMA,
            "n": kernel.n,
            "samples": total,
            "automaton": kernel.describe(),
            "rule": kernel.rule.name,
            "schedule": kernel.schedule,
            "family": kernel.family,
            "seed": kernel.seed,
            "horizon": kernel.horizon,
            "lanes": kernel.lanes,
            "energy_enabled": bool(kernel.energy_enabled),
            "counts": {
                name: int(counts[i]) for i, name in enumerate(MC_COUNT_FIELDS)
            },
            "estimates": mc_estimates(
                counts, energy_enabled=kernel.energy_enabled
            ),
        }

    with span(
        "mc.estimate",
        n=kernel.n,
        samples=total,
        family=kernel.family,
        schedule=kernel.schedule,
        budget=budget.describe(),
    ) as mc_span:
        next_lo, reason = governed_direct_sweep(
            kernel,
            counts,
            budget,
            frontier,
            identity=identity,
            total=total,
            step=kernel.lanes * _CHUNK_BATCHES,
            merge=merge_mc_counts,
            fault_site="mc.chunk",
            backend=backend,
        )
        if reason is not None:
            mc_span.set(truncated=reason, explored=next_lo)
            return Partial.truncated(
                reason,
                explored=next_lo,
                total=total,
                stats=_stats(),
                frontier=_frontier(next_lo),
            )
        decided = int(counts[IDX["fixed_point"]]) + int(counts[IDX["two_cycle"]])
        inc("mc.runs")
        prior = int(frontier["counts"][IDX["samples"]]) if frontier else 0
        inc("mc.samples", int(counts[IDX["samples"]]) - prior)
        set_gauge(
            "mc.fixed_point_rate",
            int(counts[IDX["fixed_point"]]) / total if total else 0.0,
        )
        set_gauge(
            "mc.two_cycle_rate",
            int(counts[IDX["two_cycle"]]) / total if total else 0.0,
        )
        mc_span.set(
            fixed_point=int(counts[IDX["fixed_point"]]),
            two_cycle=int(counts[IDX["two_cycle"]]),
            undecided=total - decided,
        )
        return Partial.done(
            _payload(), explored=total, total=total, stats=_stats()
        )


def write_mc_artifact(path, payload: dict) -> None:
    """Durably write a ``repro-mc/1`` artifact (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    durable_write_json(path, payload, site="mc.artifact", sort_keys=True)
