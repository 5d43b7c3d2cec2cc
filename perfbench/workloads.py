"""The four benchmark workloads and their output checks.

Each workload builds its inputs once (``setup``), then ``call`` runs one
closed-loop request through the same public entry points ``repro mc``
and ``repro census`` use, and ``check`` returns the list of output-check
failures for one result.  All workloads run the MAJORITY rule, radius 1,
with memory.

Imported only after ``run.py`` has put the checkout's ``src/`` on the
import path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.analysis.census as census_mod
import repro.mc.engine as mc_engine
from repro.core.automaton import CellularAutomaton
from repro.core.rules import MajorityRule
from repro.mc import McKernel
from repro.perf.attractor import AttractorKernel
from repro.spaces.line import Ring

CENSUS_N = 26
CENSUS_WORKERS = 2


def fixed_point_count(n: int) -> int:
    """a(n) = 2 a(n-1) - a(n-2) + a(n-4), a(3..6) = 2, 6, 12, 20.

    MAJORITY-with-memory ring fixed points, computed without running any
    census, so it is an independent check of the census.
    """
    if n < 3:
        raise ValueError(f"recurrence starts at n=3, got {n}")
    a = {3: 2, 4: 6, 5: 12, 6: 20}
    for m in range(7, n + 1):
        a[m] = 2 * a[m - 1] - a[m - 2] + a[m - 4]
    return a[n]


def call_seed(seed: int, i: int) -> int:
    """Sample-stream seed of call ``i`` of a run with workload ``seed``."""
    return seed * 1_000_003 + i


# -- Monte-Carlo -----------------------------------------------------------------


@dataclass
class McWorkload:
    name: str
    n: int
    schedule: str
    why: str
    kind: str = "mc"
    unit: str = "samples"

    def make_kernel(self, seed: int) -> McKernel:
        return McKernel(
            MajorityRule(), self.n, schedule=self.schedule, family="uniform",
            seed=seed,
        )

    def setup(self, seed: int) -> "McState":
        kernel = self.make_kernel(call_seed(seed, 0))
        return McState(seed=seed, lanes=kernel.lanes, sizing=self.sizing(kernel))

    @staticmethod
    def sizing(kernel: McKernel) -> dict:
        return {
            "n": kernel.n,
            "lanes": kernel.lanes,
            "words_per_node": kernel.nwords,
            "transient_bytes": kernel.transient_bytes(),
        }

    def prepare(self, state: "McState", i: int) -> McKernel:
        """The kernel of call ``i``: a fresh seeded sample stream."""
        return self.make_kernel(call_seed(state.seed, i))

    def call(self, state: "McState", kernel: McKernel):
        """One batch of ``lanes`` samples through ``build_mc_estimate``."""
        return mc_engine.build_mc_estimate(kernel, state.lanes)

    def work(self, state: "McState") -> int:
        return state.lanes

    def expected(self, state: "McState") -> dict:
        want = {"samples": state.lanes, "undecided": 0}  # Proposition 1
        if self.schedule == "sweep":
            # Theorem 1: a sequential sweep always reaches a fixed point.
            want["fixed_point"] = state.lanes
        return want

    def check(self, state: "McState", partial, expect=None) -> list[str]:
        if not partial.complete:
            return [f"incomplete estimate: {partial.reason}"]
        c = partial.value["counts"]
        fails = [
            f"{key} {c[key]} != {want}"
            for key, want in (expect or self.expected(state)).items()
            if c[key] != want
        ]
        if c["fixed_point"] + c["two_cycle"] + c["undecided"] != c["samples"]:
            fails.append("fixed_point + two_cycle + undecided != samples")
        return fails


@dataclass
class McState:
    seed: int
    lanes: int
    sizing: dict


# -- exact attractor census ------------------------------------------------------


@dataclass
class CensusWorkload:
    name: str
    backend: str
    workers: int | None
    why: str
    n: int = CENSUS_N
    kind: str = "census"
    unit: str = "configs"

    def make_automaton(self) -> tuple[CellularAutomaton, AttractorKernel]:
        ca = CellularAutomaton(
            Ring(self.n), MajorityRule(), memory=True, backend=self.backend,
            workers=self.workers,
        )
        ca.backend  # resolve the lazily built sweep backend now
        return ca, AttractorKernel(ca)

    def setup(self, seed: int) -> "CensusState":
        ca, kernel = self.make_automaton()
        transient = kernel.transient_bytes() * (self.workers or 1)
        return CensusState(
            seed=seed, ca=ca, kernel=kernel,
            sizing={
                "n": self.n,
                "configurations": 1 << self.n,
                "quotient": kernel.quotient.mode,
                "workers": self.workers or 1,
                "transient_bytes": transient,
            },
        )

    def prepare(self, state: "CensusState", i: int) -> None:
        return None

    def call(self, state: "CensusState", _):
        return census_mod.build_attractor_census(state.ca, kernel=state.kernel)

    def work(self, state: "CensusState") -> int:
        return 1 << self.n

    def expected(self, state: "CensusState") -> dict:
        return {
            "configurations": 1 << self.n,
            "fixed_points": fixed_point_count(self.n),
            "two_cycle_configs": 2 if self.n % 2 == 0 else 0,
            "max_cycle_len": 2 if self.n % 2 == 0 else 1,
        }

    def check(self, state: "CensusState", partial, expect=None) -> list[str]:
        if not partial.complete:
            return [f"incomplete census: {partial.reason}"]
        row = partial.value.summary()
        fails = [
            f"{key} {row[key]} != {want}"
            for key, want in (expect or self.expected(state)).items()
            if row[key] != want
        ]
        if state.reference is not None and row != state.reference:
            fails.append(f"row {row} != serial row {state.reference}")
        return fails


@dataclass
class CensusState:
    seed: int
    ca: CellularAutomaton
    kernel: AttractorKernel
    sizing: dict
    #: serial census row a sharded run must equal field for field
    reference: dict | None = field(default=None)


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            "mc-ring-1e6", 10**6, "parallel",
            "headline scale: one 64-lane word per node, so energy popcount "
            "and per-row step overhead dominate",
        ),
        McWorkload(
            "mc-sweep-4096", 4096, "sweep",
            "sequential (SCA) semantics: 256 words per node and a per-node "
            "step loop instead of the tiled parallel step",
        ),
        CensusWorkload(
            "census-ring-26", "bitplane", None,
            "exact census on the serial backend: quotient enumeration and "
            "Brent classify, no mc code",
        ),
        CensusWorkload(
            "census-ring-26-x2", "process", CENSUS_WORKERS,
            "the same census sharded over 2 supervised workers, what auto "
            "picks for n >= 22; the only perf.process workload",
        ),
    )
}
