"""Batched SWAR trajectory kernel: 64 sampled configurations per word.

The exact census packs 64 *consecutive codes* per uint64; here each bit
lane carries one *sampled* initial condition instead, and the state is an
``(n, lanes // 64)`` bitplane array — node-major, so a synchronous step
is ``n`` evaluations of the very same lowered bitwise kernel the sweep
backends compiled (:func:`repro.perf.bitplane.eval_bit_kernel`), chunked
over node tiles that keep the working set cache-sized even at n=10^6.

Each batch runs to the paper's dichotomy: Proposition 1 says a parallel
threshold orbit ends in a fixed point or a 2-cycle, so per-lane
classification needs only two trailing states — lane masks
``cur == nxt`` (fixed point, convergence time ``t``) and ``prev == nxt``
(2-cycle, entered at ``t - 1``).  Lanes still live at the step horizon
are counted ``undecided``, never guessed.

The kernel speaks the same direct-kernel shard protocol as the exact
census's :class:`~repro.perf.attractor.AttractorKernel` (``counts_slots``
/ ``census_range`` / ``merge`` / ``poll_chunk`` / ``shard_align`` /
``shards_per_worker``), so both run through one governed sweep
(:func:`repro.perf.base.governed_direct_sweep`) and one supervised
worker layer: a shard is just a lane-aligned slice of the deterministic
sample stream.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.rules import MajorityRule, SimpleThresholdRule, TableRule
from repro.mc import sampler
from repro.mc.estimators import (
    IDX,
    K_MC_COUNTS,
    merge_mc_counts,
    zero_mc_counts,
)
from repro.perf.base import BackendUnsupported
from repro.perf.bitplane import (
    eval_bit_kernel,
    lower_bit_kernel,
    unpack_lane_mask,
)
from repro.spaces.line import Ring

__all__ = ["McKernel", "MC_TILE_WORDS", "count_threshold"]

#: uint64 words per node tile of the synchronous step (~256 KiB per
#: input plane), the cache-sizing knob for huge rings
MC_TILE_WORDS = 1 << 15

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def count_threshold(rule, width: int):
    """Firing threshold of a monotone symmetric rule, or ``None``.

    Mirrors :meth:`repro.core.energy.ThresholdNetwork.from_automaton`
    exactly, so the kernel's integer energy agrees with the scalar
    Lyapunov implementation slot for slot.
    """
    if isinstance(rule, SimpleThresholdRule):
        return int(rule.threshold)
    if isinstance(rule, MajorityRule):
        return width // 2 + 1 if rule.ties == "zero" else (width + 1) // 2
    if isinstance(rule, TableRule):
        t = rule.function.as_count_threshold()
        return None if t is None else int(t)
    return None


class McKernel:
    """Monte-Carlo trajectory driver for one homogeneous threshold ring.

    Built directly from ``(rule, n, radius, memory)`` — setup is O(1) in
    ``n`` (no window materialization, no automaton object), which is what
    keeps ``repro mc --n 1000000`` instant to start.
    """

    def __init__(
        self,
        rule,
        n: int,
        radius: int = 1,
        memory: bool = True,
        *,
        schedule: str = "parallel",
        perm=None,
        family: str = "uniform",
        seed: int = 0,
        horizon: int | None = None,
        density: float = 0.5,
        flips: int = 1,
        lanes: int | None = None,
    ):
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            raise BackendUnsupported(
                "bit-plane packing assumes a little-endian host"
            )
        if n < 2 * radius + 1:
            raise ValueError(
                f"ring of {n} nodes cannot support radius {radius}; "
                f"need n >= {2 * radius + 1}"
            )
        if schedule not in ("parallel", "sweep"):
            raise ValueError(
                f"schedule must be 'parallel' or 'sweep', got {schedule!r}"
            )
        if family not in sampler.FAMILIES:
            raise ValueError(f"unknown sampler family {family!r}")
        self.rule = rule
        self.n = int(n)
        self.radius = int(radius)
        self.memory = bool(memory)
        self.schedule = schedule
        self.family = family
        self.seed = int(seed)
        self.density = float(density)
        self.flips = int(flips)
        self.width = 2 * self.radius + (1 if self.memory else 0)
        kern = lower_bit_kernel(rule, self.width)
        if kern is None:
            raise BackendUnsupported(
                f"rule {rule.name} has no bitwise lowering at width {self.width}"
            )
        self._kern = kern
        self.offsets = [
            d for d in range(-self.radius, self.radius + 1) if self.memory or d
        ]
        self.lanes = int(lanes) if lanes is not None else sampler.lanes_for(n)
        if self.lanes < 64 or self.lanes % 64:
            raise ValueError(
                f"lanes must be a positive multiple of 64, got {self.lanes}"
            )
        self.nwords = self.lanes // 64
        if perm is not None:
            perm = [int(i) for i in perm]
            if sorted(perm) != list(range(self.n)):
                raise ValueError("perm must be a permutation of range(n)")
        self.perm = perm if perm is not None else list(range(self.n))
        # Sequential sweeps converge within n(ish) sweeps (Theorem 1's flip
        # bound); parallel transients are O(n) too — 4n + 64 is a generous
        # default horizon with slack for tiny rings.
        self.horizon = int(horizon) if horizon is not None else 4 * self.n + 64
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.theta = count_threshold(rule, self.width)
        #: flipped off by the engine when theta is unknown or the integer
        #: power sums could overflow int64 at the requested sample count
        self.energy_enabled = self.theta is not None
        # shards and cancel polls both move in whole sample batches
        self.shard_align = self.poll_chunk = self.lanes

    # -- construction from an automaton (qa / tests) -------------------------

    @classmethod
    def supports(cls, ca) -> str | None:
        """Reason this automaton cannot run the MC kernel, or ``None``."""
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            return "bit-plane packing assumes a little-endian host"
        if not isinstance(ca.space, Ring):
            return f"monte-carlo kernel needs a ring space, got {ca.space.describe()}"
        rules = {id(ca.rule_at(i)) for i in range(ca.n)}
        if len(rules) > 1:
            return "monte-carlo kernel needs a homogeneous rule assignment"
        width = int(ca._lengths[0])
        if lower_bit_kernel(ca.rule_at(0), width) is None:
            return (
                f"rule {ca.rule_at(0).name} has no bitwise lowering "
                f"at window width {width}"
            )
        return None

    @classmethod
    def from_automaton(cls, ca, **kwargs) -> "McKernel":
        """Kernel over ``ca``'s rule/ring; raises when unsupported."""
        reason = cls.supports(ca)
        if reason is not None:
            raise BackendUnsupported(reason)
        return cls(
            ca.rule_at(0), ca.n, radius=ca.space.radius, memory=ca.memory, **kwargs
        )

    def describe(self) -> str:
        mem = "memory" if self.memory else "memoryless"
        return (
            f"mc[{self.rule.name} on Ring(n={self.n}, radius={self.radius}), "
            f"{mem}, {self.schedule}]"
        )

    # -- stepping -------------------------------------------------------------

    def step(self, planes: np.ndarray) -> np.ndarray:
        """One macro step of every lane: synchronous, or one full sweep."""
        if self.schedule == "sweep":
            return self._step_sweep(planes)
        return self._step_parallel(planes)

    def _step_parallel(self, planes: np.ndarray) -> np.ndarray:
        n, r = self.n, self.radius
        ext = np.concatenate([planes[n - r :], planes, planes[:r]], axis=0)
        out = np.empty_like(planes)
        tile = max(1, MC_TILE_WORDS // max(1, self.nwords))
        for t0 in range(0, n, tile):
            t1 = min(t0 + tile, n)
            inputs = [ext[t0 + r + d : t1 + r + d] for d in self.offsets]
            out[t0:t1] = eval_bit_kernel(
                self._kern, inputs, (t1 - t0, self.nwords)
            )
        return out

    def _step_sweep(self, planes: np.ndarray) -> np.ndarray:
        """One left-to-right sweep in ``perm`` order, all lanes at once.

        Node ``i`` reads the *current* (partially updated) plane — the
        fixed-permutation sequential semantics of the paper's SCA.
        """
        n = self.n
        out = planes.copy()
        for i in self.perm:
            inputs = [out[(i + d) % n] for d in self.offsets]
            out[i] = eval_bit_kernel(self._kern, inputs, self.nwords)
        return out

    # -- energy ---------------------------------------------------------------

    def energy2_bound(self):
        """Per-lane bound on ``|E2(x, x)|``, or ``None`` without a theta."""
        if self.theta is None:
            return None
        return (
            2 * abs(self.theta) * self.n
            + 2 * self.radius * self.n
            + (self.n if self.memory else 0)
        )

    def _lane_popcount(self, planes: np.ndarray) -> np.ndarray:
        """Per-lane column sums (int64) of a bitplane array."""
        out = np.zeros(self.lanes, dtype=np.int64)
        rows = max(1, (1 << 22) // max(1, self.lanes))
        for lo in range(0, planes.shape[0], rows):
            bits = np.unpackbits(
                np.ascontiguousarray(planes[lo : lo + rows]).view(np.uint8),
                axis=1,
                bitorder="little",
            )[:, : self.lanes]
            out += bits.sum(axis=0, dtype=np.int64)
        return out

    def energy2(self, planes: np.ndarray) -> np.ndarray:
        """Per-lane ``E2(x, x) = -x^T W x + 2 theta . x`` (int64).

        Exactly twice the scalar sequential Lyapunov of
        :mod:`repro.core.energy` — doubled so it stays an integer for
        odd thresholds.
        """
        if self.theta is None:
            raise BackendUnsupported(
                f"rule {self.rule.name} has no threshold form; energy disabled"
            )
        ones = self._lane_popcount(planes)
        acc = 2 * self.theta * ones
        for d in range(1, self.radius + 1):
            acc -= 2 * self._lane_popcount(planes & np.roll(planes, -d, axis=0))
        if self.memory:
            acc -= ones
        return acc

    # -- batch classification --------------------------------------------------

    @staticmethod
    def _lane_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Lane mask of lanes where the two states differ anywhere."""
        return np.bitwise_or.reduce(a ^ b, axis=0)

    def _run_batch(self, counts: np.ndarray, batch_lo: int) -> None:
        """Sample, run, and classify one ``lanes``-wide batch into counts."""
        planes = sampler.sample_planes(
            self.family,
            self.n,
            self.lanes,
            self.seed,
            batch_lo,
            density=self.density,
            flips=self.flips,
        )
        want_energy = self.energy_enabled
        x0 = planes.copy() if want_energy else None
        cur = planes
        prev = None
        done = np.zeros(self.nwords, dtype=np.uint64)
        fp_mask = np.zeros(self.nwords, dtype=np.uint64)
        two_mask = np.zeros(self.nwords, dtype=np.uint64)
        conv_t = np.zeros(self.lanes, dtype=np.int64)
        steps = 0
        for t in range(self.horizon):
            nxt = self.step(cur)
            steps += 1
            live_fp = ~self._lane_diff(cur, nxt) & ~done
            if live_fp.any():
                fp_mask |= live_fp
                done |= live_fp
                conv_t[unpack_lane_mask(live_fp)] = t
            if prev is not None:
                live_2c = ~self._lane_diff(prev, nxt) & ~done
                if live_2c.any():
                    two_mask |= live_2c
                    done |= live_2c
                    conv_t[unpack_lane_mask(live_2c)] = t - 1
            if (done == _ONES).all():
                cur = nxt
                break
            prev, cur = cur, nxt
        fp = unpack_lane_mask(fp_mask)
        two = unpack_lane_mask(two_mask)
        decided = fp | two
        counts[IDX["samples"]] += self.lanes
        counts[IDX["fixed_point"]] += int(fp.sum())
        counts[IDX["two_cycle"]] += int(two.sum())
        counts[IDX["undecided"]] += self.lanes - int(decided.sum())
        counts[IDX["steps"]] += steps
        ts = conv_t[decided]
        if ts.size:
            counts[IDX["conv_count"]] += ts.size
            counts[IDX["conv_sum"]] += int(ts.sum())
            counts[IDX["conv_sumsq"]] += int((ts * ts).sum())
            counts[IDX["conv_max"]] = max(
                int(counts[IDX["conv_max"]]), int(ts.max())
            )
        if want_energy and fp.any():
            # Fixed-point lanes hold their settled state in `cur` (further
            # steps are identity there), so the descent is exact.
            drop = (self.energy2(x0) - self.energy2(cur))[fp]
            counts[IDX["energy_count"]] += drop.size
            counts[IDX["energy_sum2"]] += int(drop.sum())
            counts[IDX["energy_sumsq4"]] += int((drop * drop).sum())

    # -- shard protocol --------------------------------------------------------

    counts_slots = K_MC_COUNTS
    shards_per_worker = 4
    merge = staticmethod(merge_mc_counts)

    def census_range(self, lo: int, hi: int) -> np.ndarray:
        """Counts over the lane-aligned sample range ``[lo, hi)``."""
        if lo % self.lanes or (hi - lo) % self.lanes:
            raise ValueError(
                f"sample range [{lo}, {hi}) is not {self.lanes}-lane aligned"
            )
        counts = zero_mc_counts()
        for blo in range(lo, hi, self.lanes):
            self._run_batch(counts, blo)
        return counts

    def transient_bytes(self) -> int:
        """Peak working-set estimate of one batch (planes + step scratch)."""
        plane = (self.n + 2 * self.radius) * self.nwords * 8
        return 6 * plane + 64 * self.lanes
