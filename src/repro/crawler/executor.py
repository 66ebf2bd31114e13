"""Parallel crawl executor.

The real platform performed 161M crawls over 2.5 years (Section 3.2) --
a workload that only makes sense spread over many machines. This module
is the reproduction's equivalent substrate: it runs independent
*shards* of a crawl on a process pool and hands their results back in
order, resuming a shard whose worker crashed from its checkpoint.

The key enabler is **order-independent determinism**. Every source of
randomness in a crawl is derived from stable keys -- the page render from
``(world seed, url, date, visitor)``, the vantage/delay assignment from
``(platform seed, url, share time)`` -- so a crawl's outcome never
depends on how many crawls ran before it, and the dedup rules key only
on the URL and its domain. The social platform therefore shards by
site: each worker owns one partition of the sites and runs it over the
whole window (:mod:`repro.crawler.platform`), and serial and parallel
runs of the same seed produce *identical* observation sets for any
worker count. ``tests/test_executor.py`` enforces this contract.

The worker count is the only parallelism knob. One worker crawls inline
(the platform's serial loop, which never calls :func:`map_shards`); more
workers each run one shard on a
:class:`~concurrent.futures.ProcessPoolExecutor`. Shard specs carry the
:class:`~repro.web.worldgen.WorldConfig`, never the world: a worker
resolves it through a per-process world cache, which fork-started
workers inherit from the parent (:func:`world_ref_for_backend`) and
spawn-started ones fill by regenerating the world -- cheap, because
generation is lazy and per-site deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.faults.inject import WorkerCrash
from repro.memo import BoundedMemo
from repro.web.worldgen import World, WorldConfig

T = TypeVar("T")
R = TypeVar("R")

#: A shard crashing more often than this is a bug, not chaos.
MAX_RESUMES = 8


@dataclass(frozen=True)
class ShardStats:
    """Counters for one executed shard."""

    shard_id: int
    #: Tasks assigned to the shard: for a social partition, the
    #: candidate share events it owns (its crash point's task count).
    tasks: int
    #: Crawls the shard stored (one per accepted event).
    crawls: int
    failures: int
    #: Wall-clock seconds spent inside the shard function.
    seconds: float
    #: Times the shard's worker crashed and was resumed from its
    #: checkpoint (0 outside chaos runs).
    resumes: int = 0
    #: Pickled size of the shard's payload in bytes. Social specs ship
    #: a world config, a window and the carried-over cooldowns, never
    #: events -- the benchmarks report it per shard to keep
    #: serialization regressions attributable.
    payload_bytes: int = 0


@dataclass
class ExecutorStats:
    """What a sharded run did, surfaced next to the platform counters."""

    workers: int
    shards: List[ShardStats] = field(default_factory=list)
    #: Wall-clock of the whole fan-out (pool setup + shards + collection).
    wall_seconds: float = 0.0
    #: Time spent merging the shards' results into the caller's.
    merge_seconds: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def crawls(self) -> int:
        return sum(s.crawls for s in self.shards)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.shards)

    @property
    def resumes(self) -> int:
        """Worker crashes recovered by checkpoint/resume."""
        return sum(s.resumes for s in self.shards)

    @property
    def busy_seconds(self) -> float:
        """Summed per-shard compute time (> wall_seconds when parallel)."""
        return sum(s.seconds for s in self.shards)

    @property
    def payload_bytes(self) -> int:
        """Total serialized payload shipped to workers."""
        return sum(s.payload_bytes for s in self.shards)

    def summary(self) -> str:
        return (
            f"{self.n_shards} partitions on {self.workers} worker "
            "process(es): "
            f"{self.crawls} crawls ({self.failures} failed), "
            f"{self.wall_seconds:.2f}s wall, {self.busy_seconds:.2f}s busy, "
            f"{self.merge_seconds:.3f}s merge"
        )


# ----------------------------------------------------------------------
# World transfer to workers
# ----------------------------------------------------------------------
#: Per-process cache of regenerated worlds, keyed by their config. A
#: long-lived worker process serving studies with many distinct configs
#: (e.g. a test session, or a benchmark sweeping scales) used to pin
#: every world it ever built; a small bound keeps the last few configs
#: while letting abandoned worlds be collected. Eviction is
#: bit-invisible: worlds regenerate from their config.
_WORLD_CACHE = BoundedMemo(maxsize=4)


def resolve_world(config: WorldConfig) -> World:
    """The world a shard spec's *config* names, inside a worker.

    A fork-started worker finds the parent's registered world in the
    cache; otherwise the world is regenerated once per process.
    """
    world = _WORLD_CACHE.get(config)
    if world is None:
        # First materialization in this process (a spawn-started worker
        # arrives with every memoization cache cold): compile the
        # process-global PSL now, so its one-time rule-compile cost
        # lands in worker setup rather than inside the first shard's
        # crawl timing.
        from repro.net.psl import default_psl

        default_psl()
        world = World(config)
        # A process-local memo: the world is a deterministic function of
        # its config, so every process stores an equal value.
        _WORLD_CACHE[config] = world  # repro-lint: disable=RACE001
    return world


def world_ref_for_backend(world: World) -> WorldConfig:
    """The handle shard specs carry for *world*: its config.

    The world itself is registered in the resolver cache first, so
    worker processes forked after this call inherit it (lazily warmed,
    copy-on-write) instead of regenerating their own.
    """
    _WORLD_CACHE[world.config] = world
    return world.config


# ----------------------------------------------------------------------
# The process pool
# ----------------------------------------------------------------------
# Wall-duration measurement only: the values feed ShardStats/benchmark
# reporting, never a crawl decision or a deterministic artifact.
# A WorkerCrash is returned instead of raised so the timing of the
# partial execution survives and the caller can resume the slot.
def _timed_call(
    fn: Callable[[T], R], payload: T
) -> Tuple[Union[R, WorkerCrash], float]:
    start = time.perf_counter()  # repro-lint: disable=DET002
    try:
        result: Union[R, WorkerCrash] = fn(payload)
    except WorkerCrash as crash:
        result = crash
    return result, time.perf_counter() - start  # repro-lint: disable=DET002


#: Builds the payload that resumes a crashed shard from its checkpoint.
ResumeFn = Callable[[T, WorkerCrash], T]


def map_shards(
    fn: Callable[[T], R],
    payloads: Sequence[T],
    workers: int,
    resume: Optional[ResumeFn] = None,
    max_resumes: int = MAX_RESUMES,
) -> Tuple[List[R], List[float], float, List[int]]:
    """Run *fn* over *payloads* on a pool of up to *workers* processes.

    Returns ``(results, per-shard seconds, total wall seconds,
    per-shard resume counts)``, in payload order. *fn* must be a
    module-level callable, and payloads and results must pickle.

    Shard functions may die mid-shard by raising
    :class:`~repro.faults.inject.WorkerCrash` (chaos schedules do this
    deterministically). With a *resume* builder the crashed slot is
    re-submitted, as soon as its crash arrives, with a payload resumed
    from the crash's checkpoint -- completed work is never recomputed,
    and because every crawl is order-independent the resumed shard's
    results are bit-identical to an uninterrupted run. Without one a
    crash propagates like any other worker error.
    """
    # Duration stats only, not crawl-visible state.
    start = time.perf_counter()  # repro-lint: disable=DET002
    if not payloads:
        return [], [], 0.0, []
    n = len(payloads)
    slots: List[T] = list(payloads)
    results: List[R] = [None] * n  # type: ignore[list-item]
    seconds = [0.0] * n
    resumes = [0] * n
    with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
        running = {
            pool.submit(_timed_call, fn, p): i for i, p in enumerate(slots)
        }
        while running:
            done, _pending = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                outcome, secs = future.result()
                seconds[i] += secs
                if isinstance(outcome, WorkerCrash):
                    slots[i] = _resumed(
                        slots[i], outcome, resume, resumes[i], max_resumes
                    )
                    resumes[i] += 1
                    running[pool.submit(_timed_call, fn, slots[i])] = i
                else:
                    results[i] = outcome
    wall = time.perf_counter() - start  # repro-lint: disable=DET002
    return results, seconds, wall, resumes


def _resumed(
    payload: T,
    crash: WorkerCrash,
    resume: Optional[ResumeFn],
    resumes_so_far: int,
    max_resumes: int,
) -> T:
    """The payload that continues *payload* past *crash*."""
    if resume is None:
        raise crash
    if resumes_so_far >= max_resumes:
        raise RuntimeError(
            f"shard {crash.shard_id} crashed {resumes_so_far + 1} "
            f"times; giving up after {max_resumes} resumes"
        ) from crash
    return resume(payload, crash)
