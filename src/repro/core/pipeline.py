"""High-level study facade.

Bundles the full measurement stack -- world, Tranco list, social-media
platform, toplist crawler and the analyses -- behind one object, so
examples and benchmark harnesses can reproduce a paper figure in a few
lines. Everything stays deterministic via the study seed.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stream -> pipeline)
    from repro.stream import StreamingStudyEngine

from repro.cache import (
    ArtifactCache,
    Fingerprint,
    digest_domains,
    resolve_cache,
)
from repro.core.adoption import AdoptionSeries, month_starts
from repro.core.marketshare import MarketShareCurve, marketshare_by_toplist_size
from repro.core.switching import SwitchingFlows
from repro.core.vantage import VantageTable
from repro.crawler.platform import (
    CaptureStore,
    NetographPlatform,
    PlatformConfig,
)
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.spill import Store
from repro.crawler.storage import store_digest
from repro.crawler.toplist_crawl import (
    CONFIG_NAMES,
    ToplistCrawler,
    ToplistCrawlResult,
)
from repro.faults import FaultSchedule, RetryPolicy
from repro.obs import Observability, resolve_obs
from repro.toplist.tranco import TrancoList, build_tranco
from repro.web.worldgen import World, WorldConfig

_T = TypeVar("_T")


@dataclass(frozen=True)
class StudyConfig:
    """Scale knobs of a reproduction run.

    The defaults are sized for interactive use (a world of 20k domains
    and a 1k toplist run in seconds); the benchmark harnesses scale them
    up towards the paper's dimensions.
    """

    seed: int = 7
    n_domains: int = 20_000
    toplist_size: int = 1_000
    events_per_day: int = 400
    study_start: dt.date = dt.date(2018, 3, 1)
    study_end: dt.date = dt.date(2020, 9, 30)
    #: Social-crawl worker count (>= 1); 1 keeps the plain serial
    #: loop, more run shards on a process pool. The toplist crawl and
    #: the streaming engine always run serially.
    parallelism: int = 1
    #: The worker pool behind ``parallelism > 1``; ``"process"`` is the
    #: only one.
    backend: str = "process"
    #: Chaos schedule injected into every crawl phase; ``None`` keeps
    #: runs bit-identical to a build without :mod:`repro.faults`.
    faults: Optional[FaultSchedule] = None
    #: Backoff policy for retrying injected transient faults.
    retry: Optional[RetryPolicy] = None
    #: Artifact-cache directory (:mod:`repro.cache`); ``None`` disables
    #: caching. Not part of any fingerprint -- moving the cache, like
    #: changing ``parallelism``, cannot change results.
    cache_dir: Optional[str] = None
    #: Streaming-engine checkpoint cadence in ingested days (``study
    #: --follow``); 0 checkpoints only on request. An execution knob
    #: like ``parallelism``: never part of a fingerprint, cannot change
    #: results.
    checkpoint_every_days: int = 0
    #: Crawl-phase memory budget in resident capture rows: stores spill
    #: full segments to disk past this bound (:mod:`repro.crawler.spill`)
    #: and peak RSS stops scaling with the study size. ``None`` keeps
    #: every row in memory. An execution knob like ``parallelism``:
    #: never part of a fingerprint, cannot change results (spilling is
    #: bit-invisible; digest equality is pinned by ``tests/test_scale.py``).
    memory_budget: Optional[int] = None

    def __post_init__(self) -> None:
        # Execution knobs that cannot work fail here, not deep in a run
        # that would silently fall back to serial or to no spilling.
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.backend != "process":
            raise ValueError(
                f"unknown backend {self.backend!r}; the only backend is "
                "'process'"
            )
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                "memory_budget must be >= 1 row or None, got "
                f"{self.memory_budget}"
            )
        if self.checkpoint_every_days < 0:
            raise ValueError(
                "checkpoint_every_days must be >= 0, got "
                f"{self.checkpoint_every_days}"
            )


class Study:
    """One fully wired reproduction study."""

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or StudyConfig()
        #: Observability sink threaded through crawls (defaults to the
        #: no-op backend; results are bit-identical either way).
        self.obs = resolve_obs(obs)
        #: Persistent artifact cache (``None`` when ``cache_dir`` unset).
        #: Hits are bit-identical to cold computes by construction; see
        #: :mod:`repro.cache` for the invalidation model.
        self.cache: Optional[ArtifactCache] = resolve_cache(
            self.config.cache_dir, self.obs
        )
        #: ``PlatformStats`` of the most recent ``run_social_crawl``.
        self.last_crawl_stats = None
        self.world = World(
            WorldConfig(
                seed=self.config.seed,
                n_domains=self.config.n_domains,
                study_start=self.config.study_start,
                study_end=self.config.study_end,
            )
        )

    # ------------------------------------------------------------------
    @cached_property
    def tranco(self) -> TrancoList:
        """The Tranco list of this study's world, served from the cache
        when one is set (it is a pure function of the world)."""
        return self._cached(
            lambda: self.fingerprint("toplist"),
            lambda: build_tranco(self.world),
            lambda payload: TrancoList.from_payload(self.world, payload),
        )

    # ------------------------------------------------------------------
    # Cache fingerprints
    # ------------------------------------------------------------------
    def fingerprint(
        self, stage: str, key: Sequence[str] = (), **fields: object
    ) -> Fingerprint:
        """The cache fingerprint of one *stage* artifact of this study.

        Digests every result-affecting study knob: the scale/seed
        fields, the study window, the fault-schedule digest and the
        retry policy. ``parallelism``, ``backend`` and ``cache_dir``
        are deliberately absent -- the determinism contract guarantees
        results are bit-identical across them, so a cache entry written
        by a 16-worker process run serves a serial rerun.
        """
        cfg = self.config
        return Fingerprint.build(
            stage,
            key=tuple(key),
            seed=cfg.seed,
            n_domains=cfg.n_domains,
            toplist_size=cfg.toplist_size,
            events_per_day=cfg.events_per_day,
            study_start=cfg.study_start.isoformat(),
            study_end=cfg.study_end.isoformat(),
            faults=cfg.faults.digest() if cfg.faults is not None else "none",
            retry=repr(cfg.retry) if cfg.retry is not None else "none",
            **fields,
        )

    def _cached(
        self,
        fingerprint: Callable[[], Fingerprint],
        compute: Callable[[], _T],
        decode: Callable[[object], _T],
    ) -> _T:
        """One JSON stage's result: decoded from the cache entry under
        ``fingerprint()`` on a hit, else computed (and, with a cache,
        saved through its ``to_payload()``). The fingerprint is built
        only when there is a cache to look it up in."""
        if self.cache is None:
            return compute()
        key = fingerprint()
        payload = self.cache.load_payload(key)
        if payload is not None:
            return decode(payload)
        result = compute()
        self.cache.save_payload(key, result.to_payload())
        return result

    @cached_property
    def toplist_domains(self) -> List[str]:
        return self.tranco.top(self.config.toplist_size)

    # ------------------------------------------------------------------
    # Crawling
    # ------------------------------------------------------------------
    def platform(self) -> NetographPlatform:
        """A fresh social platform of this study: share stream seed
        ``seed + 1``, crawl seed ``seed + 2``, and the study's faults,
        retry policy and memory budget. The batch crawl and the
        streaming engine both crawl through it."""
        cfg = self.config
        return NetographPlatform(
            self.world,
            stream=SocialShareStream(
                self.world,
                StreamConfig(
                    seed=cfg.seed + 1, events_per_day=cfg.events_per_day
                ),
            ),
            config=PlatformConfig(
                seed=cfg.seed + 2,
                faults=cfg.faults,
                retry=cfg.retry,
                memory_budget=cfg.memory_budget,
            ),
            obs=self.obs,
        )

    def run_social_crawl(
        self,
        start: Optional[dt.date] = None,
        end: Optional[dt.date] = None,
    ) -> Store:
        """Run the social-media platform over a window (default: the
        whole study period). With a cache, a hit loads the window's
        store -- bit-identical to a crawl, under the same memory budget
        -- and skips the crawl; a miss crawls and saves the store."""
        platform = self.platform()
        self.last_crawl_stats = platform.stats
        start = start or self.config.study_start
        end = end or self.config.study_end
        fingerprint = None
        if self.cache is not None:
            fingerprint = self.fingerprint(
                "social-crawl",
                key=(start.isoformat(), end.isoformat()),
            )
            store = self.cache.load_capture_store(
                fingerprint, self.config.memory_budget
            )
            if store is not None:
                return store
        store = platform.run(start, end, workers=self.config.parallelism)
        if fingerprint is not None:
            self.cache.save_capture_store(fingerprint, store)
        return store

    def streaming_engine(
        self, *, resume: bool = False, **kwargs
    ) -> "StreamingStudyEngine":
        """An incremental follow engine for this study (`study --follow`).

        The engine consumes the share stream day by day and keeps the
        adoption/marketshare/vantage results current at its watermark;
        caught up to day N it is byte-identical to a batch run over days
        0..N (see :mod:`repro.stream`). ``resume=True`` restores the
        newest checkpoint from the study cache instead of starting cold.
        ``checkpoint_every_days`` from the config is the default cadence;
        *kwargs* forward to :class:`StreamingStudyEngine`. The engine
        ingests serially, so a ``parallelism`` above 1 is rejected
        rather than silently ignored.
        """
        from repro.stream import StreamingStudyEngine

        if self.config.parallelism > 1:
            raise ValueError(
                "the streaming engine ingests one day at a time on one "
                f"worker; parallelism must be 1, got {self.config.parallelism}"
            )
        kwargs.setdefault(
            "checkpoint_every", self.config.checkpoint_every_days
        )
        if resume:
            return StreamingStudyEngine.from_checkpoint(self, **kwargs)
        return StreamingStudyEngine(self, **kwargs)

    def run_toplist_crawl(
        self,
        when: dt.date,
        configs: Sequence[str] = CONFIG_NAMES,
        size: Optional[int] = None,
    ) -> ToplistCrawlResult:
        domains = (
            self.toplist_domains
            if size is None
            else self.tranco.top(size)
        )
        crawler = ToplistCrawler(
            self.world,
            obs=self.obs,
            faults=self.config.faults,
            retry=self.config.retry,
        )
        return crawler.run(domains, when, configs)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def adoption_series(
        self,
        store: CaptureStore,
        restrict_to_toplist: bool = True,
    ) -> AdoptionSeries:
        restrict = set(self.toplist_domains) if restrict_to_toplist else None
        # Content-addressed on the input store: the digest covers
        # exactly what save_store persists, so any upstream change
        # (window, faults, code) flows through automatically.
        return self._cached(
            lambda: self.fingerprint(
                "adoption",
                key=("toplist" if restrict_to_toplist else "all",),
                store=store_digest(store),
                restrict=(
                    digest_domains(self.toplist_domains)
                    if restrict_to_toplist
                    else "none"
                ),
            ),
            lambda: AdoptionSeries.from_columnar(store, restrict),
            AdoptionSeries.from_payload,
        )

    def monthly_dates(self) -> List[dt.date]:
        return month_starts(self.config.study_start, self.config.study_end)

    def marketshare_curve(
        self, date: dt.date, **kwargs
    ) -> MarketShareCurve:
        return self._cached(
            lambda: self.fingerprint(
                "marketshare",
                key=(date.isoformat(),),
                params=repr(sorted(kwargs.items())),
            ),
            lambda: marketshare_by_toplist_size(
                self.world, self.tranco, date, **kwargs
            ),
            MarketShareCurve.from_payload,
        )

    def switching_flows(self, series: AdoptionSeries) -> SwitchingFlows:
        return SwitchingFlows.from_timelines(series.timelines)

    def build_graph(
        self,
        store: Optional[CaptureStore] = None,
        *,
        gvl_versions: Optional[Sequence] = None,
        ranking_depth: Optional[int] = None,
    ):
        """The consent ecosystem graph of this study (:mod:`repro.graph`).

        Unifies the capture store (``CAPTURED``/``OBSERVES`` edges), the
        Tranco ranking and its worldgen ground truth (``RANK``/
        ``ADOPTED``), CrUX-shaped per-country lists and, when given, a
        GVL version history, behind one query surface. Always built:
        building is no slower than loading a cached payload was.
        """
        from repro.graph import build_study_graph
        from repro.toplist.providers import per_country_toplists

        depth = min(
            self.config.toplist_size if ranking_depth is None else ranking_depth,
            len(self.tranco),
        )
        with self.obs.span("graph.build", depth=depth) as span:
            graph = build_study_graph(
                store=store,
                world=self.world,
                tranco=self.tranco,
                ranking_depth=depth,
                country_toplists=per_country_toplists(
                    self.world, self.tranco, max_rank=depth
                ),
                gvl_versions=gvl_versions,
            )
            span.set(nodes=graph.n_nodes, edges=graph.n_edges)
        return graph

    def vantage_table(self, when: dt.date, size: Optional[int] = None) -> VantageTable:
        """Table 1 for date *when*; a cache hit skips the toplist crawl
        (all six configurations) entirely."""
        top = size if size is not None else self.config.toplist_size
        return self._cached(
            lambda: self.fingerprint(
                "vantage",
                key=(when.isoformat(), f"top{top}"),
                configs=",".join(CONFIG_NAMES),
            ),
            lambda: VantageTable.from_crawl(
                self.run_toplist_crawl(when, size=size)
            ),
            VantageTable.from_payload,
        )
