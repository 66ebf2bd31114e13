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
from typing import TYPE_CHECKING, List, Optional, Sequence

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
from repro.crawler.executor import BACKENDS, CrawlExecutor, ExecutorConfig
from repro.crawler.platform import (
    CaptureStore,
    NetographPlatform,
    PlatformConfig,
)
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.spill import SpillSettings
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
    #: loop. The toplist crawl always runs serially.
    parallelism: int = 1
    #: Worker-pool backend for ``parallelism > 1``: "thread" | "process".
    backend: str = "thread"
    #: Chaos schedule injected into every crawl phase; ``None`` keeps
    #: runs bit-identical to a build without :mod:`repro.faults`.
    faults: Optional[FaultSchedule] = None
    #: Backoff policy for retrying injected transient faults.
    retry: Optional[RetryPolicy] = None
    #: Artifact-cache directory (:mod:`repro.cache`); ``None`` disables
    #: caching. Not part of any fingerprint -- moving the cache, like
    #: changing ``parallelism``/``backend``, cannot change results.
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
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
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
    def executor(self) -> Optional[CrawlExecutor]:
        """The social-crawl executor implied by the parallelism knobs,
        if any."""
        if self.config.parallelism <= 1:
            return None
        return CrawlExecutor(
            ExecutorConfig(
                workers=self.config.parallelism,
                backend=self.config.backend,
            )
        )

    @cached_property
    def tranco(self) -> TrancoList:
        return build_tranco(self.world)

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

    @cached_property
    def toplist_domains(self) -> List[str]:
        return self.tranco.top(self.config.toplist_size)

    # ------------------------------------------------------------------
    # Crawling
    # ------------------------------------------------------------------
    def run_social_crawl(
        self,
        start: Optional[dt.date] = None,
        end: Optional[dt.date] = None,
    ) -> CaptureStore:
        """Run the social-media platform over a window (default: the
        whole study period)."""
        platform = NetographPlatform(
            self.world,
            stream=SocialShareStream(
                self.world,
                StreamConfig(
                    seed=self.config.seed + 1,
                    events_per_day=self.config.events_per_day,
                ),
            ),
            config=PlatformConfig(
                seed=self.config.seed + 2,
                faults=self.config.faults,
                retry=self.config.retry,
                spill=(
                    SpillSettings(row_budget=self.config.memory_budget)
                    if self.config.memory_budget is not None
                    else None
                ),
            ),
            obs=self.obs,
        )
        self.last_crawl_stats = platform.stats
        start = start or self.config.study_start
        end = end or self.config.study_end
        fingerprint = None
        if self.cache is not None:
            fingerprint = self.fingerprint(
                "social-crawl",
                key=(start.isoformat(), end.isoformat()),
            )
        return platform.run(
            start,
            end,
            executor=self.executor,
            cache=self.cache,
            fingerprint=fingerprint,
        )

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
        *kwargs* forward to :class:`StreamingStudyEngine`.
        """
        from repro.stream import StreamingStudyEngine

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
        probe_fingerprint = None
        if self.cache is not None:
            probe_fingerprint = self.fingerprint(
                "toplist-probes",
                key=(f"top{len(domains)}",),
                domains=digest_domains(domains),
                retries=crawler.retries,
            )
        return crawler.run(
            domains,
            when,
            configs,
            cache=self.cache,
            probe_fingerprint=probe_fingerprint,
        )

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def adoption_series(
        self,
        store: CaptureStore,
        restrict_to_toplist: bool = True,
    ) -> AdoptionSeries:
        restrict = set(self.toplist_domains) if restrict_to_toplist else None
        fingerprint = None
        if self.cache is not None:
            # Content-addressed on the input store: the digest covers
            # exactly what save_store persists, so any upstream change
            # (window, faults, code) flows through automatically.
            fingerprint = self.fingerprint(
                "adoption",
                key=("toplist" if restrict_to_toplist else "all",),
                store=store_digest(store),
                restrict=(
                    digest_domains(self.toplist_domains)
                    if restrict_to_toplist
                    else "none"
                ),
            )
            payload = self.cache.load_payload(fingerprint)
            if payload is not None:
                return AdoptionSeries.from_payload(payload)
        series = AdoptionSeries.from_columnar(store, restrict)
        if fingerprint is not None:
            self.cache.save_payload(fingerprint, series.to_payload())
        return series

    def monthly_dates(self) -> List[dt.date]:
        return month_starts(self.config.study_start, self.config.study_end)

    def marketshare_curve(
        self, date: dt.date, **kwargs
    ) -> MarketShareCurve:
        fingerprint = None
        if self.cache is not None:
            fingerprint = self.fingerprint(
                "marketshare",
                key=(date.isoformat(),),
                params=repr(sorted(kwargs.items())),
            )
            payload = self.cache.load_payload(fingerprint)
            if payload is not None:
                return MarketShareCurve.from_payload(payload)
        curve = marketshare_by_toplist_size(
            self.world, self.tranco, date, **kwargs
        )
        if fingerprint is not None:
            self.cache.save_payload(fingerprint, curve.to_payload())
        return curve

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

        depth = (
            self.config.toplist_size
            if ranking_depth is None
            else min(ranking_depth, len(self.tranco))
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
        fingerprint = None
        if self.cache is not None:
            top = size if size is not None else self.config.toplist_size
            fingerprint = self.fingerprint(
                "vantage",
                key=(when.isoformat(), f"top{top}"),
                configs=",".join(CONFIG_NAMES),
            )
            payload = self.cache.load_payload(fingerprint)
            if payload is not None:
                return VantageTable.from_payload(payload)
        table = VantageTable.from_crawl(self.run_toplist_crawl(when, size=size))
        if fingerprint is not None:
            self.cache.save_payload(fingerprint, table.to_payload())
        return table
