"""Vantage-point comparison over the toplist crawls (Tables 1 and A.3).

Counts the occurrence of each CMP in the Tranco 10k as measured from
every crawl configuration, and the per-configuration coverage relative
to the best configuration. The paper's findings reproduced here:

* crawling from the EU sees significantly more CMPs than from the US
  (geo-gated embeds);
* public-cloud address space misses ~10% of CMP dialogs behind anti-bot
  CDNs;
* the aggressive default timeout misses ~2%;
* browser language has no significant effect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cmps.base import CMP_KEYS, cmp_by_key
from repro.crawler.toplist_crawl import ToplistCrawlResult


@dataclass
class VantageTable:
    """Table 1 / Table A.3: CMP occurrence per crawl configuration."""

    #: Config name -> cmp key -> number of domains.
    counts: Dict[str, Counter]
    #: Config name -> set of domains with any CMP.
    cmp_domains: Dict[str, frozenset]

    @classmethod
    def from_crawl(cls, result: ToplistCrawlResult) -> "VantageTable":
        """Table 1 from a toplist crawl: per configuration, in crawl
        order, final captures count by final domain (so redirect
        targets are counted once) under the :class:`VantageAccumulator`
        rule."""
        accumulator = VantageAccumulator(result.rows)
        for config_name, rows in result.rows.items():
            for row in rows.values():
                accumulator.add(config_name, row.final_domain, row.cmp_key)
        return accumulator.table()

    @classmethod
    def from_stream_rows(
        cls, rows: Iterable[Tuple[str, str, Optional[str]]]
    ) -> "VantageTable":
        """Per-vantage CMP occurrence from social-stream capture rows.

        *rows* are ``(config_name, domain, cmp_key)`` in capture order
        -- for the social platform, the config name is the vantage
        string (``EU-cloud``/``US-cloud``). Same counting rule as
        :meth:`from_crawl`: the :class:`VantageAccumulator` fed to the
        end of *rows*.
        """
        accumulator = VantageAccumulator()
        for config_name, domain, cmp_key in rows:
            accumulator.add(config_name, domain, cmp_key)
        return accumulator.table()

    # ------------------------------------------------------------------
    # Cache serialization (repro.cache vantage artifacts)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serializable payload.

        Config and per-CMP counter insertion orders are preserved as
        ordered pair lists (``rows``/``format_table`` iterate them
        directly); ``cmp_domains`` sets are serialized sorted because
        frozenset iteration order is hash-randomized across processes.
        """
        return {
            "counts": [
                [name, [[k, n] for k, n in counter.items()]]
                for name, counter in self.counts.items()
            ],
            "cmp_domains": [
                [name, sorted(domains)]
                for name, domains in self.cmp_domains.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "VantageTable":
        """Exact inverse of :meth:`to_payload`."""
        return cls(
            counts={
                name: Counter(dict(pairs))
                for name, pairs in payload["counts"]
            },
            cmp_domains={
                name: frozenset(domains)
                for name, domains in payload["cmp_domains"]
            },
        )

    # ------------------------------------------------------------------
    def total(self, config_name: str) -> int:
        return sum(self.counts[config_name].values())

    @property
    def best_config(self) -> str:
        """The configuration observing the most CMP domains."""
        return max(self.counts, key=self.total)

    def coverage(self, config_name: str) -> float:
        """Coverage relative to the best configuration (Table 1's last
        row)."""
        best = self.total(self.best_config)
        return self.total(config_name) / best if best else 1.0

    def count(self, config_name: str, cmp_key: str) -> int:
        return self.counts[config_name][cmp_key]

    def rows(self) -> List[Tuple[str, Dict[str, int], int, float]]:
        """Per-config (name, per-CMP counts, total, coverage) rows."""
        return [
            (
                name,
                {k: self.counts[name][k] for k in CMP_KEYS},
                self.total(name),
                self.coverage(name),
            )
            for name in self.counts
        ]

    def format_table(self) -> str:
        """Render the table in the paper's layout (CMPs as rows)."""
        configs = list(self.counts)
        widths = [max(10, len(c)) for c in configs]
        header = "CMP".ljust(12) + "  ".join(
            c.rjust(w) for c, w in zip(configs, widths)
        )
        lines = [header]
        for key in CMP_KEYS:
            name = cmp_by_key(key).name
            lines.append(
                name.ljust(12)
                + "  ".join(
                    str(self.counts[c][key]).rjust(w)
                    for c, w in zip(configs, widths)
                )
            )
        lines.append(
            "Total".ljust(12)
            + "  ".join(
                str(self.total(c)).rjust(w) for c, w in zip(configs, widths)
            )
        )
        lines.append(
            "Coverage".ljust(12)
            + "  ".join(
                f"{self.coverage(c) * 100:.0f}%".rjust(w)
                for c, w in zip(configs, widths)
            )
        )
        return "\n".join(lines)


class VantageAccumulator:
    """Incremental :class:`VantageTable` state -- Table 1's one counting
    rule.

    Per crawl configuration, a domain is counted once, under the CMP of
    its most recent CMP-positive capture. The accumulator keeps the
    ``domain -> last CMP-positive key`` map per configuration, updated
    in O(1) per capture row; the batch constructors feed it to the end,
    the streaming engine row by row. Configurations and domains keep
    first-appearance order, so :meth:`table` serializes identically
    however the rows arrived. *configs* pre-registers configurations
    in order, so a configuration without captures keeps its (empty)
    column.
    """

    def __init__(self, configs: Iterable[str] = ()) -> None:
        #: config -> domain -> last CMP-positive key (or None if the
        #: domain has only ever been seen CMP-less from that config).
        self._seen: Dict[str, Dict[str, Optional[str]]] = {
            name: {} for name in configs
        }

    def add(
        self, config_name: str, domain: str, cmp_key: Optional[str]
    ) -> None:
        """Ingest one capture row (the streaming hot path)."""
        seen = self._seen.get(config_name)
        if seen is None:
            seen = self._seen[config_name] = {}
        if cmp_key is not None:
            seen[domain] = cmp_key
        elif domain not in seen:
            seen[domain] = None

    def table(self) -> VantageTable:
        """Materialize the table over every row ingested so far.

        The per-CMP counters are rebuilt from the maintained domain
        maps (O(domains seen), not O(rows)), walking domains in
        first-appearance order, so counter insertion order does not
        depend on when the table is taken.
        """
        counts: Dict[str, Counter] = {}
        cmp_domains: Dict[str, frozenset] = {}
        for config_name, seen in self._seen.items():
            per_cmp: Counter = Counter()
            detected = set()
            for domain, key in seen.items():
                if key is not None:
                    per_cmp[key] += 1
                    detected.add(domain)
            counts[config_name] = per_cmp
            cmp_domains[config_name] = frozenset(detected)
        return VantageTable(counts=counts, cmp_domains=cmp_domains)
