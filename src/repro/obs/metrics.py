"""Labeled metrics: counters, gauges, histograms.

The real platform's credibility rests on pipeline-internal numbers --
the ~40% queue skip rate (Section 3.4), per-vantage failure rates, the
capture-volume accounting behind the 161M-crawl corpus (Section 3.2).
This module is the registry those numbers flow through: call sites
register an instrument once (cheap dictionary entry) and update it on
the hot path (one dict write per update), and the registry exports a
deterministic JSONL snapshot plus a human-readable summary.

Naming convention (enforced by review, not code): snake_case
``<subsystem>_<quantity>_<unit>``, e.g. ``queue_submissions_total``,
``executor_shard_seconds``. Discrete breakdowns (dedup decision, CMP
key, crawl config) go into labels, not the metric name.

Disabled-mode cost is handled by :class:`NullMetricsRegistry`: it hands
out shared no-op instruments, so an uninstrumented run pays one no-op
method call per update and allocates nothing.

:func:`prometheus_text` renders instruments in the Prometheus text
exposition format 0.0.4 (the query server's ``/metrics``).
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ioutil import PathLike, atomic_write

#: Histogram bucket upper bounds (seconds-flavored; "+Inf" is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: one named instrument holding labeled series."""

    kind = "abstract"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def records(self) -> List[dict]:
        raise NotImplementedError

    def samples(self) -> List[str]:
        """Prometheus sample lines, in label-key order."""
        raise NotImplementedError


class _ValueMetric(Metric):
    """One number per labeled series (counters and gauges)."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def records(self) -> List[dict]:
        return [
            {
                "metric": self.name,
                "type": self.kind,
                "labels": dict(key),
                "value": value,
            }
            for key, value in sorted(self._series.items())
        ]

    def samples(self) -> List[str]:
        return [
            f"{self.name}{_prom_labels(key)} {float(value)!r}"
            for key, value in sorted(self._series.items())
        ]


def _prom_labels(key: LabelKey, le: Optional[str] = None) -> str:
    """``{k="v",...}`` with escaped values; ``le`` goes last."""
    pairs = list(key) + ([("le", le)] if le is not None else [])
    escaped = (
        (k, v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for k, v in pairs
    )
    return "{%s}" % ",".join(f'{k}="{v}"' for k, v in escaped) if pairs else ""


def prometheus_text(metrics: Iterable[Metric]) -> str:
    """*metrics* in the Prometheus text exposition format 0.0.4: a
    ``# HELP`` and ``# TYPE`` line per metric, then its samples."""
    lines: List[str] = []
    for metric in metrics:
        help_text = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {metric.name} {help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        lines.extend(metric.samples())
    return "".join(line + "\n" for line in lines)


class Counter(_ValueMetric):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + value

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        """Sum over all labeled series."""
        return sum(self._series.values())


class Gauge(_ValueMetric):
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = value

    def value(self, **labels: object) -> Optional[float]:
        return self._series.get(_label_key(labels))


class HistogramSeries:
    """Aggregates for one labeled histogram series."""

    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (n_buckets + 1)

    def observe(self, value: float, bounds: Sequence[float]) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # First bound >= value; past the last bound lands in +Inf.
        self.bucket_counts[bisect.bisect_left(bounds, value)] += 1

    def quantile(self, q: float, bounds: Sequence[float]) -> float:
        """The *q*-quantile (0..1) estimated from the bucket counts.

        Finds the bucket holding rank ``q * count`` and interpolates
        linearly between its bounds (Prometheus' ``histogram_quantile``
        rule), clamped to the observed min/max; 0.0 when empty. The
        error is at most one bucket's width.
        """
        if not self.count:
            return 0.0
        assert self.min is not None and self.max is not None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if n and seen + n >= rank:
                lo = bounds[i - 1] if i else 0.0
                hi = bounds[i] if i < len(bounds) else self.max
                estimate = lo + (hi - lo) * (rank - seen) / n
                return min(max(estimate, self.min), self.max)
            seen += n
        return self.max


class Histogram(Metric):
    """A distribution with fixed bucket bounds (non-cumulative counts)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._series: Dict[LabelKey, HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = HistogramSeries(len(self.buckets))
            self._series[key] = series
        series.observe(value, self.buckets)

    def series(self, **labels: object) -> Optional[HistogramSeries]:
        return self._series.get(_label_key(labels))

    def labeled_series(self) -> List[Tuple[Dict[str, str], HistogramSeries]]:
        """Every ``(labels, series)`` pair, in label-key order."""
        return [(dict(key), series) for key, series in sorted(self._series.items())]

    def samples(self) -> List[str]:
        """Cumulative ``_bucket`` lines (through ``le="+Inf"``), then
        ``_sum`` and ``_count``, per labeled series."""
        lines = []
        bounds = [repr(bound) for bound in self.buckets] + ["+Inf"]
        for key, series in sorted(self._series.items()):
            cumulative = 0
            for le, n in zip(bounds, series.bucket_counts):
                cumulative += n
                lines.append(
                    f"{self.name}_bucket{_prom_labels(key, le)} {cumulative}"
                )
            labels = _prom_labels(key)
            lines.append(f"{self.name}_sum{labels} {series.sum!r}")
            lines.append(f"{self.name}_count{labels} {series.count}")
        return lines

    def records(self) -> List[dict]:
        out = []
        for key, series in sorted(self._series.items()):
            buckets = {
                str(bound): n
                for bound, n in zip(self.buckets, series.bucket_counts)
            }
            buckets["+Inf"] = series.bucket_counts[-1]
            out.append(
                {
                    "metric": self.name,
                    "type": self.kind,
                    "labels": dict(key),
                    "count": series.count,
                    "sum": round(series.sum, 6),
                    "min": None if series.min is None else round(series.min, 6),
                    "max": None if series.max is None else round(series.max, 6),
                    "buckets": buckets,
                }
            )
        return out


class MetricsRegistry:
    """Home of all instruments; registration is idempotent by name."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Registration (cheap; call sites keep the returned instrument)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets)

    def _register(self, cls, name: str, help: str, *args):
        existing = self._metrics.get(name)
        if existing is None:
            metric = cls(name, help, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        return existing

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """All series of all instruments, deterministically ordered
        (metric name, then label key) -- byte-stable given equal state."""
        records: List[dict] = []
        for name in sorted(self._metrics):
            records.extend(self._metrics[name].records())
        return records

    def prometheus_text(self) -> str:
        """Every instrument, by name, in Prometheus text format."""
        return prometheus_text(self._metrics[name] for name in sorted(self._metrics))

    def write_jsonl(self, path: PathLike) -> int:
        """Atomically export the snapshot as JSON Lines; returns the
        record count."""
        records = self.snapshot()
        with atomic_write(path) as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        return len(records)

    def summary(self) -> str:
        """Human-readable digest, one line per labeled series."""
        lines = []
        for record in self.snapshot():
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(record["labels"].items())
            )
            name = record["metric"] + (f"{{{labels}}}" if labels else "")
            if record["type"] == "histogram":
                mean = record["sum"] / record["count"] if record["count"] else 0
                lines.append(
                    f"  {name:<52} count={record['count']} "
                    f"sum={record['sum']:.4f}s mean={mean:.4f}s"
                )
            else:
                value = record["value"]
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name:<52} {shown}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Null backend
# ----------------------------------------------------------------------
class NullCounter:
    __slots__ = ()
    total = 0

    def inc(self, value: float = 1, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0


class NullGauge:
    __slots__ = ()

    def set(self, value: float, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> None:
        return None


class NullHistogram:
    __slots__ = ()

    def observe(self, value: float, **labels: object) -> None:
        pass

    def series(self, **labels: object) -> None:
        return None


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry:
    """No-op registry: shared no-op instruments, empty exports."""

    enabled = False

    def counter(self, name: str, help: str = "") -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", buckets=()) -> NullHistogram:
        return _NULL_HISTOGRAM

    def get(self, name: str) -> None:
        return None

    def snapshot(self) -> List[dict]:
        return []

    def write_jsonl(self, path: PathLike) -> int:
        return 0

    def summary(self) -> str:
        return ""
