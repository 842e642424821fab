"""Counters, gauges, and deterministic log2 streaming histograms.

The registry follows the repo's determinism policy: every metric that
measures *work* (event counts, queue depths, op costs, virtual-time
latencies) is an exact function of the run and participates in the
registry's deterministic digest; metrics that measure *wall clock*
are flagged ``timing=True`` and excluded, so two runs of the same
spec produce byte-identical non-timing metric state.

:class:`LogHistogram` buckets observations by ``floor(log2(v))`` —
a fixed bucket layout needing no configuration, whose percentile
answers (nearest rank, bucket upper edge) are exact and deterministic
for any stream of values, with non-positive values collected in a
dedicated zero bucket (latency 0 is common: a task assigned in its
arrival epoch).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["Counter", "Gauge", "LogHistogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "timing", "value")

    def __init__(self, name: str, *, timing: bool = False):
        self.name = name
        self.timing = timing
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def render(self) -> str:
        return f"{self.name} = {self.value}"


class Gauge:
    """A last-value-wins measurement (active sessions, pool budget)."""

    kind = "gauge"
    __slots__ = ("name", "timing", "value", "updates")

    def __init__(self, name: str, *, timing: bool = False):
        self.name = name
        self.timing = timing
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value, "updates": self.updates}

    def render(self) -> str:
        return f"{self.name} = {self.value:g} ({self.updates} updates)"


class LogHistogram:
    """Streaming histogram over fixed ``floor(log2(v))`` buckets.

    ``observe(v)`` files ``v`` under bucket ``floor(log2(v))`` — i.e.
    the half-open range ``[2**b, 2**(b+1))`` — or under the dedicated
    zero bucket when ``v <= 0``.  :meth:`percentile` walks the sorted
    buckets to the nearest rank and answers the covering bucket's
    *upper edge* (0.0 for the zero bucket): a conservative, exact, and
    fully deterministic quantile bound that needs no stored samples.
    """

    kind = "histogram"
    __slots__ = ("name", "timing", "buckets", "zero_count", "count")

    def __init__(self, name: str = "", *, timing: bool = False):
        self.name = name
        self.timing = timing
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0

    def observe(self, value: float) -> None:
        """File one observation.

        Non-finite values are rejected with a typed
        :class:`~repro.errors.ConfigurationError` *before* any state
        changes: ``nan``/``inf`` have no log2 bucket, and silently
        counting them would skew every later percentile.
        """
        if not math.isfinite(value):
            raise ConfigurationError(
                f"histogram {self.name!r} cannot observe non-finite "
                f"value {value!r}"
            )
        self.count += 1
        if value <= 0:
            self.zero_count += 1
            return
        bucket = math.floor(math.log2(value))
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile upper bound (``q`` in [0, 100]).

        Returns 0.0 for an empty histogram or when the rank falls in
        the zero bucket.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count)) if q > 0 else 1
        rank = min(rank, self.count)
        seen = self.zero_count
        if rank <= seen:
            return 0.0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if rank <= seen:
                return float(2.0 ** (bucket + 1))
        return 0.0  # unreachable: counts always cover the rank

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "zero": self.zero_count,
            "buckets": {str(b): self.buckets[b] for b in sorted(self.buckets)},
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def render(self) -> str:
        return (
            f"{self.name} n={self.count} p50={self.percentile(50):g} "
            f"p95={self.percentile(95):g} p99={self.percentile(99):g}"
        )


class MetricsRegistry:
    """Named metrics, created on first touch, rendered sorted.

    ``timing=True`` metrics record wall clock: they are rendered for
    humans but excluded from :meth:`to_dict(include_timing=False)
    <to_dict>`, the deterministic view the bench suite digests.
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get(self, cls, name: str, timing: bool):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, timing=timing)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, *, timing: bool = False) -> Counter:
        return self._get(Counter, name, timing)

    def gauge(self, name: str, *, timing: bool = False) -> Gauge:
        return self._get(Gauge, name, timing)

    def histogram(self, name: str, *, timing: bool = False) -> LogHistogram:
        return self._get(LogHistogram, name, timing)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def state(self) -> dict:
        """Exact JSON-native internal state, for the process boundary.

        Unlike :meth:`to_dict` (a reporting view with derived
        percentiles), this captures every field a metric accumulates —
        including the ``timing`` flag and gauge update counts — so
        :meth:`merge_state` on an empty registry reproduces this one
        exactly.
        """
        out: dict = {}
        for name, metric in sorted(self._metrics.items()):
            entry: dict = {"kind": metric.kind, "timing": metric.timing}
            if metric.kind == "counter":
                entry["value"] = metric.value
            elif metric.kind == "gauge":
                entry["value"] = metric.value
                entry["updates"] = metric.updates
            else:
                entry["count"] = metric.count
                entry["zero"] = metric.zero_count
                entry["buckets"] = {
                    str(bucket): metric.buckets[bucket]
                    for bucket in sorted(metric.buckets)
                }
            out[name] = entry
        return out

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`state` into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (last-wins, matching :meth:`Gauge.set`) while accumulating
        update counts.  Merging per-shard worker registries in shard-id
        order therefore reproduces the serial drain's registry exactly:
        shard scopes prefix every metric name, so no two shards ever
        contend for one gauge.
        """
        for name, entry in state.items():
            kind = entry["kind"]
            timing = entry["timing"]
            if kind == "counter":
                self.counter(name, timing=timing).inc(entry["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, timing=timing)
                gauge.value = entry["value"]
                gauge.updates += entry["updates"]
            elif kind == "histogram":
                histogram = self.histogram(name, timing=timing)
                histogram.count += entry["count"]
                histogram.zero_count += entry["zero"]
                for bucket, count in entry["buckets"].items():
                    bucket = int(bucket)
                    histogram.buckets[bucket] = (
                        histogram.buckets.get(bucket, 0) + count
                    )
            else:
                raise ConfigurationError(
                    f"metric state {name!r} has unknown kind {kind!r}"
                )

    def to_dict(self, *, include_timing: bool = True) -> dict:
        """Sorted-name snapshot of every metric; with
        ``include_timing=False`` this is a deterministic function of
        the run (usable as an identity digest)."""
        return {
            name: metric.to_dict()
            for name, metric in sorted(self._metrics.items())
            if include_timing or not metric.timing
        }

    def render_lines(self) -> list[str]:
        """One human-readable line per metric, sorted by name."""
        return [
            self._metrics[name].render() for name in sorted(self._metrics)
        ]
