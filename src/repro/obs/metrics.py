"""Typed metrics: counters, gauges and histograms in a registry.

The registry is the aggregate half of the observability layer (the
:mod:`repro.obs.trace` tracer is the per-event half): instrumented code
asks the *active* registry for a metric by name and bumps it, and callers
read the whole state back as a :meth:`MetricsRegistry.snapshot` — a plain
nested dict that serializes to JSON and to OpenMetrics text
(:mod:`repro.obs.export`).

Design points:

- **Zero overhead when disabled.** The module-level default registry is a
  :class:`NullRegistry` whose metric constructors hand back one shared
  :class:`NullMetric`; every ``inc``/``set``/``observe``/``labels`` on it
  is a no-op. Hot paths additionally guard on ``registry.enabled`` before
  computing anything expensive to record.
- **Labels as children.** ``counter.labels(kernel="spmttkrp")`` returns a
  child metric keyed by the label values; the child holds the per-label
  value and mirrors increments/observations into the parent, so the
  parent is always the all-label total (the Prometheus shape, sized for a
  single process).
- **Snapshots are values, not live views.** ``snapshot()`` copies counts
  out, so a snapshot stays exact while simulation continues.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetric",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "SNAPSHOT_QUANTILES",
]

#: Default histogram bucket upper bounds (powers of ten; +inf is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7
)

#: Quantiles estimated in every histogram snapshot.
SNAPSHOT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class _Metric:
    """Shared name/label/child machinery of the concrete metric types.

    A labeled child keeps a backref to its parent and mirrors every update
    into it, so ``parent.value`` (or the parent distribution) is always
    the total across label combinations.
    """

    kind = "metric"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        parent: Optional["_Metric"] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._parent = parent
        self._children: Dict[Tuple[object, ...], "_Metric"] = {}

    def _make_child(self) -> "_Metric":
        raise NotImplementedError

    def labels(self, **labels: object) -> "_Metric":
        """The child metric for one label-value combination.

        Unknown or missing label names raise ``ValueError`` so typos fail
        loudly rather than silently forking a new series.
        """
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(labels[n] for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def child_items(self) -> List[Tuple[Tuple[object, ...], "_Metric"]]:
        return sorted(self._children.items(), key=lambda kv: tuple(map(str, kv[0])))

    def state(self) -> object:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str = "", help: str = "",
                 label_names: Sequence[str] = (),
                 parent: Optional["Counter"] = None) -> None:
        super().__init__(name, help, label_names, parent)
        self.value: int = 0

    def _make_child(self) -> "Counter":
        return Counter(self.name, parent=self)

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += int(amount)
        if self._parent is not None:
            self._parent.value += int(amount)

    def state(self) -> int:
        return self.value


class Gauge(_Metric):
    """A point-in-time level (last write wins; no parent mirroring —
    summing levels across labels is rarely meaningful)."""

    kind = "gauge"

    def __init__(self, name: str = "", help: str = "",
                 label_names: Sequence[str] = (),
                 parent: Optional["Gauge"] = None) -> None:
        super().__init__(name, help, label_names, parent)
        self.value: float = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, parent=self)

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def state(self) -> float:
        return self.value


class Histogram(_Metric):
    """A distribution: count/sum/min/max plus per-bucket counts (each
    observation lands in the first bucket whose bound it does not exceed)."""

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        parent: Optional["Histogram"] = None,
    ) -> None:
        super().__init__(name, help, label_names, parent)
        self.buckets = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf last
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, buckets=self.buckets, parent=self)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        if self._parent is not None:
            self._parent.observe(value)

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q`` quantile from the bucket counts.

        Prometheus ``histogram_quantile`` style: find the bucket holding
        the target rank and interpolate linearly inside it (the lower
        edge of the first bucket is 0, of the +inf bucket the last finite
        bound). Estimates are clamped to the observed ``[min, max]`` so
        coarse buckets never report a quantile outside the data, and the
        result is exact at the extremes (``q`` beyond the last finite
        bucket returns ``max``). ``None`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        rank = q * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            in_bucket = self.bucket_counts[i]
            if in_bucket and seen + in_bucket >= rank:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                frac = (rank - seen) / in_bucket
                estimate = lower + (bound - lower) * frac
                return min(max(estimate, self.min), self.max)
            seen += in_bucket
        # Target rank lands in the +inf bucket: no finite upper edge to
        # interpolate against, so report the observed maximum.
        return self.max

    def quantiles(self) -> Dict[str, Optional[float]]:
        """The standard snapshot quantiles, keyed ``p50``/``p90``/``p99``."""
        return {
            f"p{int(q * 100)}": self.quantile(q) for q in SNAPSHOT_QUANTILES
        }

    def state(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "quantiles": self.quantiles(),
            "buckets": dict(
                zip([*map(str, self.buckets), "+inf"], self.bucket_counts)
            ),
        }


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered (re-registering under a different kind
    is an error), so instrumentation sites never coordinate creation.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labels: Sequence[str], **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        metric = cls(name, help, tuple(labels), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        self._metrics.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """The registry state as a plain nested dict (JSON-serializable)."""
        out: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: Dict[str, object] = {
                "kind": metric.kind,
                "value": metric.state(),
            }
            if metric.label_names:
                entry["label_names"] = list(metric.label_names)
                entry["children"] = {
                    "|".join(map(str, key)): child.state()
                    for key, child in metric.child_items()
                }
            out[name] = entry
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Disabled fast path
# ----------------------------------------------------------------------
class NullMetric:
    """A metric-shaped no-op; every mutator returns instantly."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: object) -> "NullMetric":
        return self

    def state(self) -> int:
        return 0


NULL_METRIC = NullMetric()


class NullRegistry:
    """The disabled registry: hands out one shared :class:`NullMetric`."""

    enabled = False

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> NullMetric:
        return NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, dict]:
        return {}

    def to_json(self, indent: int = 2) -> str:
        return "{}"


NULL_REGISTRY = NullRegistry()
