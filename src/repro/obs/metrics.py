"""Thread-safe, process-local metrics registry.

One registry holds labeled metric *families* (``Counter``, ``Gauge``,
``Histogram``); each combination of label values is a *child* with its
own lock, so increments are exact under concurrency.  ``snapshot()`` is
the one source of the counters that live here: the artifact cache's
(``PlanArtifactCache.stats()`` and the cache part of
``RunReport.render()``), the supervisor's, and the plan service's and
its HTTP transport's (``/statsz`` and ``/metricsz`` are both views of
one snapshot).  Two ledgers are not metrics and stay with their owners:
a run's cell and tile counts are ``RunReport`` fields, and a
``PlanEngine``'s pass counts are its in-process ``stats`` dict.

Determinism matters more than prometheus-client parity here: histogram
bucket bounds are fixed at family creation, snapshots are sorted by
family name and label values, and rendering uses ``repr``-stable float
formatting, so two runs that perform the same work expose the same
text.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "get_registry",
    "render_prometheus",
]

# Seconds.  Spans 0.5 ms .. 10 s, which covers both in-process plan
# stages and cold HTTP resolutions at every scale tier.
DEFAULT_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "+Inf"
        if value == -math.inf:
            return "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    raise TypeError(f"unsupported sample value: {value!r}")


def bucket_quantile(bounds, cumulative, q):
    """The ``q`` quantile of a histogram as its bucket's upper bound.

    ``cumulative`` holds the cumulative bucket counts, one per bound
    plus the final ``+Inf`` bucket, as in a :meth:`MetricsRegistry.
    snapshot` sample.  Returns ``math.inf`` past the last finite bound
    and ``None`` when nothing has been observed.
    """
    count = cumulative[-1]
    if count == 0:
        return None
    rank = q * count
    for bound, seen in zip(tuple(bounds) + (math.inf,), cumulative):
        if seen >= rank:
            return bound
    return math.inf


def _escape_label_value(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text):
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value):
        with self._lock:
            self._value = value

    @property
    def value(self):
        with self._lock:
            return self._value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds):
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value):
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self):
        """``(cumulative_bucket_counts, sum, count)`` — one consistent read."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            count = self._count
        cumulative = []
        running = 0
        for bucket in counts:
            running += bucket
            cumulative.append(running)
        return tuple(cumulative), total_sum, count


class _Family:
    kind = None
    _child_factory = None

    def __init__(self, name, help, labels):
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()
        self._children = {}

    def _make_child(self):
        return self._child_factory()

    def labels(self, **label_values):
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _default_child(self):
        if self.label_names:
            raise ValueError(f"{self.name}: labeled family requires .labels()")
        return self.labels()

    def children(self):
        with self._lock:
            return sorted(self._children.items())

    def _describe(self):
        return {"type": self.kind, "help": self.help, "labels": self.label_names}


class Counter(_Family):
    kind = "counter"
    _child_factory = _CounterChild

    def inc(self, amount=1):
        self._default_child().inc(amount)

    @property
    def value(self):
        return self._default_child().value


class Gauge(_Family):
    kind = "gauge"
    _child_factory = _GaugeChild

    def set(self, value):
        self._default_child().set(value)


class Histogram(_Family):
    kind = "histogram"

    def __init__(self, name, help, labels, buckets=DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"{name}: bucket bounds must be sorted and unique")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"{name}: bucket bounds must be finite")
        self.buckets = bounds

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value):
        self._default_child().observe(value)

    def snapshot(self):
        return self._default_child().snapshot()

    def _describe(self):
        described = super()._describe()
        described["buckets"] = self.buckets
        return described


class MetricsRegistry:
    """A process-local collection of metric families.

    ``counter``/``gauge``/``histogram`` are idempotent: re-declaring a
    family with the same name, kind, labels (and buckets) returns the
    existing one, so independently constructed components can share a
    registry without coordination.  Conflicting re-declarations raise.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    def _declare(self, factory, kind, name, help, labels, **extra):
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"{name}: invalid label name {label!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names}"
                    )
                if extra.get("buckets") is not None and tuple(
                    float(b) for b in extra["buckets"]
                ) != existing.buckets:
                    raise ValueError(f"metric {name!r} bucket bounds conflict")
                return existing
            family = factory(name, help, labels, **extra)
            self._families[name] = family
            return family

    def counter(self, name, help="", labels=()):
        return self._declare(Counter, "counter", name, help, labels)

    def gauge(self, name, help="", labels=()):
        return self._declare(Gauge, "gauge", name, help, labels)

    def histogram(self, name, help="", labels=(), buckets=DEFAULT_LATENCY_BUCKETS):
        return self._declare(
            Histogram, "histogram", name, help, labels, buckets=buckets
        )

    def families(self):
        with self._lock:
            return sorted(self._families.items())

    def snapshot(self):
        """Deterministic nested view: family name -> description + samples.

        Counter/gauge samples map label-value tuples to numbers;
        histogram samples map them to ``{"buckets": cumulative,
        "sum": float, "count": int}``.
        """
        out = {}
        for name, family in self.families():
            entry = family._describe()
            samples = {}
            for key, child in family.children():
                if family.kind == "histogram":
                    cumulative, total_sum, count = child.snapshot()
                    samples[key] = {
                        "buckets": cumulative,
                        "sum": total_sum,
                        "count": count,
                    }
                else:
                    samples[key] = child.value
            entry["samples"] = samples
            out[name] = entry
        return out

    def flat(self, prefix=""):
        """Flatten counters/gauges under ``prefix`` into a plain dict.

        The naming rule that keeps legacy ``stats()`` dicts stable:
        strip ``prefix`` and a trailing ``_total``; an unlabeled family
        contributes its stripped name, a single-label family
        contributes one key per label *value* (``hits_total{tier=
        "memory"}`` -> ``memory``).  Key collisions raise — they mean
        two families flatten to the same legacy name.
        """
        out = {}

        def put(key, value):
            if key in out:
                raise ValueError(f"flat() key collision: {key!r}")
            out[key] = value

        for name, entry in self.snapshot().items():
            if not name.startswith(prefix) or entry["type"] == "histogram":
                continue
            short = name[len(prefix) :]
            if short.endswith("_total"):
                short = short[: -len("_total")]
            samples = entry["samples"]
            if not entry["labels"]:
                put(short, samples.get((), 0))
            elif len(entry["labels"]) == 1:
                for key, value in samples.items():
                    put(key[0], value)
            else:
                for key, value in samples.items():
                    put("_".join((short,) + key), value)
        return out


def render_prometheus(*registries):
    """Merge registries into Prometheus text exposition format.

    Registries are deduplicated by identity so callers can pass
    possibly-shared registries (service + cache) without emitting
    duplicate families.  Family names across distinct registries must
    not collide.
    """
    unique = list(dict.fromkeys(id(r) for r in registries))
    by_id = {id(r): r for r in registries}
    merged = {}
    for reg_id in unique:
        for name, entry in by_id[reg_id].snapshot().items():
            if name in merged:
                raise ValueError(f"duplicate metric family across registries: {name}")
            merged[name] = entry

    lines = []
    for name in sorted(merged):
        entry = merged[name]
        if entry["help"]:
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {name} {entry['type']}")
        label_names = entry["labels"]

        def label_str(key, extra=()):
            pairs = [
                f'{n}="{_escape_label_value(v)}"'
                for n, v in list(zip(label_names, key)) + list(extra)
            ]
            return "{" + ",".join(pairs) + "}" if pairs else ""

        for key, value in entry["samples"].items():
            if entry["type"] == "histogram":
                bounds = entry["buckets"]
                for bound, seen in zip(
                    tuple(bounds) + (math.inf,), value["buckets"]
                ):
                    le = "+Inf" if bound == math.inf else _format_value(bound)
                    lines.append(
                        f"{name}_bucket{label_str(key, (('le', le),))} {seen}"
                    )
                lines.append(f"{name}_sum{label_str(key)} {_format_value(value['sum'])}")
                lines.append(f"{name}_count{label_str(key)} {value['count']}")
            else:
                lines.append(f"{name}{label_str(key)} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


_REGISTRY = MetricsRegistry()


def get_registry():
    """The module-global registry (scheduler/supervisor-side metrics)."""
    return _REGISTRY
