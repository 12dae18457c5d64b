"""Process-local observability: metrics registry, trace spans, validators.

``repro.obs`` is the cross-cutting telemetry layer.  It has no
dependencies on the rest of ``repro`` (the plan cache, supervisor, and
serve layers all import *it*), and it never contributes to
content-addressed cache keys or artifact bytes: instrumented and
uninstrumented runs produce byte-identical scientific output.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    bucket_quantile,
    get_registry,
    render_prometheus,
)
from repro.obs.trace import (
    TRACER,
    Tracer,
    chrome_trace_path,
    disable_tracing,
    enable_tracing,
    span,
    traced,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "bucket_quantile",
    "get_registry",
    "render_prometheus",
    "TRACER",
    "Tracer",
    "chrome_trace_path",
    "disable_tracing",
    "enable_tracing",
    "span",
    "traced",
    "write_chrome_trace",
    "write_spans_jsonl",
]
