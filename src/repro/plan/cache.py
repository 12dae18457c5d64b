"""Content-addressed, self-healing artifact cache: the repo's one store.

Every scenario grid re-derives the same expensive intermediates —
curvature flat vectors, stack variance maps, resolved selection orders —
once per grid point, on top of a trained workload model.  This cache
makes all of them first-class artifacts: the trained models themselves
(``zoo``, written by :func:`repro.experiments.model_zoo.load_workload`),
the planning intermediates, plan bytes and evaluation tiles:

- **content-addressed keys**: an artifact's key is the SHA-256 of a
  canonical JSON description of everything that determines it — for a
  model, its workload spec; for a planning artifact, the model's weight
  digest, the sense-set digest, the technology / stack parameter dict,
  ``read_time`` and the scorer parameters.  Mutating any of them
  (perturb a weight, change a drift exponent) changes the key, so stale
  artifacts are unreachable rather than invalidated by fiat.
- **memory + on-disk backends**: the in-process dict serves repeated
  lookups within one planning batch; the ``.npz`` store under
  ``$REPRO_CACHE_DIR/plan/v<N>/`` (see
  :func:`repro.utils.cache.default_cache_dir`) survives across processes
  and sessions, which is what makes warm re-planning of a whole
  retention grid cost one disk read instead of one curvature pass.
- **versioned invalidation**: :data:`PLAN_CACHE_VERSION` is folded into
  both the key and the directory name; bumping it (because key layout or
  artifact semantics changed) orphans every older entry at once.
- **self-healing reads**: every artifact embeds a checksum of its own
  content.  A truncated, garbled, or checksum-mismatched file — a dead
  writer on a non-atomic filesystem, a torn disk — is *quarantined*
  (renamed to ``<artifact>.corrupt``) and the lookup degrades to a
  miss, so :meth:`PlanArtifactCache.get_or_create` transparently
  recomputes instead of crashing the run.  Quarantines are counted in
  :meth:`~PlanArtifactCache.stats`.
- **orphan hygiene**: writes go through ``<path>.tmp.<pid>`` + atomic
  rename; a writer that dies in between leaves a tmp file, which init
  sweeps once it is older than ``tmp_max_age``.
- **bounded memory tier**: the in-process dict is an LRU keyed on
  access order; ``memory_items`` / ``REPRO_CACHE_MEM_ITEMS`` caps it
  (``0`` = unbounded, the historical default).  Evicted entries fall
  back to the on-disk tier — eviction trades a dict lookup for a disk
  read, never a recompute — and are counted in
  :meth:`~PlanArtifactCache.stats` as ``evictions``.  This is what
  lets a long-lived serving process (:mod:`repro.serve`) hold a
  working set without growing RSS with the key universe.

Keys are derived purely from content, never from wall-clock or process
state, so two processes planning the same grid agree byte-for-byte —
the property the cross-process tests pin down.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from collections import OrderedDict

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.robustness.errors import (
    CacheCorruptionError,
    CacheWriteError,
    ScenarioConfigError,
)
from repro.robustness.faults import active_schedule
from repro.robustness.supervisor import run_with_retry
from repro.utils.cache import default_cache_dir

__all__ = [
    "PLAN_CACHE_VERSION",
    "PlanArtifactCache",
    "artifact_key",
    "data_digest",
    "model_digest",
    "resolve_memory_items",
]

#: Bump when the key layout or the artifact semantics change: every
#: older on-disk entry becomes unreachable (it lives under the old
#: version directory and hashes with the old version number).
#: v2: artifacts embed a content checksum (the self-healing read path).
PLAN_CACHE_VERSION = 2

#: Name of the embedded checksum entry inside each ``.npz`` artifact.
_CHECKSUM_NAME = "__checksum__"


def model_digest(model):
    """Content digest of a model's named parameters (shapes + bytes).

    Stable across processes and platforms: parameters are folded in
    sorted-name order with their shape and dtype, so any weight
    mutation — including in-place edits that keep the object identity —
    produces a different digest.
    """
    digest = hashlib.sha256()
    params = dict(model.named_parameters())
    for name in sorted(params):
        data = np.ascontiguousarray(params[name].data)
        digest.update(name.encode("utf-8"))
        digest.update(repr(data.shape).encode("utf-8"))
        digest.update(str(data.dtype).encode("utf-8"))
        digest.update(data.tobytes())
    return digest.hexdigest()[:16]


def data_digest(*arrays):
    """Content digest of one or more numpy arrays (the sense set)."""
    digest = hashlib.sha256()
    for array in arrays:
        data = np.ascontiguousarray(array)
        digest.update(repr(data.shape).encode("utf-8"))
        digest.update(str(data.dtype).encode("utf-8"))
        digest.update(data.tobytes())
    return digest.hexdigest()[:16]


def artifact_key(kind, config, version=PLAN_CACHE_VERSION):
    """Deterministic key for one artifact kind + configuration dict.

    ``config`` must be JSON-serializable (digests, parameter dicts,
    numbers, None); the JSON is canonicalized with sorted keys so dict
    insertion order never leaks into the key.
    """
    text = json.dumps(
        {"version": int(version), "kind": str(kind), "config": config},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def resolve_memory_items(memory_items=None):
    """Resolve the memory-tier LRU cap: arg, else ``REPRO_CACHE_MEM_ITEMS``.

    ``0`` (the default when neither is given) means unbounded — the
    historical behavior; negative values raise
    :class:`~repro.robustness.errors.ScenarioConfigError`.
    """
    if memory_items is None:
        raw = os.environ.get("REPRO_CACHE_MEM_ITEMS", "").strip()
        if not raw:
            return 0
        try:
            memory_items = int(raw)
        except ValueError as exc:
            raise ScenarioConfigError(
                f"REPRO_CACHE_MEM_ITEMS must be an integer, got {raw!r}"
            ) from exc
    memory_items = int(memory_items)
    if memory_items < 0:
        raise ScenarioConfigError(
            "memory_items must be >= 1, or 0 for an unbounded memory tier"
        )
    return memory_items


def _content_checksum(arrays):
    """Checksum of an artifact's arrays (names, shapes, dtypes, bytes)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(repr(data.shape).encode("utf-8"))
        digest.update(str(data.dtype).encode("utf-8"))
        digest.update(data.tobytes())
    return digest.hexdigest()


class PlanArtifactCache:
    """Two-tier (memory, disk) store of models and planning artifacts.

    Artifacts are ``name -> numpy array`` dicts (a curvature artifact
    holds ``scores`` and ``tie``; an order artifact holds ``order``; a
    ``zoo`` artifact holds a model's state dict plus ``clean_accuracy``).
    Cached arrays are returned by reference from the memory tier —
    treat them as immutable.

    Parameters
    ----------
    root:
        Base cache directory (default: :func:`~repro.utils.cache.
        default_cache_dir`, i.e. ``$REPRO_CACHE_DIR`` aware).
    memory / disk:
        Enable the in-process and on-disk tiers.  Disabling disk makes
        the cache session-local (useful in tests); disabling memory
        forces every hit through the filesystem.
    version:
        Key/layout version (default :data:`PLAN_CACHE_VERSION`).
    tmp_max_age:
        Age (seconds) past which an orphaned ``*.tmp.*`` file from a
        dead writer is swept at init; younger tmp files may belong to a
        live concurrent writer and are left alone.
    memory_items:
        LRU cap on the memory tier (least-recently-*used* entry evicted
        first); default :func:`resolve_memory_items` — i.e.
        ``REPRO_CACHE_MEM_ITEMS``, else ``0`` = unbounded.  Evictions
        degrade to the disk tier and are counted in :meth:`stats`.

    :attr:`metrics` is the cache's own
    :class:`~repro.obs.metrics.MetricsRegistry`, so independent cache
    instances keep independent :meth:`stats`.  The plan service counts
    its request and transport families into the same registry, so cache
    counters show up on ``/metricsz`` next to request counters.
    """

    def __init__(self, root=None, memory=True, disk=True,
                 version=PLAN_CACHE_VERSION, tmp_max_age=3600.0,
                 memory_items=None):
        self.version = int(version)
        self.disk = bool(disk)
        self._memory = OrderedDict() if memory else None
        self.memory_items = resolve_memory_items(memory_items)
        # The serving layer reads warm entries on the event loop while
        # a resolver thread writes cold ones; one uncontended lock keeps
        # the LRU's read-reorder + insert + evict sequences atomic.
        # Counters carry their own per-child locks in the registry.
        self._memory_lock = threading.Lock()
        self.root = os.path.join(
            root or default_cache_dir(), "plan", f"v{self.version}"
        )
        self.tmp_max_age = float(tmp_max_age)
        self.metrics = MetricsRegistry()
        hits = self.metrics.counter(
            "repro_cache_hits_total", "Artifact cache hits by tier.",
            labels=("tier",),
        )
        self._hits = {
            "memory": hits.labels(tier="memory"),
            "disk": hits.labels(tier="disk"),
        }
        self._misses = self.metrics.counter(
            "repro_cache_misses_total", "Artifact cache misses (both tiers)."
        )
        self._quarantined = self.metrics.counter(
            "repro_cache_quarantined_total",
            "Corrupt artifacts moved aside by the self-healing read path.",
        )
        self._producer_retries = self.metrics.counter(
            "repro_cache_producer_retries_total",
            "Retries of transiently failing artifact producers.",
        )
        self._evictions = self.metrics.counter(
            "repro_cache_evictions_total",
            "Memory-tier LRU evictions (entries fall back to disk).",
        )
        self._memory_entries = self.metrics.gauge(
            "repro_cache_memory_entries", "Entries resident in the memory tier."
        )
        self._memory_cap = self.metrics.gauge(
            "repro_cache_memory_cap", "Memory-tier LRU cap (0 = unbounded)."
        )
        self._memory_cap.set(self.memory_items)
        self._memory_entries.set(0)
        # Touch every counter child so stats()/snapshot() expose the
        # full catalog from the first read, not only after traffic.
        for child in self._hits.values():
            child.inc(0)
        for family in (self._misses, self._quarantined,
                       self._producer_retries, self._evictions):
            family.inc(0)
        if self.disk:
            self._sweep_stale_tmp()

    # ------------------------------------------------------------ addressing

    def key(self, kind, config):
        """Content-addressed key of one artifact."""
        return artifact_key(kind, config, version=self.version)

    # --------------------------------------------------------------- healing

    def _sweep_stale_tmp(self):
        """Remove tmp files orphaned by writers that died mid-write."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return  # no cache directory yet — nothing to sweep
        cutoff = time.time() - self.tmp_max_age
        for name in names:
            if ".tmp." not in name:
                continue
            path = os.path.join(self.root, name)
            try:
                if os.path.getmtime(path) <= cutoff:
                    os.unlink(path)
            except OSError:
                pass  # claimed by a concurrent sweeper, or vanished

    def _quarantine(self, path, reason):
        """Move a rotten artifact aside so the key reads as a miss."""
        self._quarantined.inc()
        try:
            os.replace(path, path + ".corrupt")
            where = f"quarantined as {os.path.basename(path)}.corrupt"
        except OSError:
            where = "could not be quarantined"
        warnings.warn(
            f"corrupt plan cache artifact {path} ({reason}); {where}, "
            "treating as a miss",
            RuntimeWarning,
            stacklevel=3,
        )

    def _load_checked(self, path):
        """Load + verify one on-disk artifact; None (and quarantine) if rotten."""
        try:
            with np.load(path, allow_pickle=False) as handle:
                arrays = {name: handle[name] for name in handle.files}
            stored = arrays.pop(_CHECKSUM_NAME, None)
            if stored is None:
                raise CacheCorruptionError("no embedded checksum")
            if bytes(bytearray(stored)).decode("ascii") != _content_checksum(arrays):
                raise CacheCorruptionError("checksum mismatch")
        except Exception as exc:  # truncated zip, bad header, short read...
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return None
        return arrays

    # ------------------------------------------------------------ memory tier

    def _memory_get(self, key):
        """Memory-tier lookup; a hit refreshes the entry's LRU position."""
        if self._memory is None:
            return None
        with self._memory_lock:
            arrays = self._memory.get(key)
            if arrays is not None:
                self._memory.move_to_end(key)
            return arrays

    def _remember(self, key, arrays):
        """Insert into the memory tier, evicting past the LRU cap."""
        if self._memory is None:
            return
        with self._memory_lock:
            self._memory[key] = arrays
            self._memory.move_to_end(key)
            if self.memory_items > 0:
                while len(self._memory) > self.memory_items:
                    self._memory.popitem(last=False)
                    self._evictions.inc()
            self._memory_entries.set(len(self._memory))

    # ---------------------------------------------------------------- access

    def lookup(self, kind, key):
        """Load an artifact by its content key alone, or None on miss.

        The content-addressed read path shared by :meth:`get` and the
        serving layer's ``GET /v1/plan/<key>`` warm fetch: memory tier
        first, then the checked (self-healing) disk read.  Never runs a
        producer.
        """
        arrays = self._memory_get(key)
        if arrays is not None:
            self._hits["memory"].inc()
            return arrays
        if self.disk:
            path = os.path.join(self.root, f"{kind}-{key}.npz")
            schedule = active_schedule()
            if schedule is not None and os.path.exists(path):
                schedule.corrupt_file("artifact", kind, path)
            if os.path.exists(path):
                arrays = self._load_checked(path)
                if arrays is not None:
                    self._remember(key, arrays)
                    self._hits["disk"].inc()
                    return arrays
        self._misses.inc()
        return None

    def get(self, kind, config):
        """Load an artifact, or None on miss (memory tier first).

        A corrupted/truncated/checksum-mismatched disk entry is
        quarantined and reported as a miss, so callers transparently
        fall through to recomputation.
        """
        return self.lookup(kind, self.key(kind, config))

    def put(self, kind, config, arrays):
        """Store an artifact in every enabled tier; returns it."""
        key = self.key(kind, config)
        arrays = {name: np.asarray(value) for name, value in arrays.items()}
        self._remember(key, arrays)
        if self.disk:
            path = os.path.join(self.root, f"{kind}-{key}.npz")
            # Write-then-rename so a concurrent reader (parallel cells,
            # parallel CI shards) never sees a half-written artifact;
            # the embedded checksum catches the remaining failure modes
            # (torn writes on rename-less filesystems, disk rot).
            tmp = f"{path}.tmp.{os.getpid()}"
            payload = dict(arrays)
            payload[_CHECKSUM_NAME] = np.frombuffer(
                _content_checksum(arrays).encode("ascii"), dtype=np.uint8
            ).copy()
            try:
                os.makedirs(self.root, exist_ok=True)
                with open(tmp, "wb") as handle:
                    np.savez(handle, **payload)
                os.replace(tmp, path)
            except OSError as exc:
                raise CacheWriteError(
                    f"cannot write plan cache artifact under {self.root}: {exc}"
                ) from exc
            finally:
                # A failed write (full disk, killed savez) must not leak
                # its tmp file; a successful rename already consumed it.
                if os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
        return arrays

    def get_or_create(self, kind, config, producer):
        """Load the artifact or produce + store it.

        ``producer`` is a zero-argument callable returning the
        ``name -> array`` dict; it runs only on a full (memory + disk)
        miss.  A producer that raises a :class:`~repro.robustness.
        errors.RetryableError` (a declared-transient failure) is retried
        with the supervisor's bounded-backoff policy; retry counts show
        up in :meth:`stats` as ``producer_retries``.
        """
        arrays = self.get(kind, config)
        if arrays is not None:
            return arrays

        def produce():
            schedule = active_schedule()
            if schedule is not None:
                schedule.fire("producer", kind)
            return producer()

        value, attempts = run_with_retry(produce)
        if attempts > 1:
            self._producer_retries.inc(attempts - 1)
        return self.put(kind, config, value)

    # -------------------------------------------------------------- plumbing

    def stats(self):
        """Every counter the cache keeps, as one flat dict.

        This is the *single* stats surface: :class:`~repro.robustness.
        report.RunReport` embeds it verbatim and the serving layer's
        ``/statsz`` endpoint returns it verbatim — consumers must not
        re-derive counters from cache internals.  The dict itself is a
        flat view over ``metrics.snapshot()`` (families prefixed
        ``repro_cache_``), so a counter registered once shows up here,
        in :func:`~repro.robustness.report.render_cache_stats`, and on
        ``/metricsz`` without further plumbing.
        """
        return self.metrics.flat("repro_cache_")

    def __repr__(self):
        tiers = []
        if self._memory is not None:
            tiers.append(f"memory[{len(self._memory)}]")
        if self.disk:
            tiers.append(f"disk[{self.root}]")
        return f"PlanArtifactCache(v{self.version}, {' + '.join(tiers) or 'off'})"
