"""Deterministic fault injection for the execution and caching layers.

Recovery code that only runs when hardware actually misbehaves is
untested code.  This harness injects the four failure shapes the
robustness layer claims to survive — worker crashes, hung cells,
transient producer exceptions, and on-disk artifact corruption — on a
*deterministic schedule* described by the ``REPRO_FAULTS`` environment
variable, so a chaos run is exactly reproducible.

Grammar (entries separated by ``;``)::

    entry := kind ':' site ['@' key] ['*' times] ['=' param]

    kind  := crash | hang | raise | corrupt
    site  := cell | artifact | producer

- ``crash:cell@0`` — the first execution of a tile of scenario cell 0
  calls ``os._exit(1)`` (an OOM-kill / segfault stand-in).  The ``cell``
  site fires once per scheduled tile, the one unit the supervisor
  retries.
- ``hang:cell@1=60`` — the first execution of cell 1 sleeps 60 seconds
  (to be killed by ``REPRO_CELL_TIMEOUT``).
- ``raise:producer@variance*2`` — the first two runs of a ``variance``
  artifact producer raise :class:`~repro.robustness.errors.
  TransientFaultError`.
- ``corrupt:artifact@curvature`` — the first on-disk read of a
  ``curvature`` artifact first truncates the file (exercising the
  cache's quarantine-and-recompute path).

Omitting ``@key`` matches every key at that site; ``*times`` (default 1)
fires the entry that many times.

Firing state lives in a filesystem ledger (one marker file per firing,
claimed with ``O_CREAT | O_EXCL``), because the processes that observe a
schedule — the parent, forked pool workers, retried workers, reruns —
do not share memory.  "Fire once" therefore means once *per
ledger*, across every process of a run; point ``REPRO_FAULTS_DIR`` at a
fresh directory per experiment (it defaults to a schedule-keyed
directory under the artifact cache).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.robustness.errors import ScenarioConfigError, TransientFaultError
from repro.utils.cache import default_cache_dir

__all__ = [
    "FaultEntry",
    "FaultSchedule",
    "active_schedule",
    "parse_faults",
]

_KINDS = ("crash", "hang", "raise", "corrupt")
_SITES = ("cell", "artifact", "producer")

#: Default sleep of a ``hang`` fault without an explicit ``=seconds`` —
#: long enough that only the supervisor's timeout ends it.
DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultEntry:
    """One parsed schedule entry."""

    index: int
    kind: str
    site: str
    key: str = None  # None matches every key at the site
    times: int = 1
    param: float = None

    def matches(self, site, key):
        return self.site == site and (
            self.key is None or self.key == str(key)
        )


def parse_faults(spec):
    """Parse a ``REPRO_FAULTS`` string into :class:`FaultEntry` list.

    Raises :class:`~repro.robustness.errors.ScenarioConfigError` on any
    malformed entry — a chaos run with a typo'd schedule must fail
    loudly, not silently run fault-free.
    """
    entries = []
    for index, raw in enumerate(part for part in spec.split(";") if part.strip()):
        text = raw.strip()
        head, param = text.split("=", 1) if "=" in text else (text, None)
        head, times = head.split("*", 1) if "*" in head else (head, "1")
        head, key = head.split("@", 1) if "@" in head else (head, None)
        if ":" not in head:
            raise ScenarioConfigError(
                f"fault entry {text!r} must look like kind:site[@key][*n][=param]"
            )
        kind, site = (part.strip() for part in head.split(":", 1))
        if kind not in _KINDS:
            raise ScenarioConfigError(
                f"unknown fault kind {kind!r} in {text!r}; known: {_KINDS}"
            )
        if site not in _SITES:
            raise ScenarioConfigError(
                f"unknown fault site {site!r} in {text!r}; known: {_SITES}"
            )
        try:
            times = int(times)
            param = float(param) if param is not None else None
        except ValueError as exc:
            raise ScenarioConfigError(f"bad count/param in fault {text!r}") from exc
        if times < 1:
            raise ScenarioConfigError(f"fault {text!r} must fire >= 1 time")
        entries.append(FaultEntry(
            index=index, kind=kind, site=site,
            key=key.strip() if key is not None else None,
            times=times, param=param,
        ))
    return entries


class FaultSchedule:
    """A parsed schedule plus its cross-process firing ledger."""

    def __init__(self, entries, ledger_dir):
        self.entries = list(entries)
        self.ledger_dir = ledger_dir

    # ------------------------------------------------------------- ledger

    def _claim(self, entry):
        """Atomically claim the next firing slot of one entry.

        Returns True when this call won a slot (< ``entry.times`` fired
        so far across every process sharing the ledger).
        """
        os.makedirs(self.ledger_dir, exist_ok=True)
        for slot in range(entry.times):
            marker = os.path.join(
                self.ledger_dir, f"fired-{entry.index}-{slot}"
            )
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    # ------------------------------------------------------------- firing

    def fire(self, site, key):
        """Inject any scheduled crash/hang/raise fault at one site.

        Called at the top of a tile's execution (in the worker — or the
        parent, for serial runs) and before a producer runs.  A
        ``crash`` terminates the calling process the way an OOM kill
        would; a ``hang`` sleeps; a ``raise`` throws
        :class:`TransientFaultError`.
        """
        for entry in self.entries:
            if entry.kind == "corrupt" or not entry.matches(site, key):
                continue
            if not self._claim(entry):
                continue
            if entry.kind == "crash":
                os._exit(1)
            if entry.kind == "hang":
                time.sleep(
                    entry.param if entry.param is not None
                    else DEFAULT_HANG_SECONDS
                )
                continue
            raise TransientFaultError(
                f"injected transient fault at {site}@{key}"
            )

    def corrupt_file(self, site, key, path):
        """Corrupt one on-disk artifact if the schedule says so.

        Truncates the file to half its size — reliably unloadable (or
        checksum-failing), exactly like a writer that died mid-flush on
        a filesystem without atomic rename.
        """
        for entry in self.entries:
            if entry.kind != "corrupt" or not entry.matches(site, key):
                continue
            if not self._claim(entry):
                continue
            try:
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, size // 2))
            except OSError:
                pass


_CACHED = {}


def active_schedule():
    """The schedule described by ``REPRO_FAULTS``, or None when unset.

    Parsed once per distinct (spec, ledger dir) environment value, so
    hot paths pay a dict lookup.  The ledger directory defaults to a
    spec-keyed directory under the artifact cache (shared by fork
    children and reruns, which is the point); override with
    ``REPRO_FAULTS_DIR``.
    """
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    ledger = os.environ.get("REPRO_FAULTS_DIR", "").strip()
    if not ledger:
        digest = hashlib.sha256(spec.encode("utf-8")).hexdigest()[:12]
        ledger = os.path.join(default_cache_dir(), "fault-ledger", digest)
    cache_key = (spec, ledger)
    if cache_key not in _CACHED:
        _CACHED[cache_key] = FaultSchedule(parse_faults(spec), ledger)
    return _CACHED[cache_key]
