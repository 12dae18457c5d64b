"""Root directory of the on-disk artifact store.

:class:`repro.plan.cache.PlanArtifactCache` (trained models, plans, eval
tiles) and the fault-injection ledger both live under it.
"""

from __future__ import annotations

import os

__all__ = ["default_cache_dir"]


def default_cache_dir():
    """Return the cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")
