"""Shared infrastructure: deterministic RNG streams, statistics, rendering.

Nothing in this package knows about neural networks or CiM devices; it is
pure plumbing shared by the substrates and the experiment drivers.  The
artifact store itself is :class:`repro.plan.cache.PlanArtifactCache`;
this package only names its root directory.
"""

from repro.utils.ascii_plot import line_plot, scatter_plot
from repro.utils.cache import default_cache_dir
from repro.utils.rng import RngStream, derive_seed
from repro.utils.stats import MeanStd, pearson, spearman, summarize
from repro.utils.tables import Table, format_duration, format_table

__all__ = [
    "MeanStd",
    "RngStream",
    "Table",
    "default_cache_dir",
    "derive_seed",
    "format_duration",
    "format_table",
    "line_plot",
    "pearson",
    "scatter_plot",
    "spearman",
    "summarize",
]
