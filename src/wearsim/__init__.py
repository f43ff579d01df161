"""Trace-driven simulator of dual-ring golden-ratio memory wear leveling.

Replays object-level memory traces against a dual-ring memory model in
which a semispace garbage collector compacts live data to a start
location chosen by a wear-leveling policy, and reports per-cell access
counts plus the summary statistics used to judge leveling quality.

The modules are the API, as in ``from wearsim.engine import replay``;
importing the package imports all six.
"""

__version__ = "0.1.0"

from wearsim import engine, memory, metrics, policy, trace, workload  # noqa: F401
