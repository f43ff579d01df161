"""Trace-driven simulator of dual-ring golden-ratio memory wear leveling.

Replays object-level memory traces against a dual-ring memory model in
which a semispace garbage collector compacts live data to a start
location chosen by a wear-leveling policy, and reports per-cell access
counts plus the summary statistics used to judge leveling quality.
"""

__version__ = "0.1.0"

from wearsim.engine import Engine, EngineConfig, SimulationError, replay
from wearsim.metrics import (CountingMode, SummaryStats, WearReport,
                             lifespan_extension, summarize, top_n_distribution)
from wearsim.policy import (Policy, PolicyState, golden_shift, parse_policy,
                            start_sequence)
from wearsim.trace import Trace, TraceParseError, parse_trace, validate_trace
from wearsim.workload import WorkloadSpec, generate

__all__ = [
    "Engine",
    "EngineConfig",
    "SimulationError",
    "replay",
    "CountingMode",
    "SummaryStats",
    "WearReport",
    "lifespan_extension",
    "summarize",
    "top_n_distribution",
    "Policy",
    "PolicyState",
    "golden_shift",
    "parse_policy",
    "start_sequence",
    "Trace",
    "TraceParseError",
    "parse_trace",
    "validate_trace",
    "WorkloadSpec",
    "generate",
]
