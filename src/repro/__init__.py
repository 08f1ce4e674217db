"""repro — S-Profile: O(1) profiling of dynamic arrays with finite values.

Reproduction of Yang, Yu, Deng, Liu, *Optimal Algorithm for Profiling
Dynamic Arrays with Finite Values* (EDBT 2019; arXiv:1812.05306).

Quick start — the unified facade is the documented way in::

    from repro import Profiler, Query

    profiler = Profiler.open(1_000_000, backend="auto")
    profiler.ingest([(42, +1), (7, -1)])
    profiler.mode()              # most frequent object, O(1)
    profiler.median_frequency()  # O(1)
    profiler.evaluate(           # fused: one block walk for all four
        Query.mode(), Query.top_k(10),
        Query.histogram(), Query.quantile(0.99))

Package map:

- :mod:`repro.api` — the public facade: backend selection
  (exact / sharded / approximate / baselines), one ingest verb, fused
  multi-query plans.
- :mod:`repro.core` — the paper's algorithm and its query surface.
- :mod:`repro.engine` — scale-out layer: sharding and the merge algebra.
- :mod:`repro.baselines` — heap / balanced-tree / bucket comparators.
- :mod:`repro.streams` — log-stream generators (paper section 3 setup),
  sliding windows, persistence.
- :mod:`repro.apps` — applications from section 2.3 (graph shaving,
  top-k tracking) and beyond, all built on the facade.
- :mod:`repro.bench` — harness regenerating every figure of the paper.
"""

from importlib import import_module

#: Public name -> defining module.  Imported on first access (PEP 562),
#: so ``import repro.<sub>`` loads only what that submodule needs — a
#: process can, say, pin thread settings before NumPy loads.
_EXPORTS = {
    "EvalResult": "repro.api",
    "Profiler": "repro.api",
    "Query": "repro.api",
    "FlatProfile": "repro.core.flat",
    "SProfile": "repro.core.profile",
    "ModeResult": "repro.core.queries",
    "TopEntry": "repro.core.queries",
    "ProfileSnapshot": "repro.core.snapshot",
    "ShardedProfiler": "repro.engine.sharding",
    **dict.fromkeys(
        (
            "CapacityError",
            "CheckpointError",
            "EmptyProfileError",
            "FrequencyUnderflowError",
            "InvariantViolationError",
            "ReproError",
            "StreamConfigError",
            "UnknownObjectError",
            "UnsupportedQueryError",
            "WindowError",
        ),
        "repro.errors",
    ),
}

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "CheckpointError",
    "EmptyProfileError",
    "EvalResult",
    "FlatProfile",
    "FrequencyUnderflowError",
    "InvariantViolationError",
    "ModeResult",
    "ProfileSnapshot",
    "Profiler",
    "Query",
    "ReproError",
    "SProfile",
    "ShardedProfiler",
    "StreamConfigError",
    "TopEntry",
    "UnknownObjectError",
    "UnsupportedQueryError",
    "WindowError",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
