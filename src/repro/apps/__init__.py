"""Applications of S-Profile (paper section 2.3 and beyond).

- :mod:`repro.apps.graph_shaving` — heuristic "shaving" algorithms for
  big graphs (Fraudar/DenseAlert-style): greedy densest subgraph and
  k-core decomposition, both driven by O(1) min-degree queries.
- :mod:`repro.apps.topk_tracker` — top-K popularity tracking with
  enter/exit notifications.
- :mod:`repro.apps.leaderboard` — like/dislike leaderboard over
  arbitrary ids.
- :mod:`repro.apps.median_service` — streaming frequency-quantile
  monitor with alert rules.
- :mod:`repro.apps.click_analytics` — micro-batched click-stream
  analytics over one hashable-key flat core.
"""

from repro.apps.click_analytics import ClickAnalytics
from repro.apps.graph_shaving import (
    DegreeProfile,
    DensestSubgraphResult,
    core_decomposition,
    densest_subgraph,
    reference_densest_subgraph,
)
from repro.apps.leaderboard import Leaderboard
from repro.apps.median_service import MedianMonitor, QuantileAlert
from repro.apps.topk_tracker import TopKChange, TopKTracker

__all__ = [
    "ClickAnalytics",
    "DegreeProfile",
    "DensestSubgraphResult",
    "Leaderboard",
    "MedianMonitor",
    "QuantileAlert",
    "TopKChange",
    "TopKTracker",
    "core_decomposition",
    "densest_subgraph",
    "reference_densest_subgraph",
]
