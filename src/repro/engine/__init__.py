"""The merge algebra of a partitioned profile.

``repro.core`` is the paper — one profiler, O(1) per event.  One
universe in one process is one such core.  Partitioning lives in the
cluster tier (:mod:`repro.cluster`), whose router splits the key space
over replica processes; :mod:`repro.engine.merge` holds the pure
functions that merge the partitions' answers into the answer of one
profile.

See ``docs/paper_map.md`` for how this layer relates (and does not
relate) to the paper.
"""

__all__: list[str] = []
