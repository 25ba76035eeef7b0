"""Emptied: sharded execution is gone.

Partitioning one experiment's topology across worker processes ran slower
than the serial engine and than a sweep's worker pool on this repository's
largest cells (PERFORMANCE.md, "Sharded execution (removed)"), so the
partitioner, the window coordinator and the cross-shard merge rules were
deleted.  Parallelism lives across cells: ``repro sweep --workers N`` or
``--cluster DIR``.  A spec carrying ``engine.shards`` is rejected.

The package name stays only because ``bench/layers.py`` maps every package
under ``src/repro/`` and the benchmark contract test requires each mapped
package to exist; it goes when that map drops the ``shard`` entry.
"""
