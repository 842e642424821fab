"""Elastic sharding: live shard split/merge/migration (PR 8).

The synthesis subsystem over four earlier seams: PR 3's spatial
partitioner and halos fix *what* each logical shard owns, PR 4's
exact snapshot codec and WAL encoding make a live core *shippable*,
PR 5's layer seam attaches the migration log without touching the
core, and PR 6/7's deterministic-signal policy idiom drives *when*
placement changes.  The result is rebalancing that provably never
changes what is computed: every migration is verified record-by-
record and state-by-state before ownership flips, and
``python -m repro bench elastic`` sweeps a migration across every
event boundary asserting byte-identical plans, metrics, and op
counters against the never-migrated run.
"""

from repro.elastic.controller import ElasticAction, ElasticController
from repro.elastic.log import MigrationLogLayer, ShardLog
from repro.elastic.server import (
    DEFAULT_PARTITIONS,
    ElasticStreamMetrics,
    ElasticStreamingServer,
    MigrationRecord,
)
from repro.elastic.shardmap import ElasticShardMap

__all__ = [
    "DEFAULT_PARTITIONS",
    "ElasticAction",
    "ElasticController",
    "ElasticShardMap",
    "ElasticStreamMetrics",
    "ElasticStreamingServer",
    "MigrationLogLayer",
    "MigrationRecord",
    "ShardLog",
]
