"""Shared-nothing simulation tests: hash placement of a register across
segments, and the one motion-billing rule both substrates share."""

import os
import subprocess
import sys

from repro.mpp import Cluster, MotionStats, hash_partition_indices
from repro.storage import Column, Table
from repro.types import SqlType


def make_table(keys, values=None):
    keys = list(keys)
    if values is None:
        values = [None if k is None else float(k) for k in keys]
    return Table.from_columns([
        ("k", SqlType.INTEGER, list(keys)),
        ("v", SqlType.FLOAT, list(values)),
    ])


class TestPartitioning:
    def test_hash_partition_is_deterministic(self):
        column = Column.from_values(SqlType.INTEGER, list(range(100)))
        first = hash_partition_indices(column, 4)
        second = hash_partition_indices(column, 4)
        assert (first == second).all()

    def test_text_keys_route_identically_in_every_process(self):
        # str hashes are salted per process; placement must not be.
        script = ("from repro.mpp import hash_partition_indices\n"
                  "from repro.storage import Column\n"
                  "from repro.types import SqlType\n"
                  "keys = [f'k{i}' for i in range(64)] + [None]\n"
                  "column = Column.from_values(SqlType.TEXT, keys)\n"
                  "print(hash_partition_indices(column, 4).tolist())")
        outputs = {
            subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}
                           ).stdout
            for seed in ("1", "2")}
        assert len(outputs) == 1

    def test_partitions_cover_all_rows(self):
        cluster = Cluster(4)
        table = make_table(range(1000))
        distributed = cluster.distribute("t", table, "k")
        assert sum(p.num_rows for p in distributed.partitions) == 1000
        assert len(distributed.partitions) == 4

    def test_hash_distribution_is_reasonably_balanced(self):
        cluster = Cluster(4)
        distributed = cluster.distribute("t", make_table(range(4000)), "k")
        sizes = [p.num_rows for p in distributed.partitions]
        assert min(sizes) > 500  # no segment starves

    def test_same_key_lands_on_same_segment(self):
        cluster = Cluster(8)
        table = make_table([7] * 50)
        distributed = cluster.distribute("t", table, "k")
        nonempty = [p for p in distributed.partitions if p.num_rows]
        assert len(nonempty) == 1

    def test_null_keys_go_to_segment_zero(self):
        cluster = Cluster(4)
        table = make_table([None, None, None])
        distributed = cluster.distribute("t", table, "k")
        assert distributed.partitions[0].num_rows == 3

    def test_gather_reassembles(self):
        cluster = Cluster(4)
        table = make_table(range(100))
        distributed = cluster.distribute("t", table, "k")
        gathered = distributed.gather()
        assert sorted(r[0] for r in gathered.rows()) == list(range(100))


class TestMotionStats:
    def test_charge_bills_by_kind(self):
        # A shipped piece bills its rows and payload bytes; an empty one
        # bills nothing.
        piece = make_table(range(10))
        motion = MotionStats()
        motion.charge(piece)
        motion.charge(piece.filter(piece.column("k").data < 0))
        assert (motion.rows_moved, motion.bytes_moved) \
            == (10, piece.nbytes())

    def test_reset_zeroes_every_counter(self):
        motion = MotionStats(shuffles=3)
        motion.charge(make_table(range(4)))
        motion.reset()
        assert motion == MotionStats()
