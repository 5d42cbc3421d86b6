"""Shared-nothing simulation tests: placement, motions, join strategy
selection, and two-phase aggregation."""

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.mpp import (
    Cluster,
    Distribution,
    DistributionKind,
    JoinStrategy,
    distributed_aggregate_sum,
    distributed_join,
    hash_partition_indices,
    plan_join,
)
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

    def test_partitions_cover_all_rows(self):
        cluster = Cluster(4)
        table = make_table(range(1000))
        distributed = cluster.distribute("t", table,
                                         Distribution.hashed("k"))
        assert distributed.num_rows == 1000
        assert len(distributed.partitions) == 4

    def test_hash_distribution_is_reasonably_balanced(self):
        cluster = Cluster(4)
        distributed = cluster.distribute("t", make_table(range(4000)),
                                         Distribution.hashed("k"))
        sizes = [p.num_rows for p in distributed.partitions]
        assert min(sizes) > 500  # no segment starves

    def test_same_key_lands_on_same_segment(self):
        cluster = Cluster(8)
        table = make_table([7] * 50)
        distributed = cluster.distribute("t", table,
                                         Distribution.hashed("k"))
        nonempty = [p for p in distributed.partitions if p.num_rows]
        assert len(nonempty) == 1

    def test_replicated_copies_everywhere(self):
        cluster = Cluster(3)
        distributed = cluster.distribute("t", make_table(range(10)),
                                         Distribution.replicated())
        assert all(p.num_rows == 10 for p in distributed.partitions)

    def test_round_robin_balances_exactly(self):
        cluster = Cluster(4)
        distributed = cluster.distribute("t", make_table(range(8)),
                                         Distribution.round_robin())
        assert [p.num_rows for p in distributed.partitions] == [2, 2, 2, 2]

    def test_null_keys_go_to_segment_zero(self):
        cluster = Cluster(4)
        table = make_table([None, None, None])
        distributed = cluster.distribute("t", table,
                                         Distribution.hashed("k"))
        assert distributed.partitions[0].num_rows == 3

    def test_gather_reassembles(self):
        cluster = Cluster(4)
        table = make_table(range(100))
        distributed = cluster.distribute("t", table,
                                         Distribution.hashed("k"))
        gathered = distributed.gather()
        assert sorted(r[0] for r in gathered.rows()) == list(range(100))

    def test_missing_table_lookup(self):
        with pytest.raises(CatalogError):
            Cluster(2).table("ghost")


class TestJoinPlanning:
    def test_colocated_join_moves_nothing(self):
        cluster = Cluster(4)
        a = cluster.distribute("a", make_table(range(100)),
                               Distribution.hashed("k"))
        b = cluster.distribute("b", make_table(range(100)),
                               Distribution.hashed("k"))
        decision = plan_join(cluster, a, b, "k", "k")
        assert decision.strategy is JoinStrategy.COLOCATED
        assert decision.estimated_rows_moved == 0

    def test_redistribute_smaller_side(self):
        cluster = Cluster(4)
        big = cluster.distribute("big", make_table(range(1000)),
                                 Distribution.hashed("k"))
        small = cluster.distribute("small", make_table(range(10)),
                                   Distribution.round_robin())
        decision = plan_join(cluster, big, small, "k", "k")
        assert decision.strategy in (JoinStrategy.REDISTRIBUTE_RIGHT,
                                     JoinStrategy.BROADCAST_RIGHT)

    def test_replicated_side_is_colocated(self):
        cluster = Cluster(4)
        a = cluster.distribute("a", make_table(range(100)),
                               Distribution.hashed("k"))
        b = cluster.distribute("b", make_table(range(10)),
                               Distribution.replicated())
        assert plan_join(cluster, a, b, "k", "k").strategy \
            is JoinStrategy.COLOCATED


class TestDistributedExecution:
    def test_join_result_matches_single_node(self):
        cluster = Cluster(4)
        left = make_table(range(50))
        right = make_table([k % 10 for k in range(30)])
        a = cluster.distribute("a", left, Distribution.hashed("k"))
        b = cluster.distribute("b", right, Distribution.round_robin())
        joined, _ = distributed_join(cluster, a, b, "k", "k")
        expected = sum(1 for lk, _ in left.rows()
                       for rk, _ in right.rows() if lk == rk)
        assert joined.num_rows == expected

    def test_join_rows_match_single_process_engine(self):
        # Two-hop paths over a small graph with NULL, duplicate and
        # dangling keys; each segment's local join probes without a
        # prebuilt build-side index.
        from repro import Database
        edges = [(1, 2), (2, 3), (2, 4), (3, 1), (4, None), (None, 2),
                 (7, 8), (2, 3), (40, 2)]
        table = Table.from_columns([
            ("src", SqlType.INTEGER, [s for s, _ in edges]),
            ("dst", SqlType.INTEGER, [d for _, d in edges]),
        ])
        db = Database()
        db.create_table("edges", [("src", SqlType.INTEGER),
                                  ("dst", SqlType.INTEGER)])
        db.load_rows("edges", edges)
        expected = sorted(db.execute(
            "SELECT a.src, a.dst, b.src, b.dst FROM edges a "
            "JOIN edges b ON a.dst = b.src").rows(), key=repr)
        assert expected
        for segments in (1, 3):
            cluster = Cluster(segments)
            a = cluster.distribute("a", table, Distribution.round_robin())
            b = cluster.distribute("b", table, Distribution.hashed("src"))
            joined, _ = distributed_join(cluster, a, b, "dst", "src")
            assert sorted(joined.gather().rows(), key=repr) == expected

    def test_join_charges_motion(self):
        cluster = Cluster(4)
        a = cluster.distribute("a", make_table(range(100)),
                               Distribution.hashed("k"))
        b = cluster.distribute("b", make_table(range(100)),
                               Distribution.round_robin())
        cluster.motion.reset()
        _, decision = distributed_join(cluster, a, b, "k", "k")
        assert decision.strategy is JoinStrategy.REDISTRIBUTE_RIGHT
        assert cluster.motion.rows_moved == 100

    def test_colocated_join_charges_nothing(self):
        cluster = Cluster(4)
        a = cluster.distribute("a", make_table(range(100)),
                               Distribution.hashed("k"))
        b = cluster.distribute("b", make_table(range(100)),
                               Distribution.hashed("k"))
        cluster.motion.reset()
        distributed_join(cluster, a, b, "k", "k")
        assert cluster.motion.rows_moved == 0

    def test_two_phase_aggregate_matches_single_node(self):
        cluster = Cluster(4)
        keys = [k % 7 for k in range(200)]
        values = [float(k) for k in range(200)]
        table = make_table(keys, values)
        distributed = cluster.distribute("t", table,
                                         Distribution.round_robin())
        result = distributed_aggregate_sum(cluster, distributed, "k", "v")
        gathered = dict(result.gather().rows())
        expected = {}
        for key, value in zip(keys, values):
            expected[key] = expected.get(key, 0.0) + value
        assert gathered == pytest.approx(expected)

    def test_partial_aggregation_reduces_motion(self):
        """The point of two-phase aggregation: partials, not rows, move."""
        cluster = Cluster(4)
        table = make_table([k % 5 for k in range(1000)])
        distributed = cluster.distribute("t", table,
                                         Distribution.round_robin())
        cluster.motion.reset()
        distributed_aggregate_sum(cluster, distributed, "k", "v")
        # At most segments * groups partial rows move (plus the
        # redistribute of those partials), never the 1000 input rows.
        assert cluster.motion.rows_moved <= 2 * 4 * 5

    def test_broadcast_multiplies_rows(self):
        cluster = Cluster(5)
        distributed = cluster.distribute("t", make_table(range(10)),
                                         Distribution.hashed("k"))
        cluster.motion.reset()
        replicated = cluster.broadcast(distributed)
        assert cluster.motion.rows_moved == 50
        assert replicated.distribution.kind is DistributionKind.REPLICATED

    def test_more_segments_do_not_change_results(self):
        tables = {}
        for segments in (1, 2, 8):
            cluster = Cluster(segments)
            table = make_table([k % 9 for k in range(300)])
            distributed = cluster.distribute(
                "t", table, Distribution.round_robin())
            result = distributed_aggregate_sum(cluster, distributed,
                                               "k", "v")
            tables[segments] = dict(result.gather().rows())
        assert tables[1] == pytest.approx(tables[2])
        assert tables[1] == pytest.approx(tables[8])
