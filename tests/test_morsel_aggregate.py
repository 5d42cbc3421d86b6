"""Morselized grouped aggregation: chunk-size independence.

The two-phase partial/final merge in ``repro.execution.aggregate`` must
return bit-identical results whatever the morsel size — by construction,
not tolerance (see the module docstring for the per-kernel argument).
"""

import numpy as np

from repro.engine import Database
from repro.execution.context import SessionOptions
from repro.types import SqlType

AGG_SQL = """
SELECT dept,
       COUNT(*)       AS n,
       COUNT(salary)  AS n_paid,
       SUM(salary)    AS total,
       AVG(salary)    AS mean,
       MIN(salary)    AS lowest,
       MAX(salary)    AS highest
FROM staff
GROUP BY dept
ORDER BY dept"""

GLOBAL_SQL = "SELECT COUNT(*), SUM(score), MIN(score), MAX(score) FROM staff"


def _staff_db(**options) -> Database:
    rng = np.random.default_rng(23)
    db = Database(SessionOptions(**options))
    db.create_table("staff", [("dept", SqlType.INTEGER),
                              ("salary", SqlType.FLOAT),
                              ("score", SqlType.FLOAT)])
    rows = []
    for _ in range(700):
        dept = int(rng.integers(0, 12))
        # Sprinkle NULL salaries so the valid-counts path is exercised,
        # and keep irrational-ish floats so any reassociation of the sum
        # would actually change low-order bits.
        salary = None if rng.uniform() < 0.15 \
            else float(rng.uniform(1, 2)) * np.pi
        rows.append((dept, salary, float(rng.normal())))
    # One department with NULL-only salaries: every aggregate but
    # COUNT(*) must go NULL/0 for it, morselized or not.
    rows.extend((99, None, 0.5) for _ in range(10))
    db.load_rows("staff", rows)
    return db


class TestMorselAggregate:
    def test_results_independent_of_chunk_size(self, morsel_constants):
        baseline = _staff_db(parallel_morsels=False).execute(AGG_SQL).rows()
        assert len(baseline) == 13
        for size in (1, 7, 64, 100_000):
            morsel_constants(size=size, min_rows=0, workers=3)
            db = _staff_db(parallel_morsels=True)
            assert db.execute(AGG_SQL).rows() == baseline, (
                f"morsel size {size} changed aggregate results")
            if size < 700:
                assert db.stats.morsel_agg_batches > 0
            else:
                # Single chunk: the two-phase path must step aside.
                assert db.stats.morsel_agg_batches == 0

    def test_global_aggregate_bit_identical(self, morsel_constants):
        baseline = _staff_db(parallel_morsels=False).execute(GLOBAL_SQL)
        for size in (3, 50):
            morsel_constants(size=size, min_rows=0, workers=2)
            db = _staff_db(parallel_morsels=True)
            assert db.execute(GLOBAL_SQL).rows() == baseline.rows()

    def test_null_only_group(self, morsel_constants):
        morsel_constants(size=16, min_rows=0, workers=2)
        db = _staff_db(parallel_morsels=True)
        by_dept = {row[0]: row for row in db.execute(AGG_SQL).rows()}
        dept99 = by_dept[99]
        assert dept99[1] == 10          # COUNT(*) counts NULL rows
        assert dept99[2] == 0           # COUNT(salary) ignores them
        assert dept99[3:] == (None, None, None, None)

    def test_integer_and_distinct_paths_survive(self, morsel_constants):
        morsel_constants(size=9, min_rows=0, workers=2)
        db = _staff_db(parallel_morsels=True)
        plain = _staff_db()
        sql = ("SELECT SUM(dept), COUNT(DISTINCT dept), MIN(dept), "
               "MAX(dept) FROM staff")
        assert db.execute(sql).rows() == plain.execute(sql).rows()
