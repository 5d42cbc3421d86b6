"""DML tests: INSERT / UPDATE / DELETE including UPDATE ... FROM, which
the middleware and stored-procedure baselines depend on."""

import pytest

from repro.errors import CatalogError, TypeCheckError
from repro import Database


@pytest.fixture
def accounts(db):
    db.execute("CREATE TABLE accounts (id int, owner text, balance float)")
    db.execute("INSERT INTO accounts VALUES "
               "(1, 'ada', 100.0), (2, 'grace', 250.0), (3, 'alan', 0.0)")
    return db


class TestInsert:
    def test_insert_values(self, accounts):
        result = accounts.execute(
            "INSERT INTO accounts VALUES (4, 'barbara', 10.0)")
        assert result.rowcount == 1
        assert accounts.execute(
            "SELECT COUNT(*) FROM accounts").scalar() == 4

    def test_insert_multiple_rows(self, accounts):
        result = accounts.execute(
            "INSERT INTO accounts VALUES (4, 'b', 1.0), (5, 'c', 2.0)")
        assert result.rowcount == 2

    def test_insert_column_subset_fills_nulls(self, accounts):
        accounts.execute("INSERT INTO accounts (id, owner) VALUES (9, 'x')")
        row = accounts.execute(
            "SELECT balance FROM accounts WHERE id = 9").scalar()
        assert row is None

    def test_insert_reordered_columns(self, accounts):
        accounts.execute(
            "INSERT INTO accounts (balance, id, owner) "
            "VALUES (5.5, 7, 'y')")
        assert accounts.execute(
            "SELECT balance FROM accounts WHERE id = 7").scalar() == 5.5

    def test_insert_select(self, accounts):
        result = accounts.execute("""
            INSERT INTO accounts
            SELECT id + 100, owner, balance * 2 FROM accounts""")
        assert result.rowcount == 3
        assert accounts.execute(
            "SELECT balance FROM accounts WHERE id = 101").scalar() == 200.0

    def test_insert_select_with_iterative_cte(self, accounts):
        accounts.execute("CREATE TABLE powers (k int, v int)")
        accounts.execute("""
            INSERT INTO powers
            WITH ITERATIVE p (k, v) AS (
              SELECT 1, 1 ITERATE SELECT k, v * 2 FROM p UNTIL 5 ITERATIONS
            ) SELECT k, v FROM p""")
        assert accounts.execute("SELECT v FROM powers").scalar() == 32

    def test_insert_unknown_column(self, accounts):
        with pytest.raises(CatalogError):
            accounts.execute("INSERT INTO accounts (nope) VALUES (1)")

    def test_insert_wrong_width(self, accounts):
        with pytest.raises(TypeCheckError):
            accounts.execute("INSERT INTO accounts (id, owner) VALUES (1)")

    def test_insert_expression_values(self, accounts):
        accounts.execute(
            "INSERT INTO accounts VALUES (10, UPPER('zed'), 1 + 2)")
        assert accounts.execute(
            "SELECT owner FROM accounts WHERE id = 10").scalar() == "ZED"


class TestUpdate:
    def test_update_all_rows(self, accounts):
        result = accounts.execute("UPDATE accounts SET balance = 0")
        assert result.rowcount == 3
        total = accounts.execute(
            "SELECT SUM(balance) FROM accounts").scalar()
        assert total == 0

    def test_update_with_where(self, accounts):
        result = accounts.execute(
            "UPDATE accounts SET balance = balance + 10 WHERE id = 1")
        assert result.rowcount == 1
        assert accounts.execute(
            "SELECT balance FROM accounts WHERE id = 1").scalar() == 110.0

    def test_update_expression_references_old_values(self, accounts):
        accounts.execute("UPDATE accounts SET balance = balance * 2")
        assert accounts.execute(
            "SELECT balance FROM accounts WHERE id = 2").scalar() == 500.0

    def test_update_multiple_assignments(self, accounts):
        accounts.execute(
            "UPDATE accounts SET owner = 'x', balance = 1 WHERE id = 3")
        row = accounts.execute(
            "SELECT owner, balance FROM accounts WHERE id = 3").rows()[0]
        assert row == ("x", 1.0)

    def test_update_from_join(self, accounts):
        accounts.execute("CREATE TABLE deltas (id int, amount float)")
        accounts.execute(
            "INSERT INTO deltas VALUES (1, 5.0), (3, 7.0)")
        result = accounts.execute("""
            UPDATE accounts SET balance = balance + d.amount
            FROM deltas AS d WHERE accounts.id = d.id""")
        assert result.rowcount == 2
        assert accounts.execute(
            "SELECT balance FROM accounts WHERE id = 1").scalar() == 105.0
        assert accounts.execute(
            "SELECT balance FROM accounts WHERE id = 2").scalar() == 250.0

    def test_update_from_unmatched_rows_untouched(self, accounts):
        accounts.execute("CREATE TABLE deltas (id int, amount float)")
        accounts.execute("INSERT INTO deltas VALUES (99, 5.0)")
        result = accounts.execute("""
            UPDATE accounts SET balance = d.amount
            FROM deltas AS d WHERE accounts.id = d.id""")
        assert result.rowcount == 0

    def test_update_unknown_column(self, accounts):
        with pytest.raises(CatalogError):
            accounts.execute("UPDATE accounts SET nope = 1")

    def test_update_counts_unique_rows(self, accounts):
        # Two FROM matches for one target row still count it once.
        accounts.execute("CREATE TABLE deltas (id int, amount float)")
        accounts.execute("INSERT INTO deltas VALUES (1, 5.0), (1, 6.0)")
        result = accounts.execute("""
            UPDATE accounts SET balance = d.amount
            FROM deltas AS d WHERE accounts.id = d.id""")
        assert result.rowcount == 1

    def test_update_from_last_match_wins(self, accounts):
        accounts.execute("CREATE TABLE deltas (id int, amount float)")
        accounts.execute("INSERT INTO deltas VALUES "
                         "(1, 5.0), (2, 8.0), (1, 6.0), (2, 9.0)")
        accounts.execute("""
            UPDATE accounts SET balance = d.amount
            FROM deltas AS d WHERE accounts.id = d.id""")
        assert accounts.execute(
            "SELECT id, balance FROM accounts ORDER BY id").rows() == [
            (1, 6.0), (2, 9.0), (3, 0.0)]

    def test_unassigned_columns_keep_their_version(self, accounts):
        before = accounts.catalog.get("accounts").columns
        accounts.execute(
            "UPDATE accounts SET balance = balance + 1 WHERE id = 2")
        after = accounts.catalog.get("accounts").columns
        assert [c.version for c in after[:2]] == \
            [c.version for c in before[:2]]
        assert after[2].version != before[2].version
        assert after[2].to_list() == [100.0, 251.0, 0.0]


class TestDelete:
    def test_delete_with_where(self, accounts):
        result = accounts.execute("DELETE FROM accounts WHERE balance = 0")
        assert result.rowcount == 1
        assert accounts.execute(
            "SELECT COUNT(*) FROM accounts").scalar() == 2

    def test_delete_all(self, accounts):
        result = accounts.execute("DELETE FROM accounts")
        assert result.rowcount == 3
        assert accounts.execute(
            "SELECT COUNT(*) FROM accounts").scalar() == 0

    def test_delete_nothing_matches(self, accounts):
        assert accounts.execute(
            "DELETE FROM accounts WHERE id = 999").rowcount == 0

    def test_delete_null_predicate_rows_survive(self, accounts):
        accounts.execute("INSERT INTO accounts (id) VALUES (50)")
        accounts.execute("DELETE FROM accounts WHERE balance < 1000")
        # The row with NULL balance is not deleted (UNKNOWN predicate).
        assert accounts.execute(
            "SELECT COUNT(*) FROM accounts").scalar() == 1


class TestDdl:
    def test_create_and_drop(self, db):
        db.execute("CREATE TABLE t (a int)")
        assert db.catalog.exists("t")
        db.execute("DROP TABLE t")
        assert not db.catalog.exists("t")

    def test_create_duplicate_raises(self, db):
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a int)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a int)")

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS ghost")

    def test_primary_key_recorded(self, db):
        db.execute("CREATE TABLE t (a int PRIMARY KEY, b float)")
        assert db.table("t").schema.primary_key == "a"

    def test_ddl_acquires_locks(self, db):
        before = db.transactions.stats.locks_acquired
        db.execute("CREATE TABLE t (a int)")
        assert db.transactions.stats.locks_acquired == before + 1


class TestTransactions:
    def test_begin_commit(self, db):
        db.execute("BEGIN")
        db.execute("COMMIT")
        assert db.transactions.stats.committed == 1

    def test_rollback(self, db):
        db.execute("BEGIN")
        db.execute("ROLLBACK")
        assert db.transactions.stats.rolled_back == 1

    def test_nested_begin_rejected(self, db):
        from repro.errors import TransactionError
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("BEGIN")

    def test_commit_without_begin_rejected(self, db):
        from repro.errors import TransactionError
        with pytest.raises(TransactionError):
            db.execute("COMMIT")

    def test_locks_released_at_statement_boundary_in_autocommit(self, db):
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t VALUES (1)")
        # Each statement re-acquires its lock: two acquisitions, and the
        # peak table size never exceeded one entry.
        assert db.transactions.stats.locks_acquired == 2
        assert db.transactions.stats.lock_table_peak == 1

    def test_locks_accumulate_inside_transaction(self, db):
        db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE TABLE u (a int)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO u VALUES (1)")
        assert db.transactions.stats.lock_table_peak == 2
        db.execute("COMMIT")
