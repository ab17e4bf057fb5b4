"""Pattern-compiler tests: predicate text, projected prefixed scans,
temporal conditions, projection."""
import pytest
from pyspark.sql import functions as F

from repro.core.analyzer import OrGroup, Pred, analyze
from repro.core.ast import TemporalConstraint
from repro.core.compiler import (
    join_multievent,
    pattern_cols,
    pattern_df,
    project_return,
)
from repro.core.expr import pred_sql, temporal_sql, where_sql
from repro.core.parser import parse

DAY0 = 1523318400000


def ana(text):
    return analyze(parse(text))


class TestPredToColumn:
    """The predicate text the engine filters with, evaluated by ``where``
    against the same filter written with Spark Columns."""

    @pytest.fixture(scope="class")
    def df(self, spark, tiny):
        return tiny

    def test_eq(self, df):
        assert df.where(pred_sql(Pred("s_name", "=", "bash"))).count() \
            == df.filter(F.col("s_name") == "bash").count()

    def test_like(self, df):
        n = df.where(pred_sql(Pred("o_name", "like", "/tmp/%"))).count()
        assert n == df.filter(F.col("o_name").like("/tmp/%")).count() > 0

    def test_not_like_excludes_nulls(self, df):
        """NOT LIKE keeps SQL three-valued logic: NULL o_name rows drop."""
        n = df.where(pred_sql(Pred("o_name", "not like", "/tmp/%"))).count()
        manual = df.filter(F.col("o_name").isNotNull()
                           & ~F.col("o_name").like("/tmp/%")).count()
        assert n == manual

    @pytest.mark.parametrize("op,cnt_op", [
        ("<", "__lt__"), ("<=", "__le__"), (">", "__gt__"), (">=", "__ge__"),
        ("!=", "__ne__"),
    ])
    def test_ordering_ops(self, df, op, cnt_op):
        got = df.where(pred_sql(Pred("amount", op, 100))).count()
        want = df.filter(getattr(F.col("amount"), cnt_op)(100)).count()
        assert got == want

    def test_or_group(self, df):
        og = OrGroup((Pred("s_name", "=", "bash"), Pred("s_name", "=", "curl")))
        assert df.where(pred_sql(og)).count() == \
            df.filter(F.col("s_name").isin("bash", "curl")).count()

    def test_empty_filter_is_true(self, df):
        assert df.where(where_sql([])).count() == df.count()


class TestPatternDf:
    def test_prefixes_all_columns(self, tiny):
        a = ana('proc p read file f as e1\nreturn p')
        df = pattern_df(tiny, a, "e1")
        assert all(c.startswith("e1__") for c in df.columns)
        assert "e1__s_name" in df.columns

    def test_applies_filters(self, tiny):
        a = ana('proc p["bash"] read file f as e1\nreturn p')
        rows = pattern_df(tiny, a, "e1").collect()
        assert all(r["e1__s_name"] == "bash" for r in rows)
        assert len(rows) == 1  # only the t+500 bash file read

    def test_etype_op_pruning(self, tiny):
        a = ana('proc p start proc q as e1\nreturn p, e1.op as op')
        rows = pattern_df(tiny, a, "e1").collect()
        assert {r["e1__op"] for r in rows} == {"start"}
        assert len(rows) == tiny.filter("etype = 'process' AND op = 'start'").count()

    def test_projects_only_used_columns(self, tiny):
        a = ana('proc p start proc q as e1\n'
                'proc q read file f as e2\n'
                'with e1 before e2\n'
                'return p, f, e2.amount as amt')
        assert pattern_cols(a, "e1") == ["o_uid", "ts", "s_name"]
        assert pattern_cols(a, "e2") == ["s_uid", "ts", "o_name", "amount"]
        assert pattern_df(tiny, a, "e2").columns == [
            "e2__s_uid", "e2__ts", "e2__o_name", "e2__amount"]

    def test_same_variable_in_one_pattern_keeps_one_uid_column(self):
        # p is both subject and object of e1: a predicate inside e1, so
        # only the cross-pattern uid is kept.
        a = ana('proc p start proc p as e1\n'
                'proc p read file f as e2\nreturn p')
        assert pattern_cols(a, "e1") == ["s_uid", "s_name"]
        assert pattern_cols(a, "e2") == ["s_uid"]


class TestTemporalCondition:
    """``temporal_sql`` over prefixed columns, evaluated by ``where``."""

    def test_before(self, spark):
        df = spark.createDataFrame([{"a__ts": 1, "b__ts": 2},
                                    {"a__ts": 3, "b__ts": 2}])
        tc = TemporalConstraint("a", "before", "b")
        assert df.where(" AND ".join(temporal_sql(tc, "__"))).count() == 1

    def test_after_swaps(self, spark):
        df = spark.createDataFrame([{"a__ts": 1, "b__ts": 2},
                                    {"a__ts": 3, "b__ts": 2}])
        tc = TemporalConstraint("a", "after", "b")
        assert df.where(" AND ".join(temporal_sql(tc, "__"))).count() == 1

    def test_within(self, spark):
        df = spark.createDataFrame([{"a__ts": 0, "b__ts": 500},
                                    {"a__ts": 0, "b__ts": 5000}])
        tc = TemporalConstraint("a", "before", "b", within_ms=1000)
        got = df.where(" AND ".join(temporal_sql(tc, "__"))).collect()
        assert len(got) == 1 and got[0]["b__ts"] == 500


class TestJoinAndProject:
    Q = ('proc p start proc q as e1\n'
         'proc q read file f as e2\n'
         'with e1 before e2\n'
         'return p, q, f')

    def test_two_pattern_join(self, tiny):
        a = ana(self.Q)
        dfs = {al: pattern_df(tiny, a, al) for al in ("e1", "e2")}
        j = join_multievent(dfs, a, ["e1", "e2"])
        out = project_return(j, a).collect()
        # bash starts python (t+1000) -> python reads /tmp/x (t+2000, t+next-day)
        # and nginx starts sh (t+10000) -> sh reads /etc/passwd (t+11000)
        assert {(r["p"], r["q"], r["f"]) for r in out} == {
            ("bash", "python", "/tmp/x"), ("nginx", "sh", "/etc/passwd")}

    def test_join_order_invariant(self, tiny):
        a = ana(self.Q)
        dfs = {al: pattern_df(tiny, a, al) for al in ("e1", "e2")}
        out1 = set(map(tuple, project_return(
            join_multievent(dfs, a, ["e1", "e2"]), a).collect()))
        a2 = ana(self.Q)
        dfs2 = {al: pattern_df(tiny, a2, al) for al in ("e1", "e2")}
        out2 = set(map(tuple, project_return(
            join_multievent(dfs2, a2, ["e2", "e1"]), a2).collect()))
        assert out1 == out2

    def test_broadcast_matches_plain(self, tiny):
        a = ana(self.Q)
        dfs = {al: pattern_df(tiny, a, al) for al in ("e1", "e2")}
        plain = set(map(tuple, project_return(
            join_multievent(dfs, a, ["e1", "e2"]), a).collect()))
        bcast = set(map(tuple, project_return(
            join_multievent(dfs, a, ["e1", "e2"], broadcast={"e2"}), a).collect()))
        assert plain == bcast

    def test_distinct(self, tiny):
        # curl writes /tmp/y and sh writes /tmp/y -> two rows; distinct on f
        a = ana('proc p write file f as e1\nreturn distinct f')
        dfs = {"e1": pattern_df(tiny, a, "e1")}
        out = project_return(join_multievent(dfs, a, ["e1"]), a).collect()
        names = [r["f"] for r in out]
        assert len(names) == len(set(names))
