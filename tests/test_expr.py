"""Expression lowering tests — SQL text, and that text evaluated by Spark."""
import pytest
from pyspark.sql import functions as F

from repro.core.analyzer import ColEq, Pred
from repro.core.ast import AttrRef, BinOp, HistRef, Literal, UnaryOp
from repro.core.expr import pred_sql, sql_quote, to_sql

NAME = lambda n: f"`{n}`"  # noqa: E731
HIST = lambda n, k: f"`h{k}_{n}`"  # noqa: E731
SNAME = lambda n: f"a.{n}"  # noqa: E731
SHIST = lambda n, k: f"h{k}.{n}"  # noqa: E731


def ev(spark, e, **row):
    """Evaluate expression e's Spark SQL text against a single-row DataFrame."""
    df = spark.createDataFrame([row])
    return df.select(F.expr(to_sql(e, NAME, HIST)).alias("v")).collect()[0]["v"]


class TestSqlQuote:
    def test_string(self):
        assert sql_quote("abc") == "'abc'"

    def test_escapes_single_quote(self):
        assert sql_quote("a'b") == "'a''b'"

    def test_int(self):
        assert sql_quote(42) == "42"

    def test_float(self):
        assert sql_quote(1.5) == "1.5"

    def test_spark_doubles_backslash(self):
        assert sql_quote("C:\\t", "spark") == "'C:\\\\t'"

    @pytest.mark.parametrize("dialect", ["duckdb", "postgres"])
    def test_other_dialects_keep_backslash(self, dialect):
        assert sql_quote("C:\\t", dialect) == "'C:\\t'"

    def test_spark_like_doubles_backslash_again(self):
        p = Pred("o_name", "like", "C:\\t%")
        assert pred_sql(p) == "o_name LIKE 'C:\\\\\\\\t%'"
        assert pred_sql(p, dialect="duckdb") == "o_name LIKE 'C:\\t%'"

    def test_column_equality_prefixes_both_columns(self):
        assert pred_sql(ColEq("s_uid", "o_uid"), "e1.") == "e1.s_uid = e1.o_uid"

    def test_spark_reads_literal_back(self, spark):
        v = "a\\b'c"
        assert spark.range(1).select(F.expr(sql_quote(v))).first()[0] == v


class TestToSql:
    def test_arithmetic(self):
        e = BinOp("+", AttrRef(None, "amt"), Literal(3))
        assert to_sql(e, SNAME, SHIST) == "(a.amt + 3)"

    def test_hist_ref(self):
        e = BinOp(">", AttrRef(None, "amt"), HistRef("amt", 2))
        assert to_sql(e, SNAME, SHIST) == "(a.amt > h2.amt)"

    def test_ne_spelled_standard(self):
        e = BinOp("!=", AttrRef(None, "x"), Literal(1))
        assert to_sql(e, SNAME, SHIST) == "(a.x <> 1)"

    def test_and_or_upper(self):
        e = BinOp("or", BinOp("and", Literal(1), Literal(2)), Literal(3))
        assert to_sql(e, SNAME, SHIST) == "((1 AND 2) OR 3)"

    def test_not(self):
        e = UnaryOp("not", AttrRef(None, "x"))
        assert to_sql(e, SNAME, SHIST) == "(NOT a.x)"

    def test_neg(self):
        e = UnaryOp("-", Literal(5))
        assert to_sql(e, SNAME, SHIST) == "(-5)"

    def test_paper_having(self):
        # amt > 2 * (amt + amt[1] + amt[2]) / 3
        e = BinOp(">", AttrRef(None, "amt"),
                  BinOp("/", BinOp("*", Literal(2),
                                   BinOp("+", BinOp("+", AttrRef(None, "amt"),
                                                    HistRef("amt", 1)),
                                         HistRef("amt", 2))),
                        Literal(3)))
        assert to_sql(e, SNAME, SHIST) == \
            "(a.amt > ((2 * ((a.amt + h1.amt) + h2.amt)) / 3))"

    def test_unresolved_attr_raises(self):
        with pytest.raises(ValueError, match="unresolved"):
            to_sql(AttrRef("p", "x"), SNAME, SHIST)


class TestToColumn:
    """``to_sql`` text evaluated by Spark through ``F.expr``."""

    def test_literal(self, spark):
        assert ev(spark, Literal(7), x=0) == 7

    def test_name_resolution(self, spark):
        assert ev(spark, AttrRef(None, "x"), x=9) == 9

    @pytest.mark.parametrize("op,l,r,want", [
        ("+", 2, 3, 5), ("-", 7, 3, 4), ("*", 4, 5, 20), ("/", 9, 2, 4.5),
    ])
    def test_arithmetic(self, spark, op, l, r, want):
        assert ev(spark, BinOp(op, Literal(l), Literal(r)), x=0) == want

    @pytest.mark.parametrize("op,l,r,want", [
        ("=", 3, 3, True), ("!=", 3, 3, False), ("<", 2, 3, True),
        ("<=", 3, 3, True), (">", 2, 3, False), (">=", 3, 3, True),
    ])
    def test_comparisons(self, spark, op, l, r, want):
        assert ev(spark, BinOp(op, Literal(l), Literal(r)), x=0) is want

    def test_and_or_not(self, spark):
        e = BinOp("and", Literal(True), UnaryOp("not", Literal(False)))
        assert ev(spark, e, x=0) is True

    def test_hist_resolution(self, spark):
        e = BinOp(">", AttrRef(None, "x"), HistRef("x", 1))
        df = spark.createDataFrame([{"x": 5, "h1_x": 3}])
        got = df.select(F.expr(to_sql(e, NAME, HIST)).alias("v")).collect()[0]["v"]
        assert got is True

    def test_null_comparison_is_null(self, spark):
        """NULL history → NULL comparison → filter drops the row (the
        documented amt[k] semantics)."""
        df = spark.createDataFrame([(5, None)], "x int, h1_x int")
        e = BinOp(">", AttrRef(None, "x"), HistRef("x", 1))
        assert df.where(to_sql(e, NAME, HIST)).count() == 0
