"""Self-tests of the DuckDB result-equality oracle."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


@pytest.fixture()
def df(spark):
    return spark.createDataFrame(
        pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 30.0]}))


class TestOracle:
    def test_equal_passes(self, df):
        t = pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 30.0]})
        assert_equivalent(df, "SELECT k, v FROM t", t=t)

    def test_row_order_ignored(self, df):
        t = pd.DataFrame({"k": [2, 2, 1], "v": [30.0, 20.0, 10.0]})
        assert_equivalent(df, "SELECT k, v FROM t", t=t)

    def test_column_order_ignored(self, df):
        t = pd.DataFrame({"v": [10.0, 20.0, 30.0], "k": [1, 2, 2]})
        assert_equivalent(df, "SELECT v, k FROM t", t=t)

    def test_value_mismatch_fails(self, df):
        t = pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 99.0]})
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k, v FROM t", t=t)

    def test_missing_row_fails(self, df):
        t = pd.DataFrame({"k": [1, 2], "v": [10.0, 20.0]})
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k, v FROM t", t=t)

    def test_column_name_mismatch_fails(self, df):
        t = pd.DataFrame({"k": [1, 2, 2], "v": [10.0, 20.0, 30.0]})
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k, v AS other FROM t", t=t)

    def test_spark_input_table(self, spark, df):
        assert_equivalent(df, "SELECT k, v FROM t", t=df)

    def test_arrow_input_table(self, df):
        import pyarrow as pa
        t = pa.table({"k": [2, 1, 2], "v": [30.0, 10.0, 20.0]})
        assert_equivalent(df, "SELECT k, v FROM t", t=t)

    def test_float_rounding_tolerated(self, spark):
        d = spark.createDataFrame(pd.DataFrame({"x": [0.1 + 0.2]}))
        t = pd.DataFrame({"x": [0.3]})
        assert_equivalent(d, "SELECT x FROM t", t=t)
