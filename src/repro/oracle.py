"""DuckDB correctness oracle: the one DuckDB runner and result canonicalizer.

``run_duckdb(sql, **tables)`` runs ``sql`` in DuckDB over ``tables``
(Spark, pandas or Arrow; Spark inputs are collected via ``.toPandas()``).
``assert_same_rows(got, expected)`` asserts two pandas results hold the
same rows, whatever their column and row order. ``assert_equivalent``
checks a Spark result against DuckDB running ``sql``. This catches wrong
results from a rewritten plan or a custom operator — "it ran" is not "it
is correct".

Alias every output column identically on both sides (Spark names
``count(*)`` as ``count(1)``, DuckDB as ``count_star()``) and project to
scalar columns — array/map/struct columns are not orderable so cannot be
compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def run_duckdb(sql: str, **tables) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_same_rows(got: pd.DataFrame, expected: pd.DataFrame) -> None:
    assert sorted(got.columns) == sorted(expected.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    assert_same_rows(spark_df.toPandas(), run_duckdb(sql, **tables))
