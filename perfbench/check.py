"""Correctness gate: every query's rows against DuckDB, plus ground truth.

The expected rows come from DuckDB running ``repro.core.baseline.oracle_sql``
over the same events the engine reads. Rows are compared as multisets after
a canonical column and row order, with floats rounded to 6 decimals. This
check is kept in the benchmark rather than imported from the program, so a
change to the program's own canonicalizer cannot loosen it.
"""
from __future__ import annotations

import duckdb
import pandas as pd


def canon(pdf: pd.DataFrame) -> pd.DataFrame:
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def mismatch(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """None when the two results hold the same rows, else a reason."""
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    if len(got) != len(expected):
        return f"{len(got)} rows, oracle has {len(expected)}"
    try:
        pd.testing.assert_frame_equal(canon(got), canon(expected),
                                      check_dtype=False)
    except AssertionError as e:
        return str(e).splitlines()[0]
    return None


def ground_truth_miss(got: pd.DataFrame, contains, absent) -> str | None:
    """None when every ``contains`` partial row matches some result row and
    no ``absent`` partial row does."""
    def hit(part: dict) -> bool:
        if not set(part) <= set(got.columns):
            return False
        m = pd.Series(True, index=got.index)
        for k, v in part.items():
            m &= got[k] == v
        return bool(m.any())

    for part in contains:
        if not hit(part):
            return f"missing expected row {part}"
    for part in absent:
        if hit(part):
            return f"found excluded row {part}"
    return None


class Oracle:
    """DuckDB over one arrow table of events, registered as ``events``."""

    def __init__(self, events_arrow):
        self.con = duckdb.connect()
        self.con.register("events", events_arrow)

    def rows(self, sql: str) -> pd.DataFrame:
        return self.con.execute(sql).fetchdf()

    def amount_quantile(self, etype: str, op: str, q: float) -> float:
        return float(self.con.execute(
            "SELECT quantile_cont(amount, ?) FROM events "
            "WHERE etype = ? AND op = ?", [q, etype, op]).fetchone()[0])
