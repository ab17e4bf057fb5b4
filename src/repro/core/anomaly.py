"""Anomaly-query execution (paper §2.2.3, §2.3).

"The engine partitions the events into sliding windows by the timestamp,
computes the aggregate results, and enforces the filters."

Windows start every ``step`` and span ``window`` (they overlap when
``step < window``); an event is exploded into every window containing it.
Historical aggregate access ``amt[k]`` resolves to the same group's
aggregate exactly k windows earlier — a range frame over ``wid``, so all
history depths share one shuffle of the (small) per-window aggregate. If
that window has no events, or a group column is NULL, the reference is NULL
and the ``having`` comparison rejects the row — identically in the
synthesized self-join SQL (``sqlgen.py``), which the DuckDB oracle verifies.

Every clause is SQL text from ``repro.core.expr`` (and the window bounds
below, which ``sqlgen`` shares), passed to the JVM one call per clause.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.analyzer import DEFAULT_ATTR, Analysis
from repro.core.ast import AttrRef, FuncCall
from repro.core.expr import to_sql, where_sql


def group_cols(ana: Analysis) -> list[str]:
    """Physical grouping columns. A bare entity variable groups by the
    *entity* — its uid — with the default attribute carried alongside for
    projection; an explicit ``var.attr`` groups by that column alone."""
    cols: list[str] = []

    def add(c: str) -> None:
        if c not in cols:
            cols.append(c)

    for g in ana.query.group_by:
        if g.var is None and g.attr in ana.etypes:
            var = g.attr
            _, uid = ana.entity_col(var, "uid")
            _, attr = ana.entity_col(var, DEFAULT_ATTR[ana.etypes[var]])
            add(uid)
            add(attr)
        else:
            _, c, _ = ana.resolve_ref(g)
            add(c)
    return cols


def agg_sql(fc: FuncCall, ana: Analysis) -> str:
    """One aggregate return item → SQL aggregate text (shared with
    ``sqlgen``)."""
    if not fc.args:
        if fc.name != "count":
            raise ValueError(f"{fc.name}() needs an argument")
        return "COUNT(*)"
    ref = fc.args[0]
    assert isinstance(ref, AttrRef)
    _, col, _ = ana.resolve_ref(ref)
    return f"{fc.name.upper()}({col})"


def window_ids(ana: Analysis) -> tuple[str, str]:
    """SQL text for the first and last window id containing an event at
    ``ts``: window k covers [t0 + k*step, t0 + k*step + window), and ids
    run from 0 to the last window starting inside the query's range."""
    q = ana.query
    t0, t1 = q.time_range
    w, s = q.window_ms, q.step_ms
    kmax = (t1 - t0 - 1) // s
    lo = (f"GREATEST(CAST(0 AS BIGINT), "
          f"CAST(FLOOR((ts - {t0} - {w}) / {s}) AS BIGINT) + 1)")
    hi = (f"LEAST(CAST({kmax} AS BIGINT), "
          f"CAST(FLOOR((ts - {t0}) / {s}) AS BIGINT))")
    return lo, hi


def history_sql(name: str, k: int, gcols: list[str]) -> str:
    """``name[k]``: the group's aggregate exactly k *windows* (not rows)
    earlier — the aggregate has at most one row per window and group. NULL
    group keys get NULL history, as the SQL self-join's ``h.c = a.c``."""
    keyed = " AND ".join(f"{c} IS NOT NULL" for c in gcols) or "TRUE"
    part = f"PARTITION BY {', '.join(gcols)} " if gcols else ""
    return (f"CASE WHEN {keyed} THEN first(`{name}`) OVER ({part}ORDER BY wid "
            f"RANGE BETWEEN {k} PRECEDING AND {k} PRECEDING) END")


def run(events: DataFrame, ana: Analysis) -> DataFrame:
    """Execute the analyzed anomaly query over the (possibly store-pruned)
    event DataFrame."""
    q = ana.query
    alias = q.events[0].alias
    lo, hi = window_ids(ana)
    gcols = group_cols(ana)
    df = (events.where(f"{where_sql(ana.pattern_preds[alias])} AND {lo} <= {hi}")
          .selectExpr("*", f"explode(sequence({lo}, {hi})) AS wid"))
    aggs = [F.expr(f"{agg_sql(fc, ana)} AS `{n}`") for n, fc in ana.agg_aliases.items()]
    agg = df.groupBy("wid", *gcols).agg(*aggs)
    if ana.hist_ks:
        agg = agg.selectExpr("*", *[f"{history_sql(n, k, gcols)} AS `__h{k}__{n}`"
                                    for k in ana.hist_ks for n in ana.agg_aliases])
    if q.having is not None:
        agg = agg.where(to_sql(q.having,
                               resolve_name=lambda n: f"`{n}`",
                               resolve_hist=lambda n, k: f"`__h{k}__{n}`"))
    out_cols = []
    for it, name in zip(q.return_items, ana.return_names):
        c = name if isinstance(it.expr, FuncCall) else ana.resolve_ref(it.expr)[1]
        out_cols.append(f"`{c}` AS `{name}`")
    out = agg.selectExpr(*out_cols)
    return out.distinct() if q.distinct else out
