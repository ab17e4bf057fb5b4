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
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.analyzer import DEFAULT_ATTR, Analysis
from repro.core.ast import AttrRef, FuncCall
from repro.core.compiler import pattern_filter
from repro.core.expr import to_column

_AGG_FN = {"avg": F.avg, "sum": F.sum, "count": F.count,
           "min": F.min, "max": F.max}


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


def agg_expr(name: str, fc: FuncCall, ana: Analysis):
    """One aggregate return item → a Spark aggregate expression."""
    if not fc.args:
        if fc.name != "count":
            raise ValueError(f"{fc.name}() needs an argument")
        return F.count(F.lit(1)).alias(name)
    ref = fc.args[0]
    assert isinstance(ref, AttrRef)
    _, col, _ = ana.resolve_ref(ref)
    return _AGG_FN[fc.name](F.col(col)).alias(name)


def window_bounds(ana: Analysis):
    """(t0, window, step, kmax): window k covers [t0 + k*step, +window)."""
    q = ana.query
    t0, t1 = q.time_range
    kmax = (t1 - t0 - 1) // q.step_ms
    return t0, q.window_ms, q.step_ms, kmax


def history(name: str, k: int, gcols: list[str]) -> Column:
    """``name[k]``: the group's aggregate exactly k *windows* (not rows)
    earlier — the aggregate has at most one row per window and group. NULL
    group keys get NULL history, as the SQL self-join's ``h.c = a.c``."""
    w = Window.partitionBy(*gcols).orderBy("wid").rangeBetween(-k, -k)
    keyed = reduce(Column.__and__, [F.col(c).isNotNull() for c in gcols], F.lit(True))
    return F.when(keyed, F.first(name).over(w))


def run(events: DataFrame, ana: Analysis) -> DataFrame:
    """Execute the analyzed anomaly query over the (possibly store-pruned)
    event DataFrame."""
    q = ana.query
    alias = q.events[0].alias
    t0, w, s, kmax = window_bounds(ana)
    df = events.filter(pattern_filter(ana.pattern_preds[alias]))
    lo = F.greatest(
        F.lit(0).cast("long"),
        (F.floor((F.col("ts") - F.lit(t0) - F.lit(w)) / F.lit(s)) + 1).cast("long"),
    )
    hi = F.least(
        F.lit(kmax).cast("long"),
        F.floor((F.col("ts") - F.lit(t0)) / F.lit(s)).cast("long"),
    )
    df = (
        df.withColumn("__lo", lo)
        .withColumn("__hi", hi)
        .filter(F.col("__lo") <= F.col("__hi"))
        .withColumn("wid", F.explode(F.sequence(F.col("__lo"), F.col("__hi"))))
    )
    gcols = group_cols(ana)
    aggs = [agg_expr(n, fc, ana) for n, fc in ana.agg_aliases.items()]
    agg = df.groupBy(*(["wid"] + gcols)).agg(*aggs)
    agg = agg.withColumns({f"__h{k}__{n}": history(n, k, gcols)
                           for k in ana.hist_ks for n in ana.agg_aliases})
    if q.having is not None:
        cond = to_column(
            q.having,
            resolve_name=lambda n: F.col(n),
            resolve_hist=lambda n, k: F.col(f"__h{k}__{n}"),
        )
        agg = agg.filter(cond)

    out_cols = []
    for it, name in zip(q.return_items, ana.return_names):
        if isinstance(it.expr, FuncCall):
            out_cols.append(F.col(name))
        else:
            _, c, _ = ana.resolve_ref(it.expr)
            out_cols.append(F.col(c).alias(name))
    out = agg.select(out_cols)
    return out.distinct() if q.distinct else out
