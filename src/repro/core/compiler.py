"""Lowering analyzed multievent queries to Spark DataFrame plans.

The engine does *not* hand Catalyst one big join soup (that is the baseline,
``baseline.py``). Instead — per paper §2.3 — it synthesizes one data query
per event pattern (a pruned scan projected to the columns the query uses
from it) and folds them into a left-deep join in the order chosen by the
pruning-power scheduler, broadcasting sides it has measured to be small.

Every clause is built from the SQL text of ``repro.core.expr`` and reaches
the JVM as one call (``where``, ``selectExpr``, ``F.expr``), not as a tree
of Column calls, each of which is a Py4J round trip.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.analyzer import Analysis
from repro.core.expr import temporal_sql, where_sql


def pattern_cols(ana: Analysis, alias: str) -> list[str]:
    """The columns the query reads from pattern ``alias``: its uid columns
    in shared-variable joins, ``ts`` if it is temporally constrained, and
    its return items."""
    cols: list[str] = []
    for a1, c1, a2, c2 in ana.join_conds:
        if alias in (a1, a2):
            cols.append(c1 if a1 == alias else c2)
    if any(alias in (tc.left, tc.right) for tc in ana.query.temporal):
        cols.append("ts")
    for it in ana.query.return_items:
        a, c, _ = ana.resolve_ref(it.expr)
        if a == alias:
            cols.append(c)
    return list(dict.fromkeys(cols))


def pattern_df(events: DataFrame, ana: Analysis, alias: str) -> DataFrame:
    """The synthesized data query for one event pattern: pruned scan
    projected to :func:`pattern_cols`, each prefixed ``<alias>__`` so N
    patterns can join without name collisions."""
    return (events.where(where_sql(ana.pattern_preds[alias]))
            .selectExpr(*[f"{c} AS {alias}__{c}" for c in pattern_cols(ana, alias)]))


def join_multievent(
    pattern_dfs: dict[str, DataFrame],
    ana: Analysis,
    order: list[str],
    broadcast: set[str] = frozenset(),
) -> DataFrame:
    """Fold the per-pattern DataFrames into one left-deep join.

    Every shared-variable uid equality and temporal predicate is applied at
    the earliest join where both sides are placed, so intermediate results
    shrink as fast as the constraint graph allows.
    """
    placed = {order[0]}
    joined = pattern_dfs[order[0]]
    pending_joins = list(ana.join_conds)
    pending_temporal = list(ana.query.temporal)
    for alias in order[1:]:
        nxt = pattern_dfs[alias]
        if alias in broadcast:
            nxt = F.broadcast(nxt)
        placed.add(alias)
        conds: list[str] = []
        for jc in list(pending_joins):
            a1, c1, a2, c2 = jc
            if a1 in placed and a2 in placed:
                conds.append(f"{a1}__{c1} = {a2}__{c2}")
                pending_joins.remove(jc)
        for tc in list(pending_temporal):
            if tc.left in placed and tc.right in placed:
                conds += temporal_sql(tc, "__")
                pending_temporal.remove(tc)
        if conds:
            joined = joined.join(nxt, on=F.expr(" AND ".join(conds)), how="inner")
        else:
            joined = joined.crossJoin(nxt)
    assert not pending_joins and not pending_temporal
    return joined


def project_return(joined: DataFrame, ana: Analysis) -> DataFrame:
    """Apply the return clause: resolve each item to its prefixed column,
    alias to the output name, and deduplicate if ``distinct``."""
    cols = []
    for it, name in zip(ana.query.return_items, ana.return_names):
        alias, col, _ = ana.resolve_ref(it.expr)
        cols.append(f"{alias}__{col} AS `{name}`")
    out = joined.selectExpr(*cols)
    return out.distinct() if ana.query.distinct else out
