"""Expression lowering: analyzed predicates, temporal constraints and AIQL
``having`` trees → SQL expression text.

This is the only lowering. The engine hands the text to Catalyst in one
call per clause (``DataFrame.where``/``selectExpr``, ``F.expr``), and
``sqlgen`` splices the same text into the big SQL that the baseline runs
on Spark and the oracle runs on DuckDB, so the two cannot drift.

Dialects differ only in string literals: Spark's parser reads ``\\`` as an
escape, and Spark's ``LIKE`` uses ``\\`` as its escape character, so the
``spark`` dialect doubles backslashes once in literals and once more in
``LIKE`` patterns. DuckDB and PostgreSQL (standard strings) read them
literally.
"""
from __future__ import annotations

from typing import Callable

from repro.core.analyzer import ColEq, OrGroup, Pred
from repro.core.ast import AttrRef, BinOp, HistRef, Literal, UnaryOp

DIALECTS = ("spark", "duckdb", "postgres")

_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
        "like": "LIKE", "not like": "NOT LIKE"}


def sql_quote(v, dialect: str = "spark") -> str:
    """Render a literal for SQL text in ``dialect``."""
    if isinstance(v, str):
        if dialect == "spark":
            v = v.replace("\\", "\\\\")
        return "'" + v.replace("'", "''") + "'"
    return repr(v) if isinstance(v, float) else str(v)


def pred_sql(p, prefix: str = "", dialect: str = "spark") -> str:
    """One lowered predicate (``Pred``, ``OrGroup`` or ``ColEq``) over
    ``<prefix><col>``."""
    if isinstance(p, OrGroup):
        return "(" + " OR ".join(pred_sql(s, prefix, dialect) for s in p.preds) + ")"
    if isinstance(p, ColEq):
        return f"{prefix}{p.left} = {prefix}{p.right}"
    assert isinstance(p, Pred)
    v = p.value
    if dialect == "spark" and p.op in ("like", "not like"):
        v = v.replace("\\", "\\\\")  # LIKE's own escape character
    return f"{prefix}{p.col} {_OPS[p.op]} {sql_quote(v, dialect)}"


def where_sql(preds: list, prefix: str = "", dialect: str = "spark") -> str:
    """AND of one pattern's lowered predicates (``TRUE`` when empty)."""
    return " AND ".join(pred_sql(p, prefix, dialect) for p in preds) or "TRUE"


def temporal_sql(tc, sep: str = ".") -> list[str]:
    """``with a before b [within d]`` → conditions over ``<alias><sep>ts``."""
    l, r = (tc.left, tc.right) if tc.rel == "before" else (tc.right, tc.left)
    out = [f"{l}{sep}ts < {r}{sep}ts"]
    if tc.within_ms is not None:
        out.append(f"{r}{sep}ts - {l}{sep}ts <= {tc.within_ms}")
    return out


def to_sql(
    e,
    resolve_name: Callable[[str], str],
    resolve_hist: Callable[[str, int], str],
    dialect: str = "spark",
) -> str:
    """Render an expression as SQL text (parenthesized — conciseness metrics
    count predicates, not parens)."""
    if isinstance(e, Literal):
        return sql_quote(e.value, dialect)
    if isinstance(e, AttrRef):
        if e.var is not None:
            raise ValueError(f"unresolved attribute {e.var}.{e.attr}")
        return resolve_name(e.attr)
    if isinstance(e, HistRef):
        return resolve_hist(e.name, e.k)
    if isinstance(e, UnaryOp):
        inner = to_sql(e.operand, resolve_name, resolve_hist, dialect)
        return f"(NOT {inner})" if e.op == "not" else f"(-{inner})"
    if isinstance(e, BinOp):
        l = to_sql(e.left, resolve_name, resolve_hist, dialect)
        r = to_sql(e.right, resolve_name, resolve_hist, dialect)
        op = {"or": "OR", "and": "AND", "=": "=", "!=": "<>"}.get(e.op, e.op)
        return f"({l} {op} {r})"
    raise ValueError(f"cannot render expression node {e!r}")
