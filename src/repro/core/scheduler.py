"""Pruning-power scheduling (paper §2.3, insight 1).

"For a query with multiple event patterns, we prioritize the search of
event patterns with higher pruning power, maximizing the reduction of
irrelevant events as early as possible."

Pruning power is measured as the matched cardinality of each synthesized
per-pattern data query (fewer matches = more pruning). The scheduler emits
a left-deep join order: start from the most selective pattern, then always
fold in the most selective pattern that is *connected* to the already-placed
set (shares an entity variable or a temporal constraint), falling back to
the global minimum only when the constraint graph is disconnected — this
both front-loads pruning and avoids accidental cross joins.
"""
from __future__ import annotations


def build_adjacency(
    aliases: list[str],
    join_conds: list[tuple],
    temporal: list,
) -> dict[str, set[str]]:
    """Constraint graph over event aliases: an edge means the two patterns
    are related by a shared variable or a temporal constraint."""
    adj: dict[str, set[str]] = {a: set() for a in aliases}
    for a1, _, a2, _ in join_conds:
        adj[a1].add(a2)
        adj[a2].add(a1)
    for tc in temporal:
        adj[tc.left].add(tc.right)
        adj[tc.right].add(tc.left)
    return adj


def order_patterns(
    counts: dict[str, int], adjacency: dict[str, set[str]]
) -> list[str]:
    """Left-deep join order by ascending cardinality, preferring patterns
    connected to the placed set. Deterministic: ties break on alias name."""
    if not counts:
        return []
    remaining = dict(counts)
    key = lambda a: (remaining[a], a)  # noqa: E731
    order = [min(remaining, key=key)]
    del remaining[order[0]]
    while remaining:
        connected = [
            a for a in remaining
            if any(a in adjacency.get(p, ()) for p in order)
        ]
        nxt = min(connected or remaining, key=key)
        order.append(nxt)
        del remaining[nxt]
    return order
