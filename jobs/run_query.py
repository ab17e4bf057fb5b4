"""Execute one AIQL query against a store and print the result.

Usage: python jobs/run_query.py --store /tmp/aiql_store --query q.aiql
       python jobs/run_query.py --store /tmp/aiql_store --name q05_exfil_chain
       ... [--baseline] [--explain]

``--explain`` prints the result's formatted physical plan first: each
pattern scan's PushedFilters, PartitionFilters and ReadSchema show what the
engine pushed into Parquet and which columns it reads.
"""
from __future__ import annotations

import argparse

import os as _os, sys as _sys
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))
from jobs._session import get_spark


def run(spark, store_path: str, text: str, baseline: bool = False):
    """Run AIQL ``text``: the optimized engine over the partitioned layout,
    or (``baseline=True``) the synthesized big SQL over the flat layout."""
    from repro.core.baseline import run_baseline
    from repro.core.engine import AIQLEngine
    from repro.monitor.storage import EventStore

    store = EventStore(spark, store_path)
    if baseline:
        return run_baseline(spark, text, store.events_flat())
    return AIQLEngine(spark, store=store).execute(text)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--store", required=True)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--query", help="path to an AIQL query file")
    src.add_argument("--name", help="workload query name (qNN_...)")
    ap.add_argument("--baseline", action="store_true",
                    help="run the big-SQL baseline instead of the engine")
    ap.add_argument("--explain", action="store_true",
                    help="print explain('formatted') of the result before it")
    a = ap.parse_args()
    if a.query:
        text = open(a.query).read()
    else:
        from repro.workload.queries import query_by_name
        text = query_by_name(a.name).aiql
    spark = get_spark("aiql-run-query")
    df = run(spark, a.store, text, a.baseline)
    if a.explain:
        df.explain("formatted")
    df.show(100, truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
