"""Per-layer spans, recorded from outside the program.

``Tracer.wrapped()`` replaces, for the duration of a ``with`` block, the
public functions the engine and the baseline call with wrappers that open a
span around each call; leaving the block puts the originals back. Nothing in
the program changes.

A span records its wall time, its children's wall time (self time is the
difference) and the Spark jobs it started. Jobs are attributed by giving
every span its own Spark job group on the calling thread. Jobs that the
engine starts from its probe thread pool carry no group; those are found by
diffing ``getJobIdsForGroup(None)`` across each ``AIQLEngine.execute`` span.
Job, stage and task counts are resolved after each query, outside its timed
region, through the status tracker.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: "Span | None"
    group: str
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0
    jobs: set = field(default_factory=set)     # jobs started in this span's own group
    stages: int = 0
    tasks: int = 0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - sum(c.dur for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def count(self, name: str) -> int:
        return sum(c.name == name for c in self.walk())


class Tracer:
    BASE_GROUP = "perfbench"

    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self.tracker = self.sc.statusTracker()
        self.stack: list[Span] = []
        self.n = 0
        self.sc.setJobGroup(self.BASE_GROUP, "benchmark driver")

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self.stack[-1] if self.stack else None
        self.n += 1
        s = Span(name, parent, f"{self.BASE_GROUP}-{self.n}", attrs)
        if parent is not None:
            parent.children.append(s)
        self.sc.setJobGroup(s.group, name)
        self.stack.append(s)
        s.t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            self.stack.pop()
            self.sc.setJobGroup(parent.group if parent else self.BASE_GROUP, "")

    def ungrouped_jobs(self) -> set:
        return set(self.tracker.getJobIdsForGroup(None))

    def resolve(self, root: Span) -> None:
        """Fill jobs, stages and tasks of every span under ``root``."""
        for s in root.walk():
            s.jobs |= set(self.tracker.getJobIdsForGroup(s.group))
            for j in s.jobs:
                info = self.tracker.getJobInfo(j)
                for sid in (info.stageIds if info else ()):
                    st = self.tracker.getStageInfo(sid)
                    if st is not None and st.numCompletedTasks > 0:
                        s.stages += 1
                        s.tasks += st.numCompletedTasks

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, name, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                if on_call is not None:
                    on_call(s, *args, **kwargs)
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_execute(self, fn):
        tracer = self

        @functools.wraps(fn)
        def execute(*args, **kwargs):
            with tracer.span("engine.execute") as s:
                before = tracer.ungrouped_jobs()
                try:
                    return fn(*args, **kwargs)
                finally:
                    s.jobs |= tracer.ungrouped_jobs() - before
        return execute

    @contextlib.contextmanager
    def wrapped(self, files_for):
        """Wrap the layer boundaries. ``files_for(time_range, agentid)``
        returns (files the partition filters keep, files in the store)."""
        import repro.core.anomaly as anomaly
        import repro.core.baseline as baseline
        import repro.core.engine as engine
        from repro.monitor.storage import EventStore

        def on_partitioned(s, _store, time_range=None, agentid=None):
            s.attrs["files"], s.attrs["files_total"] = files_for(time_range, agentid)

        def on_order(s, counts, *_a, **_k):
            s.attrs["rows"] = sum(counts.values())

        def on_join(s, _dfs, _ana, _order, broadcast, *_a, **_k):
            s.attrs["broadcast"] = len(broadcast)

        targets = [
            (engine, "parse", "parser.parse", None),
            (engine, "to_multievent", "dependency.to_multievent", None),
            (engine, "analyze", "analyzer.analyze", None),
            (engine, "pattern_df", "compiler.pattern_df", None),
            (engine, "order_patterns", "scheduler.order_patterns", on_order),
            (engine, "join_multievent", "compiler.join_multievent", on_join),
            (engine, "project_return", "compiler.project_return", None),
            (anomaly, "run", "anomaly.run", None),
            (EventStore, "events_partitioned", "storage.events_partitioned",
             on_partitioned),
            (EventStore, "events_flat", "storage.events_flat", None),
            (baseline, "baseline_sql", "baseline.baseline_sql", None),
        ]
        saved = []
        try:
            for owner, attr, name, hook in targets:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name, hook))
            orig = engine.AIQLEngine.__dict__["execute"]
            saved.append((engine.AIQLEngine, "execute", orig))
            engine.AIQLEngine.execute = self._wrap_execute(orig)
            # An instance attribute shadows the SparkSession.sql method for
            # this session only.
            self.spark.sql = self._wrap(self.spark.sql, "baseline.spark_sql")
            yield self
        finally:
            self.spark.__dict__.pop("sql", None)
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
