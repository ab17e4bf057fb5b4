"""EventStore tests: layout roundtrips and partition pruning."""
import pytest

from repro.monitor.storage import EventStore
from tests.conftest import DAY0


def plan_of(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


class TestRoundtrip:
    def test_flat_preserves_rows(self, store, events):
        assert store.events_flat().count() == events.count()

    def test_partitioned_preserves_rows(self, store, events):
        assert store.events_partitioned().count() == events.count()

    def test_same_rows_both_layouts(self, store):
        flat = {r["eid"] for r in store.events_flat().select("eid").collect()}
        part = {r["eid"] for r in store.events_partitioned().select("eid").collect()}
        assert flat == part

    def test_partitioned_has_all_columns(self, store, events):
        assert set(store.events_partitioned().columns) == set(events.columns)

    def test_values_survive_roundtrip(self, store, events_pdf):
        got = (store.events_partitioned()
               .filter("s_uid = '5-osql-atk'").collect())
        assert len(got) == len(events_pdf[events_pdf["s_uid"] == "5-osql-atk"])
        assert all(r["o_name"] == "/db/backup1.dmp" for r in got
                   if r["op"] == "write")

    def test_rewrite_after_read_returns_new_rows(self, spark, tiny, tmp_path):
        s = EventStore(spark, tmp_path)
        s.write(tiny)
        assert s.events_partitioned().count() == tiny.count()
        agent2 = tiny.filter("agentid = 2")
        s.write(agent2)
        got = s.events_partitioned()
        assert {r["agentid"] for r in got.select("agentid").collect()} == {2}
        assert got.count() == agent2.count()


class TestPruning:
    def test_agent_filter_rows(self, store, events_pdf):
        n = store.events_partitioned(agentid=5).count()
        assert n == (events_pdf["agentid"] == 5).sum()

    def test_time_filter_rows(self, store, events_pdf):
        tr = (DAY0, DAY0 + 86_400_000)
        n = store.events_partitioned(time_range=tr).count()
        assert n == (events_pdf["day"] == "2018-04-10").sum()

    def test_combined_filters(self, store, events_pdf):
        tr = (DAY0, DAY0 + 86_400_000)
        n = store.events_partitioned(time_range=tr, agentid=3).count()
        want = ((events_pdf["agentid"] == 3)
                & (events_pdf["day"] == "2018-04-10")).sum()
        assert n == want

    def test_agent_filter_becomes_partition_filter(self, store):
        plan = plan_of(store.events_partitioned(agentid=5))
        assert "PartitionFilters" in plan
        assert "agentid" in plan.split("PartitionFilters")[1][:200]

    def test_day_filter_becomes_partition_filter(self, store):
        plan = plan_of(
            store.events_partitioned(time_range=(DAY0, DAY0 + 86_400_000)))
        assert "day" in plan.split("PartitionFilters")[1][:300]

    def test_multiday_range_lists_each_day(self, spark, tmp_path):
        from repro.monitor.generator import gen_events
        df = gen_events(spark, sf=0.0005, days=3, attack=False, n_hosts=3)
        s = EventStore(spark, tmp_path)
        s.write(df)
        two = s.events_partitioned(
            time_range=(DAY0, DAY0 + 2 * 86_400_000))
        days = {r["day"] for r in two.select("day").distinct().collect()}
        assert days == {"2018-04-10", "2018-04-11"}


class TestEngineOverStore:
    def test_store_engine_equals_memory_engine(self, spark, store, engine):
        from repro.core.engine import AIQLEngine
        from repro.workload.queries import query_by_name
        text = query_by_name("q05_exfil_chain").aiql
        se = AIQLEngine(spark, store=store)
        a = {tuple(r) for r in se.execute(text).collect()}
        b = {tuple(r) for r in engine.execute(text).collect()}
        assert a == b == {("cmd.exe", "osql.exe", "/db/backup1.dmp",
                           "sbblv.exe", "202.87.66.129")}
