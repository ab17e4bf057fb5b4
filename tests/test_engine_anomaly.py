"""Anomaly-engine semantics: sliding windows, aggregates, history access.

Uses a purpose-built micro trace with hand-computable window contents:
window = 10 sec, step = 5 sec over events at known offsets.
"""
import pytest

from repro.core.baseline import oracle_sql
from repro.core.engine import AIQLEngine
from repro.monitor.schema import event_spark_schema
from tests.conftest import DAY0, assert_same_rows, make_events, net_ev, run_duckdb

AT = '(at "04/10/2018")\n'
SEC = 1_000


@pytest.fixture(scope="module")
def win_pdf():
    # proc A writes to 1.1.1.1: amounts 10 @0s, 20 @6s, 30 @12s
    # proc B writes to 1.1.1.1: amount 100 @0s only
    # proc C (steady): 5 every 5s for 60s
    rows = [
        net_ev(1, DAY0 + 0 * SEC, "write", "A", "procA", "1.1.1.1", 80, 10),
        net_ev(1, DAY0 + 6 * SEC, "write", "A", "procA", "1.1.1.1", 80, 20),
        net_ev(1, DAY0 + 12 * SEC, "write", "A", "procA", "1.1.1.1", 80, 30),
        net_ev(1, DAY0 + 0 * SEC, "write", "B", "procB", "1.1.1.1", 80, 100),
    ]
    rows += [net_ev(1, DAY0 + k * 5 * SEC, "write", "C", "procC",
                    "1.1.1.1", 80, 5) for k in range(13)]
    return make_events(rows)


@pytest.fixture(scope="module")
def win_engine(spark, win_pdf):
    df = spark.createDataFrame(win_pdf, schema=event_spark_schema())
    return AIQLEngine(spark, events=df)


def q(body):
    return AT + "window = 10 sec, step = 5 sec\n" + body


class TestWindows:
    def test_avg_per_overlapping_window(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procA"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p')).toPandas()
        # Windows containing procA events: w0 [0,10): {10,20} -> 15;
        # w1 [5,15): {20,30} -> 25; w2 [10,20): {30} -> 30. No other window.
        assert sorted(out["amt"]) == [15.0, 25.0, 30.0]
        assert set(out["p"]) == {"procA"}

    def test_sum_count_min_max(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procA"] write ip i as e\n'
            'return p, sum(e.amount) as s, count(e.amount) as c, '
            'min(e.amount) as lo, max(e.amount) as hi\ngroup by p')).toPandas()
        row = out[(out["c"] == 2) & (out["s"] == 30)].iloc[0]  # w0
        assert (row["lo"], row["hi"]) == (10, 20)
        assert sorted(out["s"]) == [30, 30, 50]  # w0, w2, w1

    def test_event_in_single_window_when_step_equals_window(self, win_engine):
        out = win_engine.execute(
            AT + "window = 5 sec, step = 5 sec\n"
            'proc p["procB"] write ip i as e\n'
            'return p, count(e.amount) as c\ngroup by p').toPandas()
        assert out["c"].tolist() == [1]  # tumbling: exactly one window

    def test_gap_when_step_exceeds_window(self, spark):
        # window 2s, step 10s: event at t=5s falls between windows.
        pdf = make_events([
            net_ev(1, DAY0 + 5 * SEC, "write", "X", "procX", "1.1.1.1", 80, 9)])
        eng = AIQLEngine(spark, events=spark.createDataFrame(
            pdf, schema=event_spark_schema()))
        out = eng.execute(
            AT + "window = 2 sec, step = 10 sec\n"
            'proc p write ip i as e\nreturn p, count(e.amount) as c\n'
            'group by p').toPandas()
        assert len(out) == 0

    def test_group_by_separates_processes(self, win_engine):
        out = win_engine.execute(q(
            'proc p write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p')).toPandas()
        assert set(out["p"]) == {"procA", "procB", "procC"}

    def test_distinct_return(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procC"] write ip i as e\n'
            'return distinct p, avg(e.amount) as amt\ngroup by p')).toPandas()
        # procC is constant-rate: every window avg is 5 -> distinct = 1 row
        assert len(out) == 1 and out.iloc[0]["amt"] == 5.0


class TestHistory:
    def test_moving_average_spike(self, win_engine):
        # procA: w2 has amt=30, amt[1]=25, amt[2]=15 -> 30 > 2*(30+25+15)/3
        # is 30 > 46.7 false; use a weaker spike condition on w2:
        out = win_engine.execute(q(
            'proc p["procA"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > (amt[1] + amt[2]) / 2')).toPandas()
        # w2: 30 > (25+15)/2 = 20 -> true. w1: 25 > (15 + null) -> null.
        assert out["amt"].tolist() == [30.0]

    def test_missing_history_drops_row(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procB"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > amt[1]')).toPandas()
        # procB only ever appears in w0 and the window starting -5s ==
        # clipped; no window has a predecessor with data -> empty.
        assert len(out) == 0

    def test_steady_rate_never_flags(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procC"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > 2 * (amt + amt[1] + amt[2]) / 3')).toPandas()
        assert len(out) == 0

    def test_history_depth_three(self, win_engine):
        out = win_engine.execute(q(
            'proc p["procC"] write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt = amt[3]')).toPandas()
        assert len(out) > 0  # constant process: every window equals w-3


class TestOracleAgreement:
    @pytest.mark.parametrize("body", [
        'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p',
        'proc p write ip i as e\nreturn p, sum(e.amount) as s, '
        'count(e.amount) as c\ngroup by p',
        'proc p write ip i as e\nreturn p, avg(e.amount) as amt\ngroup by p\n'
        'having amt > (amt[1] + amt[2]) / 2',
        'proc p["procC"] write ip i as e\nreturn p, avg(e.amount) as amt\n'
        'group by p\nhaving amt = amt[3]',
    ])
    def test_engine_matches_duckdb(self, win_engine, win_pdf, body):
        text = q(body)
        got = win_engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=win_pdf)
        assert_same_rows(got, want)

    def test_history_skips_empty_windows(self, spark):
        # procD's non-empty windows are w0, w5-w7 and w13-w15: k windows
        # back is NULL across a gap, where k rows back would not be.
        pdf = make_events([
            net_ev(1, DAY0 + t * SEC, "write", "D", "procD", "1.1.1.1", 80, a)
            for t, a in [(0, 10), (30, 50), (35, 60), (70, 100), (75, 5)]])
        eng = AIQLEngine(spark, events=spark.createDataFrame(
            pdf, schema=event_spark_schema()))
        text = q('proc p write ip i as e\n'
                 'return p, sum(e.amount) as s, count(e.amount) as c\n'
                 'group by p\nhaving s > s[1] or c > c[2]')
        got = eng.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=pdf)
        assert_same_rows(got, want)
        assert sorted(got["s"]) == [105, 110]  # w14, w6

    def test_null_group_key_has_no_history(self, spark):
        # Same rising amounts to a known and to a NULL destination: the SQL
        # self-join never matches the NULL key, so only 2.2.2.2 is flagged.
        rows = []
        for t, a in [(0, 10), (6, 20), (12, 30)]:
            rows.append(net_ev(1, DAY0 + t * SEC, "write", "M", "procM",
                               "2.2.2.2", 80, a))
            rows.append(dict(net_ev(1, DAY0 + t * SEC, "write", "N", "procN",
                                    "3.3.3.3", 80, a), o_ip=None))
        pdf = make_events(rows)
        eng = AIQLEngine(spark, events=spark.createDataFrame(
            pdf, schema=event_spark_schema()))
        text = q('proc p write ip i as e\n'
                 'return i.dstip, avg(e.amount) as amt\n'
                 'group by i.dstip\nhaving amt > amt[1]')
        got = eng.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=pdf)
        assert_same_rows(got, want)
        assert len(got) == 2  # w1, w2 of 2.2.2.2

    def test_workload_anomaly_on_trace(self, engine, events_pdf):
        from repro.workload.queries import query_by_name
        text = query_by_name("q01_anomaly_exfil").aiql
        got = engine.execute(text).toPandas()
        want = run_duckdb(oracle_sql(text), events=events_pdf)
        assert_same_rows(got, want)
        assert {"powershell.exe", "sbblv.exe"} <= set(got["p"])
        assert "telemetry.exe" not in set(got["p"])


class TestPlanShape:
    def test_history_is_one_window_not_self_joins(self, win_engine):
        out = win_engine.execute(q(
            'proc p write ip i as e\n'
            'return p, avg(e.amount) as amt\ngroup by p\n'
            'having amt > (amt[1] + amt[2] + amt[3]) / 3'))
        plan = out._jdf.queryExecution().optimizedPlan().toString()
        assert "Window" in plan
        assert "Join" not in plan
        assert "InMemoryRelation" not in plan
