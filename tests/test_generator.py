"""Synthetic-trace generator tests: determinism, schema, attack injection.

They read the generator's Arrow table through the test fixtures' pandas
view."""
import pandas as pd
import pytest

from repro.monitor.generator import ATTACKER_IP, gen_events_table, host_ip
from tests.conftest import DAY0, make_events, pandas_view


def trace(**kw) -> pd.DataFrame:
    return pandas_view(gen_events_table(**kw))


@pytest.fixture(scope="module")
def pdf(events_pdf):
    return events_pdf


class TestShape:
    def test_row_count_scales_with_sf(self, pdf):
        n_attack = len(pdf[pdf["s_uid"].str.endswith("-atk")])
        assert len(pdf) == 20_000 + n_attack
        assert n_attack > 80  # the scripted kill-chain + exfil bursts

    def test_deterministic(self, pdf):
        again = trace(sf=0.001, seed=0)
        pd.testing.assert_frame_equal(pdf, again)

    def test_seed_changes_background(self):
        a = trace(sf=0.0005, seed=0)
        b = trace(sf=0.0005, seed=1)
        assert not a.equals(b)

    def test_eids_unique_and_time_ordered(self, pdf):
        assert pdf["eid"].is_unique
        assert (pdf["ts"].diff().dropna() >= 0).all()

    def test_columns(self, pdf):
        assert list(pdf.columns) == [
            "eid", "agentid", "ts", "day", "etype", "op", "s_uid", "s_name",
            "s_pid", "o_uid", "o_name", "o_ip", "o_port", "o_srcip",
            "o_srcport", "amount"]

    def test_hosts_in_range(self, pdf):
        assert set(pdf["agentid"].unique()) <= set(range(1, 11))

    def test_day_derived_from_ts(self, pdf):
        expect = pd.to_datetime(pdf["ts"], unit="ms", utc=True).dt.strftime("%Y-%m-%d")
        assert (pdf["day"] == expect).all()

    def test_single_day_by_default(self, pdf):
        assert set(pdf["day"]) == {"2018-04-10"}

    def test_multi_day(self):
        p = trace(sf=0.0005, days=3)
        assert len(set(p["day"])) == 3

    def test_too_few_hosts_raises(self):
        with pytest.raises(ValueError, match="hosts 1-5"):
            trace(sf=0.001, n_hosts=3)

    def test_no_attack(self):
        p = trace(sf=0.001, attack=False, n_hosts=3)
        assert not p["s_uid"].str.contains("-atk").any()


class TestTyping:
    def test_dtypes(self, pdf):
        assert str(pdf["ts"].dtype) == "Int64"
        assert str(pdf["agentid"].dtype) == "Int32"
        assert str(pdf["amount"].dtype) == "Int64"
        assert str(pdf["o_port"].dtype) == "Int32"

    def test_network_rows_have_ip_no_name(self, pdf):
        net = pdf[pdf["etype"] == "network"]
        assert net["o_ip"].notna().all()
        assert net["o_name"].isna().all()

    def test_file_rows_have_name_no_ip(self, pdf):
        f = pdf[pdf["etype"] == "file"]
        assert f["o_name"].notna().all()
        assert f["o_ip"].isna().all()

    def test_delete_amount_null(self, pdf):
        assert pdf.loc[pdf["op"] == "delete", "amount"].isna().all()

    def test_process_events_amount_null(self, pdf):
        assert pdf.loc[pdf["etype"] == "process", "amount"].isna().all()

    def test_op_etype_consistency(self, pdf):
        assert set(pdf.loc[pdf["op"] == "start", "etype"]) == {"process"}
        assert set(pdf.loc[pdf["op"] == "connect", "etype"]) == {"network"}
        assert set(pdf.loc[pdf["op"] == "delete", "etype"]) == {"file"}


class TestAttackInjection:
    @pytest.mark.parametrize("artifact", [
        "osql.exe", "sbblv.exe", "powershell.exe", "sqlservr.exe",
        "mimikatz.exe", "kiwi.exe", "PwDump7.exe", "WCE.exe", "info_stealer",
        "unrealircd", "nc.exe", "cve-2015-1701.exe", "telemetry.exe",
    ])
    def test_artifact_process_present(self, pdf, artifact):
        assert (pdf["s_name"] == artifact).any() or (pdf["o_name"] == artifact).any()

    @pytest.mark.parametrize("path", [
        "/db/backup1.dmp", "/db/db.bak", "/tmp/info_stealer",
        "/windows/temp/passdump.txt", "/windows/tmp/creds.txt",
    ])
    def test_artifact_file_present(self, pdf, path):
        assert (pdf["o_name"] == path).any()

    def test_attacker_ip_only_from_attack(self, pdf):
        atk = pdf[pdf["o_ip"] == ATTACKER_IP]
        assert len(atk) > 0
        assert atk["s_uid"].str.endswith("-atk").all()

    def test_background_never_uses_attack_names(self, pdf):
        bg = pdf[~pdf["s_uid"].str.contains("-atk")]
        for name in ("sbblv.exe", "mimikatz.exe", "info_stealer", "osql.exe"):
            assert not (bg["s_name"] == name).any()

    def test_attack_step_hosts(self, pdf):
        atk = pdf[pdf["s_uid"].str.endswith("-atk")]
        assert set(atk["agentid"]) == {1, 2, 3, 4, 5}

    def test_exfil_burst_amounts(self, pdf):
        burst = pdf[(pdf["s_name"] == "powershell.exe")
                    & (pdf["o_ip"] == ATTACKER_IP) & (pdf["op"] == "write")]
        assert (burst["amount"] == 50_000_000).sum() == 6
        assert (burst["amount"] == 1_000).sum() == 24

    def test_kill_chain_order(self, pdf):
        """Each attack step strictly precedes the next (a1 < ... < a5)."""
        t = lambda name: pdf.loc[pdf["s_name"] == name, "ts"].min()  # noqa: E731
        assert t("unrealircd") < t("info_stealer") < t("mimikatz.exe") \
            < t("PwDump7.exe") < t("osql.exe")


class TestHelpers:
    def test_host_ip(self):
        assert host_ip(3) == "10.0.0.3"

    def test_make_events_defaults(self):
        p = make_events([
            dict(agentid=1, ts=DAY0 + 5, etype="process", op="start",
                 s_uid="x", s_name="bash")])
        assert p["o_uid"].isna().all() and p["eid"].tolist() == [1]
        assert p["day"].tolist() == ["2018-04-10"]

    def test_make_events_sorts(self):
        p = make_events([
            dict(agentid=1, ts=DAY0 + 10, etype="process", op="start",
                 s_uid="b", s_name="b"),
            dict(agentid=1, ts=DAY0 + 5, etype="process", op="start",
                 s_uid="a", s_name="a")])
        assert p["s_uid"].tolist() == ["a", "b"]
