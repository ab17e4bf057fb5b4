"""The one Spark bootstrap: driver memory rule and session configs."""
from repro.session import driver_memory


class TestDriverMemory:
    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
        assert driver_memory() == "3g"

    def test_default_is_clamped_half_of_memory(self, monkeypatch):
        monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
        m = driver_memory()
        assert m.endswith("g") and 2 <= int(m[:-1]) <= 8


class TestSessionConf:
    def test_conf(self, spark):
        conf = spark.sparkContext.getConf()
        assert conf.get("spark.driver.memory") == driver_memory()
        assert spark.conf.get("spark.sql.shuffle.partitions") == "64"
        assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
