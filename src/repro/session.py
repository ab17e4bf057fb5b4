"""The one SparkSession bootstrap, shared by tests, jobs and the benchmark.

Driver memory is read at JVM launch, not from ``SparkConf``, so it goes
into ``PYSPARK_SUBMIT_ARGS`` before the session starts. ``setdefault``
leaves a caller's own submit args in charge. Broadcast joins are disabled
globally: the AIQL engine re-enables them per join for pattern results it
has measured to be small, and the big-SQL baseline does not get them.
"""
from __future__ import annotations

import os


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, else half of MemTotal clamped to 2–8 GiB."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f
                      if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def get_spark(app: str):
    """The process's SparkSession (created on first call) with the
    repository's session configs."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master local[*] --driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
