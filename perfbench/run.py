"""AIQL benchmark: one closed-loop client, one process, one workload per run.

    python3 perfbench/run.py --workload investigation --seed 0 --seconds 18 --trace 0

Run it from the repository root. A run

1. starts the Spark session the jobs use, generates the trace from
   ``--seed`` and writes both store layouts (``EventStore.write``); the data
   set-up is repeated ``SETUP_REPEATS`` times and its median is reported;
2. runs every query of the workload once, untimed against DuckDB (the
   correctness gate), timing the engine side as warm-up;
3. with ``--trace 0``, starts passes over the query list until
   ``--seconds`` have gone by (so at least one pass always completes) and
   prints the end-to-end metrics; with ``--trace 1``, runs an untraced, a
   traced and another untraced engine pass, then one traced baseline pass,
   and prints the per-layer metrics (see ``perfbench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record (host
facts, query texts, per-query latencies) is written to
``.perfbench/records/``. The exit code is 0 only when every query ran and
matched the oracle.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
MB = 1 << 20


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2–8 GiB (the Tier-1 formula)."""
    try:
        kb = int(re.search(r"MemTotal:\s+(\d+)", Path("/proc/meminfo").read_text())[1])
    except (OSError, TypeError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.expected: dict[str, int] = {}
        self.cached_peak = 0

    # -- set-up --------------------------------------------------------
    def start_session(self):
        os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
        tmp = self.work / "tmp"
        for d in ("py", "java", "spark"):
            (tmp / d).mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp / "py")
        os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[*] --driver-memory {driver_memory()} "
            f"--driver-java-options -Djava.io.tmpdir={tmp / 'java'} "
            f"--conf spark.local.dir={tmp / 'spark'} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "pyspark-shell")
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from jobs._session import get_spark

        self.spark = get_spark("perfbench")
        self.spark.sparkContext.setLogLevel("ERROR")
        self.sc = self.spark.sparkContext

    def build_store(self):
        """Generate the trace and write both layouts, SETUP_REPEATS times
        into fresh directories; the last copy is the one queried."""
        from repro.monitor.generator import gen_events
        from repro.monitor.storage import EventStore
        from workloads import DAYS, N_HOSTS

        times = []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(self.store.base, ignore_errors=True)
            t = time.perf_counter()
            df = gen_events(self.spark, sf=self.args.sf, n_hosts=N_HOSTS,
                            seed=self.args.seed, days=DAYS)
            self.store = EventStore(self.spark, self.work / f"store{i}")
            self.store.write(df)
            times.append(time.perf_counter() - t)
        self.data_setup_s = times
        self.store_mb = dir_bytes(self.store.base) / MB
        self.files = {}
        part = Path(self.store.partitioned_path)
        for f in part.glob("agentid=*/day=*/*.parquet"):
            key = (int(f.parent.parent.name.split("=")[1]), f.parent.name.split("=")[1])
            self.files[key] = self.files.get(key, 0) + 1

    def files_for(self, time_range, agentid):
        """(files kept by the partition filters, files in the store)."""
        day_ms = 86_400_000
        days = None
        if time_range is not None:
            lo, hi = time_range
            days = {time.strftime("%Y-%m-%d", time.gmtime(d * 86_400))
                    for d in range(lo // day_ms, (hi - 1) // day_ms + 1)}
        kept = sum(n for (a, d), n in self.files.items()
                   if (agentid is None or a == agentid) and (days is None or d in days))
        return kept, sum(self.files.values())

    def load_queries(self):
        import workloads
        from check import Oracle

        events = self.store.events_partitioned().toArrow()
        self.n_events = events.num_rows
        self.oracle = Oracle(events)
        if self.args.workload == "investigation":
            self.queries = workloads.investigation()
        else:
            self.queries = workloads.anomaly_sweep(self.args.seed,
                                                   self.oracle.amount_quantile)

    def correctness_pass(self) -> float:
        """Run every query once and compare it with DuckDB. Returns the
        engine-side time, which is the warm-up part of set-up."""
        from check import ground_truth_miss, mismatch
        from repro.core.baseline import oracle_sql
        from repro.core.engine import AIQLEngine

        self.engine = AIQLEngine(self.spark, store=self.store)
        warm = 0.0
        for q in self.queries:
            self.attempted += 1
            t = time.perf_counter()
            try:
                got = self.engine.execute(q.text).toPandas()
            except Exception as e:  # noqa: BLE001 - every query error is a failure
                self.fail(q, f"engine raised {type(e).__name__}: {e}")
                continue
            finally:
                warm += time.perf_counter() - t
            exp = self.oracle.rows(oracle_sql(q.text))
            self.expected[q.name] = len(exp)
            why = mismatch(got, exp) or ground_truth_miss(got, q.contains, q.absent)
            if why:
                self.fail(q, why)
        return warm

    def fail(self, q, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{q.name}: {why}")

    # -- measurement ---------------------------------------------------
    def sample_cache(self) -> float:
        mb = sum(i.memSize() + i.diskSize()
                 for i in self.sc._jsc.sc().getRDDStorageInfo()) / MB
        self.cached_peak = max(self.cached_peak, mb)
        return mb

    def run_one(self, q, side: str, tracer=None):
        """One query, timed as execute (or run_baseline) plus the caller's
        count. Returns (latency_s, root span or None)."""
        from repro.core.baseline import run_baseline

        def go():
            if side == "engine":
                df = self.engine.execute(q.text)
            else:
                df = run_baseline(self.spark, q.text, self.store.events_flat())
            if tracer is None:
                return df.count()
            with tracer.span("materialize"):
                return df.count()

        self.attempted += 1
        root = None
        t = time.perf_counter()
        try:
            if tracer is None:
                n = go()
            else:
                with tracer.span("query", query=q.name, side=side) as root:
                    n = go()
        except Exception as e:  # noqa: BLE001 - every query error is a failure
            self.fail(q, f"{side} raised {type(e).__name__}: {e}")
            return time.perf_counter() - t, None
        dt = time.perf_counter() - t
        if root is not None:
            root.attrs["rows"] = n
        if q.name in self.expected and n != self.expected[q.name]:
            self.fail(q, f"{side} returned {n} rows, oracle {self.expected[q.name]}")
        return dt, root

    def run_pass(self, side="engine", tracer=None):
        lat, roots = [], []
        for q in self.queries:
            dt, root = self.run_one(q, side, tracer)
            lat.append(dt)
            if root is not None:
                tracer.resolve(root)
                root.attrs["cache_mb"] = self.sample_cache()
                roots.append(root)
            else:
                self.sample_cache()
        return lat, roots


def unit_of(name: str) -> str:
    if name in ("storage.pruned_ratio", "engine.probe_rows_per_result_row"):
        return "ratio"
    return {"_s": "s", "mb": "MB"}.get(name[-2:], "count")


def layer_metrics(roots) -> dict:
    """Per-layer self times and counts of one traced pass."""
    self_keys = {
        "parser.parse": "parser.parse_s",
        "dependency.to_multievent": "dependency.to_multievent_s",
        "analyzer.analyze": "analyzer.analyze_s",
        "storage.events_partitioned": "storage.events_partitioned_s",
        "storage.events_flat": "storage.events_flat_s",
        "compiler.pattern_df": "compiler.pattern_df_s",
        "scheduler.order_patterns": "scheduler.order_patterns_s",
        "compiler.join_multievent": "compiler.join_build_s",
        "compiler.project_return": "compiler.project_return_s",
        "anomaly.run": "anomaly.run_s",
        "baseline.baseline_sql": "baseline.baseline_sql_s",
        "baseline.spark_sql": "baseline.spark_sql_s",
        "query": "trace.unattributed_s",
    }
    m = dict.fromkeys([*self_keys.values(), "engine.probe_s", "engine.other_s",
                       "materialize.join_s", "materialize.scan_s",
                       "anomaly.materialize_s", "baseline.materialize_s"], 0.0)
    n = dict.fromkeys((
        "storage.files_scanned", "files_total", "engine.probe_jobs", "engine.patterns_probed",
        "engine.probe_rows", "engine.broadcast_patterns", "materialize.result_rows",
        "multi_result_rows", "anomaly.jobs", "anomaly.result_rows", "spark.jobs",
        "spark.stages", "spark.tasks"), 0)
    for root in roots:
        execute = next((c for c in root.children if c.name == "engine.execute"), None)
        patterns = execute.count("compiler.pattern_df") if execute else 0
        anomaly = execute is not None and execute.count("anomaly.run") > 0
        rows = root.attrs.get("rows", 0)
        if root.attrs["side"] == "baseline":
            mat_key = "baseline.materialize_s"
        elif anomaly:
            mat_key = "anomaly.materialize_s"
            n["anomaly.result_rows"] += rows
        else:
            mat_key = "materialize.join_s" if patterns > 1 else "materialize.scan_s"
            n["materialize.result_rows"] += rows
            if patterns > 1:
                n["multi_result_rows"] += rows
        for s in root.walk():
            if s.name in self_keys:
                m[self_keys[s.name]] += s.self_s
            elif s.name == "materialize":
                m[mat_key] += s.self_s
            elif s.name == "engine.execute":
                m["engine.probe_s" if patterns > 1 else "engine.other_s"] += s.self_s
                if patterns > 1:
                    n["engine.probe_jobs"] += len(s.jobs)
                    n["engine.patterns_probed"] += patterns
            if s.name == "storage.events_partitioned":
                n["storage.files_scanned"] += s.attrs["files"]
                n["files_total"] += s.attrs["files_total"]
            elif s.name == "scheduler.order_patterns":
                n["engine.probe_rows"] += s.attrs["rows"]
            elif s.name == "compiler.join_multievent":
                n["engine.broadcast_patterns"] += s.attrs["broadcast"]
            if anomaly:
                n["anomaly.jobs"] += len(s.jobs)
            n["spark.jobs"] += len(s.jobs)
            n["spark.stages"] += s.stages
            n["spark.tasks"] += s.tasks
    out = dict(m)
    out.update({k: v for k, v in n.items() if k not in ("files_total", "multi_result_rows")})
    out["storage.pruned_ratio"] = (1 - n["storage.files_scanned"] / n["files_total"]
                                   if n["files_total"] else 0.0)
    out["engine.probe_rows_per_result_row"] = (
        n["engine.probe_rows"] / n["multi_result_rows"] if n["multi_result_rows"] else 0.0)
    out["cache.persisted_mb"] = max((r.attrs.get("cache_mb", 0.0) for r in roots), default=0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sf", type=float, default=None,
                    help="scale factor (default workloads.SF; smaller for self-tests)")
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "core" / "engine.py").is_file():
        print(f"perfbench: no AIQL sources under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.sf is None:
        args.sf = workloads.SF

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    b = Bench(args, work)
    try:
        result = measure(b, args)
    finally:
        stop_spark(b)
        shutil.rmtree(work, ignore_errors=True)
    # Printed once the JVM is gone, so that nothing follows it on stdout.
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def measure(b: Bench, args) -> dict:
    b.start_session()
    session_s = time.perf_counter() - T_PROCESS
    b.build_store()
    b.load_queries()
    warm_s = b.correctness_pass()
    setup_s = session_s + statistics.median(b.data_setup_s) + warm_s

    record = {"host": host_facts(b), "queries": [
        {"name": q.name, "kind": q.kind, "text": q.text} for q in b.queries]}
    if args.trace == 0:
        passes, lat = [], []
        t0 = time.perf_counter()
        while True:
            pl, _ = b.run_pass()
            passes.append(sum(pl))
            lat.extend(pl)
            if time.perf_counter() - t0 >= args.seconds:
                break
        metrics = {
            "setup_s": (setup_s, "s"),
            "store_mb": (b.store_mb, "MB"),
            "pass_s": (statistics.median(passes), "s"),
            "query_p50_s": (statistics.median(lat), "s"),
            "query_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
            "success_ratio": (1 - b.failed / b.attempted, "ratio"),
            "footprint_mb_peak": (b.store_mb + b.cached_peak, "MB"),
        }
        record["passes_s"] = passes
        record["latencies_s"] = lat
    else:
        from tracer import Tracer

        # Untraced passes on both sides of the traced one, so the JIT's
        # warming over the run cancels out of the tracing overhead.
        tracer = Tracer(b.spark)
        before, _ = b.run_pass()
        with tracer.wrapped(b.files_for):
            traced, roots = b.run_pass(tracer=tracer)
        after, _ = b.run_pass()
        with tracer.wrapped(b.files_for):
            base_lat, base_roots = b.run_pass("baseline", tracer)
        untraced = (sum(before) + sum(after)) / 2
        raw = layer_metrics(roots)
        base = layer_metrics(base_roots)
        for k in ("baseline.baseline_sql_s", "baseline.spark_sql_s",
                  "baseline.materialize_s", "storage.events_flat_s"):
            raw[k] = base[k]
        raw["baseline.pass_s"] = sum(base_lat)
        raw["baseline.jobs"] = base["spark.jobs"]
        raw["baseline.tasks"] = base["spark.tasks"]
        raw["trace.pass_s"] = sum(traced)
        raw["trace.overhead_s"] = sum(traced) - untraced
        metrics = {k: (v, unit_of(k)) for k, v in raw.items()}
        record["untraced_passes_s"] = [sum(before), sum(after)]
        record["traced_latencies_s"] = traced
        record["baseline_latencies_s"] = base_lat
    record.update(setup={"session_s": session_s, "data_setup_s": b.data_setup_s,
                         "warmup_s": warm_s},
                  failures=b.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out_dir = ROOT / ".perfbench" / "records"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for k, (v, u) in metrics.items():
        print(f"  {k:<36} {v:>14.6g} {u}", file=sys.stderr)
    for f in b.failures:
        print(f"  FAILED {f}", file=sys.stderr)
    return {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed,
            "metrics": record["metrics"]}


def host_facts(b: Bench) -> dict:
    import pyspark

    conf = b.spark.conf
    return {
        "nproc": os.cpu_count(),
        "spark_master": b.sc.master,
        "default_parallelism": b.sc.defaultParallelism,
        "driver_memory": b.sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "spark_version": pyspark.__version__,
        "python_version": platform.python_version(),
        "workload": b.args.workload, "seed": b.args.seed, "sf": b.args.sf,
        "events": b.n_events,
        "git_sha": git_sha(), "source_sha256": source_digest(),
    }


def stop_spark(b: Bench) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    spark = getattr(b, "spark", None)
    if spark is None:
        return
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        proc.wait(timeout=60)


if __name__ == "__main__":
    sys.exit(main())
