"""Synthetic enterprise system-monitoring trace with an injected APT attack.

Substitute for the paper's 150-host NEC Labs deployment (DESIGN.md §4):
a deterministic mass of background system activity — process starts, file
I/O, network flows with Zipf-like executable popularity and lognormal byte
counts — plus an explicitly scripted APT kill-chain reproducing the paper's
demo scenario a1–a5 (§3), using the artifact names from the paper's
narrative (``osql.exe``, ``backup1.dmp``, ``sbblv.exe``, ``powershell.exe``,
``db.bak``, ``mimikatz.exe``, ``PwDump7.exe``, ``WCE.exe``,
``info_stealer``, the UnrealIRCd exploit, attacker IP ``202.87.66.129``).

Scale: ``_N_EVENTS_PER_SF`` background events per unit scale factor —
SF 0.1 ≈ 2M events (benchmarks), SF 0.01 ≈ 200k (integration tests),
SF 0.001 ≈ 20k (unit tests). Attack events (a fixed ~90) are injected at
every SF so ground-truth assertions always hold.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.monitor.schema import event_spark_schema

_N_EVENTS_PER_SF = 20_000_000

#: External attacker host — "XXX.129" in the paper's obfuscated queries.
ATTACKER_IP = "202.87.66.129"

#: Role of each host in the demo scenario (Figure 2 of the paper).
HOST_ROLES = {
    1: "irc-server",
    2: "intranet-host",
    3: "privesc-host",
    4: "domain-controller",
    5: "database-server",
}

# Benign executable pool. Attack-only artifacts (sbblv.exe, mimikatz.exe,
# info_stealer, ...) are deliberately absent so attack predicates are highly
# selective — the property pruning-power scheduling exploits.
_NAME_POOL = [
    "svchost.exe", "explorer.exe", "chrome.exe", "firefox.exe", "outlook.exe",
    "winword.exe", "excel.exe", "cmd.exe", "powershell.exe", "python.exe",
    "java.exe", "bash", "sshd", "cron", "systemd", "nginx", "httpd",
    "mysqld", "sqlservr.exe", "postgres", "node", "taskhost.exe",
    "conhost.exe", "wget", "curl", "rsync", "backup.exe", "av_scan.exe",
    "update.exe", "dropbox.exe",
]
_FILE_TEMPLATES = [
    "/usr/lib/lib{i}.so", "/home/user/doc{i}.txt", "/var/log/app{i}.log",
    "/etc/conf{i}.cfg", "/windows/system32/dll{i}.dll",
    "/users/u/file{i}.dat",
]
_EXT_IPS = [f"203.0.113.{i}" for i in range(1, 21)] + [
    f"198.51.100.{i}" for i in range(1, 21)
]
_PORTS = [80, 443, 22, 53, 8080, 8443, 3306, 5432]

_P_PER_HOST = 120   # process instances per host
_F_PER_HOST = 400   # file entities per host

_DAY_MS = 86_400_000


def host_ip(agentid: int) -> str:
    """Intranet IP of a host — how cross-host `connect` events are chained."""
    return f"10.0.0.{agentid}"


def _day_start_ms(day: str) -> int:
    return int(pd.Timestamp(day, tz="UTC").timestamp() * 1000)


def _ms(day0: int, hh: int, mm: int, ss: int = 0) -> int:
    return day0 + ((hh * 60 + mm) * 60 + ss) * 1000


def _background(
    n: int, n_hosts: int, day0: int, days: int, g: np.random.Generator
) -> dict:
    """Vectorized benign activity: ~50% file, ~15% process, ~35% network.

    Returns a dict of numpy column arrays. String columns stay as
    fixed-width unicode (``""`` = missing) — no per-element Python string
    objects, which is what makes generation fast at large SF (tens of
    millions of boxed strings cost minutes of allocator/GC time)."""
    agent = g.integers(1, n_hosts + 1, n)
    ts = day0 + g.integers(0, days * _DAY_MS, n)

    # Every composite string comes from a small domain, so strings are
    # built once into lookup tables and rows fancy-index into them — pure C
    # copies, no per-row formatting.
    # Widths are chosen to also fit every attack-row value, so the attack
    # merge can cast to these dtypes and concatenate via the fast
    # same-dtype path (mixed-width unicode concatenation is pathologically
    # slow in numpy).
    names = np.array(_NAME_POOL, dtype="U20")
    proc_uid_tab = np.array(
        [f"{a}-p{s}" for a in range(n_hosts + 1) for s in range(_P_PER_HOST)],
        dtype="U12",
    )
    file_uid_tab = np.array(
        [f"{a}-f{s}" for a in range(n_hosts + 1) for s in range(_F_PER_HOST)]
    )
    fpath_tab = np.array(
        [_FILE_TEMPLATES[s % len(_FILE_TEMPLATES)].format(i=s)
         for s in range(_F_PER_HOST)]
    )
    ip_tab = np.array(_EXT_IPS + [host_ip(a) for a in range(1, n_hosts + 1)])
    net_uid_tab = np.array(
        [f"{ip}:{p}" for ip in ip_tab for p in _PORTS]
    )
    srcip_tab = np.array([host_ip(a) for a in range(n_hosts + 1)])
    port_tab = np.array(_PORTS)

    # Zipf-weighted executable popularity per process instance slot.
    zipf_w = 1.0 / np.arange(1, len(_NAME_POOL) + 1) ** 1.05
    zipf_w /= zipf_w.sum()
    # name of instance slot j on any host: fixed per (host, slot)
    slot_names = g.choice(len(_NAME_POOL), size=(n_hosts + 1, _P_PER_HOST), p=zipf_w)

    s_slot = g.integers(0, _P_PER_HOST, n)
    s_name = names[slot_names[agent, s_slot]]
    s_uid = proc_uid_tab[agent * _P_PER_HOST + s_slot]
    s_pid = 1000 + s_slot

    r = g.random(n)
    is_file = r < 0.50
    is_proc = (r >= 0.50) & (r < 0.65)
    is_net = r >= 0.65

    # np.zeros on a unicode dtype is calloc -> "" everywhere, much faster
    # than np.full(n, "").
    op = np.zeros(n, dtype="U8")
    etype = np.zeros(n, dtype="U8")
    o_uid = np.zeros(n, dtype="U24")
    o_name = np.zeros(n, dtype="U32")
    o_ip = np.zeros(n, dtype="U16")
    o_port = np.full(n, np.nan)
    o_srcip = np.zeros(n, dtype="U16")
    o_srcport = np.full(n, np.nan)
    amount = np.full(n, np.nan)

    # --- file events
    nf = int(is_file.sum())
    fop = g.choice(["read", "write", "delete"], nf, p=[0.62, 0.34, 0.04])
    fslot = g.integers(0, _F_PER_HOST, nf)
    etype[is_file] = "file"
    op[is_file] = fop
    o_uid[is_file] = file_uid_tab[agent[is_file] * _F_PER_HOST + fslot]
    o_name[is_file] = fpath_tab[fslot]
    famt = np.exp(g.normal(7.5, 1.5, nf)).astype(np.int64) + 64
    famt[fop == "delete"] = -1  # sentinel → NA below
    amount[is_file] = famt

    # --- process events
    npr = int(is_proc.sum())
    pop = g.choice(["start", "execute"], npr, p=[0.7, 0.3])
    oslot = g.integers(0, _P_PER_HOST, npr)
    etype[is_proc] = "process"
    op[is_proc] = pop
    o_uid[is_proc] = proc_uid_tab[agent[is_proc] * _P_PER_HOST + oslot]
    o_name[is_proc] = names[slot_names[agent[is_proc], oslot]]

    # --- network events
    nn = int(is_net.sum())
    nop = g.choice(["connect", "read", "write"], nn, p=[0.15, 0.30, 0.55])
    ext = g.random(nn) < 0.7
    ip_idx = np.where(
        ext,
        g.integers(0, len(_EXT_IPS), nn),
        len(_EXT_IPS) + g.integers(0, n_hosts, nn),
    )
    port_idx = g.integers(0, len(_PORTS), nn)
    etype[is_net] = "network"
    op[is_net] = nop
    o_ip[is_net] = ip_tab[ip_idx]
    o_port[is_net] = port_tab[port_idx]
    o_uid[is_net] = net_uid_tab[ip_idx * len(_PORTS) + port_idx]
    o_srcip[is_net] = srcip_tab[agent[is_net]]
    o_srcport[is_net] = g.integers(32768, 61000, nn)
    namt = np.exp(g.normal(6.5, 1.8, nn)).astype(np.int64) + 40
    namt[nop == "connect"] = np.minimum(namt[nop == "connect"], 400)
    amount[is_net] = namt

    return {
        "agentid": agent,
        "ts": ts,
        "etype": etype,
        "op": op,
        "s_uid": s_uid,
        "s_name": s_name,
        "s_pid": s_pid,
        "o_uid": o_uid,
        "o_name": o_name,
        "o_ip": o_ip,
        "o_port": o_port,
        "o_srcip": o_srcip,
        "o_srcport": o_srcport,
        "amount": amount,
    }


def _attack_rows(day0: int) -> list[dict]:
    """The scripted a1–a5 kill-chain (paper §3, Figure 2).

    Entity uids use an ``-atk`` suffix so they can never collide with
    background instance slots.
    """
    A = ATTACKER_IP
    rows: list[dict] = []

    def ev(ts, agent, op, etype, s_uid, s_name, o_uid=None, o_name=None,
           o_ip=None, o_port=None, amount=None, s_pid=9000):
        rows.append(
            dict(agentid=agent, ts=ts, etype=etype, op=op, s_uid=s_uid,
                 s_name=s_name, s_pid=s_pid, o_uid=o_uid, o_name=o_name,
                 o_ip=o_ip, o_port=o_port,
                 o_srcip=host_ip(agent) if etype == "network" else None,
                 o_srcport=55000 if etype == "network" else None,
                 amount=amount)
        )

    def net(ip, port):
        return dict(o_uid=f"{ip}:{port}", o_ip=ip, o_port=port)

    # ---- a1: initial compromise of the UnrealIRCd server (host 1)
    t = _ms(day0, 9, 0)
    ev(t, 1, "start", "process", "1-ircd-atk", "unrealircd",
       o_uid="1-sh-atk", o_name="bash")
    ev(t + 5_000, 1, "connect", "network", "1-sh-atk", "bash",
       amount=120, **net(A, 31337))

    # ---- a2: malware infection + propagation to host 2
    t = _ms(day0, 9, 20)
    ev(t, 1, "read", "network", "1-sh-atk", "bash", amount=80_000,
       **net(A, 31337))
    ev(t + 10_000, 1, "write", "file", "1-sh-atk", "bash",
       o_uid="1-fmal-atk", o_name="/tmp/info_stealer", amount=80_000)
    ev(t + 20_000, 1, "start", "process", "1-sh-atk", "bash",
       o_uid="1-mal-atk", o_name="info_stealer")
    ev(t + 300_000, 1, "connect", "network", "1-mal-atk", "info_stealer",
       amount=4_000, **net(host_ip(2), 80))
    t2 = _ms(day0, 9, 30)
    ev(t2, 2, "connect", "network", "2-wget-atk", "wget", amount=2_000,
       **net(host_ip(1), 8000))
    ev(t2 + 15_000, 2, "write", "file", "2-wget-atk", "wget",
       o_uid="2-fmal-atk", o_name="/tmp/info_stealer", amount=80_000)
    ev(t2 + 120_000, 2, "start", "process", "2-sh-atk", "bash",
       o_uid="2-mal-atk", o_name="info_stealer")
    ev(t2 + 125_000, 2, "read", "file", "2-mal-atk", "info_stealer",
       o_uid="2-fmal-atk", o_name="/tmp/info_stealer", amount=80_000)

    # ---- a3: privilege escalation + credential dumping (host 3)
    t = _ms(day0, 10, 0)
    ev(t, 2, "connect", "network", "2-mal-atk", "info_stealer",
       amount=10_000, **net(host_ip(3), 445))
    ev(t + 60_000, 3, "start", "process", "3-svc-atk", "services.exe",
       o_uid="3-expl-atk", o_name="cve-2015-1701.exe")
    ev(t + 90_000, 3, "start", "process", "3-expl-atk", "cve-2015-1701.exe",
       o_uid="3-cmd-atk", o_name="cmd.exe")
    ev(t + 120_000, 3, "start", "process", "3-cmd-atk", "cmd.exe",
       o_uid="3-mimi-atk", o_name="mimikatz.exe")
    ev(t + 150_000, 3, "start", "process", "3-cmd-atk", "cmd.exe",
       o_uid="3-kiwi-atk", o_name="kiwi.exe")
    ev(t + 240_000, 3, "write", "file", "3-mimi-atk", "mimikatz.exe",
       o_uid="3-fcred-atk", o_name="/windows/tmp/creds.txt", amount=2_048)

    # ---- a4: obtain user credentials on the domain controller (host 4)
    t = _ms(day0, 10, 30)
    ev(t, 3, "connect", "network", "3-cmd-atk", "cmd.exe", amount=5_000,
       **net(host_ip(4), 3389))
    ev(t + 30_000, 4, "start", "process", "4-svc-atk", "services.exe",
       o_uid="4-cmd-atk", o_name="cmd.exe")
    ev(t + 60_000, 4, "start", "process", "4-cmd-atk", "cmd.exe",
       o_uid="4-pwd-atk", o_name="PwDump7.exe")
    ev(t + 90_000, 4, "start", "process", "4-cmd-atk", "cmd.exe",
       o_uid="4-wce-atk", o_name="WCE.exe")
    ev(t + 150_000, 4, "write", "file", "4-pwd-atk", "PwDump7.exe",
       o_uid="4-fdump-atk", o_name="/windows/temp/passdump.txt",
       amount=16_384)
    ev(t + 180_000, 4, "write", "file", "4-wce-atk", "WCE.exe",
       o_uid="4-fdump-atk", o_name="/windows/temp/passdump.txt",
       amount=8_192)
    ev(t + 300_000, 4, "read", "file", "4-nc-atk", "nc.exe",
       o_uid="4-fdump-atk", o_name="/windows/temp/passdump.txt",
       amount=24_576)
    ev(t + 330_000, 4, "connect", "network", "4-nc-atk", "nc.exe",
       amount=300, **net(A, 443))
    ev(t + 360_000, 4, "write", "network", "4-nc-atk", "nc.exe",
       amount=24_576, **net(A, 443))

    # ---- a5: data exfiltration from the database server (host 5)
    t = _ms(day0, 11, 0)
    ev(t, 5, "start", "process", "5-cmd-atk", "cmd.exe",
       o_uid="5-osql-atk", o_name="osql.exe")
    ev(t + 120_000, 5, "write", "file", "5-osql-atk", "osql.exe",
       o_uid="5-fdmp-atk", o_name="/db/backup1.dmp", amount=500_000_000)
    ev(t + 180_000, 5, "write", "file", "5-sqls-atk", "sqlservr.exe",
       o_uid="5-fbak-atk", o_name="/db/db.bak", amount=300_000_000)
    ev(t + 240_000, 5, "read", "file", "5-ps-atk", "powershell.exe",
       o_uid="5-fbak-atk", o_name="/db/db.bak", amount=300_000_000)
    ev(t + 250_000, 5, "connect", "network", "5-ps-atk", "powershell.exe",
       amount=200, **net(A, 443))
    ev(t + 540_000, 5, "read", "file", "5-sbb-atk", "sbblv.exe",
       o_uid="5-fdmp-atk", o_name="/db/backup1.dmp", amount=500_000_000)

    # Exfiltration bursts drive the anomaly query: a few minutes of small
    # writes (quiet history windows), then a >2x moving-average spike.
    for s_uid, s_name, t_small, t_burst in [
        ("5-ps-atk", "powershell.exe", _ms(day0, 11, 5), _ms(day0, 11, 9)),
        ("5-sbb-atk", "sbblv.exe", _ms(day0, 11, 10), _ms(day0, 11, 14)),
    ]:
        for k in range(24):  # 4 min of 1 KB trickle every 10 s, gap-free up
            # to the burst so the history windows amt[1]/amt[2] exist
            ev(t_small + k * 10_000, 5, "write", "network", s_uid, s_name,
               amount=1_000, **net(A, 443))
        for k in range(6):  # 1 min burst of 50 MB writes
            ev(t_burst + k * 10_000, 5, "write", "network", s_uid, s_name,
               amount=50_000_000, **net(A, 443))

    # A steady-rate writer to the same IP that must NOT satisfy the
    # moving-average spike condition (exercises the `having` filter).
    for k in range(120):  # 20 min of constant 1 KB every 10 s
        ev(_ms(day0, 11, 0) + k * 10_000, 5, "write", "network",
           "5-tel-atk", "telemetry.exe", amount=1_000, **net(A, 443))

    return rows


#: String columns that may be missing ("" sentinel in canonical arrays).
_NULLABLE_STRINGS = ("o_uid", "o_name", "o_ip", "o_srcip")
_STRING_COLS = ("etype", "op", "s_uid", "s_name") + _NULLABLE_STRINGS


def _canonical_columns(data) -> dict:
    """Normalize raw event rows into sorted canonical numpy columns.

    Accepts a dict of column arrays (the generator's fast path — strings as
    fixed-width unicode with ``""`` = missing) or a pandas frame (tests
    hand-crafting micro datasets, with None/NaN for missing). Sorts by
    timestamp, assigns time-ordered ``eid``, and derives the ``day``
    partition column. Output: strings as unicode arrays with ``""``
    sentinel; numerics as int64/float64 (NaN = missing).
    """
    cols = (
        {c: data[c].to_numpy() for c in data.columns}
        if isinstance(data, pd.DataFrame)
        else dict(data)
    )
    n = len(cols["ts"])
    if "s_pid" not in cols:
        cols["s_pid"] = np.full(n, 1000.0)
    for c in _NULLABLE_STRINGS:
        cols.setdefault(c, np.full(n, "", dtype="U1"))
    for c in ("o_port", "o_srcport", "amount"):
        cols.setdefault(c, np.full(n, np.nan))

    ts = np.asarray(cols["ts"], dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    # Day labels via the (few) unique day indices — no per-row strftime.
    dayidx = ts // _DAY_MS
    uniq = np.unique(dayidx)
    labels = np.array(
        [pd.Timestamp(int(d) * _DAY_MS, unit="ms").strftime("%Y-%m-%d")
         for d in uniq]
    )
    out = {
        "eid": np.arange(1, n + 1, dtype=np.int64),
        "agentid": np.asarray(cols["agentid"], dtype=np.int64)[order],
        "ts": ts,
        "day": labels[np.searchsorted(uniq, dayidx)],
    }
    for c in _STRING_COLS:
        arr = np.asarray(cols[c])[order]
        if arr.dtype == object:  # pandas path: None/NaN -> "" sentinel
            mask = pd.isna(arr)
            arr = arr.copy()
            arr[mask] = ""
            arr = arr.astype("U")
        out[c] = arr
    for c, dt in (("s_pid", "float64"), ("o_port", "float64"),
                  ("o_srcport", "float64"), ("amount", "float64")):
        arr = np.asarray(cols[c])
        if arr.dtype == object:
            arr = np.array(arr, dtype="float64")
        out[c] = np.asarray(arr, dtype=dt)[order]
    out["amount"] = out["amount"].copy()
    out["amount"][out["amount"] < 0] = np.nan  # delete-op sentinel
    return out


_ORDERED = ["eid", "agentid", "ts", "day", "etype", "op", "s_uid", "s_name",
            "s_pid", "o_uid", "o_name", "o_ip", "o_port", "o_srcip",
            "o_srcport", "amount"]


def to_arrow(data) -> pa.Table:
    """Raw event rows → a schema-exact ``pyarrow.Table``: the only
    finalization of events (see :func:`_canonical_columns` for ``data``).

    Unicode arrays convert to Arrow strings in C, never materializing
    per-row Python objects; ``""`` sentinels become NULLs via a validity
    mask; NaN in the float arrays becomes NULL in the nullable int columns.
    """
    cols = _canonical_columns(data)
    arrays = {
        "eid": pa.array(cols["eid"], type=pa.int64()),
        "agentid": pa.array(cols["agentid"], type=pa.int32()),
        "ts": pa.array(cols["ts"], type=pa.int64()),
        "day": pa.array(cols["day"]),
    }
    for c in _STRING_COLS:
        arr = cols[c]
        mask = (arr == "") if c in _NULLABLE_STRINGS else None
        arrays[c] = pa.array(arr, mask=mask)
    for c, t in (("s_pid", pa.int32()), ("o_port", pa.int32()),
                 ("o_srcport", pa.int32()), ("amount", pa.int64())):
        arrays[c] = pa.array(cols[c], type=t, from_pandas=True)  # NaN -> NULL
    return pa.table({c: arrays[c] for c in _ORDERED})


def gen_events_table(
    *, sf: float = 0.01, n_hosts: int = 10, seed: int = 0,
    start_day: str = "2018-04-10", days: int = 1, attack: bool = True,
) -> pa.Table:
    """The trace (background + attack) as a schema-exact Arrow table.

    Deterministic in ``seed``; sorted by timestamp with ``eid`` assigned
    after the sort so event ids are time-ordered. Generation stays
    numpy-vectorized end to end (never pandas), so the SF 0.5 dataset
    builds in tens of seconds.
    """
    if n_hosts < 5 and attack:
        raise ValueError("the attack scenario spans hosts 1-5; need n_hosts >= 5")
    day0 = _day_start_ms(start_day)
    n = max(1, int(_N_EVENTS_PER_SF * sf))
    g = np.random.default_rng(seed)
    cols = _background(n, n_hosts, day0, days, g)
    if attack:
        atk = pd.DataFrame(_attack_rows(day0))
        merged = {}
        for c in cols:
            a = atk[c].to_numpy()
            if cols[c].dtype.kind == "U":  # None -> "" sentinel, then fixed-width
                raw = np.where(pd.isna(a), "", a)
                a = raw.astype(cols[c].dtype)
                if (a != raw.astype("U")).any():
                    raise AssertionError(
                        f"attack value truncated in column {c!r}: widen the "
                        f"background dtype ({cols[c].dtype})"
                    )
            else:
                a = np.array(a, dtype="float64")
                if cols[c].dtype.kind in "iu":
                    cols[c] = cols[c].astype("float64")
            merged[c] = np.concatenate([cols[c], a])
        cols = merged
    return to_arrow(cols)


def gen_events(spark: SparkSession, **kw) -> DataFrame:
    """Spark DataFrame of :func:`gen_events_table` (same keywords), with
    the exact event schema."""
    return spark.createDataFrame(gen_events_table(**kw), schema=event_spark_schema())
