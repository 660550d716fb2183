"""The history store's access path (DESIGN.md §12).

``HistoryStore.query`` starts from the narrowest (source, host) partition
a plan's WHERE clause allows and bisects it on ``RecordedAt`` when the
partition is in time order.  These tests hold it to the old linear scan:

* a differential test over seeded random tables and WHERE shapes — every
  answer (or error) equals ``execute_select`` over the rows whose
  ``SourceUrl`` matches, byte for byte, through ring eviction, age trims,
  checkpoint resyncs and crash recovery;
* the partition invariant itself, after every mutation;
* the out-of-order tables a real multi-source fan-out records, where
  bisecting the whole table gave wrong ``series`` answers;
* a deterministic work gate on ``history.rows_examined``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.history import HistoryStore, _breaks
from repro.core.request_manager import QueryMode
from repro.glue.schema import standard_schema
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.sql.plan import compile_plan
from repro.storage.engine import HistoryEngine
from repro.storage.simdisk import SimDisk
from repro.testbed import build_site

SOURCES = ["jdbc:snmp://a/", "jdbc:snmp://b/", "jdbc:ganglia://c/"]
HOSTS = ["h0", "h1", "h2", "h3", None]


def proc_row(rng: random.Random, host) -> dict:
    return {
        "HostName": host,
        "SiteName": "s",
        "CPUCount": rng.choice([1, 2, 4, None]),
        "LoadAverage1Min": rng.choice([None, round(rng.uniform(0, 2), 2)]),
        "CPUUtilization": round(rng.uniform(0, 100), 1),
    }


# ----------------------------------------------------------------------
# Random WHERE shapes
# ----------------------------------------------------------------------
def host_term(rng: random.Random) -> str:
    host = rng.choice(["h0", "h1", "h3", "zz"])
    return rng.choice(
        [
            f"HostName = '{host}'",
            f"hostname = '{host}'",
            f"Processor.HostName = '{host}'",
            f"'{host}' = HOSTNAME",
            "HostName = 5",  # numeric literal against a TEXT column
            f"HostName LIKE '{host[0]}%'",
        ]
    )


def time_term(rng: random.Random, times: list[float]) -> str:
    if times and rng.random() < 0.5:
        t = rng.choice(times)  # an exact recorded instant
    else:
        t = rng.choice([rng.randint(-5, 80), round(rng.uniform(-5, 80), 3)])
    op = rng.choice([">=", ">", "<=", "<", "="])
    column = rng.choice(["RecordedAt", "recordedat", "Processor.RecordedAt"])
    if rng.random() < 0.2:
        swapped = {">=": "<=", ">": "<", "<=": ">=", "<": ">", "=": "="}[op]
        return f"{t} {swapped} {column}"
    return f"{column} {op} {t}"


def other_term(rng: random.Random) -> str:
    return rng.choice(
        [
            "LoadAverage1Min > 0.5",
            "CPUCount = 2",
            "CPUCount IN (1, 4)",
            "RecordedAt IS NULL",
            "HostName IS NOT NULL",
            "CPUUtilization BETWEEN 20 AND 70",
            "HostName < 5",  # raises on a text host: no row may be skipped
            "Bogus = 1",  # unknown column: raises whenever evaluated
            "LoadAverage1Min + 1 > 1.5",  # arithmetic: scanned unpruned
        ]
    )


def random_where(rng: random.Random, times: list[float]) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        pick = rng.random()
        if pick < 0.35:
            terms.append(host_term(rng))
        elif pick < 0.75:
            terms.append(time_term(rng, times))
        else:
            terms.append(other_term(rng))
    if rng.random() < 0.2:
        i = rng.randrange(len(terms))
        terms[i] = f"NOT ({terms[i]})"
    if len(terms) > 1 and rng.random() < 0.2:
        i = rng.randrange(len(terms) - 1)
        terms[i : i + 2] = [f"({terms[i]} OR {terms[i + 1]})"]
    return " AND ".join(terms)


def random_sql(rng: random.Random, times: list[float]) -> str:
    select, tail = rng.choice(
        [
            ("*", ""),
            ("HostName, RecordedAt, LoadAverage1Min", ""),
            ("HostName, RecordedAt", " ORDER BY RecordedAt DESC"),
            ("COUNT(*)", ""),
            ("HostName, COUNT(*), MAX(RecordedAt)", " GROUP BY HostName"),
            ("SourceUrl, CPUUtilization", " LIMIT 3"),
        ]
    )
    where = "" if rng.random() < 0.1 else f" WHERE {random_where(rng, times)}"
    return f"SELECT {select} FROM Processor{where}{tail}"


# ----------------------------------------------------------------------
# Oracle and invariant
# ----------------------------------------------------------------------
def outcome(fn):
    try:
        result = fn()
    except Exception as exc:  # the error itself is part of the answer
        return ("error", type(exc).__name__, str(exc))
    return ("ok", repr(result.columns), repr(result.rows))


def assert_same_as_linear(store: HistoryStore, sql: str, source_url) -> None:
    table = store.db.table("Processor")
    linear = [
        r for r in table.rows if source_url is None or r.get("SourceUrl") == source_url
    ]
    expected = outcome(
        lambda: execute_select(parse_select(sql), table.column_names, linear)
    )
    plan = compile_plan(parse_select(sql))
    got = outcome(lambda: store.query(sql, source_url=source_url, plan=plan))
    assert got == expected, sql


def assert_partitions_exact(store: HistoryStore) -> None:
    """An index in step with its table holds every row of each (source)
    and (source, host) subsequence, in table order, with exact break
    counts."""
    for name, index in store._indexes.items():
        table = store.db.table(name)
        if index.whole.rows is not table.rows or index.size != len(table.rows):
            continue  # out of step: rebuilt on next use
        rows = table.rows
        assert index.whole.breaks == _breaks(rows)
        assert set(index.sources) == {r["SourceUrl"] for r in rows}
        for source, part in index.sources.items():
            expected = [r for r in rows if r["SourceUrl"] == source]
            assert [id(r) for r in part.rows] == [id(r) for r in expected]
            assert part.breaks == _breaks(expected)
            hosts = index.hosts[source]
            assert set(hosts) == {r["HostName"] for r in expected}
            for host, sub in hosts.items():
                mine = [r for r in expected if r["HostName"] == host]
                assert [id(r) for r in sub.rows] == [id(r) for r in mine]
                assert sub.breaks == _breaks(mine)


# ----------------------------------------------------------------------
# Differential test
# ----------------------------------------------------------------------
class Rig:
    """A durable store on a SimDisk, crashable and recoverable."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.clock = VirtualClock()
        self.disk = SimDisk()
        self.max_rows = rng.choice([25, 60, 500])
        self.store = self._open()
        self.now = 0.0

    def _open(self) -> HistoryStore:
        engine = HistoryEngine(
            self.disk,
            clock=self.clock,
            sync_interval=3,
            max_rows_per_group=self.max_rows,
            retention_age=self.rng.choice([0.0, 30.0]),
        )
        return HistoryStore(
            standard_schema(), max_rows_per_group=self.max_rows, engine=engine
        )

    def step(self) -> None:
        rng = self.rng
        action = rng.random()
        if action < 0.8:
            # Mostly forward in time, sometimes back (fan-out branches
            # record in launch order), sometimes no time at all.
            self.now += rng.choice([0.0, 0.5, 1.0, 2.5])
            at = self.now - rng.choice([0.0, 0.0, 0.0, 1.5, 4.0])
            recorded_at = None if rng.random() < 0.05 else at
            hosts = rng.sample(HOSTS, rng.randint(1, 3))
            self.store.record(
                "Processor",
                [proc_row(rng, h) for h in hosts],
                source_url=rng.choice(SOURCES),
                recorded_at=recorded_at,
            )
        elif action < 0.87:
            self.store.trim_older_than(self.now - rng.uniform(5, 40))
        elif action < 0.95:
            self.clock.advance(rng.uniform(5, 20))
            self.store.checkpoint()
        else:
            self.store.sync()
            self.disk.crash(None)
            self.store = self._open()


@pytest.mark.parametrize("seed", range(12))
def test_pruned_scan_matches_linear_scan(seed):
    rng = random.Random(seed)
    rig = Rig(rng)
    for _ in range(160):
        rig.step()
        assert_partitions_exact(rig.store)
        if "Processor" not in rig.store.db.tables:
            continue
        times = [
            r["RecordedAt"]
            for r in rig.store.db.table("Processor").rows
            if r["RecordedAt"] is not None
        ]
        for _ in range(3):
            sql = random_sql(rng, times)
            source = rng.choice(SOURCES + [None, "jdbc:none://x/"])
            assert_same_as_linear(rig.store, sql, source)
        assert_partitions_exact(rig.store)


def test_differential_covers_the_interesting_cases():
    """The seeds above reach out-of-order partitions, NULL times and
    hosts, evictions, trims, resyncs and recoveries."""
    seen = {"unordered": 0, "null_time": 0, "null_host": 0, "evicted": 0,
            "recovered": 0}
    for seed in range(12):
        rig = Rig(random.Random(seed))
        for _ in range(160):
            rig.step()
            store = rig.store
            seen["evicted"] += store.rows_evicted > 0
            seen["recovered"] += store.rows_recovered > 0
            if "Processor" not in store.db.tables:
                continue
            rows = store.db.table("Processor").rows
            seen["null_time"] += any(r["RecordedAt"] is None for r in rows)
            seen["null_host"] += any(r["HostName"] is None for r in rows)
            index = store._index(store.db.table("Processor"))
            seen["unordered"] += any(p.breaks for p in index.sources.values())
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# Pruning reaches the plan's conjuncts only when it is safe
# ----------------------------------------------------------------------
def test_access_terms_resolve_like_evaluation():
    store = HistoryStore(standard_schema())
    store.record("Processor", [{"HostName": "h"}], source_url="u", recorded_at=1.0)
    layout = store.db.table("Processor").columns
    plan = compile_plan(parse_select(
        "SELECT * FROM Processor WHERE hostname = 'h' AND 10 <= Processor.RecordedAt"
        " AND RecordedAt < 20.5 AND (HostName = 'x' OR RecordedAt > 3)"
    ))
    assert plan.access_terms(layout) == (
        ("HostName", "=", "h"),
        ("RecordedAt", ">=", 10),
        ("RecordedAt", "<", 20.5),
    )


@pytest.mark.parametrize(
    "where",
    [
        "HostName = 'h' AND Bogus = 1",
        "HostName = 'h' AND HostName < 5",
        "HostName = 'h' AND LoadAverage1Min * 2 > 1",
        "HostName = 'h' AND COUNT(*) > 1",
    ],
)
def test_where_that_may_raise_gets_no_access_terms(where):
    layout = HistoryStore(standard_schema())._ensure_table("Processor").columns
    plan = compile_plan(parse_select(f"SELECT * FROM Processor WHERE {where}"))
    assert plan.access_terms(layout) is None


# ----------------------------------------------------------------------
# Out-of-order tables from a real fan-out
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fanned_out():
    network = Network(VirtualClock(), seed=0)
    site = build_site(network, name="site-a", n_hosts=8, agents=("snmp",))
    urls = [u for u in site.source_urls if u.startswith("jdbc:snmp:")]
    assert len(urls) == 8
    for _ in range(3):
        site.gateway.query(urls, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
        site.clock.advance(1.0)
    return site


def test_fanout_records_out_of_time_order(fanned_out):
    rows = fanned_out.gateway.history.db.table("Processor").rows
    times = [r["RecordedAt"] for r in rows]
    assert times != sorted(times)


def test_series_and_rollup_agree_with_a_linear_filter(fanned_out):
    history = fanned_out.gateway.history
    rows = history.db.table("Processor").rows
    cutoffs = sorted({r["RecordedAt"] for r in rows})
    assert len(cutoffs) >= 20
    for since in cutoffs:
        expected = [
            (r["RecordedAt"], r["LoadAverage1Min"])
            for r in rows if r["RecordedAt"] >= since
        ]
        assert history.series("Processor", "LoadAverage1Min", since=since) == expected
        assert history.rows_since("Processor", since) == [
            r for r in rows if r["RecordedAt"] >= since
        ]
        rollup = history.rollup("Processor", "LoadAverage1Min", bucket=0.5, since=since)
        assert sum(b["n"] for b in rollup) == len(
            [v for _, v in expected if isinstance(v, float)]
        )
    host = rows[0]["HostName"]
    for since in cutoffs:
        assert history.series(
            "Processor", "LoadAverage1Min", host=host, since=since
        ) == [
            (r["RecordedAt"], r["LoadAverage1Min"])
            for r in rows if r["RecordedAt"] >= since and r["HostName"] == host
        ]


# ----------------------------------------------------------------------
# Work gate
# ----------------------------------------------------------------------
def test_host_window_scan_examines_only_that_window():
    store = HistoryStore(standard_schema())
    hosts = [f"n{i}" for i in range(8)]
    for tick in range(1250):  # 10,000 rows, one per host every 5 s
        store.record(
            "Processor",
            [{"HostName": h, "LoadAverage1Min": float(tick)} for h in hosts],
            source_url="jdbc:sql://db/",
            recorded_at=5.0 * tick,
        )
    assert store.row_count("Processor") == 10_000
    end = 5.0 * 1249
    sql = (
        "SELECT HostName, RecordedAt, LoadAverage1Min FROM Processor "
        f"WHERE HostName = 'n3' AND RecordedAt >= {end - 600}"
    )
    window = [
        r for r in store.db.table("Processor").rows
        if r["HostName"] == "n3" and r["RecordedAt"] >= end - 600
    ]
    before = store.rows_examined
    result = store.query(
        sql, source_url="jdbc:sql://db/", plan=compile_plan(parse_select(sql))
    )
    assert len(result.rows) == len(window) == 121
    assert store.rows_examined - before <= len(window)


def test_rows_examined_is_a_gateway_metric():
    network = Network(VirtualClock(), seed=3)
    site = build_site(network, name="m", n_hosts=2, agents=("snmp",))
    gw = site.gateway
    url = site.url_for("snmp")
    gw.query(url, "SELECT * FROM Processor", mode=QueryMode.REALTIME)
    gw.query(url, "SELECT HostName FROM Processor", mode=QueryMode.HISTORY)
    result = gw.query(
        "jdbc:grm://localhost/gateway",
        "SELECT Value FROM GatewayMetrics WHERE Name = 'history.rows_examined'",
    )
    assert result.rows == [[float(gw.history.rows_examined)]]
    assert gw.history.rows_examined > 0
