"""The benchmark's three workloads: ``dashboard``, ``poll`` and ``stream``.

Each workload is a closed loop with one client.  The whole Grid runs in
one process on the virtual clock, so the next op is issued only after
the previous one returns, and virtual think time is advanced between
ops.  An op is one ``Gateway.query`` call; in ``stream`` it also
includes the one-second virtual advance that delivers the resulting
pushes.

Every input is generated from the seed: host specs, network jitter,
the op sequence and think times.  Each op's answer is checked here:
per-op structure, cache consistency (``dashboard``), history windows
(``dashboard``), and for ``stream`` every delivered batch against the
interpreted executor run over the relation the op itself returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode, QueryResult
from repro.glue.schema import standard_schema
from repro.gma.directory import GMADirectory
from repro.gma.global_layer import GlobalLayer
from repro.gma.streams import StreamConsumer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.testbed import Site, build_site

SCHEMA = standard_schema()


@dataclass
class Op:
    """One generated client request."""

    urls: list[str]
    sql: str
    mode: QueryMode
    max_age: float | None = None
    #: What the answer must satisfy (workload-specific).
    expect: Any = None
    #: Sets that are legitimately empty at times (jobs, log events).
    allow_empty: bool = False


@dataclass
class Outcome:
    """What the benchmark learnt from checking one op."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


class Workload:
    """Shared shape: build the Grid, generate ops, run and check them."""

    name = ""
    #: Percentile of the tail latency metrics (fixed per workload: the
    #: highest of p99/p95/p90 with >= 10 samples beyond it at the run
    #: length on the reference machine).
    tail_pct = 99
    #: Ops whose answers feed the recorded digest (a deterministic prefix).
    digest_ops = 0
    #: Traced runs alternate traced and untraced blocks of this many ops.
    block_ops = 1
    #: Work counts of a traced run are taken over this many traced ops.
    count_ops = 0
    #: A run ends only after a whole number of these op cycles, so every
    #: run has the same op mix (a poll round, a stream drain period).
    cycle_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.clock = VirtualClock()
        self.network = Network(self.clock, seed=seed)
        self.params: dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self, i: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> tuple[QueryResult, float]:
        """The timed part of an op; returns the answer and its virtual
        latency in seconds."""
        start = self.clock.now()
        result = self.home.gateway.query(
            op.urls, op.sql, mode=op.mode, max_age=op.max_age
        )
        return result, self.clock.now() - start

    def think(self, i: int) -> None:
        """Virtual time between ops (not timed)."""

    def check(self, op: Op, result: QueryResult) -> Outcome:
        out = Outcome(attempted=len(result.statuses))
        out.failed = sum(1 for s in result.statuses if not s.ok)
        # A join reports one status per (source, group) it fetched.
        if len(result.statuses) < len(op.urls):
            out.wrong.append(
                f"{len(result.statuses)} statuses for {len(op.urls)} urls"
            )
        if out.failed:
            errors = sorted({s.error for s in result.statuses if not s.ok})
            out.wrong.append(f"failed sources: {errors}")
        if not result.rows and not op.allow_empty:
            out.wrong.append("empty answer")
        width = len(result.columns)
        if any(len(r) != width for r in result.rows):
            out.wrong.append("ragged rows")
        return out

    def state_counts(self) -> dict[str, int]:
        """Workload state read by the traced run when its counting
        window closes."""
        return {}


def _grid_site(network: Network, name: str, seed: int, agents, policy=None) -> Site:
    return build_site(
        network, name=name, n_hosts=8, agents=agents, seed=seed, policy=policy
    )


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
class Dashboard(Workload):
    """The paper's tree-view and portlet read path (Figs. 6-9).

    Repeated portlet SELECTs in CACHED_OK mode (max_age = the cache TTL)
    plus HISTORY trend scans: most reads hit the result cache, a few
    percent miss each TTL, and the history scans are the slow tail.
    """

    name = "dashboard"
    tail_pct = 99
    digest_ops = 4000
    block_ops = 200
    count_ops = 2000

    HISTORY_EVERY = 10
    #: About 6% of portlet lookups miss (one per portlet per TTL).  The
    #: remote-site misses (~180 ms virtual) and the local ganglia misses
    #: (~2.3 ms) then each make up about 0.65% of ops, so the p99 of
    #: virtual latency falls inside the ganglia class instead of on the
    #: edge between classes, where it would follow each seed's host specs.
    THINK_MIN, THINK_MAX = 0.08, 0.33
    PREFILL_POLLS = 1250
    PREFILL_PERIOD = 2.0
    WINDOWS = (600.0, 1200.0, 2400.0)
    AGENTS = ("snmp", "ganglia", "scms", "sql")

    def setup(self) -> None:
        net = self.network
        self.home = _grid_site(net, "site-a", self.seed, self.AGENTS)
        self.remote = _grid_site(net, "site-b", self.seed + 1, self.AGENTS)
        directory = GMADirectory(net)
        for site in (self.home, self.remote):
            GlobalLayer(site.gateway, directory)
        self.clock.advance(30.0)
        gw = self.home.gateway
        a, b = self.home, self.remote
        snmp = [u for u in a.source_urls if u.startswith("jdbc:snmp:")]
        self.ttl = gw.policy.query_cache_ttl
        # Only one portlet reads ganglia at each site: portlets sharing the
        # ganglia driver's own response cache would take one or two gmond
        # fetches per TTL, as their expiry times drift apart, and
        # wire_kb_per_op would follow that drift instead of the program.
        self.portlets = [
            ([a.url_for("ganglia")],
             "SELECT HostName, LoadAverage1Min, CPUUtilization FROM Processor"),
            (snmp, "SELECT HostName, CPUUtilization, CPUIdle FROM Processor"),
            ([snmp[4]],
             "SELECT HostName, CPUCount, RAMSizeMB, RAMAvailableMB "
             "FROM Processor, MainMemory"),
            ([a.url_for("scms")],
             "SELECT SiteName, COUNT(*) AS Hosts, AVG(LoadAverage1Min) AS Load "
             "FROM Processor GROUP BY SiteName"),
            ([b.url_for("ganglia")],
             "SELECT HostName, LoadAverage1Min FROM Processor"),
            ([a.url_for("scms")], "SELECT JobId, Owner, State FROM Job"),
            ([a.url_for("sql")], "SELECT HostName, Reachable, AgentName FROM Host"),
            (snmp[:4], "SELECT HostName, RAMSizeMB, RAMAvailableMB FROM MainMemory"),
        ]
        # History prefill through the normal real-time poll path: every
        # star fetch is recorded, one row per host per poll.
        self.history_url = a.url_for("sql")
        self.prefill_times: list[float] = []
        for _ in range(self.PREFILL_POLLS):
            gw.query(
                [self.history_url], "SELECT * FROM Processor",
                mode=QueryMode.REALTIME,
            )
            # Rows are stamped when the fetch returns.
            self.prefill_times.append(self.clock.now())
            self.clock.advance(self.PREFILL_PERIOD)
        self.history_end = self.prefill_times[-1]
        self.hosts = a.host_names()
        # Warm every plan and cache entry once, as a running dashboard
        # would be: the timed ops start from steady state.
        self.last_fresh: dict[int, tuple] = {}
        self.deck: list[int] = []
        for k in range(len(self.portlets)):
            op = self._portlet(k)
            self.check(op, self.run(op)[0])
        for host in self.hosts:
            for window in self.WINDOWS:
                op = self._history(host, window)
                self.check(op, self.run(op)[0])
        self.params = {
            "sites": 2,
            "hosts_per_site": 8,
            "agents": list(self.AGENTS),
            "portlets": [sql for _urls, sql in self.portlets],
            "portlet_max_age_s": self.ttl,
            "history_every_ops": self.HISTORY_EVERY,
            "history_prefill_rows": gw.history.rows_recorded,
            "history_windows_s": list(self.WINDOWS),
            "think_time_s": [self.THINK_MIN, self.THINK_MAX],
        }

    def _portlet(self, k: int) -> Op:
        urls, sql = self.portlets[k]
        return Op(urls, sql, QueryMode.CACHED_OK, max_age=self.ttl, expect=k)

    def _history(self, host: str, window: float) -> Op:
        since = self.history_end - window
        sql = (
            "SELECT HostName, RecordedAt, LoadAverage1Min, CPUUtilization "
            f"FROM Processor WHERE HostName = '{host}' AND RecordedAt >= {since}"
        )
        n = sum(1 for t in self.prefill_times if t >= since)
        return Op([self.history_url], sql, QueryMode.HISTORY, expect=(host, since, n))

    def next_op(self, i: int) -> Op:
        # Every tenth op is a trend scan; portlets are dealt from a
        # shuffled deck, so each run has the same mix.
        rng = self.rng
        if i % self.HISTORY_EVERY == self.HISTORY_EVERY - 1:
            return self._history(rng.choice(self.hosts), rng.choice(self.WINDOWS))
        if not self.deck:
            self.deck = list(range(len(self.portlets)))
            rng.shuffle(self.deck)
        return self._portlet(self.deck.pop())

    def think(self, i: int) -> None:
        self.clock.advance(self.rng.uniform(self.THINK_MIN, self.THINK_MAX))

    def check(self, op: Op, result: QueryResult) -> Outcome:
        out = super().check(op, result)
        if op.mode is QueryMode.HISTORY:
            host, since, n = op.expect
            if len(result.rows) != n:
                out.wrong.append(f"history rows {len(result.rows)} != {n}")
            if any(r[0] != host or r[1] < since for r in result.rows):
                out.wrong.append("history row outside its host/window")
            return out
        k = op.expect
        answer = (tuple(result.columns), tuple(map(tuple, result.rows)))
        if all(s.from_cache for s in result.statuses):
            # A cache hit must return exactly the answer that filled it.
            if self.last_fresh.get(k) != answer:
                out.wrong.append(f"cached answer differs for portlet {k}")
        else:
            self.last_fresh[k] = answer
        return out


# ----------------------------------------------------------------------
# poll
# ----------------------------------------------------------------------
class Poll(Workload):
    """Federated real-time polling with durable recording.

    Every (source, group) pair the drivers serve, polled REALTIME with
    ``SELECT *`` each round; a second site's ganglia and scms sources
    are polled through the Global layer; every fetch is WAL-recorded.
    """

    name = "poll"
    tail_pct = 99
    digest_ops = 900
    block_ops = 45
    count_ops = 450
    cycle_ops = 45

    ROUND_PERIOD = 10.0
    GROUPS = {
        "snmp": ("Processor", "MainMemory", "FileSystem"),
        "ganglia": ("Processor", "MainMemory", "NetworkAdapter"),
        "nws": ("NetworkForecast",),
        "netlogger": ("LogEvent",),
        "scms": ("Processor", "Job"),
        "sql": ("Host", "Job"),
    }
    REMOTE_KINDS = ("ganglia", "scms")
    TRANSIENT = ("Job", "LogEvent")

    def setup(self) -> None:
        net = self.network
        policy = GatewayPolicy(history_durable=True)
        self.home = _grid_site(
            net, "site-a", self.seed, tuple(self.GROUPS), policy=policy
        )
        self.remote = _grid_site(net, "site-b", self.seed + 1, self.REMOTE_KINDS)
        directory = GMADirectory(net)
        for site in (self.home, self.remote):
            GlobalLayer(site.gateway, directory)
        self.clock.advance(30.0)
        self.pairs: list[tuple[str, str, frozenset[str]]] = []
        for site, kinds in ((self.home, tuple(self.GROUPS)),
                            (self.remote, self.REMOTE_KINDS)):
            hosts = frozenset(site.host_names())
            for url in site.source_urls:
                kind = url.split(":")[1]
                if kind in kinds:
                    for group in self.GROUPS[kind]:
                        self.pairs.append((url, group, hosts))
        self.round: list[int] = []
        # One warm-up round: connections pooled, plans compiled.
        for k in range(len(self.pairs)):
            op = self._op(k)
            self.check(op, self.run(op)[0])
        self.clock.advance(self.ROUND_PERIOD)
        self.params = {
            "sites": 2,
            "hosts_per_site": 8,
            "home_agents": list(self.GROUPS),
            "remote_agents": list(self.REMOTE_KINDS),
            "ops_per_round": len(self.pairs),
            "round_period_s": self.ROUND_PERIOD,
            "history_durable": True,
            "think_time_s": 0.0,
        }

    def _op(self, k: int) -> Op:
        url, group, hosts = self.pairs[k]
        return Op([url], f"SELECT * FROM {group}", QueryMode.REALTIME,
                  expect=(group, hosts), allow_empty=group in self.TRANSIENT)

    def next_op(self, i: int) -> Op:
        if not self.round:
            self.round = list(range(len(self.pairs)))
            self.rng.shuffle(self.round)
        return self._op(self.round.pop())

    def think(self, i: int) -> None:
        if not self.round:
            self.clock.advance(self.ROUND_PERIOD)

    def check(self, op: Op, result: QueryResult) -> Outcome:
        out = super().check(op, result)
        group, hosts = op.expect
        if result.columns != SCHEMA.group(group).field_names():
            out.wrong.append(f"{group} columns {result.columns}")
        if any(r[0] not in hosts for r in result.rows):
            out.wrong.append(f"{group} row from a host outside the site")
        return out


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
class Stream(Workload):
    """R-GMA-style continuous queries: 1000 subscriptions over 8 shapes.

    Each op is one REALTIME ``SELECT * FROM Processor`` against ganglia
    or one SNMP host, which publishes into the hub, plus the 1 s
    virtual advance that delivers the pushes to the consumers.
    """

    name = "stream"
    tail_pct = 95
    digest_ops = 60
    block_ops = 4
    count_ops = 40

    SUBSCRIPTIONS = 1000
    CONSUMERS = 4
    DELIVERY = 1.0
    LEASE = 1e6
    #: The client takes the batches it has checked out of its consumers
    #: every DRAIN_EVERY ops, so the retained state (and the cost of
    #: collecting it) is the same in every stretch of the run, however
    #: many ops a run completes.
    DRAIN_EVERY = 10
    cycle_ops = DRAIN_EVERY
    SHAPES = (
        "SELECT * FROM Processor",
        "SELECT HostName, LoadAverage1Min FROM Processor",
        "SELECT HostName FROM Processor WHERE LoadAverage1Min > 0.5",
        "SELECT HostName, CPUUtilization FROM Processor WHERE CPUIdle < 90",
        "SELECT COUNT(*) AS N FROM Processor",
        "SELECT HostName FROM Processor WHERE SiteName = 'site-a'",
        "SELECT DISTINCT SiteName FROM Processor",
        "SELECT HostName, CPUCount FROM Processor WHERE CPUCount >= 1",
    )

    def setup(self) -> None:
        policy = GatewayPolicy(streaming_enabled=True)
        self.home = _grid_site(
            self.network, "site-a", self.seed, ("snmp", "ganglia"), policy=policy
        )
        self.clock.advance(30.0)
        hub = self.home.gateway.streams.address
        self.consumers = [
            StreamConsumer(self.network, f"viewer-{c}")
            for c in range(self.CONSUMERS)
        ]
        #: (consumer index, cq id) -> shape index
        self.shape_of: dict[tuple[int, int], int] = {}
        for i in range(self.SUBSCRIPTIONS):
            c = i % self.CONSUMERS
            shape = i % len(self.SHAPES)
            cq = self.consumers[c].register(
                hub, self.SHAPES[shape], lease=self.LEASE
            )
            self.shape_of[(c, cq)] = shape
        self.subs_per_shape = [
            sum(1 for s in self.shape_of.values() if s == k)
            for k in range(len(self.SHAPES))
        ]
        self.parsed = [parse_select(sql) for sql in self.SHAPES]
        self.seen = [0] * self.CONSUMERS
        self.checked = 0
        self.peak_retained = 0
        self.snmp = [u for u in self.home.source_urls if u.startswith("jdbc:snmp:")]
        self.ganglia = self.home.url_for("ganglia")
        self.lags: list[float] = []
        self.params = {
            "sites": 1,
            "hosts_per_site": 8,
            "agents": ["snmp", "ganglia"],
            "subscriptions": self.SUBSCRIPTIONS,
            "consumers": self.CONSUMERS,
            "shapes": list(self.SHAPES),
            "delivery_advance_s": self.DELIVERY,
            "drain_every_ops": self.DRAIN_EVERY,
            "think_time_s": 0.0,
        }

    def next_op(self, i: int) -> Op:
        # Ganglia and SNMP publishes alternate, so every run has the same
        # mix of 8-row and 1-row publishes; the seed picks the hosts.
        url = self.rng.choice(self.snmp) if i % 2 else self.ganglia
        return Op([url], "SELECT * FROM Processor", QueryMode.REALTIME)

    def run(self, op: Op) -> tuple[QueryResult, float]:
        result, virt = super().run(op)
        self.clock.advance(self.DELIVERY)
        return result, virt

    def check(self, op: Op, result: QueryResult) -> Outcome:
        out = super().check(op, result)
        if result.columns != SCHEMA.group("Processor").field_names():
            out.wrong.append(f"Processor columns {result.columns}")
        relation = [dict(zip(result.columns, r)) for r in result.rows]
        expected = []
        for select in self.parsed:
            oracle = execute_select(select, result.columns, relation)
            expected.append((list(oracle.columns), [list(r) for r in oracle.rows]))
        got = [0] * len(self.SHAPES)
        for c, consumer in enumerate(self.consumers):
            batches = consumer.batches[self.seen[c]:]
            self.seen[c] = len(consumer.batches)
            for batch in batches:
                shape = self.shape_of.get((c, batch["cq"]))
                if shape is None or batch["source_url"] != op.urls[0]:
                    out.wrong.append("batch from another publish")
                    continue
                got[shape] += 1
                if (batch["columns"], batch["rows"]) != expected[shape]:
                    out.wrong.append(f"push differs from oracle for shape {shape}")
                self.lags.append(batch["received_at"] - batch["published_at"])
        for k, (_cols, rows) in enumerate(expected):
            want = self.subs_per_shape[k] if rows else 0
            if got[k] != want:
                out.wrong.append(f"shape {k}: {got[k]} batches, expected {want}")
        self.checked += 1
        if self.checked % self.DRAIN_EVERY == 0:
            self.peak_retained = max(
                self.peak_retained, sum(len(c.batches) for c in self.consumers)
            )
            for consumer in self.consumers:
                consumer.batches.clear()
                consumer.delivered.clear()
            self.seen = [0] * self.CONSUMERS
        return out

    def state_counts(self) -> dict[str, int]:
        return {"streams.consumer_batches_retained": self.peak_retained}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Dashboard, Poll, Stream)
}
