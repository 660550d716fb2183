"""Chaos scenarios: the fault plane pointed at a live testbed.

``python -m repro chaos`` (or :func:`run_chaos` from a test) builds a
site, installs a standard :class:`~repro.simnet.faults.FaultPlane`
scenario — latency spikes, a slowed host, a flapping host, a flaky agent
port, payload corruption and a timed partition — and drives query rounds
through it, measuring what the robustness machinery (deadlines, retry
budgets, hedged requests, circuit breakers) does to tail latency.
:func:`run_overload` adds an offered-load spike, :func:`run_stream`
continuous queries under the same faults.

Each is a :class:`~repro.scenario.Scenario` definition; the runner
(:func:`repro.scenario.run`) seeds, folds, drains and checks them.
Re-running with the same ``seed`` and the same knobs replays the exact
same fault schedule, the same per-request fault draws and therefore
byte-identical results — the report's SHA-256 signature makes replay
identity checkable.  (Different knobs legitimately produce different
signatures: hedges and retries consume extra fault draws, and fan-out
shifts request instants.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.dispatch import percentile
from repro.core.gateway import BatchQuery, QueryResult
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.gma.streams import FLAVOURS, Republisher, StreamConsumer
from repro.scenario import R, Scenario, ScenarioReport, run
from repro.simnet.faults import FaultPlane
from repro.testbed import Site


def install_standard_faults(
    plane: FaultPlane, site: Site, *, period: float, rounds: int
) -> None:
    """Schedule the canonical chaos scenario over one site.

    All windows are expressed relative to *now* and scaled by the poll
    ``period`` so the same mix of overlapping faults hits whatever the
    cadence: two spiky hosts from the start, a mid-run slowdown, a
    flapping host, a flaky agent port, a corruption window, and a timed
    partition (auto-healed) between the gateway and one host.
    """
    hosts = site.host_names()

    def h(i: int) -> str:
        return hosts[i % len(hosts)]

    span = rounds * period
    plane.latency_spikes(h(0), prob=0.30, extra=1.5)
    plane.latency_spikes(h(1), prob=0.15, extra=2.5, start=0.1 * span)
    plane.slow_host(
        h(1), factor=3.0, service_time=0.05, start=0.25 * span, duration=0.25 * span
    )
    plane.flap_host(h(2), down_at=0.2 * span, down_for=1.5 * period, times=2)
    plane.flaky_port(h(0), prob=0.25, start=0.4 * span, duration=0.3 * span)
    plane.corrupt_payloads(h(1), prob=0.15, start=0.55 * span, duration=0.25 * span)
    plane.partition_between(
        [site.gateway.host], [h(3)], start=0.7 * span, duration=1.5 * period
    )


# ----------------------------------------------------------------------
# Standard chaos: query rounds under the standard fault mix
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ChaosReport(ScenarioReport):
    """One chaos run's measurements and invariant checks."""

    rounds: int
    hedging: bool = True
    fanout: bool = True
    deadline: float = 10.0
    #: Per-round end-to-end virtual latencies, in round order.
    latencies: list[float] = field(default_factory=list)
    ok_rounds: int = 0
    dispatch: dict[str, Any] = field(default_factory=dict)

    unreported = frozenset({"latencies"})

    def latency(self, q: float) -> float:
        """The q-th percentile of per-round latency (virtual seconds)."""
        return percentile(self.latencies, q)

    def derived(self) -> dict[str, Any]:
        return {
            "p50": self.latency(50),
            "p95": self.latency(95),
            "p99": self.latency(99),
            "max": max(self.latencies),
        }

    def lines(self) -> list[str]:
        r = self.requests
        d = self.dispatch
        return [
            f"Chaos run: seed={self.seed}, {self.rounds} rounds, "
            f"hedging {'on' if self.hedging else 'off'}, "
            f"fan-out {'on' if self.fanout else 'off'}, "
            f"deadline={self.deadline:g}s",
            f"  latency (virtual): p50={self.latency(50):.3f}s "
            f"p95={self.latency(95):.3f}s p99={self.latency(99):.3f}s "
            f"max={max(self.latencies):.3f}s",
            f"  clean rounds: {self.ok_rounds}/{self.rounds}, "
            f"source failures: {r.get('source_failures', 0)}, "
            f"deadline exceeded: {r.get('deadline_exceeded', 0)}",
            f"  retries: {r.get('retries', 0)} "
            f"(gave up {r.get('retry_giveups', 0)})",
            f"  hedges: fired {d.get('hedges_fired', 0)}, "
            f"won {d.get('hedges_won', 0)}, "
            f"cancelled {d.get('hedges_cancelled', 0)}, "
            f"saved {d.get('hedge_time_saved', 0.0):.2f}s virtual",
            self.faults_line(),
            f"  breakers: {self.breakers.get('trips', 0)} trips, "
            f"{self.breakers.get('recoveries', 0)} recoveries, "
            f"{self.breakers.get('open', 0)} open at end",
            self.invariants_line(
                f"breaker violations={len(self.breaker_violations)}"
            ),
            self.signature_line(),
        ]


def _round_value(i: int, result: QueryResult) -> tuple[Any, ...]:
    """What one poll round contributes to the replay signature."""
    return (
        i,
        result.columns,
        result.rows,
        [
            (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.error)
            for s in result.statuses
        ],
    )


@dataclass(kw_only=True)
class FaultedRounds(Scenario[R]):
    """Query rounds through the standard fault mix.

    ``warmup_rounds`` clean polls run first so the hedger has a latency
    window to take its percentile from; faults start only after warm-up,
    so two runs differing only in knobs see the identical schedule.
    Per-source failures are part of the measurement, never raised.
    Hedging and fan-out are on unless a subclass makes them knobs.
    """

    rounds: int = 30
    warmup_rounds: int = 10
    deadline: float = 10.0
    hedging: bool = field(init=False, default=True)
    fanout: bool = field(init=False, default=True)

    def policy(self, **extra: Any) -> GatewayPolicy:
        return GatewayPolicy(
            fanout_enabled=self.fanout,
            hedge_enabled=self.hedging,
            retry_attempts=2,
            default_deadline=self.deadline,
            **extra,
        )

    def arm(self) -> None:
        self.plane = FaultPlane(self.site.network, seed=self.seed)
        install_standard_faults(
            self.plane, self.site, period=self.period, rounds=self.rounds
        )

    def step(self, report: R, i: int) -> Iterable[Any]:
        result = self.poll()
        self.tally(report, result)
        return [_round_value(i, result)]

    def tally(self, report: R, result: QueryResult) -> None:
        """Record one measured round's result in the report."""


@dataclass(kw_only=True)
class Chaos(FaultedRounds[ChaosReport]):
    """The standard chaos run, measuring tail latency and the
    robustness counters; hedging and fan-out are knobs."""

    hedging: bool = True
    fanout: bool = True

    def setup(self, seed: int) -> ChaosReport:
        self.build(seed, self.policy())
        return ChaosReport(
            seed=seed,
            rounds=self.rounds,
            hedging=self.hedging,
            fanout=self.fanout,
            deadline=self.deadline,
        )

    def tally(self, report: ChaosReport, result: QueryResult) -> None:
        report.latencies.append(result.elapsed)
        if all(s.ok for s in result.statuses):
            report.ok_rounds += 1

    def observe(self, report: ChaosReport) -> Iterable[Any]:
        report.dispatch = self.gateway.dispatcher.stats.as_dict()
        return ()


def run_chaos(*, seed: int = 0, race_detect: bool = False, **knobs: Any) -> ChaosReport:
    """Run the standard chaos scenario; ``knobs`` are :class:`Chaos` fields.

    ``race_detect=True`` runs it detector on, then off, and compares
    (:func:`repro.scenario.run`); the detector stays attached to the
    gateway so a later ``gw.analyze()`` reports the same findings.
    """
    return run(Chaos(**knobs), seed=seed, race_detect=race_detect)


# ----------------------------------------------------------------------
# Overload scenario: offered-load spike x slow-host fault
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class OverloadReport(ScenarioReport):
    """One overload-chaos run's measurements and invariant checks.

    *Goodput* counts complete answers delivered **within the deadline
    budget** (every source ok — brownout stale serves qualify: the
    client got a complete, honestly degraded-marked answer, fast).  An
    answer that limps in after the deadline is *not* good — the client
    gave up — which is what makes queueing collapse measurable even
    where nothing raised: work kept completing, just ever later.  Sheds,
    deadline blowouts and partial results produce no good answer either.
    """

    rounds: int
    shedding: bool
    base_load: int
    spike_load: int
    deadline: float
    #: Per-round good completions / offered members, in round order.
    goodput: list[int] = field(default_factory=list)
    offered: list[int] = field(default_factory=list)
    offered_total: int = 0
    good_total: int = 0
    #: Per-class shed counts from the gateway's ledger.
    shed_counts: dict[str, int] = field(default_factory=dict)
    brownout_served: int = 0
    doomed: int = 0
    critical_offered: int = 0
    critical_shed: int = 0
    pressure_transitions: int = 0
    final_state: str = "normal"

    unreported = frozenset({"faults"})

    def problems(self) -> list[str]:
        out = super().problems()
        if self.critical_shed:
            out.append(
                f"{self.critical_shed} CRITICAL quer(ies) shed — "
                "critical work must never be dropped"
            )
        return out

    def lines(self) -> list[str]:
        r = self.requests
        return [
            f"Overload run: seed={self.seed}, {self.rounds} rounds, "
            f"shedding {'on' if self.shedding else 'off'}, "
            f"load {self.base_load}->{self.spike_load}/round, "
            f"deadline={self.deadline:g}s",
            f"  goodput: {self.good_total}/{self.offered_total} "
            f"(per round: {' '.join(str(g) for g in self.goodput)})",
            f"  sheds: total={self.shed_counts.get('total', 0)} "
            f"(critical={self.shed_counts.get('critical', 0)}, "
            f"interactive={self.shed_counts.get('interactive', 0)}, "
            f"batch={self.shed_counts.get('batch', 0)}), "
            f"brownout served={self.brownout_served}, doomed={self.doomed}",
            f"  critical: {self.critical_shed}/{self.critical_offered} shed",
            f"  pressure: {self.pressure_transitions} transitions, "
            f"final state={self.final_state}",
            f"  deadline exceeded: {r.get('deadline_exceeded', 0)}, "
            f"source failures: {r.get('source_failures', 0)}, "
            f"retries: {r.get('retries', 0)} "
            f"(gave up {r.get('retry_giveups', 0)})",
            f"  breakers: {self.breakers.get('trips', 0)} trips, "
            f"{self.breakers.get('open', 0)} open at end",
            self.invariants_line(
                f"breaker violations={len(self.breaker_violations)}"
            ),
            self.signature_line(),
        ]


def _overload_class(i: int) -> str:
    """Deterministic class mix for burst member ``i`` (no RNG: replay
    identity must not depend on draw order): 10% critical, ~30% batch,
    the rest interactive."""
    if i % 10 == 0:
        return "critical"
    if i % 3 == 2:
        return "batch"
    return "interactive"


@dataclass(kw_only=True)
class Overload(Scenario[OverloadReport]):
    """Offered-load spike x slow-host fault against one gateway.

    Each round offers a burst of concurrent client queries
    (``base_load``, spiking to ``spike_load`` during the spike window)
    with a deterministic CRITICAL/INTERACTIVE/BATCH mix; during the
    spike every monitored host also degrades (site-wide contention), so
    per-request cost inflates exactly when offered load peaks.  The
    default spike (32 members against an initial admission limit of 8)
    is 4x the no-queue capacity.  With ``shedding`` on, the gateway's
    admission control + adaptive concurrency + brownout machinery
    (:mod:`repro.core.admission`) degrades gracefully: excess load is
    absorbed by bounded queueing, brownout stale serving and typed
    sheds, and the breakers stay quiet.  With it off, per-source queue
    waits push answers past their deadline (late answers are not
    goodput), the resulting failures trip breakers on *healthy* hosts,
    and goodput collapses.

    ``warmup_rounds=0`` removes the stale coverage brownout serving
    depends on, so pressured queries shed instead — the shed-heavy
    variant.  ``slow_host=False`` drops the fault entirely: sheds then
    come purely from offered load, which is what the breaker x shed
    end-to-end assertion wants (sheds happen, zero breaker activity).
    """

    rounds: int = 12
    agents: Sequence[str] = ("snmp",)
    shedding: bool = True
    base_load: int = 2
    spike_load: int = 32
    spike_start_round: int = 3
    spike_rounds: int = 6
    deadline: float = 2.0
    period: float = 10.0
    warmup_rounds: int = 4
    queue_limit: int = 8
    slow_host: bool = True
    slow_factor: float = 3.0
    slow_service: float = 0.3

    def setup(self, seed: int) -> OverloadReport:
        self.build(
            seed,
            GatewayPolicy(
                fanout_enabled=True,
                hedge_enabled=False,
                retry_attempts=2,
                default_deadline=self.deadline,
                admission_enabled=self.shedding,
                adaptive_concurrency=self.shedding,
                admission_queue_limit=self.queue_limit,
                pressure_min_dwell=self.period / 2,
                # The breaker's stale-on-open path would mask the
                # comparison: without admission control, queueing blows
                # deadlines, the breakers mistake overload for host
                # failure and quietly serve everything stale — "goodput"
                # by accident, with healthy sources marked dead (breaker
                # pollution, visible in ``breakers``).  run_chaos covers
                # that path; here it is off in BOTH arms so the measured
                # stale serving is the *deliberate* brownout machinery.
                serve_stale_on_open=False,
            ),
        )
        # Burst member i asks a *distinct* query (an always-true
        # predicate varying by slot) — identical queries would coalesce
        # via single-flight and the "offered load" would be one flight
        # per source, which is no load at all.
        self.member_sql = [
            f"{self.sql} WHERE 0 <= {i}"
            for i in range(max(self.spike_load, self.base_load))
        ]
        return OverloadReport(
            seed=seed,
            rounds=self.rounds,
            shedding=self.shedding,
            base_load=self.base_load,
            spike_load=self.spike_load,
            deadline=self.deadline,
        )

    def warm(self) -> None:
        # Clean warm-up polls: the query cache needs a relation per
        # (source, member-sql) so brownout has stale coverage to serve,
        # and the limiters need a latency baseline.  Not measured.
        urls = list(self.site.source_urls)
        for msql in self.member_sql:
            self.gateway.query(urls, msql, mode=QueryMode.REALTIME)
        self.clock.advance(self.period)

    def arm(self) -> None:
        if not self.slow_host:
            return
        # Every monitored host degrades together (site-wide resource
        # contention, exactly when offered load peaks).  A single slow
        # host would just trip its breaker and be served stale — real
        # overload is the case breakers *cannot* isolate.  Rounds take
        # `period` plus the batch's own virtual elapsed time, and an
        # overloaded batch runs long — size the fault window generously
        # so it covers the spike rounds in both arms (trailing base-load
        # rounds are far below capacity either way).
        spike_start = self.clock.now() + self.spike_start_round * self.period
        self.plane = FaultPlane(self.site.network, seed=self.seed)
        for name in self.site.host_names():
            self.plane.slow_host(
                name,
                factor=self.slow_factor,
                service_time=self.slow_service,
                start=spike_start - self.clock.now(),
                duration=3 * self.spike_rounds * self.period,
            )

    def step(self, report: OverloadReport, i: int) -> Iterable[Any]:
        in_spike = self.spike_start_round <= i < self.spike_start_round + self.spike_rounds
        n = self.spike_load if in_spike else self.base_load
        classes = [_overload_class(m) for m in range(n)]
        report.critical_offered += classes.count("critical")
        urls = list(self.site.source_urls)
        outcomes = self.gateway.query_batch(
            [
                BatchQuery(
                    urls=urls,
                    sql=self.member_sql[m],
                    mode=QueryMode.REALTIME,
                    query_class=c,
                )
                for m, c in enumerate(classes)
            ]
        )
        folded: list[Any] = []
        good = 0
        for m, out in enumerate(outcomes):
            if isinstance(out, Exception):
                folded.append((i, m, type(out).__name__, str(out)))
                continue
            folded.append(
                (
                    i,
                    m,
                    out.columns,
                    out.rows,
                    [
                        (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.shed, s.error)
                        for s in out.statuses
                    ],
                )
            )
            if out.statuses and out.failed_sources == 0 and out.elapsed <= self.deadline:
                good += 1
        report.goodput.append(good)
        report.offered.append(n)
        report.good_total += good
        report.offered_total += n
        self.clock.advance(self.period)
        return folded

    def observe(self, report: OverloadReport) -> Iterable[Any]:
        snapshot = self.gateway.overload.snapshot()
        report.shed_counts = dict(snapshot["sheds"])
        report.critical_shed = int(snapshot["sheds"].get("critical", 0))
        report.brownout_served = int(snapshot["brownout_served"])
        report.doomed = int(snapshot["doomed"])
        report.pressure_transitions = int(snapshot["transitions"])
        report.final_state = str(snapshot["state"])
        return ()


def run_overload(
    *, seed: int = 0, race_detect: bool = False, **knobs: Any
) -> OverloadReport:
    """Run the overload scenario; ``knobs`` are :class:`Overload` fields."""
    return run(Overload(**knobs), seed=seed, race_detect=race_detect)


# ----------------------------------------------------------------------
# Streaming scenario: continuous queries x faults x lease recovery
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class StreamReport(ScenarioReport):
    """One streaming-chaos run's measurements and invariant checks.

    The signature folds every poll round's rows plus every delivered
    batch (id, columns, rows, publish/receive instants, provenance):
    same seed and knobs => byte-identical delivery, whatever the
    detector or console is doing on the side.
    """

    rounds: int
    subscriptions: int
    partition: bool
    #: Batches / rows the consumer received (replays included).
    delivered_batches: int = 0
    delivered_rows: int = 0
    #: Batches flagged ``replay`` (latest/history attach catch-up).
    replay_batches: int = 0
    #: Hub-side counters (pushes sent, rows replayed on attach, drops,
    #: brownout suppressions, expiries, tombstone resurrections, sheds).
    pushes: int = 0
    replayed: int = 0
    dropped: int = 0
    suppressed: int = 0
    expired: int = 0
    resurrected: int = 0
    shed: int = 0
    #: Consumer-side lease upkeep.
    renewals: int = 0
    renewal_failures: int = 0
    reregisters: int = 0
    #: Republisher-derived windows published / samples folded.
    derived_windows: int = 0
    derived_samples: int = 0
    #: Non-paused subscriptions left holding buffered batches after the
    #: drain (must be empty — a live subscription never buffers).
    stuck_buffers: list[str] = field(default_factory=list)
    hub: dict[str, Any] = field(default_factory=dict)

    unreported = frozenset({"requests", "breakers", "breaker_violations"})

    def problems(self) -> list[str]:
        out = super().problems()
        if self.partition and self.reregisters == 0:
            out.append(
                "consumer partition healed without any re-registration — "
                "lease recovery never ran"
            )
        return out + [f"stuck buffer: {entry}" for entry in self.stuck_buffers]

    def lines(self) -> list[str]:
        return [
            f"Stream run: seed={self.seed}, {self.rounds} rounds, "
            f"{self.subscriptions} subscription(s), "
            f"consumer partition {'on' if self.partition else 'off'}",
            f"  delivered: {self.delivered_batches} batches "
            f"({self.delivered_rows} rows), "
            f"{self.replay_batches} replay batches on attach",
            f"  hub: {self.pushes} pushes, {self.replayed} rows replayed, "
            f"{self.dropped} dropped, {self.suppressed} suppressed, "
            f"{self.shed} shed",
            f"  leases: {self.renewals} renewals "
            f"({self.renewal_failures} failed), {self.expired} expired, "
            f"{self.resurrected} resurrected, "
            f"{self.reregisters} re-registered after lapse",
            f"  republisher: {self.derived_windows} windows from "
            f"{self.derived_samples} samples",
            self.faults_line(),
            self.invariants_line(f"stuck buffers={len(self.stuck_buffers)}"),
            self.signature_line(),
        ]


@dataclass(kw_only=True)
class Stream(Scenario[StreamReport]):
    """Continuous queries under the standard fault scenario.

    Warm-up polls run first so ``latest``/``history`` registrations have
    rows to replay on attach; the continuous queries register next (a
    deterministic flavour x class mix, each with a distinct predicate so
    plans do not alias), a republisher derives per-host windowed
    aggregates the same consumer subscribes to downstream, and only then
    do the faults start — including, when ``partition`` is on, a
    consumer partition sized to outlive lease + tombstone grace so
    recovery must go through the consumer's automatic re-registration
    with the delivery watermark (``reregisters`` measures that path).
    """

    rounds: int = 12
    agents: Sequence[str] = ("snmp",)
    subscriptions: int = 6
    period: float = 10.0
    warmup_rounds: int = 3
    deadline: float = 10.0
    partition: bool = True

    def setup(self, seed: int) -> StreamReport:
        self.lease = 2.0 * self.period
        self.build(
            seed,
            GatewayPolicy(
                fanout_enabled=True,
                hedge_enabled=False,
                retry_attempts=2,
                default_deadline=self.deadline,
                streaming_enabled=True,
                stream_sweep_period=self.period,
                stream_default_lease=self.lease,
            ),
        )
        return StreamReport(
            seed=seed,
            rounds=self.rounds,
            subscriptions=self.subscriptions,
            partition=self.partition,
        )

    def arm(self) -> None:
        gw = self.gateway
        assert gw.streams is not None  # streaming_enabled above
        network = self.site.network
        self.consumer = StreamConsumer(network, "stream-client")
        hub_addr = gw.streams.address
        for i in range(self.subscriptions):
            self.consumer.register(
                hub_addr,
                f"SELECT HostName, LoadAverage1Min FROM Processor "
                f"WHERE 0 <= {i}",
                flavour=FLAVOURS[i % len(FLAVOURS)],
                lease=self.lease,
                query_class=_overload_class(i),
            )
        # The republisher folds per-host CPU into windowed aggregates and
        # publishes them through its own hub; the same consumer
        # subscribes downstream, closing the derived-stream loop.
        self.rep = Republisher(network, "stream-rep", policy=gw.policy)
        self.derivation = self.rep.derive(
            hub_addr,
            "SELECT HostName, CPUUtilization FROM Processor",
            key_column="HostName",
            value_column="CPUUtilization",
            window=2.0 * self.period,
            group="DerivedLoad",
            lease=self.lease,
        )
        self.consumer.register(
            self.rep.hub.address,
            "SELECT HostName, AvgValue, Samples FROM DerivedLoad",
            flavour="stream",
            lease=self.lease,
        )

        self.plane = FaultPlane(network, seed=self.seed)
        install_standard_faults(
            self.plane, self.site, period=self.period, rounds=self.rounds
        )
        if self.partition:
            # Outlives lease (2p) + sweep-to-tombstone + tombstone drop
            # (2 sweeps, 2p): the hub forgets the consumer's
            # subscriptions entirely, so healing must re-register.
            span = self.rounds * self.period
            self.plane.partition_between(
                [gw.host], ["stream-client"],
                start=0.25 * span,
                duration=self.lease + 3.0 * self.period,
            )

    def step(self, report: StreamReport, i: int) -> Iterable[Any]:
        result = self.poll()
        return [
            (
                i,
                result.columns,
                result.rows,
                [(s.url, s.ok, s.rows, s.error) for s in result.statuses],
            )
        ]

    def observe(self, report: StreamReport) -> Iterable[Any]:
        hub = self.gateway.streams
        assert hub is not None
        batches = self.consumer.batches
        report.delivered_batches = len(batches)
        report.delivered_rows = sum(len(b["rows"]) for b in batches)
        report.replay_batches = sum(1 for b in batches if b["replay"])
        report.renewals = self.consumer.stats["renewals"]
        report.renewal_failures = self.consumer.stats["renewal_failures"]
        report.reregisters = self.consumer.stats["reregisters"]
        report.derived_windows = self.derivation.windows_published
        report.derived_samples = self.rep.stats["samples"]
        for h in (hub, self.rep.hub):
            for cq_id, b in h.buffer_stats().items():
                if b["buffered"] and not b["paused"]:
                    report.stuck_buffers.append(
                        f"{h.address.host}: cq{cq_id} live with "
                        f"{b['buffered']} buffered batch(es)"
                    )
        report.hub = hub.snapshot()
        for key in (
            "pushes", "replayed", "dropped", "suppressed",
            "expired", "resurrected", "shed",
        ):
            setattr(report, key, int(report.hub[key]))
        # Every delivered batch, arrival order: the push plane's half of
        # the replay identity.
        folded = [
            (
                b["cq"],
                b["columns"],
                b["rows"],
                b["published_at"],
                b["received_at"],
                b["source_url"],
                b["replay"],
            )
            for b in batches
        ]
        # Clean teardown over a healed network, then settle.
        self.consumer.stop()
        self.rep.stop()
        self.clock.advance(self.period)
        return folded


def run_stream(*, seed: int = 0, race_detect: bool = False, **knobs: Any) -> StreamReport:
    """Run the streaming scenario; ``knobs`` are :class:`Stream` fields."""
    return run(Stream(**knobs), seed=seed, race_detect=race_detect)
