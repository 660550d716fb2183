"""One scenario runner: seeded, race-checked, invariant-checked runs.

Every robustness harness in the project is a :class:`Scenario` — the
chaos, overload and stream runs (:mod:`repro.chaos`), the crash/recover
cycle (:mod:`repro.crashtest`) and the durable-history chaos run
(:mod:`repro.racecheck`).  A scenario defines only what is particular to
it:

* ``setup(seed)`` builds the testbed and returns the run's empty report;
* ``warm()`` is one unmeasured warm-up round, ``arm()`` starts the
  measured phase (faults, registrations);
* ``step(report, i)`` runs measured round ``i`` — including the virtual
  time it spans — and returns the values the replay signature folds;
* ``observe(report)`` reads the scenario's own figures off the drained
  end state and may return more values to fold.

:func:`run` owns everything they share: the size checks, the one
race-detector block, warm-up, the round loop, SHA-256 folding, the
drain, and the epilogue — lane-race findings, span-tree invariants,
pending network futures, breaker invariants, fault stats and elapsed
virtual time — into one :class:`ScenarioReport` base.  With
``race_detect=True`` it runs the scenario twice, detector on and then
off, and bisects the first divergence between the runs' signatures,
per-round digests, trace renders and WAL frames (DESIGN.md, "Scenario
protocol").
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Generic, Iterable, Sequence, TypeVar

from repro.analysis import races
from repro.core.gateway import Gateway, QueryResult
from repro.core.health import BreakerState
from repro.core.policy import GatewayPolicy
from repro.core.request_manager import QueryMode
from repro.obs.invariants import check_tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.faults import FaultPlane
from repro.simnet.network import Network
from repro.storage.simdisk import SimDisk
from repro.storage.wal import read_frames
from repro.testbed import Site, build_site

#: Report fields that exist only when a detector-off replay was compared.
_REPLAY_FIELDS = frozenset(
    {"divergence", "rounds_compared", "traces_compared", "wal_frames_compared"}
)


class ScenarioSizeError(ValueError):
    """A scenario size (rounds, cycles, hosts) below 1, or a period <= 0."""


@dataclass(kw_only=True)
class ScenarioReport:
    """What every scenario run reports; subclasses add their own figures."""

    seed: int
    #: SHA-256 over every value the scenario folded, in order — the
    #: replay identity: same seed and knobs => same signature.
    signature: str = ""
    elapsed_virtual: float = 0.0
    requests: dict[str, Any] = field(default_factory=dict)
    faults: dict[str, Any] = field(default_factory=dict)
    breakers: dict[str, Any] = field(default_factory=dict)
    #: Breaker entries violating structural invariants (must be empty).
    breaker_violations: list[str] = field(default_factory=list)
    #: Span-tree invariant violations across every retained query trace
    #: (closure, containment, hedge accounting — must be empty).
    trace_violations: list[str] = field(default_factory=list)
    traces_checked: int = 0
    #: Unresolved NetFutures after the run (must be 0).
    pending_futures: int = 0
    #: GRM55x lane-race findings of the detector-on run (must be empty —
    #: an entry means two unordered branches shared state).
    race_findings: list[str] = field(default_factory=list)
    #: State accesses the race detector inspected (0 = detection off).
    race_accesses: int = 0
    #: True when a detector-off run was compared against this one.
    dual_run: bool = False
    #: Bisected divergence descriptions (must be empty).
    divergence: list[str] = field(default_factory=list)
    rounds_compared: int = 0
    traces_compared: int = 0
    wal_frames_compared: int = 0

    #: Shared fields this scenario leaves out of :meth:`as_dict`, whose
    #: layout the golden replay tests pin.
    unreported: ClassVar[frozenset[str]] = frozenset()

    def as_dict(self) -> dict[str, Any]:
        skip = self.unreported | {"dual_run"}
        if not self.dual_run:
            skip |= _REPLAY_FIELDS
        out = {
            f.name: copy.copy(getattr(self, f.name))
            for f in fields(self)
            if f.name not in skip
        }
        out.update(self.derived())
        return out

    def derived(self) -> dict[str, Any]:
        """Computed entries :meth:`as_dict` adds to the fields."""
        return {}

    def problems(self) -> list[str]:
        """Every reason this run is red, one line each."""
        out = [f"lane race: {f}" for f in self.race_findings]
        out += [f"replay diverged: {d}" for d in self.divergence]
        out += [f"breaker invariant violated: {v}" for v in self.breaker_violations]
        out += [f"trace invariant violated: {v}" for v in self.trace_violations]
        if self.pending_futures:
            out.append(f"{self.pending_futures} network future(s) never resolved")
        return out

    @property
    def ok(self) -> bool:
        return not self.problems()

    # -- console rendering ---------------------------------------------
    def lines(self) -> list[str]:
        """The scenario's own console lines."""
        return []

    def format(self) -> str:
        """Console rendering: the scenario's lines, then the race check."""
        return "\n".join(self.lines() + self.race_lines())

    def race_lines(self) -> list[str]:
        if not self.dual_run:
            return []
        lines = [
            f"  lane races: {len(self.race_findings)} finding(s) over "
            f"{self.race_accesses} shared-state accesses",
            f"  lockstep compare: {self.rounds_compared} rounds, "
            f"{self.traces_compared} traces, "
            f"{self.wal_frames_compared} WAL frames",
        ]
        lines += [f"    {finding}" for finding in self.race_findings]
        empty = [
            name
            for name, n in (
                ("rounds", self.rounds_compared),
                ("traces", self.traces_compared),
                ("WAL frames", self.wal_frames_compared),
            )
            if not n
        ]
        if self.divergence:
            lines.append(f"  DIVERGENCE ({len(self.divergence)}):")
            lines += [f"    - {d}" for d in self.divergence]
        elif empty:
            lines.append(
                "  replay identity: OK (streams identical; no "
                f"{' or '.join(empty)} to compare)"
            )
        else:
            lines.append("  replay identity: OK (all three streams identical)")
        return lines

    def faults_line(self) -> str:
        f = self.faults
        return (
            f"  faults injected: spikes={f.get('spikes_injected', 0)} "
            f"(+{f.get('spike_seconds', 0.0):.1f}s), "
            f"refusals={f.get('refusals', 0)}, "
            f"corruptions={f.get('corruptions', 0)}, "
            f"flaps={f.get('flaps', 0)}, "
            f"partitions={f.get('partitions', 0)}/"
            f"heals={f.get('heals', 0)}"
        )

    def invariants_line(self, middle: str) -> str:
        return (
            f"  invariants: pending futures={self.pending_futures}, {middle}, "
            f"trace violations={len(self.trace_violations)} "
            f"({self.traces_checked} traces checked)"
        )

    def signature_line(self) -> str:
        return f"  replay signature: {self.signature[:16]}…"


R = TypeVar("R", bound=ScenarioReport)


@dataclass(kw_only=True)
class Scenario(Generic[R]):
    """A seeded run's definition; :func:`run` drives it.

    The dataclass fields are the scenario's knobs; ``site`` (and
    ``plane`` / ``disk`` where used) are built afresh by each
    :meth:`setup`, so one definition can be run any number of times.
    """

    rounds: int
    hosts: int = 4
    agents: Sequence[str] = ("snmp", "ganglia")
    period: float = 30.0
    sql: str = "SELECT * FROM Processor"
    #: Unmeasured warm-up rounds: none unless a scenario declares the
    #: knob itself (``warmup_rounds: int = 10``).
    warmup_rounds: int = field(init=False, default=0)

    seed: int = field(init=False, default=0, repr=False)
    site: Site = field(init=False, repr=False)
    plane: FaultPlane | None = field(init=False, default=None, repr=False)
    disk: SimDisk | None = field(init=False, default=None, repr=False)
    #: The replay evidence of a compared run (set by :func:`run`).
    evidence: _Capture | None = field(init=False, default=None, repr=False)

    #: Periods of virtual time the runner advances after the last round,
    #: so heals, re-probes and sweeps settle before the epilogue.
    drain_periods: ClassVar[int] = 10

    # -- sizes -----------------------------------------------------------
    def sizes(self) -> dict[str, int]:
        """Every size that must be >= 1."""
        return {"rounds": self.rounds, "hosts": self.hosts}

    @property
    def steps(self) -> int:
        """Measured rounds the runner drives."""
        return self.rounds

    # -- the testbed -----------------------------------------------------
    @property
    def gateway(self) -> Gateway:
        return self.site.gateway

    @property
    def clock(self) -> VirtualClock:
        return self.site.clock

    def build(
        self,
        seed: int,
        policy: GatewayPolicy,
        *,
        name: str = "site-a",
        durable: bool = False,
        persistent_store: dict[str, str] | None = None,
    ) -> None:
        """One site on a fresh clock and network (plus a disk if durable)."""
        self.seed = seed
        clock = VirtualClock()
        network = Network(clock, seed=seed)
        self.disk = None
        if durable:
            self.disk = SimDisk(
                clock=clock, write_latency=0.0002, fsync_latency=0.002, read_latency=0.0005
            )
        self.site = build_site(
            network,
            name=name,
            n_hosts=self.hosts,
            agents=tuple(self.agents),
            seed=seed,
            policy=policy,
            disk=self.disk,
            persistent_store=persistent_store,
        )
        self.plane = None

    def poll(self) -> QueryResult:
        """One REALTIME query over every source, then one period."""
        result = self.gateway.query(
            list(self.site.source_urls), self.sql, mode=QueryMode.REALTIME
        )
        self.clock.advance(self.period)
        return result

    # -- the protocol ----------------------------------------------------
    def setup(self, seed: int) -> R:
        """Build the testbed; return the run's empty report."""
        raise NotImplementedError

    def warm(self) -> None:
        """One unmeasured warm-up round."""
        self.poll()

    def arm(self) -> None:
        """Start the measured phase (after warm-up)."""

    def step(self, report: R, i: int) -> Iterable[Any]:
        """Measured round ``i``; returns the values to fold."""
        raise NotImplementedError

    def observe(self, report: R) -> Iterable[Any]:
        """Fill the scenario's own figures after the drain."""
        return ()

    def retire(self, gateway: Gateway) -> None:
        """Call before discarding ``gateway`` mid-run: in a compared run
        its traces and WAL frames join the replay evidence (the runner
        itself only sees the gateway live at the end)."""
        if self.evidence is not None:
            self.evidence.collect(gateway)


def _breaker_violations(board: dict[str, dict[str, Any]]) -> list[str]:
    """Structural invariants every breaker entry must satisfy."""
    valid = {s.value for s in BreakerState}
    out = []
    for key, e in board.items():
        if e["state"] not in valid:
            out.append(f"{key}: unknown state {e['state']!r}")
        if e["consecutive_failures"] > e["total_failures"]:
            out.append(f"{key}: consecutive_failures > total_failures")
        if e["state"] == BreakerState.OPEN.value and e["open_until"] <= 0:
            out.append(f"{key}: OPEN with no open_until instant")
        if e["trips"] > 0 and e["total_failures"] == 0:
            out.append(f"{key}: tripped without any recorded failure")
    return out


@dataclass
class _Capture:
    """Everything one run leaves behind for the lockstep comparison."""

    round_digests: list[str] = field(default_factory=list)
    trace_renders: list[str] = field(default_factory=list)
    wal_frames: list[str] = field(default_factory=list)
    #: Tail classification of each collected WAL, comma-separated.
    wal_tail: str = ""
    signature: str = ""

    def collect(self, gw: Gateway) -> None:
        """Add ``gw``'s trace renders and WAL frame digests."""
        self.trace_renders += [t.render() for t in gw.tracer.traces()]
        engine = gw.history_engine
        if engine is None:
            return
        # Collecting must leave no trace in the run: no virtual read
        # latency, no read counted, no fsync (a crash scenario collects
        # just before the crash, whose torn tail depends on what is
        # still pending).  The read view holds pending frames too.
        disk = engine.disk
        clock, stats = disk.clock, copy.copy(disk.stats)
        disk.clock = None
        try:
            data = disk.read(engine.wal.path)
        finally:
            disk.clock, disk.stats = clock, stats
        frames, tail, _ = read_frames(data)
        self.wal_frames += [hashlib.sha256(f).hexdigest()[:16] for f in frames]
        self.wal_tail = f"{self.wal_tail},{tail}" if self.wal_tail else tail


def run(scenario: Scenario[R], *, seed: int, race_detect: bool = False) -> R:
    """Run ``scenario`` once; with ``race_detect``, twice and compared.

    The detector-on run's report is returned.  Violations are collected,
    never raised — the caller decides what a red report means.  Raises
    :class:`ScenarioSizeError` before building anything when a size is
    below 1 or the period is not positive.
    """
    for name, value in scenario.sizes().items():
        if value < 1:
            raise ScenarioSizeError(f"{name} must be >= 1, got {value}")
    if not scenario.period > 0:
        raise ScenarioSizeError(f"period must be > 0, got {scenario.period:g}")
    report, first = _run_once(scenario, seed, detect=race_detect, capture=race_detect)
    if race_detect:
        _, second = _run_once(scenario, seed, detect=False, capture=True)
        report.dual_run = True
        _bisect_streams(first, second, report)
    return report


def _run_once(
    scenario: Scenario[R], seed: int, *, detect: bool, capture: bool
) -> tuple[R, _Capture]:
    report = scenario.setup(seed)
    clock = scenario.clock
    clock.advance(60.0)
    detector = races.RaceDetector.standard(clock) if detect else None
    scenario.gateway.race_detector = detector
    evidence = _Capture()
    scenario.evidence = evidence if capture else None
    digest = hashlib.sha256()
    with ExitStack() as ambient:
        if detector is not None:
            ambient.enter_context(races.activate(detector))
        for _ in range(scenario.warmup_rounds):
            scenario.warm()
        scenario.arm()
        started = clock.now()
        for i in range(scenario.steps):
            folded = b"".join(repr(v).encode() for v in scenario.step(report, i))
            digest.update(folded)
            evidence.round_digests.append(hashlib.sha256(folded).hexdigest()[:16])
        if scenario.drain_periods:
            clock.advance(scenario.drain_periods * scenario.period)
        for value in scenario.observe(report):
            digest.update(repr(value).encode())

    gw = scenario.gateway
    if detector is not None:
        report.race_findings = [f.format() for f in detector.report()]
        report.race_accesses = detector.accesses_noted
    report.signature = evidence.signature = digest.hexdigest()
    report.elapsed_virtual = clock.now() - started
    report.requests = dict(gw.request_manager.stats)
    report.faults = scenario.plane.stats.as_dict() if scenario.plane else {}
    report.breakers = gw.health.summary()
    report.breaker_violations = _breaker_violations(gw.health.scoreboard())
    report.traces_checked = len(gw.tracer.traces())
    report.trace_violations = check_tracer(gw.tracer)
    report.pending_futures = gw.network.pending_futures()

    if capture:
        evidence.collect(gw)
    return report, evidence


def _first_diff_line(a: str, b: str) -> tuple[int, str, str]:
    """(1-based line number, line from a, line from b) of the first
    differing line between two renders."""
    lines_a = a.splitlines()
    lines_b = b.splitlines()
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return i + 1, la, lb
    n = min(len(lines_a), len(lines_b))
    return (
        n + 1,
        lines_a[n] if n < len(lines_a) else "<absent>",
        lines_b[n] if n < len(lines_b) else "<absent>",
    )


def _bisect_streams(run1: _Capture, run2: _Capture, report: ScenarioReport) -> None:
    """Compare two runs' evidence streams; name the first divergence."""
    if run1.signature != run2.signature:
        report.divergence.append(
            f"signature {run1.signature[:16]} != {run2.signature[:16]}"
        )
    report.rounds_compared = min(len(run1.round_digests), len(run2.round_digests))
    for i, (d1, d2) in enumerate(zip(run1.round_digests, run2.round_digests)):
        if d1 != d2:
            report.divergence.append(
                f"round {i}: result digest {d1} != {d2} — first diverging "
                "query round (rows/statuses differ between runs)"
            )
            break

    report.traces_compared = min(len(run1.trace_renders), len(run2.trace_renders))
    if len(run1.trace_renders) != len(run2.trace_renders):
        report.divergence.append(
            f"trace count differs: {len(run1.trace_renders)} != "
            f"{len(run2.trace_renders)}"
        )
    for i, (t1, t2) in enumerate(zip(run1.trace_renders, run2.trace_renders)):
        if t1 != t2:
            line, la, lb = _first_diff_line(t1, t2)
            report.divergence.append(
                f"trace {i} line {line}: first diverging span line: "
                f"{la!r} != {lb!r}"
            )
            break

    report.wal_frames_compared = min(len(run1.wal_frames), len(run2.wal_frames))
    if len(run1.wal_frames) != len(run2.wal_frames):
        report.divergence.append(
            f"WAL frame count differs: {len(run1.wal_frames)} != "
            f"{len(run2.wal_frames)}"
        )
    for i, (f1, f2) in enumerate(zip(run1.wal_frames, run2.wal_frames)):
        if f1 != f2:
            report.divergence.append(
                f"WAL frame {i}: digest {f1} != {f2} — first diverging "
                "durable history frame"
            )
            break
    if run1.wal_tail != run2.wal_tail:
        report.divergence.append(
            f"WAL tail classification differs: {run1.wal_tail!r} != "
            f"{run2.wal_tail!r}"
        )
