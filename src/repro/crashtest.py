"""Seeded kill/recover/verify loops for the durable history store.

``python -m repro crashtest`` (or :func:`run_crashtest` from a test)
builds a site with ``history_durable`` on, records history through real
query rounds, then repeatedly murders the gateway — power-failing the
:class:`~repro.storage.simdisk.SimDisk` (torn writes included), on some
cycles flipping a bit inside a sealed segment first — and rebuilds a
fresh gateway on the same disk.  After every crash the harness checks
the headline durability invariant as an *equality*, not a bound:

* the recovered store holds exactly the pre-crash **acknowledged**
  prefix per GLUE group — no acked row lost, no unacked or torn row
  resurrected;
* a deliberately corrupted segment is quarantined with a surfaced
  GRM401 finding, and start-up still succeeds (degraded serving, never
  a refusal to boot);
* the serving tables agree with the engine row-for-row.

The cycle is a :class:`~repro.scenario.Scenario` definition that the
runner (:func:`repro.scenario.run`) seeds and folds: two runs with the
same seed produce byte-identical results, and the
:class:`CrashtestReport` carries a SHA-256 signature over every cycle to
make replay identity checkable.  All timings reported are *virtual*
seconds (the simulated disk's write/fsync/read latency) — wall-clock
measurement lives in the benchmark suite, not here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.gateway import Gateway
from repro.core.policy import GatewayPolicy
from repro.scenario import Scenario, ScenarioReport, run
from repro.simnet.faults import FaultPlane
from repro.storage.recovery import RULE_SEGMENT_QUARANTINED


@dataclass(kw_only=True)
class CrashtestReport(ScenarioReport):
    """One crashtest run's outcome."""

    cycles: int
    rounds_per_cycle: int
    fsync_interval: int
    #: Rows held to the acked-prefix equality, summed over all checks.
    rows_verified: int = 0
    rows_recovered: int = 0
    crashes: int = 0
    torn_tails: int = 0
    bit_flips: int = 0
    segments_quarantined: int = 0
    #: Per-cycle recovery summaries (as_dict of each RecoveryReport).
    recoveries: list[dict[str, Any]] = field(default_factory=list)
    #: Durability invariant violations (must be empty).
    violations: list[str] = field(default_factory=list)

    unreported = frozenset(
        {
            "requests",
            "breakers",
            "breaker_violations",
            "trace_violations",
            "traces_checked",
            "pending_futures",
        }
    )

    def problems(self) -> list[str]:
        return super().problems() + [
            f"durability invariant violated: {v}" for v in self.violations
        ]

    def lines(self) -> list[str]:
        lines = [
            f"Crashtest: seed={self.seed}, {self.cycles} kill/recover cycles, "
            f"{self.rounds_per_cycle} rounds each, "
            f"fsync every {self.fsync_interval} records",
            f"  crashes: {self.crashes} "
            f"(torn WAL tails: {self.torn_tails}, bit flips: {self.bit_flips})",
            f"  acked prefix verified: {self.rows_verified} rows held equal, "
            f"{self.rows_recovered} rows recovered in total",
            f"  quarantined segments: {self.segments_quarantined}",
            f"  elapsed (virtual): {self.elapsed_virtual:.3f}s",
            self.signature_line(),
        ]
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines += [f"    - {v}" for v in self.violations]
        else:
            lines.append("  invariants: OK (recovered == acknowledged prefix)")
        return lines


def _snapshot(engine, exclude: frozenset[str]) -> dict[str, list[dict[str, Any]]]:
    """Deep-copy the acked rows per group (the pre-crash oracle)."""
    return {
        group: [dict(r) for r in engine.acked_rows(group, exclude_segments=exclude)]
        for group in engine.groups()
    }


def _diff(expected: list[dict[str, Any]], got: list[dict[str, Any]]) -> str:
    """First divergence between two row lists, for a violation message."""
    if len(expected) != len(got):
        return f"expected {len(expected)} rows, recovered {len(got)}"
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            keys = sorted(k for k in set(e) | set(g) if e.get(k) != g.get(k))
            return f"row {i} differs on {keys}"
    return ""


@dataclass(kw_only=True)
class Crashtest(Scenario[CrashtestReport]):
    """Seeded kill/recover/verify cycles over durable history.

    Each cycle (one runner step): ``rounds`` query rounds record history
    (an explicit checkpoint every ``checkpoint_every`` rounds seals
    segments and truncates the WAL), odd cycles flip one bit inside a
    sealed segment, then the disk power-fails (torn writes drawn from
    the fault plane's RNG), the gateway is killed, and a successor is
    built on the same disk.  Violations are collected, never raised —
    the caller (CLI, CI's crash-smoke job) decides what a non-empty list
    means.
    """

    cycles: int = 3
    rounds: int = 5
    hosts: int = 3
    # One WAL record per record() batch: a 3-host two-agent round writes
    # 4 records (3 snmp + 1 ganglia), so an interval of 3 keeps the
    # crash off the group-commit boundary and torn tails reachable.
    fsync_interval: int = 3
    checkpoint_every: int = 2

    #: The crash must land on a live WAL tail: no drain after the cycles.
    drain_periods = 0

    def sizes(self) -> dict[str, int]:
        return {"cycles": self.cycles, **super().sizes()}

    @property
    def steps(self) -> int:
        return self.cycles

    def setup(self, seed: int) -> CrashtestReport:
        self.store: dict[str, str] = {}
        self.build(
            seed,
            GatewayPolicy(
                history_durable=True,
                history_fsync_interval=self.fsync_interval,
                # Checkpoints are driven explicitly below so every
                # cycle's sealing schedule is a pure function of the
                # arguments.
                history_checkpoint_interval=0.0,
            ),
            name="crash",
            durable=True,
            persistent_store=self.store,
        )
        self.plane = FaultPlane(self.site.network, seed=seed)
        self.rng = random.Random(seed ^ 0x5EED)
        return CrashtestReport(
            seed=seed,
            cycles=self.cycles,
            rounds_per_cycle=self.rounds,
            fsync_interval=self.fsync_interval,
        )

    def step(self, report: CrashtestReport, cycle: int) -> Iterable[Any]:
        plane, disk = self.plane, self.disk
        assert plane is not None and disk is not None
        for r in range(self.rounds):
            self.poll()
            # Never checkpoint on the cycle's last round: the crash must
            # land on a live WAL tail (that's the case under test).
            every = self.checkpoint_every
            if every and (r + 1) % every == 0 and r + 1 < self.rounds:
                self.gateway.history.checkpoint()

        gw = self.gateway
        engine = gw.history_engine
        assert engine is not None
        # Odd cycles: bit-rot one sealed segment the harness picks (so
        # the oracle knows which rows are *expected* to degrade).
        flipped: frozenset[str] = frozenset()
        if cycle % 2 == 1:
            sealed = disk.list("seg/")
            if sealed:
                victim = sealed[self.rng.randrange(len(sealed))]
                plane.flip_segment_bit(disk, path=victim)
                flipped = frozenset([victim])
                report.bit_flips += 1

        expected = _snapshot(engine, flipped)
        synced_lsn = engine.wal.synced_lsn

        self.retire(gw)
        plane.crash_disk(disk)
        gw.crash()
        report.crashes += 1

        successor = Gateway(
            self.site.network,
            gw.host,
            site=self.site.name,
            policy=gw.policy,
            disk=disk,
            persistent_store=self.store,
        )
        successor.race_detector = gw.race_detector
        self.site.gateway = successor
        gw = successor
        new_engine = gw.history_engine
        assert new_engine is not None
        recovery = new_engine.recovery_report
        report.recoveries.append(recovery.as_dict())
        if recovery.wal_tail != "clean":
            report.torn_tails += 1
        report.segments_quarantined += recovery.segments_quarantined

        # --- The headline invariant: recovered == acknowledged prefix.
        recovered: dict[str, list[dict[str, Any]]] = {}
        for group in sorted(set(expected) | set(new_engine.groups())):
            got = new_engine.serving_rows(group)
            recovered[group] = got
            want = expected.get(group, [])
            diff = _diff(want, got)
            if diff:
                report.violations.append(
                    f"cycle {cycle}: group {group}: recovered state != "
                    f"acked prefix (synced_lsn={synced_lsn}): {diff}"
                )
            report.rows_verified += len(want)
            # The serving tables must agree with the engine row-for-row.
            if gw.history.schema.has_group(group):
                serving = gw.history.row_count(group)
                if serving != len(got):
                    report.violations.append(
                        f"cycle {cycle}: group {group}: store serves {serving} "
                        f"rows but engine recovered {len(got)}"
                    )
        report.rows_recovered += gw.history.rows_recovered
        if flipped and recovery.segments_quarantined == 0:
            report.violations.append(
                f"cycle {cycle}: flipped bit in {sorted(flipped)} but recovery "
                "quarantined nothing"
            )
        if flipped and not any(
            f.rule_id == RULE_SEGMENT_QUARANTINED for f in recovery.findings
        ):
            report.violations.append(
                f"cycle {cycle}: quarantine happened without a "
                f"{RULE_SEGMENT_QUARANTINED} finding surfaced"
            )
        if recovery.findings and not gw.startup_findings:
            report.violations.append(
                f"cycle {cycle}: recovery findings missing from "
                "gateway.startup_findings"
            )

        return [
            (
                cycle,
                synced_lsn,
                sorted(flipped),
                {g: rows for g, rows in sorted(expected.items())},
                {g: rows for g, rows in sorted(recovered.items())},
                recovery.as_dict(),
            )
        ]


def run_crashtest(
    *, seed: int = 0, race_detect: bool = False, **knobs: Any
) -> CrashtestReport:
    """Run seeded kill/recover/verify cycles; ``knobs`` are
    :class:`Crashtest` fields.

    ``race_detect=True`` runs every cycle (query rounds *and* the
    crash/recover machinery) detector on, then off, and compares the
    runs (:func:`repro.scenario.run`).
    """
    return run(Crashtest(**knobs), seed=seed, race_detect=race_detect)
