"""Lockstep dual-run divergence check: ``python -m repro racecheck``.

The dynamic half of the determinism sanitizer.  The virtual-lane race
detector (:mod:`repro.analysis.races`) catches unordered-branch sharing
*as it happens*; this check proves the end-to-end property the whole
system claims — that a seeded scenario is a pure function of its seed —
by running the standard chaos scenario on a site with durable history
**twice in lockstep** and comparing independent evidence streams:

* **per-round result digests** — columns, rows and per-source statuses
  of every query round (the client-visible surface);
* **trace renders** — the retained query traces' deterministic ASCII
  renders (the observability surface, byte-identical by design);
* **WAL frame digests** — the durable history's write-ahead-log frames
  (the storage surface).

Run 1 executes under the race detector; run 2 does not.  Matching
streams therefore also prove the detector's hooks are pure observers.
On mismatch the runner *bisects*: it names the first diverging round,
the first diverging trace (and the first differing line inside it), or
the first diverging WAL frame — the instant replay identity broke, not
just the fact that it did.

The dual run and the bisection belong to the scenario runner
(:func:`repro.scenario.run`), so every scenario subcommand gets the same
check with ``--race-detect``; this module only defines the durable-
history chaos run.  CI's ``racecheck-smoke`` job runs it over a seed
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, cast

from repro.chaos import FaultedRounds
from repro.scenario import ScenarioReport, run


@dataclass(kw_only=True)
class RacecheckReport(ScenarioReport):
    """Outcome of one dual-run divergence check: the race findings and
    the lockstep comparison, nothing of the chaos measurements."""

    rounds: int
    dual_run: bool = True

    unreported = frozenset(
        {
            "signature",
            "elapsed_virtual",
            "requests",
            "faults",
            "breakers",
            "breaker_violations",
            "trace_violations",
            "traces_checked",
            "pending_futures",
        }
    )

    def derived(self) -> dict[str, Any]:
        return {"ok": self.ok}

    def lines(self) -> list[str]:
        return [f"Racecheck: seed={self.seed}, {self.rounds} rounds, dual run"]


@dataclass(kw_only=True)
class DurableChaos(FaultedRounds[RacecheckReport]):
    """The standard chaos scenario on a site with durable history."""

    rounds: int = 15

    def setup(self, seed: int) -> RacecheckReport:
        # One WAL generation for the whole run: every frame stays
        # comparable by index (rotation would reshuffle file names).
        policy = self.policy(history_durable=True, history_checkpoint_interval=0.0)
        self.build(seed, policy, name="racecheck", durable=True)
        return RacecheckReport(seed=seed, rounds=self.rounds)


def run_racecheck(*, seed: int = 0, **knobs: Any) -> RacecheckReport:
    """Run the durable chaos scenario twice (detector on, then off) and
    compare; ``knobs`` are :class:`DurableChaos` fields.

    ``report.ok`` is True iff the detector saw no lane races, the two
    runs were byte-identical across signature, rounds, traces and WAL
    frames, and the shared invariants held.  Never raises on divergence
    — the caller (CLI, CI) decides what a red report means.
    """
    return cast(RacecheckReport, run(DurableChaos(**knobs), seed=seed, race_detect=True))
