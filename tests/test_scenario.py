"""The scenario runner: size checks, folding, and the dual-run check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable

import pytest

from repro.core.policy import GatewayPolicy
from repro.crashtest import run_crashtest
from repro.racecheck import run_racecheck
from repro.scenario import Scenario, ScenarioReport, ScenarioSizeError, run


@dataclass(kw_only=True)
class PollReport(ScenarioReport):
    rounds: int


@dataclass(kw_only=True)
class Poll(Scenario[PollReport]):
    """Plain polls; ``leak`` folds a value that differs on every run."""

    rounds: int = 3
    hosts: int = 2
    agents: tuple[str, ...] = ("snmp",)
    period: float = 10.0
    leak: Any = None

    def setup(self, seed: int) -> PollReport:
        self.build(seed, GatewayPolicy())
        return PollReport(seed=seed, rounds=self.rounds)

    def step(self, report: PollReport, i: int) -> Iterable[Any]:
        result = self.poll()
        return [(i, result.rows)]

    def observe(self, report: PollReport) -> Iterable[Any]:
        return [] if self.leak is None else [next(self.leak)]


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"rounds": 0}, "rounds must be >= 1"),
        ({"hosts": 0}, "hosts must be >= 1"),
        ({"period": 0.0}, "period must be > 0"),
        ({"period": -10.0}, "period must be > 0"),
    ],
)
def test_bad_sizes_rejected_before_building(knobs, message):
    scenario = Poll(**knobs)
    with pytest.raises(ScenarioSizeError, match=message):
        run(scenario, seed=0)
    assert not hasattr(scenario, "site")


def test_same_seed_same_signature_and_round_digests():
    first = run(Poll(), seed=1)
    second = run(Poll(), seed=1)
    assert first.signature == second.signature
    assert first.as_dict() == second.as_dict()
    assert first.ok


def test_plain_run_reports_no_replay_fields():
    d = run(Poll(), seed=0).as_dict()
    assert "divergence" not in d
    assert "rounds_compared" not in d
    assert d["race_accesses"] == 0


def test_dual_run_is_clean_and_fills_replay_fields():
    report = run(Poll(), seed=0, race_detect=True)
    assert report.dual_run
    assert report.divergence == []
    assert report.rounds_compared == 3
    assert report.traces_compared > 0
    assert report.race_accesses > 0
    assert report.as_dict()["rounds_compared"] == 3
    assert "replay identity: OK" in report.format()


def test_dual_run_names_a_diverging_signature():
    # The detector-on run folds 0, the detector-off run folds 1: every
    # round agrees, only the signature can tell the runs apart.
    report = run(Poll(leak=itertools.count()), seed=0, race_detect=True)
    (divergence,) = report.divergence
    assert divergence.startswith("signature ")
    assert not report.ok
    assert any(p.startswith("replay diverged: signature") for p in report.problems())
    assert "DIVERGENCE (1):" in report.format()


def test_dual_run_without_durable_history_says_so():
    text = run(Poll(), seed=0, race_detect=True).format()
    assert "replay identity: OK (streams identical; no WAL frames to compare)" in text


def test_crashtest_dual_run_compares_every_gateway():
    # Two cycles = three gateways; each crashed one is collected before
    # its crash, the last one at the end.
    report = run_crashtest(seed=0, cycles=2, rounds=3, race_detect=True)
    assert report.ok, report.problems()
    assert report.wal_frames_compared > 0
    assert report.traces_compared >= 2 * 3
    assert report.signature == run_crashtest(seed=0, cycles=2, rounds=3).signature


@pytest.mark.parametrize(
    "entry, knob",
    [
        (run_crashtest, "deadline"),
        (run_crashtest, "warmup_rounds"),
        (run_racecheck, "hedging"),
        (run_racecheck, "fanout"),
    ],
)
def test_entry_points_take_only_their_own_knobs(entry, knob):
    with pytest.raises(TypeError, match=knob):
        entry(seed=0, **{knob: 1})


def test_racecheck_report_layout():
    report = run_racecheck(seed=0, rounds=2, warmup_rounds=1, hosts=2)
    assert sorted(report.as_dict()) == [
        "divergence",
        "ok",
        "race_accesses",
        "race_findings",
        "rounds",
        "rounds_compared",
        "seed",
        "traces_compared",
        "wal_frames_compared",
    ]
