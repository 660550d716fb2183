"""Golden replay pins for the seeded scenario harnesses.

Every other replay test compares two runs of one build; these compare a
run against figures recorded once, so a change that shifts any seeded
scenario — a reordered fault draw, a re-keyed fold, a moved clock
advance, a report field gained or lost — fails here even when it is
self-consistent.  Each pin is the full SHA-256 replay ``signature`` plus
a SHA-256 over ``json.dumps(report.as_dict(), sort_keys=True)``.

Racecheck pins its lockstep evidence: the per-round result digests of
both runs (recomputed from every ``Gateway.query`` result the harness
sees, with the harness's own digest formula), its trace and WAL-frame
counts, and the number of shared-state accesses its detector inspected.

The sizes are small (each run takes well under two seconds).  The pins
were identical under PYTHONHASHSEED 0 and 123.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import run_chaos, run_overload, run_stream
from repro.core.gateway import Gateway
from repro.crashtest import run_crashtest
from repro.racecheck import run_racecheck

CHAOS = dict(rounds=6, warmup_rounds=3, period=10.0)

PINS = {
    "chaos seed 0": (
        lambda: run_chaos(seed=0, **CHAOS),
        "dc4f53b21086844d2108ac3db6fa73e31064e5908ac9a55c0361be8c4901ce5c",
        "2a5e28f584292a60900804c54ff0bf94c0a0df2825d41da758fc3d18ec9d4044",
    ),
    "chaos seed 1": (
        lambda: run_chaos(seed=1, **CHAOS),
        "c2e8c87a885658885ed16bc994aa2de64df2e4decadb7114a33ba58c3304c918",
        "7f0911d99fb0875b97f0581495b3c73c16c629113a084a4741f8b7a11a7e535d",
    ),
    "chaos fan-out off": (
        lambda: run_chaos(seed=0, fanout=False, **CHAOS),
        "6a8973833d98aaf64c5de0b283256be1c5b41274faabd89544c40bb7688a78c6",
        "02eac6b01da92c684d2ae89ec98c6ff1e68feaba45c7af8ddb34a3ee4a7f048c",
    ),
    "chaos hedging off": (
        lambda: run_chaos(seed=0, hedging=False, **CHAOS),
        "dc4f53b21086844d2108ac3db6fa73e31064e5908ac9a55c0361be8c4901ce5c",
        "4fcec32b1a28e30af9f10961af6a91b7306abc815b26c64474a9191680939b43",
    ),
    "overload shedding on": (
        lambda: run_overload(seed=0, rounds=6, spike_rounds=2),
        "b5ab3548b4be312b1809dc8be9b6b6a0f05c303e03d3712815453e77e07b38bb",
        "e1d3626e0998ed32d94d41deae076d27abaced76152caa405d3b27ea337c7f5a",
    ),
    "overload shedding off": (
        lambda: run_overload(seed=0, rounds=6, spike_rounds=2, shedding=False),
        "9e750b08475ed4c33bde963d6146f31087ff20a95d561aed19511a0dcc492a9b",
        "3f52c5de19cb4f44cc29d2838de81524faa6be77046016a6c7e70b96f470c6b5",
    ),
    "stream partition on": (
        lambda: run_stream(seed=0, rounds=6),
        "c6930f6da9bdabc191d0cc449f54f042f0ede4071ffcf40c525556394c1b50e9",
        "d9ece07fd4a35c31c4254d45f2001145ac26a31dcebd3422ebbca1234f7758ad",
    ),
    "stream partition off": (
        lambda: run_stream(seed=0, rounds=6, partition=False),
        "42756d2a05b75f0536d7a707d102245dea20171fb5fb7f210c0fbaa82416168f",
        "39c18e5adaf1651d0eee7d0667523d82be27bdb24ae43204dea694ae43a2d6d5",
    ),
    "crashtest seed 0": (
        lambda: run_crashtest(seed=0, cycles=2, rounds=3),
        "a7d51961bc4473fb9936e482ea7a1e688ad34aa48f5d51db7171d8c350ded1ad",
        "78da512d04113ee312b425672bb7ea649b4adb74c34900fd5d654e23aaaa08bf",
    ),
    "crashtest seed 1": (
        lambda: run_crashtest(seed=1, cycles=2, rounds=3),
        "c365746fc44e7e47f33bc9a20cabaf3eee479505c9b97560cb07a2a0418ca5d3",
        "70399d6580427e414b8a6a785b1f0bf2e95eca683a4f1086d4715f08c0583dc0",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_signature_and_report_pinned(name):
    make, signature, report_digest = PINS[name]
    report = make()
    assert report.signature == signature
    blob = json.dumps(report.as_dict(), sort_keys=True).encode()
    assert _sha(blob) == report_digest


RACECHECK_ROUNDS = [
    "d67f229f1fa007e5",
    "a63c13923cebd978",
    "dab6fabdee7937db",
    "f64b9de8ccb9acc9",
    "cf1b3d7a11341868",
    "563e146e0f9406da",
]


def test_racecheck_evidence_pinned(monkeypatch):
    results = []
    query = Gateway.query

    def spy(self, *args, **kwargs):
        result = query(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(Gateway, "query", spy)
    report = run_racecheck(seed=0, rounds=6, warmup_rounds=5)
    assert report.ok
    # Two runs (detector on, then off) of 5 warm-up + 6 measured polls.
    assert len(results) == 22
    for run in (results[:11], results[11:]):
        digests = [
            _sha(
                repr(
                    (
                        i,
                        r.columns,
                        r.rows,
                        [
                            (s.url, s.ok, s.rows, s.from_cache, s.degraded, s.error)
                            for s in r.statuses
                        ],
                    )
                ).encode()
            )[:16]
            for i, r in enumerate(run[5:])
        ]
        assert digests == RACECHECK_ROUNDS
    assert report.rounds_compared == 6
    assert report.traces_compared == 13
    assert report.wal_frames_compared == 55
    assert report.race_accesses == 1232
