"""The dual-run divergence harness and its CLI."""

import pytest

from repro.racecheck import RacecheckReport, run_racecheck
from repro.scenario import _bisect_streams, _Capture, _first_diff_line

# One shared small run: the harness builds four gateways (2 runs x the
# dual capture), so tests that only inspect the report reuse this.
_REPORT = None


def small_report():
    global _REPORT
    if _REPORT is None:
        _REPORT = run_racecheck(seed=0, rounds=6, warmup_rounds=5)
    return _REPORT


class TestHarness:
    def test_standard_scenario_is_clean(self):
        report = small_report()
        assert report.race_findings == []
        assert report.divergence == []
        assert report.ok

    def test_all_three_streams_were_compared(self):
        report = small_report()
        assert report.rounds_compared == 6
        assert report.traces_compared > 0
        assert report.wal_frames_compared > 0

    def test_detector_actually_observed_accesses(self):
        assert small_report().race_accesses > 0

    def test_format_and_as_dict(self):
        report = small_report()
        text = report.format()
        assert "replay identity: OK" in text
        d = report.as_dict()
        assert d["ok"] is True
        assert d["seed"] == 0
        assert d["race_accesses"] == report.race_accesses


class TestBisection:
    def run(self, a, b):
        report = RacecheckReport(seed=0, rounds=len(a.round_digests))
        _bisect_streams(a, b, report)
        return report

    def test_identical_captures_have_no_divergence(self):
        a = _Capture(round_digests=["x", "y"], trace_renders=["t"], wal_frames=["f"])
        b = _Capture(round_digests=["x", "y"], trace_renders=["t"], wal_frames=["f"])
        assert self.run(a, b).divergence == []

    def test_first_diverging_round_named(self):
        a = _Capture(round_digests=["x", "y", "z"])
        b = _Capture(round_digests=["x", "Q", "R"])
        (d,) = self.run(a, b).divergence
        assert d.startswith("round 1:")

    def test_first_diverging_trace_line_named(self):
        a = _Capture(trace_renders=["same\nleft\nrest"])
        b = _Capture(trace_renders=["same\nright\nrest"])
        (d,) = self.run(a, b).divergence
        assert "trace 0 line 2" in d
        assert "'left'" in d and "'right'" in d

    def test_first_diverging_wal_frame_named(self):
        a = _Capture(wal_frames=["f0", "f1", "f2"])
        b = _Capture(wal_frames=["f0", "XX", "f2"])
        (d,) = self.run(a, b).divergence
        assert d.startswith("WAL frame 1:")

    def test_length_mismatches_reported(self):
        a = _Capture(trace_renders=["t"], wal_frames=["f", "g"])
        b = _Capture(trace_renders=["t", "u"], wal_frames=["f"])
        report = self.run(a, b)
        assert any("trace count differs" in d for d in report.divergence)
        assert any("WAL frame count differs" in d for d in report.divergence)

    def test_wal_tail_mismatch_reported(self):
        a = _Capture(wal_tail="clean")
        b = _Capture(wal_tail="torn")
        (d,) = self.run(a, b).divergence
        assert "tail" in d

    def test_divergent_report_is_not_ok(self):
        a = _Capture(round_digests=["x"])
        b = _Capture(round_digests=["y"])
        report = self.run(a, b)
        assert not report.ok
        assert "DIVERGENCE" in report.format()


class TestFirstDiffLine:
    def test_middle_line(self):
        assert _first_diff_line("a\nb\nc", "a\nB\nc") == (2, "b", "B")

    def test_trailing_extra_line(self):
        assert _first_diff_line("a", "a\nb") == (2, "<absent>", "b")


class TestCli:
    def test_racecheck_exits_zero_on_clean_run(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["racecheck", "--rounds", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay identity: OK" in out

    def test_seed_list_runs_each_seed(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["racecheck", "--seeds", "0,1", "--rounds", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed=0" in out and "seed=1" in out


class TestChaosIntegration:
    def test_chaos_race_detect_is_transparent(self):
        from repro.chaos import run_chaos

        plain = run_chaos(seed=3, rounds=6, warmup_rounds=5)
        detected = run_chaos(seed=3, rounds=6, warmup_rounds=5, race_detect=True)
        assert detected.race_findings == []
        assert detected.race_accesses > 0
        # Detection must not perturb the run: same replay signature.
        assert detected.signature == plain.signature
        assert plain.race_accesses == 0


class TestCrashtestIntegration:
    def test_crashtest_race_detect_is_transparent(self):
        from repro.crashtest import run_crashtest

        plain = run_crashtest(seed=1, cycles=2, rounds=3)
        detected = run_crashtest(seed=1, cycles=2, rounds=3, race_detect=True)
        assert detected.race_findings == []
        assert detected.race_accesses > 0
        assert detected.signature == plain.signature
        assert detected.ok
