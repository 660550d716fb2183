"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuery:
    def test_basic_query(self, capsys):
        code, out, err = run(
            capsys,
            "query",
            "SELECT HostName FROM Host",
            "--hosts", "2",
            "--warmup", "10",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "HostName"
        assert "1 ok" in err

    def test_query_other_kind(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            "SELECT HostName, LoadAverage1Min FROM Processor",
            "--kind", "ganglia",
            "--hosts", "3",
            "--warmup", "10",
        )
        assert code == 0
        assert len(out.splitlines()) == 4  # header + 3 hosts

    def test_query_explicit_url(self, capsys):
        code, out, _ = run(
            capsys,
            "query",
            "SELECT HostName FROM Host",
            "--url", "jdbc:snmp://site-a-n00/x",
            "--hosts", "1",
            "--warmup", "5",
        )
        assert code == 0
        assert "site-a-n00" in out

    def test_failed_query_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "query",
            "SELECT HostName FROM Host",
            "--url", "jdbc:snmp://no-such-host/x",
            "--hosts", "1",
            "--warmup", "5",
        )
        assert code == 1
        assert "failed" in err

    def test_unknown_agent_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "SELECT 1 FROM Host", "--agents", "carrierpigeon"])


class TestOtherCommands:
    def test_demo(self, capsys):
        code, out, _ = run(capsys, "demo", "--hosts", "2", "--warmup", "10")
        assert code == 0
        assert "GridRM Gateway" in out and "JDBC-SNMP" in out

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "tree", "--hosts", "2", "--warmup", "10")
        assert code == 0
        assert "[ok]" in out

    def test_discover(self, capsys):
        code, out, err = run(capsys, "discover", "--hosts", "2", "--warmup", "5")
        assert code == 0
        assert "jdbc:snmp://" in out
        assert "found" in err

    def test_schema_text(self, capsys):
        code, out, _ = run(capsys, "schema")
        assert code == 0
        assert "Processor" in out and "LoadAverage1Min" in out

    def test_schema_xml(self, capsys):
        code, out, _ = run(capsys, "schema", "--xml")
        assert code == 0
        assert out.startswith("<?xml") and "<GlueSchema" in out

    def test_report(self, capsys):
        code, out, _ = run(capsys, "report", "--hosts", "2", "--warmup", "10")
        assert code == 0
        assert "Site capacity:" in out and "hosts=2" in out
        assert "Host utilisation:" in out

    def test_experiments(self, capsys):
        code, out, _ = run(capsys, "experiments")
        assert code == 0
        assert "benchmarks/" in out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


SCENARIO_COMMANDS = ["chaos", "overload", "stream", "crashtest", "racecheck"]


class TestScenarioCommands:
    @pytest.mark.parametrize("command", SCENARIO_COMMANDS)
    @pytest.mark.parametrize(
        "size",
        [("--rounds", "0"), ("--rounds", "-2"), ("--hosts", "0"), ("--period", "0")],
    )
    def test_bad_size_is_one_error_line(self, capsys, command, size):
        code, out, err = run(capsys, command, *size)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert size[0].lstrip("-") in line

    def test_crashtest_zero_cycles_rejected(self, capsys):
        code, _, err = run(capsys, "crashtest", "--cycles", "0")
        assert code == 2
        assert err == "error: cycles must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", SCENARIO_COMMANDS)
    def test_race_detect_is_a_dual_run(self, capsys, command):
        sizes = ["--rounds", "3", "--hosts", "2"]
        if command == "crashtest":
            sizes += ["--cycles", "2"]
        if command != "racecheck":  # racecheck is always a dual run
            sizes.append("--race-detect")
        code, out, err = run(capsys, command, *sizes)
        assert code == 0, err
        assert "lockstep compare: " in out
        assert "replay identity: OK" in out

    def test_racecheck_has_no_race_detect_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["racecheck", "--race-detect"])
