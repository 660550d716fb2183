"""Unit + end-to-end tests for the PlanCache."""

import sys

import pytest

from repro.core.errors import SecurityError
from repro.core.plans import PlanCache
from repro.core.security import AccessRule
from repro.core.request_manager import QueryMode
from repro.glue.schema import standard_schema
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.sql import parser
from repro.sql.errors import SqlError
from repro.testbed import build_site

SQL = "SELECT HostName FROM Host"


@pytest.fixture
def schema():
    return standard_schema()


class TestHitMiss:
    def test_miss_then_hit_same_entry(self, schema):
        cache = PlanCache(schema)
        first = cache.get(SQL)
        second = cache.get(SQL)
        assert second is first
        assert cache.misses == 1 and cache.hits == 1

    def test_key_is_normalised_sql(self, schema):
        cache = PlanCache(schema)
        a = cache.get("SELECT  HostName\nFROM   Host")
        b = cache.get("select hostname from host")
        assert b is a
        assert cache.misses == 1 and cache.hits == 1

    def test_literal_case_keeps_entries_apart(self, schema):
        cache = PlanCache(schema)
        a = cache.get("SELECT * FROM Host WHERE HostName = 'A'")
        b = cache.get("SELECT * FROM Host WHERE HostName = 'a'")
        assert b is not a
        assert cache.misses == 2

    def test_extra_fields_split_entries(self, schema):
        cache = PlanCache(schema)
        realtime = cache.get(SQL)
        history = cache.get(SQL, extra_fields=("SourceUrl", "RecordedAt"))
        assert history is not realtime
        assert cache.misses == 2

    def test_valid_query_gets_compiled_plan(self, schema):
        entry = PlanCache(schema).get(SQL)
        assert entry.findings == []
        assert entry.plan is not None
        assert entry.select.table == "Host"

    def test_findings_cached_without_plan(self, schema):
        cache = PlanCache(schema)
        entry = cache.get("SELECT Nope FROM Host")
        assert entry.findings
        assert entry.plan is None
        assert cache.get("SELECT Nope FROM Host") is entry
        assert cache.hits == 1

    def test_parse_error_propagates_and_is_not_cached(self, schema):
        cache = PlanCache(schema)
        with pytest.raises(SqlError):
            cache.get("SELECT FROM WHERE")
        with pytest.raises(SqlError):
            cache.get("SELECT FROM WHERE")
        assert len(cache) == 0
        assert cache.misses == 2

    def test_counters_surface_in_registry(self, schema):
        registry = MetricsRegistry()
        cache = PlanCache(schema, registry=registry)
        cache.get(SQL)
        cache.get(SQL)
        snapshot = registry.snapshot()
        assert snapshot["plans.misses"] == 1
        assert snapshot["plans.hits"] == 1


class TestInvalidation:
    def test_version_bump_drops_entries(self, schema):
        version = [1]
        cache = PlanCache(schema, version_fn=lambda: version[0])
        first = cache.get(SQL)
        version[0] += 1
        second = cache.get(SQL)
        assert second is not first
        assert cache.invalidations == 1
        assert cache.misses == 2

    def test_unchanged_version_keeps_entries(self, schema):
        version = [1]
        cache = PlanCache(schema, version_fn=lambda: version[0])
        first = cache.get(SQL)
        assert cache.get(SQL) is first
        assert cache.invalidations == 0

    def test_explicit_invalidate(self, schema):
        cache = PlanCache(schema)
        cache.get(SQL)
        cache.get("SELECT * FROM Host")
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_invalidate_empty_is_free(self, schema):
        cache = PlanCache(schema)
        assert cache.invalidate() == 0
        assert cache.invalidations == 0


class TestLru:
    def test_eviction_past_capacity(self, schema):
        cache = PlanCache(schema, max_entries=2)
        cache.get("SELECT HostName FROM Host")
        cache.get("SELECT SiteName FROM Host")
        cache.get("SELECT * FROM Host")
        assert len(cache) == 2
        assert cache.evictions == 1
        cache.get("SELECT HostName FROM Host")  # evicted: a fresh miss
        assert cache.misses == 4

    def test_hit_refreshes_recency(self, schema):
        cache = PlanCache(schema, max_entries=2)
        first = cache.get("SELECT HostName FROM Host")
        cache.get("SELECT SiteName FROM Host")
        cache.get("SELECT HostName FROM Host")  # refresh
        cache.get("SELECT * FROM Host")          # evicts SiteName instead
        assert cache.get("SELECT HostName FROM Host") is first
        assert cache.hits == 2

    def test_zero_capacity_means_unbounded(self, schema):
        cache = PlanCache(schema, max_entries=0)
        for i in range(200):
            cache.get(f"SELECT HostName FROM Host LIMIT {i}")
        assert len(cache) == 200
        assert cache.evictions == 0

    def test_negative_capacity_rejected(self, schema):
        with pytest.raises(ValueError):
            PlanCache(schema, max_entries=-1)


class TestTraceSpans:
    def test_cold_get_shows_compile_with_parse_and_validate(self, schema):
        tracer = Tracer(VirtualClock())
        cache = PlanCache(schema, tracer=tracer)
        with tracer.start_trace("q"):
            cache.get(SQL)
        names = [s.name for s in tracer.last().spans]
        assert "plan.compile" in names
        assert "parse" in names and "validate" in names
        assert "plan.cache_hit" not in names

    def test_warm_get_shows_cache_hit_only(self, schema):
        tracer = Tracer(VirtualClock())
        cache = PlanCache(schema, tracer=tracer)
        with tracer.start_trace("cold"):
            cache.get(SQL)
        with tracer.start_trace("warm"):
            cache.get(SQL)
        names = [s.name for s in tracer.last().spans]
        assert "plan.cache_hit" in names
        assert "parse" not in names and "validate" not in names


class TestGatewayEndToEnd:
    @pytest.fixture
    def rig(self):
        clock = VirtualClock()
        network = Network(clock, seed=11)
        site = build_site(network, name="pc", n_hosts=2, agents=("snmp",), seed=11)
        clock.advance(5.0)
        return site, site.gateway

    def test_warm_query_skips_parse_and_validate(self, rig):
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        cold = [s.name for s in gw.tracer.last().spans]
        assert "plan.compile" in cold and "parse" in cold
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        warm = [s.name for s in gw.tracer.last().spans]
        assert "plan.cache_hit" in warm
        assert "parse" not in warm and "validate" not in warm
        assert gw.plans.hits >= 1

    def test_schema_change_invalidates_plans(self, rig):
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        misses = gw.plans.misses
        gw.schema_manager.version += 1  # what set_mapping() does
        gw.query(url, SQL, mode=QueryMode.REALTIME)
        assert gw.plans.invalidations >= 1
        assert gw.plans.misses == misses + 1

    def test_results_identical_cold_and_warm(self, rig):
        site, gw = rig
        url = site.url_for("snmp")
        sql = "SELECT HostName, LoadAverage1Min FROM Processor WHERE CPUCount >= 0 ORDER BY HostName"
        cold = gw.query(url, sql, mode=QueryMode.REALTIME)
        warm = gw.query(url, sql, mode=QueryMode.REALTIME)
        assert warm.columns == cold.columns
        assert warm.rows == cold.rows


def count_parses(monkeypatch):
    """Count ``parse_select`` calls made anywhere in the program: every
    loaded ``repro`` module that imported it by name is patched."""
    calls = []
    original = parser.parse_select

    def counting(sql):
        calls.append(sql)
        return original(sql)

    for module in list(sys.modules.values()):
        if (
            module is not None
            and module.__name__.startswith("repro")
            and getattr(module, "parse_select", None) is original
        ):
            monkeypatch.setattr(module, "parse_select", counting)
    return calls


class TestWarmQueryParses:
    @pytest.fixture
    def rig(self):
        clock = VirtualClock()
        network = Network(clock, seed=11)
        site = build_site(network, name="wp", n_hosts=2, agents=("snmp",), seed=11)
        clock.advance(5.0)
        return site, site.gateway

    @pytest.mark.parametrize(
        "mode", [QueryMode.CACHED_OK, QueryMode.REALTIME, QueryMode.HISTORY]
    )
    def test_warm_query_performs_no_parse(self, rig, monkeypatch, mode):
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.REALTIME)  # history for HISTORY
        gw.query(url, SQL, mode=mode)
        calls = count_parses(monkeypatch)
        gw.query(url, SQL, mode=mode)
        assert calls == []

    def test_cold_syntax_error_still_raised_at_the_gateway(self, rig):
        site, gw = rig
        with pytest.raises(SqlError):
            gw.query(site.url_for("snmp"), "SELECT FROM WHERE", mode=QueryMode.CACHED_OK)

    def test_fgsl_checks_the_group_as_written(self, rig, monkeypatch):
        site, gw = rig
        url = site.url_for("snmp")
        gw.query(url, SQL, mode=QueryMode.CACHED_OK)
        gw.fgsl.enabled = True
        gw.fgsl.add_rule(AccessRule(allow=False, who="*", group_pattern="Host"))
        with pytest.raises(SecurityError):
            gw.query(url, SQL, mode=QueryMode.CACHED_OK)
        # Same normalised text, other spelling: the rule does not match it,
        # exactly as when every query was parsed here.
        calls = count_parses(monkeypatch)
        gw.query(url, SQL.replace("Host", "host"), mode=QueryMode.CACHED_OK)
        assert calls  # FGSL on: the written spelling is parsed
