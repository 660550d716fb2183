"""Historical data store (paper §3.1.1-§3.1.2).

"Historical data is retrieved from the Gateway's internal database": this
module is that database, built on the :mod:`repro.sql` engine.  Every
real-time result the RequestManager produces is recorded into a per-GLUE-
group table (the group's fields plus ``SourceUrl`` and ``RecordedAt``
provenance columns), so a client's historical query is *the same SQL*
executed against the same group name — only the mode flag differs.

Tables are ring-bounded per group to keep long-running gateways at a
fixed memory footprint.

Reads go through an access path instead of a full scan.  Each table keeps
partitions of its rows by ``SourceUrl`` and by (``SourceUrl``,
``HostName``): lists of the *same* row dicts in insertion order, so each
is an exact subsequence of ``table.rows``.  Each partition counts its
*order breaks* (rows whose ``RecordedAt`` is not a number or falls below
its predecessor's); a partition with none is bisected on ``RecordedAt``,
any other is filtered linearly.  Fan-out branches record at different
virtual instants in launch order, so a table (or a source's partition)
is not always in time order.  A compiled query's WHERE clause still runs
over every candidate row, so the partitions only narrow what it sees
(DESIGN.md §12).

Durability is optional and delegated: when constructed with a
:class:`~repro.storage.engine.HistoryEngine`, every recorded row is
WAL-appended before it is served and every ``trim_older_than`` is
durably logged, so the store's contents survive a gateway crash.  The
engine holds *references to the same row dicts* the serving tables
hold — the durable and serving copies cannot drift between checkpoints.
Without an engine the store is the original pure in-memory ring.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.analysis import races
from repro.glue.schema import GlueSchema
from repro.obs.metrics import MetricsRegistry
from repro.sql.ast_nodes import ColumnDef
from repro.sql.database import Database, Table
from repro.sql.executor import SelectResult
from repro.sql.parser import parse_select

if TYPE_CHECKING:  # pragma: no cover
    from repro.sql.plan import CompiledPlan
    from repro.storage.engine import HistoryEngine

#: Provenance columns appended to every history table.
PROVENANCE = (
    ColumnDef("SourceUrl", "TEXT"),
    ColumnDef("RecordedAt", "TIMESTAMP"),
)

Row = dict[str, Any]

_RECORDED_AT = itemgetter("RecordedAt")


def _time(row: Row) -> float | None:
    """A row's ``RecordedAt`` when it is a (non-NaN, non-bool) number."""
    t = row.get("RecordedAt")
    if (type(t) is float or type(t) is int) and t == t:
        return t
    return None


def _breaks(rows: list[Row]) -> int:
    """Order breaks in ``rows``: positions whose time is not a number or
    is below the previous row's time."""
    n, prev = 0, None
    for row in rows:
        t = _time(row)
        if t is None or (prev is not None and t < prev):
            n += 1
        prev = t
    return n


def _window(rows: list[Row], bounds: Iterable[tuple[str, float]]) -> list[Row]:
    """The rows of a break-free partition satisfying every
    ``RecordedAt <cmp> value`` bound, found by bisection."""
    lo, hi = 0, len(rows)
    for op, value in bounds:
        if op in (">=", "="):
            lo = max(lo, bisect_left(rows, value, key=_RECORDED_AT))
        elif op == ">":
            lo = max(lo, bisect_right(rows, value, key=_RECORDED_AT))
        if op in ("<=", "="):
            hi = min(hi, bisect_right(rows, value, key=_RECORDED_AT))
        elif op == "<":
            hi = min(hi, bisect_left(rows, value, key=_RECORDED_AT))
    return rows[lo:hi] if lo < hi else []


class _Partition:
    """A subsequence of one table's rows, in insertion order.  ``breaks``
    counts the rows :meth:`note` has seen, so it starts at zero."""

    __slots__ = ("rows", "breaks", "_last")

    def __init__(self, rows: list[Row] | None = None) -> None:
        self.rows: list[Row] = [] if rows is None else rows
        self.breaks = 0
        self._last: float | None = None

    def note(self, t: float | None, n: int = 1) -> None:
        """Account for ``n`` rows of time ``t`` appended to ``rows``."""
        if t is None:
            self.breaks += n
        elif self._last is not None and t < self._last:
            self.breaks += 1
        self._last = t

    def append(self, row: Row, t: float | None) -> None:
        self.rows.append(row)
        self.note(t)

    def drop_prefix(self, k: int) -> None:
        rows = self.rows
        if self.breaks:
            # Breaks at positions 0..k go; the new first row's is re-judged.
            self.breaks -= _breaks(rows[: k + 1])
            self.breaks += _breaks(rows[k : k + 1])
        del rows[:k]
        if not rows:
            self._last = None


class _TableIndex:
    """The partitions of one table.  ``whole`` wraps ``table.rows``
    itself; ``size`` is how many of its rows the index has seen."""

    __slots__ = ("whole", "sources", "hosts", "size")

    def __init__(self, rows: list[Row]) -> None:
        self.whole = _Partition(rows)
        self.sources: dict[Any, _Partition] = {}
        self.hosts: dict[Any, dict[Any, _Partition]] = {}
        self.size = 0
        for _, run in groupby(rows, key=lambda r: (r.get("SourceUrl"), _time(r))):
            self.add(list(run))

    def add(self, run: list[Row]) -> None:
        """Index rows just appended to the table that share one
        ``SourceUrl`` and one time, as one ``record`` batch does."""
        if not run:
            return
        source, t = run[0].get("SourceUrl"), _time(run[0])
        self.whole.note(t, len(run))
        part = self.sources.get(source)
        if part is None:
            part = self.sources[source] = _Partition()
            self.hosts[source] = {}
        part.rows.extend(run)
        part.note(t, len(run))
        hosts = self.hosts[source]
        for row in run:
            host = row.get("HostName")
            sub = hosts.get(host)
            if sub is None:
                sub = hosts[host] = _Partition()
            sub.append(row, t)
        self.size += len(run)

    def drop_prefix(self, k: int) -> None:
        """Delete the table's oldest ``k`` rows, from every partition."""
        per_host: dict[Any, dict[Any, int]] = {}
        for row in self.whole.rows[:k]:
            counts = per_host.setdefault(row.get("SourceUrl"), {})
            host = row.get("HostName")
            counts[host] = counts.get(host, 0) + 1
        self.whole.drop_prefix(k)
        self.size -= k
        for source, counts in per_host.items():
            part = self.sources[source]
            part.drop_prefix(sum(counts.values()))
            hosts = self.hosts[source]
            for host, n in counts.items():
                hosts[host].drop_prefix(n)
                if not hosts[host].rows:
                    del hosts[host]
            if not part.rows:
                del self.sources[source], self.hosts[source]


class HistoryStore:
    """Per-group historical tables with provenance and ring bounding."""

    def __init__(
        self,
        schema: GlueSchema,
        *,
        max_rows_per_group: int = 100_000,
        engine: "HistoryEngine | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_rows_per_group < 1:
            raise ValueError(
                f"max_rows_per_group must be >= 1: {max_rows_per_group!r}"
            )
        self.schema = schema
        self.max_rows_per_group = max_rows_per_group
        self.engine = engine
        self.db = Database()
        self._indexes: dict[str, _TableIndex] = {}
        reg = registry if registry is not None else MetricsRegistry()
        #: Rows a read handed to its predicate or filter (deterministic
        #: scan work: the access path's whole effect shows here).
        self._examined = reg.counter("history.rows_examined")
        self.rows_recorded = 0
        self.rows_evicted = 0
        self.rows_recovered = 0
        if engine is not None:
            self._load_recovered()

    @property
    def rows_examined(self) -> int:
        return int(self._examined.value)

    # ------------------------------------------------------------------
    def _load_recovered(self) -> None:
        """Populate serving tables from the engine's recovered rows."""
        assert self.engine is not None
        for group_name in self.engine.groups():
            if not self.schema.has_group(group_name):
                # A durable row for a group this schema no longer knows:
                # keep it durable (it stays in the engine's segments),
                # just don't serve it.
                continue
            table = self._ensure_table(group_name)
            columns = table.column_names
            for row in self.engine.serving_rows(group_name):
                table.rows.append({name: row.get(name) for name in columns})
                self.rows_recovered += 1

    def _ensure_table(self, group_name: str) -> Table:
        group = self.schema.group(group_name)
        if group.name not in self.db.tables:
            columns = [ColumnDef(f.name, f.type) for f in group.fields]
            columns.extend(PROVENANCE)
            self.db.create_table(group.name, columns)
        return self.db.table(group.name)

    def _index(self, table: Table) -> _TableIndex:
        """The table's partitions, rebuilt when out of step with its rows.

        ``record`` keeps an index in step row by row; the paths that
        replace or refill ``table.rows`` wholesale (``trim_older_than``,
        ``_resync_group``, ``_load_recovered``) leave it to be rebuilt
        here, on the next read or write, from the new rows.
        """
        index = self._indexes.get(table.name)
        if (
            index is None
            or index.whole.rows is not table.rows
            or index.size != len(table.rows)
        ):
            index = self._indexes[table.name] = _TableIndex(table.rows)
        return index

    def record(
        self,
        group_name: str,
        rows: Iterable[Mapping[str, Any]],
        *,
        source_url: str,
        recorded_at: float,
    ) -> int:
        """Record GLUE rows for a group; returns the number stored."""
        if races.ACTIVE is not None:
            # Registered COMMUTATIVE: sibling-branch appends to one group
            # interleave by launch order, but every row carries its own
            # SourceUrl/RecordedAt provenance, so time-windowed readers
            # (series, rollup, RecordedAt predicates) are insensitive to
            # the interleaving.  A read racing the appends is still
            # flagged (GRM552) — it would see a launch-order prefix.
            races.ACTIVE.note(
                "history", group_name, "w", site="HistoryStore.record"
            )
        table = self._ensure_table(group_name)
        index = self._index(table)
        known = set(table.column_names)
        engine = self.engine
        n = 0
        for row in rows:
            stored = {k: v for k, v in row.items() if k in known}
            stored["SourceUrl"] = source_url
            stored["RecordedAt"] = recorded_at
            table.insert_row(stored)
            n += 1
        index.add(table.rows[len(table.rows) - n:])
        if engine is not None and n:
            # One WAL record for the whole batch, referencing the coerced
            # dicts the table holds (atomic ack, one frame per call).
            engine.append_rows(table.name, table.rows[-n:])
        self.rows_recorded += n
        overflow = len(table.rows) - self.max_rows_per_group
        if overflow > 0:
            # The ring drops the oldest-inserted rows: a prefix of the
            # table, and so a prefix of every partition.
            index.drop_prefix(overflow)
            self.rows_evicted += overflow
        return n

    # ------------------------------------------------------------------
    def query(
        self,
        sql: str,
        *,
        source_url: str | None = None,
        plan: "CompiledPlan | None" = None,
    ) -> SelectResult:
        """Run a client SELECT against a group's history.

        ``source_url`` optionally narrows to one data source's records —
        the RequestManager passes the URL of the source the client
        addressed.  The WHERE clause may reference ``RecordedAt`` for
        time ranges.  ``plan`` (a compiled plan for this exact ``sql``,
        from the gateway's plan cache) skips the parse, evaluates the
        scan with precompiled closures, and lets the scan start from the
        narrowest partition its ``HostName``/``RecordedAt`` conjuncts
        allow; the answer is the same either way.
        """
        if plan is not None:
            select = plan.select
        else:
            select = parse_select(sql)
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "history", select.table, "r", site="HistoryStore.query"
            )
        self._ensure_table(select.table)
        table = self.db.table(self.schema.group(select.table).name)
        rows = self._candidates(table, source_url, plan)
        self._examined.add(len(rows))
        if plan is not None:
            return plan.bind_mapping(tuple(table.column_names)).execute(rows)
        from repro.sql.executor import execute_select

        return execute_select(select, table.column_names, rows)

    def _candidates(
        self, table: Table, source_url: str | None, plan: "CompiledPlan | None"
    ) -> list[Row]:
        """The rows of ``table`` the plan's WHERE clause could accept.

        Sound, not exact: a row left out fails some top-level conjunct,
        and the plan only offers conjuncts when its WHERE clause cannot
        raise, so leaving a row unevaluated changes neither the answer
        nor the error.
        """
        index = self._index(table)
        part = index.whole
        hosts: dict[Any, _Partition] | None = None
        if source_url is not None:
            found = index.sources.get(source_url)
            if found is None:
                return []
            part, hosts = found, index.hosts[source_url]
        terms = plan.access_terms(table.columns) if plan is not None else None
        if not terms:
            return part.rows
        bounds = []
        for name, op, value in terms:
            if name == "RecordedAt" and not isinstance(value, str):
                bounds.append((op, value))
            elif (
                name == "HostName"
                and op == "="
                and isinstance(value, str)
                and hosts is not None
                and self._host_is_text(table)
            ):
                sub = hosts.get(value)
                if sub is None:
                    return []
                part = sub
        if bounds and not part.breaks:
            return _window(part.rows, bounds)
        return part.rows

    @staticmethod
    def _host_is_text(table: Table) -> bool:
        """``HostName`` is a TEXT column, so every stored value is a
        ``str`` or NULL and ``HostName = 'x'`` holds exactly on the rows
        of the ``'x'`` partition (no numeric-string coercion)."""
        return any(c.name == "HostName" and c.type == "TEXT" for c in table.columns)

    def _scan(
        self,
        table: Table,
        *,
        source_url: str | None = None,
        host: str | None = None,
        since: float | None = None,
    ) -> list[Row]:
        """Rows of ``table`` with the given source and host, recorded at
        or after ``since`` (a ``None`` time never qualifies), in table
        order."""
        index = self._index(table)
        part: _Partition | None = index.whole
        if source_url is not None:
            part = index.sources.get(source_url)
            if part is not None and host is not None:
                part = index.hosts[source_url].get(host)
                host = None
        if part is None:
            return []
        rows = part.rows
        if since is not None and not part.breaks:
            rows = _window(rows, ((">=", since),))
        self._examined.add(len(rows))
        if since is not None and part.breaks:
            rows = [
                r for r in rows
                if r.get("RecordedAt") is not None and r["RecordedAt"] >= since
            ]
        if host is not None:
            rows = [r for r in rows if r.get("HostName") == host]
        return rows

    def rows_since(self, group_name: str, since: float) -> list[Row]:
        """A group's rows recorded at or after ``since``, in table order
        (the history-flavour stream replay)."""
        if group_name not in self.db.tables:
            return []
        return self._scan(self.db.table(group_name), since=since)

    def series(
        self,
        group_name: str,
        field: str,
        *,
        source_url: str | None = None,
        host: str | None = None,
        since: float | None = None,
    ) -> list[tuple[float, Any]]:
        """(RecordedAt, value) pairs for one field — the console's plots."""
        if races.ACTIVE is not None:
            races.ACTIVE.note(
                "history", group_name, "r", site="HistoryStore.series"
            )
        if group_name not in self.db.tables:
            return []
        rows = self._scan(
            self.db.table(group_name), source_url=source_url, host=host, since=since
        )
        return [(row.get("RecordedAt"), row.get(field)) for row in rows]

    def rollup(
        self,
        group_name: str,
        field: str,
        *,
        bucket: float,
        host: str | None = None,
        source_url: str | None = None,
        since: float | None = None,
    ) -> list[dict[str, Any]]:
        """Downsample one field's history into fixed time buckets.

        Returns one dict per non-empty bucket with ``bucket_start``,
        ``n``, ``min``, ``avg`` and ``max`` — what the console's plots
        and capacity reports consume when the raw series outgrows the
        screen (a long-running gateway records thousands of samples per
        day even with caching).
        """
        if bucket <= 0:
            raise ValueError(f"bucket must be > 0: {bucket!r}")
        series = self.series(
            group_name, field, host=host, source_url=source_url, since=since
        )
        buckets: dict[int, list[float]] = {}
        for t, value in series:
            if t is None or not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            buckets.setdefault(int(t // bucket), []).append(float(value))
        out = []
        for index in sorted(buckets):
            values = buckets[index]
            out.append(
                {
                    "bucket_start": index * bucket,
                    "n": len(values),
                    "min": min(values),
                    "avg": sum(values) / len(values),
                    "max": max(values),
                }
            )
        return out

    def trim_older_than(self, cutoff: float) -> int:
        """Time-based retention: drop rows recorded before ``cutoff``.

        Complements the per-group ring bound: a site with bursty polling
        can cap history by age instead of (or as well as) by count.
        Returns the number of rows dropped.  With a durable engine the
        trim is WAL-logged (and fsynced) *before* the serving tables
        change, so a crash cannot resurrect trimmed rows.
        """
        if self.engine is not None:
            self.engine.append_trim(cutoff)
        dropped = 0
        for table in self.db.tables.values():
            before = len(table.rows)
            table.rows = [
                r
                for r in table.rows
                if r.get("RecordedAt") is None or r["RecordedAt"] >= cutoff
            ]
            dropped += before - len(table.rows)
        self.rows_evicted += dropped
        return dropped

    # ------------------------------------------------------------------
    # Durability passthroughs (no-ops without an engine)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush the WAL group-commit buffer (advance the ack boundary)."""
        if self.engine is not None:
            self.engine.sync()

    def checkpoint(self) -> None:
        """Seal the memtable and truncate the WAL; re-sync dirty groups."""
        if self.engine is None:
            return
        result = self.engine.checkpoint()
        for group_name in result.serving_dirty:
            self._resync_group(group_name)

    def _resync_group(self, group_name: str) -> None:
        """Rebuild one group's serving rows from the engine.

        Needed when checkpoint retention (``history_retention_age``)
        drops sealed segments whose rows the serving table still held.
        """
        assert self.engine is not None
        if not self.schema.has_group(group_name):
            return
        table = self._ensure_table(group_name)
        before = len(table.rows)
        columns = table.column_names
        table.rows = [
            {name: row.get(name) for name in columns}
            for row in self.engine.serving_rows(group_name)
        ]
        if len(table.rows) < before:
            self.rows_evicted += before - len(table.rows)

    def row_count(self, group_name: str | None = None) -> int:
        if group_name is not None:
            if group_name not in self.db.tables:
                return 0
            return len(self.db.table(group_name).rows)
        return sum(len(t.rows) for t in self.db.tables.values())

    def groups_recorded(self) -> list[str]:
        return sorted(self.db.tables)
