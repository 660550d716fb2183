"""The gateway benchmark: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload dashboard|poll|stream \\
        --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric with its unit; ``--trace 1``
installs the per-layer wrappers (``perfbench/layers.py``) and prints
every per-layer metric instead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is the full record (provenance, bases of every
ratio, extra metrics), which is also written under ``.perfbench_runs/``.

An untraced run is a launcher plus child processes: ``SETUP_PROBES``
children each start from an empty interpreter and build the workload,
the last of them then runs the timed phase.  ``setup_s`` is the median
wall time from spawning a child to its first timed op.

The program is imported from ``src/`` of the checkout; no other input
is read.  See ``perfbench/README.md`` for the workload rationale.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_runs"
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 3
READY = "PERFBENCH-READY"
#: Calibration: one sample is CAL_REPEATS kernel runs; a sample is taken
#: after every CAL_EVERY_NS of op time; CAL_REF_NS is the sample's time
#: on the reference machine (2-core x86-64 VM, CPython 3.11), so
#: normalised times read as times on that machine.
CAL_REPEATS = 4
CAL_EVERY_NS = 20_000_000
CAL_REF_NS = 1_000_000


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (a measured value, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float], pct: int) -> dict:
    cut = percentile(values, pct)
    beyond = sum(1 for v in values if v > cut)
    return {"percentile": pct, "samples": len(values), "samples_beyond": beyond}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    """Output of a git command on this checkout; None outside a git
    checkout (git is not allowed to search parent directories)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}", *args],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, seed: int, seconds: int, trace: bool) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params,
        "claim": None,
    }


# ----------------------------------------------------------------------
# Worker: set up, then the timed closed loop
# ----------------------------------------------------------------------
def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind the gateway does (dict rows,
    comprehensions, string formatting); its time tracks the machine's
    current interpreter speed."""
    rows = [
        {"HostName": f"h{i % 8}", "Load": i * 0.5, "Idle": 100 - i % 100}
        for i in range(300)
    ]
    picked = [(r["HostName"], r["Load"]) for r in rows if r["Idle"] > 20]
    totals: dict[str, float] = {}
    for host, load in picked:
        totals[host] = totals.get(host, 0.0) + load
    return len(repr(sorted(totals.items())))


def calibrate() -> int:
    """Wall ns of one calibration sample (``CAL_REPEATS`` kernel runs)."""
    t0 = time.perf_counter_ns()
    for _ in range(CAL_REPEATS):
        calibration_kernel()
    return time.perf_counter_ns() - t0


class Loop:
    """Runs ops, times them, checks them and hashes their answers.

    Op times are normalised to the reference machine speed: after every
    ``CAL_EVERY_NS`` of op time a calibration sample is taken, and the
    interpreter part of each op's time is scaled by ``CAL_REF_NS`` over
    the mean of the (smoothed) samples on either side of it.  Collector
    pauses, observed through ``gc.callbacks``, are memory-bound work the
    kernel does not track, so they are kept as measured.  Checks, hashing
    and calibration are outside every timed interval.
    """

    def __init__(self, workload, recorder=None) -> None:
        self.w = workload
        self.rec = recorder
        self.i = 0
        #: Per op: wall ns of the op and of the think time after it, and
        #: the collector pauses inside each.
        self.op_ns: list[int] = []
        self.op_gc_ns: list[int] = []
        self.think_ns: list[int] = []
        self.think_gc_ns: list[int] = []
        self.virt_s: list[float] = []
        self.traced: list[bool] = []
        self.block: list[int] = []
        self.samples: list[int] = [calibrate()]
        self._since_sample = 0
        self.attempted = 0
        self.failed = 0
        self.exceptions = 0
        #: Ops whose answer was wrong (or raised), and what was wrong.
        self.wrong_ops = 0
        self.wrong: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_hex: str | None = None
        self.prefix_rss_mb = 0.0
        self._gc_ns = 0
        self._gc_start = 0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self._gc_ns += time.perf_counter_ns() - self._gc_start

    def step(self, traced: bool = False) -> None:
        w, rec, i = self.w, self.rec, self.i
        op = w.next_op(i)
        root = -1
        if traced:
            rec.op = i
            root = rec.open("op")
        gc0 = self._gc_ns
        t0 = time.perf_counter_ns()
        try:
            result, virt = w.run(op)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            result, virt = None, 0.0
            self.exceptions += 1
            self.wrong_ops += 1
            self.wrong.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
        gc1 = self._gc_ns
        if traced:
            rec.close(root)
        w.think(i)
        t2 = time.perf_counter_ns()
        self.op_ns.append(t1 - t0)
        self.op_gc_ns.append(gc1 - gc0)
        self.think_ns.append(t2 - t1)
        self.think_gc_ns.append(self._gc_ns - gc1)
        self.virt_s.append(virt)
        self.traced.append(traced)
        self.block.append(len(self.samples) - 1)
        if result is None:
            self.attempted += len(op.urls)
            self.failed += len(op.urls)
        else:
            out = w.check(op, result)
            self.attempted += out.attempted
            self.failed += out.failed
            if out.wrong:
                self.wrong_ops += 1
                self.wrong.extend(f"op {i}: {m}" for m in out.wrong[:3])
            if i < w.digest_ops:
                self.digest.update(repr((result.columns, result.rows)).encode())
        self.i = i + 1
        if self.i == w.digest_ops:
            self.digest_hex = self.digest.hexdigest()
            self.prefix_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        self._since_sample += t2 - t0
        if self._since_sample >= CAL_EVERY_NS:
            self.samples.append(calibrate())
            self._since_sample = 0

    def finish(self) -> None:
        """End the timed phase: last calibration sample, per-op speed
        factors and normalised times (``op_norm_ns``, ``busy_norm_ns`` =
        op plus think time)."""
        gc.callbacks.remove(self._on_gc)
        raw = self.samples + [calibrate()]
        # Samples are smoothed by a centred running median of five.
        smooth = [
            statistics.median(raw[max(0, k - 2):k + 3]) for k in range(len(raw))
        ]
        per_block = [2 * CAL_REF_NS / (a + b) for a, b in zip(smooth, smooth[1:])]
        self.factor = [per_block[b] for b in self.block]

        def norm(ns: int, gc_ns: int, f: float) -> float:
            return (ns - gc_ns) * f + gc_ns

        self.op_norm_ns = [
            norm(*x) for x in zip(self.op_ns, self.op_gc_ns, self.factor)
        ]
        self.busy_norm_ns = [
            o + norm(*x)
            for o, *x in zip(
                self.op_norm_ns, self.think_ns, self.think_gc_ns, self.factor
            )
        ]


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text())["digests"]
    return table.get(workload, {}).get(str(seed))


def build(name: str, seed: int):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    gc.collect()
    return workload


def net_totals(network) -> tuple[int, int]:
    return int(network.stats.requests), int(network.stats.bytes_sent)


def untraced(workload, seconds: int) -> dict:
    loop = Loop(workload)
    req0, bytes0 = net_totals(workload.network)
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or loop.i < workload.digest_ops
        or loop.i % workload.cycle_ops
    ):
        loop.step()
    req1, bytes1 = net_totals(workload.network)
    loop.finish()
    ops = loop.i
    wall_ms = [ns / 1e6 for ns in loop.op_norm_ns]
    # Throughput counts the program's work between ops too (think-time
    # advances run timers: sweeps, checkpoints, deliveries).
    busy_s = sum(loop.busy_norm_ns) / 1e9
    raw_busy_s = (sum(loop.op_ns) + sum(loop.think_ns)) / 1e9
    virt_ms = [s * 1000 for s in loop.virt_s]
    pct = workload.tail_pct
    metrics = {
        "throughput_ops_s": (ops / busy_s, "ops/s"),
        "latency_p50_ms": (statistics.median(wall_ms), "ms"),
        "latency_tail_ms": (percentile(wall_ms, pct), "ms"),
        "virt_latency_mean_ms": (statistics.fmean(virt_ms), "ms"),
        "virt_latency_tail_ms": (percentile(virt_ms, pct), "ms"),
        "net_requests_per_op": ((req1 - req0) / ops, "count"),
        "wire_kb_per_op": ((bytes1 - bytes0) / 1024 / ops, "KiB"),
        "peak_rss_mb": (loop.prefix_rss_mb, "MiB"),
    }
    extra = {
        "throughput_unnormalised_ops_s": (ops / raw_busy_s, "ops/s"),
        "latency_p50_unnormalised_ms": (statistics.median(loop.op_ns) / 1e6, "ms"),
        "latency_tail_unnormalised_ms": (
            percentile(loop.op_ns, pct) / 1e6, "ms"
        ),
        "gc_pause_share": (sum(loop.op_gc_ns) / sum(loop.op_ns), "ratio"),
        "peak_rss_end_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
        "virt_latency_p50_ms": (statistics.median(virt_ms), "ms"),
        "error_rate": (
            (loop.failed + loop.wrong_ops) / max(loop.attempted, 1), "ratio"
        ),
    }
    lags = getattr(workload, "lags", None)
    if lags:
        lag_ms = [s * 1000 for s in lags]
        extra["push_lag_virt_p50_ms"] = (statistics.median(lag_ms), "ms")
        extra["push_lag_virt_tail_ms"] = (percentile(lag_ms, 99), "ms")
    bases = {
        "ops": ops,
        "latency_tail_ms": tail(wall_ms, pct),
        "virt_latency_tail_ms": tail(virt_ms, pct),
        "error_rate": {
            "failed_statuses": loop.failed,
            "exceptions": loop.exceptions,
            "wrong_answers": loop.wrong_ops - loop.exceptions,
            "source_requests_attempted": loop.attempted,
        },
        "net_requests": req1 - req0,
        "bytes_sent": bytes1 - bytes0,
        "peak_rss_mb": {"ops": workload.digest_ops},
        "calibration": calibration_bases(loop),
    }
    if lags:
        bases["push_lag_virt_tail_ms"] = tail(lags, 99)
    return {"loop": loop, "metrics": metrics, "extra": extra, "bases": bases}


def calibration_bases(loop: Loop) -> dict:
    return {
        "ref_sample_ns": CAL_REF_NS,
        "samples": len(loop.samples),
        "median_sample_ns": statistics.median(loop.samples),
        "median_speed_factor": statistics.median(loop.factor),
    }


def traced(workload, seconds: int) -> dict:
    from layers import SPAN_LAYERS, Recorder

    rec = Recorder(workload.network)
    loop = Loop(workload, rec)
    state: dict[str, int] = {}
    block = workload.block_ops
    traced_ops = 0
    counted: set[int] = set()
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or traced_ops < workload.count_ops
        or loop.i < workload.digest_ops
    ):
        on = (loop.i // block) % 2 == 0
        if on:
            rec.counting = traced_ops < workload.count_ops
            if rec.counting:
                counted.update(range(loop.i, loop.i + block))
            rec.install()
        for _ in range(block):
            loop.step(traced=on)
        if on:
            rec.uninstall()
            traced_ops += block
            if traced_ops == workload.count_ops:
                state = workload.state_counts()
    rec.counting = False
    loop.finish()
    self_ns = rec.self_ns(loop.factor)
    c = rec.counters
    n_ops = workload.count_ops
    n_traced = sum(loop.traced)
    n_untraced = loop.i - n_traced
    tr_ns = sum(ns for ns, on in zip(loop.busy_norm_ns, loop.traced) if on)
    un_ns = sum(ns for ns, on in zip(loop.busy_norm_ns, loop.traced) if not on)

    def ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6 / n_traced

    def per_op(name: str) -> float:
        return c.get(name, 0) / n_ops

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    wire, remote_calls = rec.remote_wire_bytes(counted)
    metrics = {
        "gateway.query.self_ms": (ms("gateway.query"), "ms"),
        "request.execute.self_ms": (ms("request.execute"), "ms"),
        "sql.parse.per_op": (per_op("sql.parse.calls"), "count"),
        "sql.normalise.per_op": (per_op("sql.normalise.calls"), "count"),
        "sql.plan_exec.self_ms": (ms("sql.plan_exec"), "ms"),
        "sql.plan_exec.per_op": (per_op("sql.plan_exec.calls"), "count"),
        "plans.get.self_ms": (ms("plans.get"), "ms"),
        "plans.hit_ratio": (ratio("plans.get.hits", "plans.get.calls"), "ratio"),
        "cache.lookup.self_ms": (ms("cache.lookup"), "ms"),
        "cache.store.self_ms": (ms("cache.store"), "ms"),
        "cache.hit_ratio": (
            ratio("cache.lookup.hits", "cache.lookup.calls"), "ratio"
        ),
        "dispatch.run.self_ms": (
            ms("dispatch.run") + ms("dispatch.flight") + ms("dispatch.join"), "ms"
        ),
        "dispatch.singleflight_joins.per_op": (
            per_op("dispatch.singleflight_joins"), "count"
        ),
        "conn.acquire.self_ms": (ms("conn.acquire"), "ms"),
        "conn.acquire.per_op": (per_op("conn.acquire.calls"), "count"),
        "driver.execute.self_ms": (ms("driver.execute"), "ms"),
        "glue.translate.self_ms": (ms("glue.translate"), "ms"),
        "glue.rows_translated.per_op": (per_op("glue.rows_translated"), "count"),
        "history.record.self_ms": (ms("history.record"), "ms"),
        "history.rows_recorded.per_op": (
            per_op("history.rows_recorded"), "count"
        ),
        "history.query.self_ms": (ms("history.query"), "ms"),
        "history.rows_scanned_per_row_returned": (
            ratio("history.rows_scanned", "history.rows_returned"), "ratio"
        ),
        "storage.append.self_ms": (ms("storage.append"), "ms"),
        "storage.wal_bytes_per_row": (
            ratio("storage.wal_bytes", "storage.rows_appended"), "B"
        ),
        "storage.fsync.per_op": (per_op("storage.fsync.calls"), "count"),
        "gma.remote.self_ms": (ms("gma.remote"), "ms"),
        "gma.remote.per_op": (per_op("gma.remote.calls"), "count"),
        "gma.wire_kb_per_remote": (
            wire / 1024 / remote_calls if remote_calls else 0.0, "KiB"
        ),
        "streams.publish.self_ms": (ms("streams.publish"), "ms"),
        "streams.plan_exec_per_publish": (
            ratio("streams.plan_execs", "streams.publish.calls"), "ratio"
        ),
        "streams.pushes_per_publish": (
            ratio("streams.pushes", "streams.publish.calls"), "ratio"
        ),
        "streams.consumer_batches_retained": (
            state.get("streams.consumer_batches_retained", 0), "count"
        ),
        "obs.span.self_ms": (ms("obs.span"), "ms"),
        "obs.spans.per_op": (per_op("obs.span.calls"), "count"),
        "agents.snapshot.self_ms": (ms("agents.snapshot"), "ms"),
        "agents.snapshots.per_op": (per_op("agents.snapshot.calls"), "count"),
        "simnet.request.self_ms": (ms("simnet.request"), "ms"),
        "simnet.send.self_ms": (ms("simnet.send"), "ms"),
        "simnet.datagrams.per_op": (per_op("simnet.send.calls"), "count"),
        "trace.overhead_ratio": (
            (n_traced / tr_ns) / (n_untraced / un_ns), "ratio"
        ),
    }
    layers: dict[str, float] = {}
    for name, ns in self_ns.items():
        layer, substrate = SPAN_LAYERS[name]
        key = f"substrate:{layer}" if substrate else layer
        layers[key] = layers.get(key, 0.0) + ns
    total = sum(layers.values())
    split = {k: v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
    bases = {
        "traced_ops": n_traced,
        "untraced_ops": n_untraced,
        "counted_ops": n_ops,
        "counters": dict(sorted(c.items())),
        "gma_wire_bytes": wire,
        "gma_remote_calls": remote_calls,
        "traced_ops_s": n_traced / (tr_ns / 1e9),
        "untraced_ops_s": n_untraced / (un_ns / 1e9),
        "self_time_share": split,
        "calibration": calibration_bases(loop),
    }
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(str(OUT_DIR / f"{workload.name}-seed{workload.seed}.spans.csv.gz"))
    return {"loop": loop, "metrics": metrics, "extra": {}, "bases": bases}


def worker(args) -> int:
    # Set-up time is normalised like op times: calibration samples
    # before and after the build give the machine speed meanwhile.
    t0 = time.perf_counter()
    samples = [calibrate() for _ in range(3)]
    spent = time.perf_counter() - t0
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    workload = build(args.workload, args.seed)
    t0 = time.perf_counter()
    samples += [calibrate() for _ in range(3)]
    spent += time.perf_counter() - t0
    factor = CAL_REF_NS / statistics.median(samples)
    print(f"{READY} {factor} {spent}", flush=True)
    if args.role == "probe":
        return 0
    run = traced if args.trace else untraced
    out = run(workload, args.seconds)
    loop = out["loop"]
    want = recorded_digest(args.workload, args.seed)
    digest_ok = want is None or want == loop.digest_hex
    record = {
        "provenance": provenance(workload, args.seed, args.seconds, bool(args.trace)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
        "extra_metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in out["extra"].items()
        },
        "bases": out["bases"],
        "answers": {
            "digest_ops": workload.digest_ops,
            "digest": loop.digest_hex,
            "recorded_digest": want,
            "digest_checked": want is not None,
            "digest_ok": digest_ok,
            "wrong_answers": loop.wrong[:20],
        },
        "correct": digest_ok and not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed + loop.wrong_ops,
    }
    print(json.dumps(record), flush=True)
    return 0


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------
def spawn(args, role: str) -> tuple[float, float, list[str]]:
    """Run one child; returns the seconds from spawn to its first timed
    op (raw, and normalised to the reference machine speed) and the
    lines it printed after that."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = None
        lines = []
        for line in child.stdout:
            if ready is None and line.startswith(READY):
                ready = time.perf_counter() - t0
                _tag, factor, spent = line.split()
                ready -= float(spent)
                normalised = ready * float(factor)
            elif ready is not None:
                lines.append(line.rstrip("\n"))
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or ready is None:
        _fail(f"{role} child exited with {code}")
    return ready, normalised, lines


def launcher(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    raw_setups, setups = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES - 1):
            raw, normalised, _lines = spawn(args, "probe")
            raw_setups.append(raw)
            setups.append(normalised)
    raw, normalised, lines = spawn(args, "worker")
    raw_setups.append(raw)
    setups.append(normalised)
    if not lines:
        _fail("worker printed no record")
    record = json.loads(lines[-1])
    if not args.trace:
        record["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"
        }
        record["bases"]["setup_s"] = {
            "samples": setups, "unnormalised_samples": raw_setups
        }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    shown = dict(record["metrics"])
    shown.update(record["extra_metrics"])
    for key, m in shown.items():
        print(f"{args.workload:10s} {key:40s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        split = record["bases"]["self_time_share"]
        system = [f"{k} {v:.0%}" for k, v in split.items() if ":" not in k]
        substrate = [
            f"{k.split(':')[1]} {v:.0%}" for k, v in split.items() if ":" in k
        ]
        print(f"{args.workload:10s} self time: " + ", ".join(system))
        print(f"{args.workload:10s} substrate: " + ", ".join(substrate))
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("dashboard", "poll", "stream")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role", choices=("launcher", "probe", "worker"), default="launcher"
    )
    args = parser.parse_args()
    if args.role == "launcher":
        return launcher(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
