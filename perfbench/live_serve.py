"""``live-serve``: reads beside writes on one live-following server.

Set-up simulates 16 weeks at the ``benchmarks/bench_serve.py`` shape,
publishes the first 8 and starts ``repro serve --follow`` in its own
process (through :mod:`perfbench.serve_launcher`) with a short poll
interval and ``--max-inflight 2``; set-up ends when the server has warmed
and listens.  It runs :data:`SETUPS` times (each server is stopped before
the next set-up) and the last server is measured.  The measured phase then
runs, in this one load process:

1. an **open loop** (:data:`OPEN_SHARE` of the run): requests at a fixed
   rate — cached figures and ``/v1/slice/{user,project,domain}`` with
   Zipf-popular keys — over at most ``nproc`` connections, each timed from
   its due time, while a writer thread publishes weeks 9–16 on a schedule
   with ``pipeline.archive(..., skip_existing=True)``;
2. a **closed-loop peak** (the rest): ``nproc`` clients sending slices
   only, no writer.

Checks: every weekly publish succeeds and the server reaches the final
generation through at least one follower swap; every 200 slice has one row
per snapshot of the window it was served from, with the entry counts of the
simulated snapshots; every figure parses; the final ``/v1/report`` equals a
batch ``analyze_archive`` of the final window.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.common import Result, Stopwatch, beyond, peak_rss_mb, percentile, untraced

HERE = Path(__file__).resolve().parent
SCALE = 1.5e-6
WEEKS = 16
INITIAL_WEEKS = 8
ANALYSES = "census,access,growth,ages"
POLL_INTERVAL_S = 0.1
MAX_INFLIGHT = 2
#: ``nproc``: connections of the open loop, clients of the peak phase
CLIENTS = len(os.sched_getaffinity(0))
#: share of the run given to the open loop; the closed-loop peak gets the rest
OPEN_SHARE = 0.8
#: ``slice_capacity_rps`` of the peak phase (16 snapshots, 2 clients) on the
#: code this benchmark was written against: median over seeds 1-7 on 2 vCPUs
#: (5.9 to 10.2 across them)
MEASURED_CAPACITY_RPS = 7.9
#: the open loop offers this share of it in slices per second.  Its window
#: holds 8 to 16 snapshots (the peak's 16 at most), so slices take at most
#: about a third of the server's slice throughput: light load, where the
#: peak phase measures saturation
SLICE_LOAD = 0.3
SLICE_RATE = SLICE_LOAD * MEASURED_CAPACITY_RPS
#: three cached figures per slice: the dashboard mix of benchmarks/bench_serve.py
FIGURE_RATE = 3 * SLICE_RATE
#: key popularity ~ 1/rank (classic Zipf).  Not fitted to a trace: the
#: server caches no slices, so popularity only picks which masks are built
ZIPF_EXPONENT = 1.0
CLIENT_TIMEOUT_S = 30.0
#: batch reports of the final window per run; ``report_s`` is their median
REPORT_REPEATS = 31
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
START_TIMEOUT_S = 120.0
#: manifest generation once weeks 9..16 are published (the first publish is 1)
FINAL_GENERATION = 1 + WEEKS - INITIAL_WEEKS


def _configs(seed: int):
    """(simulation config, the config ``repro serve`` builds from its flags)."""
    from repro.synth.driver import SimulationConfig

    sim = SimulationConfig(
        seed=seed, scale=SCALE, weeks=WEEKS, min_project_files=4, stress_depths=False
    )
    return sim, SimulationConfig(seed=seed, scale=SCALE, weeks=WEEKS)


# -- the server process ---------------------------------------------------------


class ServerProcess:
    """``repro serve --follow`` in a child process; :meth:`stop` drains it."""

    def __init__(self, archive: Path, seed: int, workdir: Path, trace_out: Path | None):
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += [
            "--", str(archive), "--port", "0", "--follow",
            "--poll-interval", str(POLL_INTERVAL_S),
            "--max-inflight", str(MAX_INFLIGHT), "--tenant-limit", "0",
            "--analyses", ANALYSES, "--seed", str(seed),
            "--scale", str(SCALE), "--weeks", str(WEEKS),
        ]
        self.stderr_path = workdir / "server.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, cwd=workdir
        )
        lines: queue.Queue = queue.Queue()

        def forward_stdout() -> None:
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(b"")  # end of output: the server exited

        self._reader = threading.Thread(target=forward_stdout, daemon=True)
        self._reader.start()
        self.port = None
        #: whether the launcher reset the server's peak-RSS mark after warm
        self.peak_reset = False
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = b""
            if not line:
                self.stop()
                tail = self.stderr_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server did not start:\n{tail}")
            if line.startswith(b"PEAK_RESET="):
                self.peak_reset = line.strip() == b"PEAK_RESET=1"
            if b"PORT=" in line:
                self.port = int(line.rsplit(b"PORT=", 1)[1].strip(b")\n "))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()


# -- HTTP load ------------------------------------------------------------------


@dataclass
class Record:
    kind: str  # "figure" or "slice"
    path: str
    due: float
    done: float
    status: int  # -1: socket error or client timeout
    etag: str | None
    body: bytes

    @property
    def latency_ms(self) -> float:
        """From due time; a failed request misses every latency limit."""
        if self.status != 200:
            return CLIENT_TIMEOUT_S * 1e3
        return (self.done - self.due) * 1e3


class Connection:
    """One keep-alive HTTP/1.1 connection over asyncio streams."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def _exchange(self, path: str) -> tuple[int, dict, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        headers = {}
        while (line := await self.reader.readline()) not in (b"\r\n", b""):
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        body = await self.reader.readexactly(int(headers.get("content-length", 0)))
        if headers.get("connection") == "close":
            await self.close()
        return status, headers, body

    async def get(self, kind: str, path: str, due: float) -> Record:
        try:
            status, headers, body = await asyncio.wait_for(
                self._exchange(path), CLIENT_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError, IndexError):
            await self.close()
            status, headers, body = -1, {}, b""
        return Record(kind, path, due, time.perf_counter(), status, headers.get("etag"), body)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


async def open_loop(port: int, schedule: list[tuple[float, str, str]], lateness: list[float]) -> list[Record]:
    """Send ``(offset_s, kind, path)`` at their due times over ``CLIENTS``
    connections; requests due while every connection is busy wait."""
    records: list[Record] = []
    pending: asyncio.Queue = asyncio.Queue()

    async def worker() -> None:
        conn = Connection(port)
        try:
            while (item := await pending.get()) is not None:
                records.append(await conn.get(*item))
        finally:
            await conn.close()

    workers = [asyncio.create_task(worker()) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for offset, kind, path in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - due)
        pending.put_nowait((kind, path, due))
    for _ in workers:
        pending.put_nowait(None)
    await asyncio.gather(*workers)
    return records


async def closed_loop(port: int, paths: list[list[str]], seconds: float) -> tuple[list[Record], float]:
    """``CLIENTS`` clients, each sending its next slice when the last one
    returns, for ``seconds``; returns the records and the elapsed time."""
    records: list[Record] = []
    start = time.perf_counter()
    end = start + seconds

    async def client(mine: list[str]) -> None:
        conn = Connection(port)
        try:
            for path in mine:
                if time.perf_counter() >= end:
                    break
                records.append(await conn.get("slice", path, time.perf_counter()))
        finally:
            await conn.close()

    await asyncio.gather(*(client(mine) for mine in paths))
    return records, max([r.done for r in records], default=end) - start


# -- inputs from the seed ---------------------------------------------------------


class Keys:
    """Zipf-popular slice keys and figure names, drawn from one seeded RNG."""

    def __init__(self, rng: np.random.Generator, population, figures: list[str]):
        self.rng = rng
        self.dims = {
            "user": [str(u) for u in sorted(population.users)],
            "project": [str(g) for g in sorted(population.projects)],
            "domain": sorted({p.domain for p in population.projects.values()}),
        }
        for keys in self.dims.values():
            rng.shuffle(keys)  # which keys are popular depends on the seed
        self.figures = list(figures)
        rng.shuffle(self.figures)
        self._weights: dict[int, np.ndarray] = {}

    def _zipf(self, items: list[str]) -> str:
        n = len(items)
        if n not in self._weights:
            weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
            self._weights[n] = np.cumsum(weights / weights.sum())
        rank = int(np.searchsorted(self._weights[n], self.rng.random(), side="right"))
        return items[min(rank, n - 1)]

    def slice_path(self) -> str:
        dim = ("user", "project", "domain")[self.rng.integers(3)]
        return f"/v1/slice/{dim}/{self._zipf(self.dims[dim])}"

    def figure_path(self) -> str:
        return f"/v1/figures/{self._zipf(self.figures)}"


# -- checks -----------------------------------------------------------------------


class SliceOracle:
    """Expected per-snapshot entry counts, from the in-memory simulation."""

    def __init__(self, snapshots: list, population) -> None:
        self.snapshots = snapshots
        self.labels = [s.label for s in snapshots]
        self.domain_gids: dict[str, np.ndarray] = {}
        for gid, project in population.projects.items():
            self.domain_gids.setdefault(project.domain, []).append(gid)
        self._cache: dict[str, list[int]] = {}

    def entries(self, dim: str, key: str) -> list[int]:
        cache_key = f"{dim}/{key}"
        if cache_key not in self._cache:
            counts = []
            for snap in self.snapshots:
                if dim == "user":
                    mask = snap.uid == int(key)
                elif dim == "project":
                    mask = snap.gid == int(key)
                else:
                    mask = np.isin(snap.gid, self.domain_gids[key])
                counts.append(int(np.count_nonzero(mask)))
            self._cache[cache_key] = counts
        return self._cache[cache_key]

    def slice_ok(self, record: Record, published: int) -> bool:
        """One row per snapshot of a window the server could have served."""
        if record.status != 200:
            return False
        payload = json.loads(record.body)
        rows = payload["rows"]
        n = len(rows)
        if "degraded" in payload or not INITIAL_WEEKS <= n <= published:
            return False
        if [r["label"] for r in rows] != self.labels[:n]:
            return False
        expected = self.entries(payload["dimension"], payload["key"])
        return [r["entries"] for r in rows] == expected[:n]


def figure_ok(record: Record) -> bool:
    if record.status != 200:
        return False
    return json.loads(record.body)["figure"] == record.path.rsplit("/", 1)[1]


# -- the workload -----------------------------------------------------------------


def run(seed: int, seconds: float, tracer, workdir: Path) -> tuple[Result, dict]:
    from repro.core.pipeline import ReproPipeline, analyze_archive

    result = Result("live-serve", seed)
    sim_config, serve_config = _configs(seed)
    trace_out = workdir / "trace-server.json" if tracer is not None else None
    setups, server = [], None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()  # untimed; only the last set-up is measured
            archive = workdir / f"archive-{i}"
            with Stopwatch() as sw:
                pipeline = ReproPipeline(sim_config)
                pipeline.simulate()
                pipeline.archive(archive, max_snapshots=INITIAL_WEEKS)
                server = ServerProcess(archive, seed, workdir, trace_out)
            setups.append(sw.seconds)
            # traced runs time the set-up layers once
            if tracer is not None:
                break
        result.add_timings("setup_s", setups)

        status, body = server.get("/v1/figures")
        figures = json.loads(body)["figures"]
        keys = Keys(np.random.default_rng(seed), pipeline.simulation.population, figures)
        open_s = seconds * OPEN_SHARE
        schedule = sorted(
            _stream(keys.rng, SLICE_RATE, open_s, "slice", keys.slice_path)
            + _stream(keys.rng, FIGURE_RATE, open_s, "figure", keys.figure_path)
        )
        peak_paths = [
            [keys.slice_path() for _ in range(int(seconds * 200))] for _ in range(CLIENTS)
        ]

        # writer: weeks 9..16 spread evenly over the open loop; a publish
        # that raises is recorded and fails its check below
        publishes: dict[int, tuple[float, float]] = {}  # week -> (start, commit)
        publish_errors: dict[int, str] = {}

        def writer(start: float) -> None:
            weeks = WEEKS - INITIAL_WEEKS
            for i in range(weeks):
                week = INITIAL_WEEKS + i + 1
                delay = start + open_s * (i + 0.5) / weeks - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                began = time.perf_counter()
                try:
                    pipeline.archive(archive, max_snapshots=week, skip_existing=True)
                except Exception as exc:
                    publish_errors[week] = repr(exc)
                    continue
                publishes[week] = (began, time.perf_counter())

        lateness: list[float] = []
        writer_thread = threading.Thread(
            target=writer, args=(time.perf_counter(),), name="publisher"
        )
        writer_thread.start()
        try:
            open_records = asyncio.run(open_loop(server.port, schedule, lateness))
        finally:
            writer_thread.join()
        reached_final = _await_generation(server, FINAL_GENERATION)
        peak_records, peak_s = asyncio.run(closed_loop(server.port, peak_paths, seconds - open_s))

        status, body = server.get("/v1/stats")
        stats = json.loads(body)
        served_report = server.get("/v1/report")
        rss = peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()

    times, report_text = [], None
    with untraced(tracer):
        for _ in range(REPORT_REPEATS):
            with Stopwatch() as sw:
                _, report = analyze_archive(archive, config=serve_config, analyses=ANALYSES)
            times.append(sw.seconds)
            report_text = report.text
    result.add_timings("report_s", times)
    result.add("peak_rss_mb", rss, "MB", 1)

    # -- metrics
    slices = [r for r in open_records if r.kind == "slice"]
    figure_records = [r for r in open_records if r.kind == "figure"]
    result.add_latency("slice", [r.latency_ms for r in slices])
    result.add_latency("figure", [r.latency_ms for r in figure_records])
    good_peak = [r for r in peak_records if r.status == 200]
    result.add("slice_capacity_rps", len(good_peak) / peak_s, "1/s", len(good_peak))
    if publishes:
        result.add_timings("publish_s", [end - began for began, end in publishes.values()])
    staleness = _staleness(open_records, list(publishes.values()))
    if staleness:
        result.add_timings("staleness_s", staleness)
    late_ms = [x * 1e3 for x in lateness]
    result.add("loadgen_late_p95_ms", percentile(late_ms, 95), "ms", len(late_ms))
    result.notes.append(
        f"open loop: {SLICE_RATE:g} slices/s + {FIGURE_RATE:g} figures/s offered "
        f"over {CLIENTS} connections; "
        f"slice p95 has {beyond(len(slices), 95)} samples beyond it; "
        f"follower swaps {stats['follower']['swaps']}"
    )

    # -- checks
    for week in range(INITIAL_WEEKS + 1, WEEKS + 1):
        result.check(
            week in publishes,
            f"publish of week {week}: {publish_errors.get(week, 'never ran')}",
        )
    result.check(
        reached_final and stats["archive"]["generation"] == FINAL_GENERATION,
        f"server at generation {stats['archive']['generation']}, "
        f"expected {FINAL_GENERATION} before the peak phase",
    )
    result.check(stats["follower"]["swaps"] >= 1, "the follower never swapped")
    result.check(server.peak_reset, "server peak-RSS mark not reset: peak_rss_mb includes its warm")
    oracle = SliceOracle(list(pipeline.simulation.collection), pipeline.simulation.population)
    starts = sorted(began for began, _ in publishes.values())
    for record in slices + peak_records:
        published = INITIAL_WEEKS + sum(1 for s in starts if s < record.done)
        result.check(oracle.slice_ok(record, published), f"slice {record.path} -> {record.status}")
    for record in figure_records:
        result.check(figure_ok(record), f"figure {record.path} -> {record.status}")
    result.check(
        served_report == (200, report_text.encode("utf-8")),
        "served /v1/report != batch analyze_archive of the final window",
    )
    result.add("failed_share", result.failed / result.attempted, "ratio", result.attempted)

    server_stats = stats["server"]
    extra = {
        "serve.follow.swaps": stats["follower"]["swaps"],
        "serve.follow.swap_failures": stats["follower"]["swap_failures"],
        "serve.shed": sum(server_stats[k] for k in ("shed_queue", "shed_memory", "shed_tenant")),
        "serve.degraded": server_stats["degraded"],
        "serve.hard_timeouts": server_stats["hard_timeouts"],
        "loadgen.late_p95_ms": percentile(late_ms, 95),
    }
    if tracer is not None:
        doc = json.loads(trace_out.read_text())
        warms = sorted(
            (s for s in doc["spans"] if s["name"] == "serve.warm"), key=lambda s: s["start"]
        )
        swaps = [s["end"] - s["start"] for s in warms[1:]]
        served = [s["end"] - s["start"] for s in doc["spans"] if s["name"] == "serve.slice"]
        # per-swap and per-request medians, inclusive of child spans, so
        # client latency minus serve.slice.s is queueing plus HTTP
        extra["serve.follow.swap_s"] = statistics.median(swaps) if swaps else 0.0
        extra["serve.slice.s"] = statistics.median(served) if served else 0.0
        traced = []
        with tracer.discarding():
            for _ in range(REPORT_REPEATS):
                with Stopwatch() as sw:
                    analyze_archive(archive, config=serve_config, analyses=ANALYSES)
                traced.append(sw.seconds)
        extra["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)
        extra["docs"] = [doc]
    return result, extra


def _stream(rng, rate: float, seconds: float, kind: str, draw) -> list[tuple[float, str, str]]:
    """One request stream at ``rate``/s: evenly spaced due times, each
    jittered by up to a quarter interval, so at the offered load (a third of
    the measured capacity or less) the stream's requests rarely queue
    behind each other."""
    interval = 1.0 / rate
    return [
        (i * interval + rng.uniform(0, interval / 4), kind, draw())
        for i in range(int(seconds * rate))
    ]


def _await_generation(server: ServerProcess, generation: int, timeout: float = 30.0) -> bool:
    """Wait (untimed) until the follower serves ``generation``; False on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = server.get("/v1/stats")
        if status == 200 and json.loads(body)["archive"]["generation"] >= generation:
            return True
        time.sleep(0.05)
    return False


def _staleness(records: list[Record], publishes: list[tuple[float, float]]) -> list[float]:
    """Per publish: manifest commit → first response carrying a new ETag."""
    tagged = sorted((r.done, r.etag) for r in records if r.status == 200 and r.etag)
    out = []
    for _, commit in publishes:
        seen = {etag for done, etag in tagged if done <= commit}
        fresh = [done for done, etag in tagged if done > commit and etag not in seen]
        if fresh:
            out.append(fresh[0] - commit)
    return out
