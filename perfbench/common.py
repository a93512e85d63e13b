"""Shared measurement helpers: percentiles, peak RSS, the result table."""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import time
from dataclasses import dataclass, field

#: percentiles are nearest-rank: the value at rank ceil(q/100 * n) of the
#: sorted samples, so every reported percentile is an observed sample
PERCENTILE_METHOD = "nearest-rank"


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples`` (non-empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def reset_peak_rss(pid: int | str = "self") -> bool:
    """Reset the kernel's peak-RSS mark (VmHWM) of ``pid``; False if the
    kernel refuses, in which case the peak includes earlier phases."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.start


@dataclass
class Result:
    """Everything one run reports; printed by :meth:`emit`."""

    workload: str
    seed: int
    #: name -> (value, unit, samples)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def add_timings(self, name: str, samples: list[float], unit: str = "s") -> None:
        """Median of ``samples`` under ``name``."""
        self.add(name, statistics.median(samples), unit, len(samples))

    def add_latency(self, prefix: str, samples_ms: list[float]) -> None:
        """``{prefix}_p50_ms`` and ``{prefix}_p95_ms`` (nearest rank)."""
        for q in (50, 95):
            self.add(f"{prefix}_p{q}_ms", percentile(samples_ms, q), "ms", len(samples_ms))

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED CHECK: {what}")

    def table(self) -> str:
        lines = [
            f"# {self.workload} seed={self.seed} "
            f"(percentiles: {PERCENTILE_METHOD})",
            f"# {'metric':<36} {'value':>14} {'unit':<8} samples",
        ]
        for name, (value, unit, n) in self.metrics.items():
            lines.append(f"# {name:<36} {value:>14.6g} {unit:<8} {n}")
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines)


@contextlib.contextmanager
def untraced(tracer):
    """Pause ``tracer`` (if any) for checks and baselines."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def measure_reports(
    report, seconds: float, tracer, result: Result
) -> tuple[list[float], list, float, dict]:
    """Time cold reports back to back: ``(wall times, outputs, peak RSS MiB,
    per-layer extras)``.

    Untraced, whole ``report()`` calls run while another one still fits in
    ``seconds`` (at least one).  Traced, one untraced baseline call runs
    first, then exactly one traced call — so per-layer totals are per report
    — and the difference is ``trace.overhead_s``.  The peak-RSS mark is
    reset just before the timed calls; a refused reset fails a check of
    ``result``, since the peak would then include set-up.
    """
    extra = {}
    if tracer is not None:
        with untraced(tracer), Stopwatch() as baseline:
            report()
    gc.collect()
    result.check(reset_peak_rss(), "peak-RSS mark not reset: peak_rss_mb includes set-up")
    times, outputs = [], []
    started = time.perf_counter()
    while not times or (
        tracer is None and time.perf_counter() - started + times[-1] <= seconds
    ):
        with Stopwatch() as sw:
            outputs.append(report())
        times.append(sw.seconds)
    rss = peak_rss_mb()
    if tracer is not None:
        extra["trace.overhead_s"] = times[0] - baseline.seconds
    return times, outputs, rss, extra
