"""``paper-report``: the paper's full 72-week window, reported cold.

Set-up simulates 72 weekly snapshots at the ``benchmarks/conftest.py``
shape (at a lower scale, see :data:`SCALE`) and archives them with
``ReproPipeline.archive`` — the whole write path: ``synth``, ``fs``,
``scan.lustredu``, ``scan.psv``, ``scan.columnar`` and the deltas.  The
measured operation is ``analyze_archive`` with every analysis on one
process: about half snapshot open/intern (``scan``), half BFS
(``graph``), and a tenth fused kernels (``query``/``analysis``).

Check: the archive report is byte-identical to the in-memory
``ReproPipeline.analyze()`` report of the same simulation, and for the
default seed its SHA-256 matches :data:`PINNED_DIGEST`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from perfbench.common import Result, Stopwatch, measure_reports, untraced

#: 1/10 of the conftest scale: the per-project file floors keep ~0.93M
#: rows over the window, and set-up fits the benchmark's time budget
SCALE = 1e-6
WEEKS = 72
#: conftest's burstiness threshold, scaled with the file counts
BURSTINESS_MIN_FILES = 8
DEFAULT_SEED = 2015
#: SHA-256 of the seed-2015 report text
PINNED_DIGEST = "eebef6073eb35d06a12cfc717e01160327e617e26d3383b7d4d193440c846a7d"


def _config(seed: int):
    from repro.synth.driver import SimulationConfig

    return SimulationConfig(seed=seed, scale=SCALE, weeks=WEEKS)


def _report(archive: Path, config):
    from repro.core.pipeline import analyze_archive

    _, report = analyze_archive(
        archive, config=config, burstiness_min_files=BURSTINESS_MIN_FILES
    )
    return report.text


def run(seed: int, seconds: float, tracer, workdir: Path) -> tuple[Result, dict]:
    from repro.core.pipeline import ReproPipeline

    result = Result("paper-report", seed)
    config = _config(seed)
    archive = workdir / "archive"
    with Stopwatch() as setup:
        pipeline = ReproPipeline(config, burstiness_min_files=BURSTINESS_MIN_FILES)
        pipeline.simulate()
        pipeline.archive(archive)
    result.add("setup_s", setup.seconds, "s", 1)

    with untraced(tracer):
        # the check's reference, outside every timed phase; the in-memory
        # simulation is dropped before the peak-RSS mark resets
        expected = pipeline.analyze().text
    del pipeline
    times, texts, rss, extra = measure_reports(
        lambda: _report(archive, config), seconds, tracer, result
    )
    result.add("peak_rss_mb", rss, "MB", 1)
    result.add_timings("report_s", times)

    pinned = PINNED_DIGEST if seed == DEFAULT_SEED else None
    for text in texts:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        result.check(
            text == expected and pinned in (None, digest),
            f"archive report equals in-memory: {text == expected}; "
            f"digest {digest}, pinned {pinned}",
        )
    return result, extra
