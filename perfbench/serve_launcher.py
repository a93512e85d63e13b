"""Start ``repro serve`` in this process, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- ARCHIVE [repro serve options]

Runs the ``repro serve`` verb unchanged.  Once the start-up warm is done
the peak-RSS mark is reset, so the peak read at the end covers serving
only; a ``PEAK_RESET=1`` line (``0`` if the kernel refused) on standard
output, before the ``PORT=`` line, says whether it was.  With ``--trace-out`` the layer wrappers of :mod:`perfbench.layers`
are installed first and every span is written to FILE after the server
has drained (SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import reset_peak_rss
    from perfbench.layers import install
    from perfbench.trace import Tracer
    from repro.core.cli import serve_main
    from repro.serve.service import ArchiveService

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    warm = ArchiveService.warm
    started = []

    def warm_then_reset_peak(self) -> None:
        warm(self)
        if not started:
            started.append(True)
            print(f"PEAK_RESET={int(reset_peak_rss())}", flush=True)

    ArchiveService.warm = warm_then_reset_peak
    code = serve_main(argv[split + 1:])
    if tracer is not None:
        tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
