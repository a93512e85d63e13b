"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs span wrappers around each layer's public calls
(:mod:`perfbench.layers`) and reports per-layer counts and self times
instead.  A table of every metric, with its unit and sample count, goes to
standard output; the last line is the machine-readable JSON result.  The
workloads, the predictions of which layer moves which metric, and what is
deliberately not measured are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: scratch space inside the checkout, removed when the run ends
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = {
    "paper-report": "perfbench.paper_report",
    "network-scale": "perfbench.network_scale",
    "live-serve": "perfbench.live_serve",
}

#: the metrics every workload reports with ``--trace 0``
END_TO_END = ("setup_s", "report_s", "peak_rss_mb")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.layers import PER_LAYER, install, layer_shares, layer_values
    from perfbench.trace import Tracer

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            spill = workdir / "spill"
            spill.mkdir()
            tracer = Tracer(spill_dir=spill)
            install(tracer)
        workload = importlib.import_module(WORKLOADS[args.workload])
        result, extra = workload.run(args.seed, args.seconds, tracer, workdir)
        print(result.table())
        if tracer is None:
            metrics = {
                name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                for name in END_TO_END
            }
        else:
            docs = [tracer.document(), *extra.pop("docs", [])]
            values = layer_values(docs, extra)
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
            }
            print("# per-layer (traced run; .s = self time)")
            for name, unit in PER_LAYER:
                print(f"# {name:<36} {values[name]:>14.6g} {unit}")
            shares = layer_shares(docs)
            if shares is not None:
                print(f"# {shares}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
