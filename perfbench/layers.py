"""Which public calls of each ``repro`` layer are traced, and the per-layer
metrics the traced run reports from them.

The layers are the packages under ``src/repro/``.  Every metric below is
emitted on every workload; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import dataclasses
import importlib

from perfbench.trace import Span, Tracer, self_times, wrap_function, wrap_method

#: analysis specs whose parent-side finalize is timed on its own
FINALIZE_SPECS = ("network", "collaboration", "burstiness", "ext_trend", "table1")

#: fused-pass kernels (``ExecutionStats.kernel_totals``) plus the serve
#: layer's per-request ``slice`` kernel
KERNELS = (
    "rows", "active_ids", "ext_hist", "access", "ages", "stripes", "growth",
    "burstiness", "slice",
)

_IMPORTS = (
    "repro.core.cli",
    "repro.core.manifest",
    "repro.core.pipeline",
    "repro.analysis.registry",
    "repro.graph.centrality",
    "repro.graph.components",
    "repro.graph.core",
    "repro.graph.traversal",
    "repro.query.engine",
    "repro.query.supervisor",
    "repro.scan.columnar",
    "repro.scan.delta",
    "repro.scan.lustredu",
    "repro.scan.merge",
    "repro.scan.paths",
    "repro.scan.psv",
    "repro.scan.store",
    "repro.serve.service",
    "repro.stats.powerlaw",
    "repro.synth.driver",
    "repro.synth.population",
    "repro.synth.sharding",
)


def _engine_stats(tracer: Tracer, result, args) -> None:
    stats = result[1]
    tracer.count("query.tasks", stats.n_tasks)
    tracer.count("query.retries", stats.retries)
    tracer.count("query.failures", stats.failures)
    tracer.count("query.delta_updates", stats.delta_updates)
    tracer.count("query.busy_s", stats.task_seconds)
    tracer.count("query.capacity_s", stats.wall_seconds * max(1, stats.processes))
    for name, secs in stats.kernel_totals().items():
        tracer.count(f"query.kernel.{name}.s", secs)


def _columnar_written(tracer: Tracer, result, args) -> None:
    tracer.count("scan.columnar.bytes", result["stored_bytes"])
    tracer.count("scan.columnar.rows", len(args[0]))


def _supervised(tracer: Tracer, result, args) -> None:
    tracer.count("query.supervisor.restarts", result.restarts)


def _warm_hook():
    """Count snapshot loads of every warm after a service's first one.

    The first warm is the server's start-up (set-up); every later warm is
    a follower swap, which should replay deltas without loading snapshots.
    """
    warmed: set[int] = set()

    def hook(tracer: Tracer, result, args) -> None:
        service = args[0]
        if id(service) in warmed:
            info = service.warm_info()
            tracer.count("serve.warm.snapshot_loads", info.get("snapshot_loads", 0))
        warmed.add(id(service))

    return hook


def install(tracer: Tracer) -> None:
    """Wrap the traced calls of every layer; once per process."""
    for name in _IMPORTS:
        importlib.import_module(name)
    fn = lambda target, name, **kw: wrap_function(tracer, target, name, **kw)  # noqa: E731
    meth = lambda target, name, **kw: wrap_method(tracer, target, name, **kw)  # noqa: E731

    # core
    fn("repro.core.pipeline:analyze_archive", "core.analyze_archive")
    fn("repro.core.manifest:write_manifest", "core.manifest.commit")
    # synth
    fn("repro.synth.driver:run_simulation", "synth.simulate")
    fn("repro.synth.population:generate_population", "synth.population")
    fn("repro.synth.sharding:simulate_shard", "synth.shard")
    # scan: write path
    fn("repro.scan.psv:write_psv", "scan.psv.write")
    fn("repro.scan.columnar:write_columnar", "scan.columnar.write",
       on_result=_columnar_written)
    fn("repro.scan.delta:write_delta", "scan.delta.write")
    meth("repro.scan.lustredu:LustreDuScanner.scan", "scan.lustredu.scan")
    fn("repro.scan.merge:merge_shard_parts", "scan.merge")
    # scan: read path (the store's cache counters are the CacheInfo ones)
    fn("repro.scan.columnar:open_columnar", "scan.open")
    meth("repro.scan.paths:PathTable.intern_many", "scan.intern")
    store = "repro.scan.store:DiskSnapshotCollection"
    meth(f"{store}.__getitem__", "scan.cache.lookups", counter_only=True)
    meth(f"{store}._on_block_decode", "scan.block.decoded", counter_only=True)
    meth(f"{store}._on_block_hit", "scan.block.reused", counter_only=True)
    # query
    meth("repro.query.engine:ExecutionEngine.run_kernels", "query.run_kernels",
         on_result=_engine_stats)
    meth("repro.query.supervisor:ShardSupervisor.run", "query.supervisor",
         on_result=_supervised)
    # analysis: finalizers are fields of frozen registry specs
    registry = importlib.import_module("repro.analysis.registry")
    for spec_name in FINALIZE_SPECS:
        spec = registry.SPECS[spec_name]
        registry.SPECS[spec_name] = dataclasses.replace(
            spec,
            finalize=tracer.wrap(spec.finalize, f"analysis.finalize.{spec_name}"),
        )
    # graph + stats
    fn("repro.graph.traversal:bfs_distances", "graph.bfs",
       count=lambda args, kwargs: {"graph.bfs.visits": args[0].n})
    fn("repro.graph.centrality:closeness_centrality", "graph.closeness")
    fn("repro.graph.traversal:exact_diameter", "graph.diameter")
    fn("repro.graph.components:connected_components", "graph.components")
    meth("repro.graph.core:Graph.from_edges", "graph.from_edges")
    fn("repro.stats.powerlaw:fit_power_law", "stats.powerlaw.fit")
    # serve
    meth("repro.serve.service:ArchiveService.slice", "serve.slice")
    meth("repro.serve.service:ArchiveService.warm", "serve.warm",
         on_result=_warm_hook())


#: (metric, unit) in report order; ``.s`` metrics are self times
PER_LAYER: list[tuple[str, str]] = [
    ("scan.open.calls", "count"),
    ("scan.open.s", "s"),
    ("scan.intern.s", "s"),
    ("scan.cache.hit_ratio", "ratio"),
    ("scan.block.decoded", "count"),
    ("scan.block.reused", "count"),
    ("scan.psv.write.s", "s"),
    ("scan.columnar.write.s", "s"),
    ("scan.columnar.bytes_per_row", "B/row"),
    ("scan.delta.write.s", "s"),
    ("scan.lustredu.scan.s", "s"),
    ("scan.merge.s", "s"),
    ("synth.shard.s", "s"),
    ("synth.simulate.s", "s"),
    ("synth.population.s", "s"),
    ("query.supervisor.restarts", "count"),
    ("query.run_kernels.s", "s"),
    ("query.tasks", "count"),
    ("query.utilization", "ratio"),
    *((f"query.kernel.{k}.s", "s") for k in KERNELS),
    ("query.retries", "count"),
    ("query.failures", "count"),
    ("query.delta_updates", "count"),
    ("serve.warm.snapshot_loads", "count"),
    ("serve.follow.swap_s", "s"),
    ("serve.follow.swaps", "count"),
    ("serve.follow.swap_failures", "count"),
    *((f"analysis.finalize.{s}.s", "s") for s in FINALIZE_SPECS),
    ("graph.bfs.calls", "count"),
    ("graph.bfs.s", "s"),
    ("graph.bfs.visits", "count"),
    ("graph.closeness.s", "s"),
    ("graph.diameter.s", "s"),
    ("graph.components.s", "s"),
    ("graph.from_edges.s", "s"),
    ("stats.powerlaw.fit.s", "s"),
    ("serve.slice.s", "s"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.hard_timeouts", "count"),
    ("core.analyze_archive.self_s", "s"),
    ("core.manifest.commit.s", "s"),
    ("loadgen.late_p95_ms", "ms"),
    ("trace.overhead_s", "s"),
]


def layer_values(docs: list[dict], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from dumped traces (bench + server) plus ``extra``
    values the workload measured itself (server counters, generator
    lateness, tracing overhead).

    Counters add across processes; ``.s`` metrics are span self times.
    Metrics a workload never touched are 0.
    """
    spans = [Span(**s) for doc in docs for s in doc["spans"]]
    counters: dict[str, float] = {}
    for doc in docs:
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    selfs = self_times(spans)
    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s") and name[:-2] in selfs:
            out[name] = selfs[name[:-2]]
        else:
            out[name] = counters.get(name, 0.0)
    # the store's cache counters, as CacheInfo defines them: every open is
    # one miss (``loads``), every other lookup a hit
    lookups = counters.get("scan.cache.lookups", 0.0)
    if lookups:
        out["scan.cache.hit_ratio"] = 1.0 - out["scan.open.calls"] / lookups
    rows = counters.get("scan.columnar.rows", 0.0)
    if rows:
        out["scan.columnar.bytes_per_row"] = counters["scan.columnar.bytes"] / rows
    capacity = counters.get("query.capacity_s", 0.0)
    if capacity:
        out["query.utilization"] = counters["query.busy_s"] / capacity
    out.update(extra)
    return out


def layer_shares(docs: list[dict]) -> str | None:
    """Self-time shares of the traced report — the spans under the last
    top-level ``core.analyze_archive`` — or None when there is none."""
    spans = [Span(**s) for doc in docs for s in doc["spans"]]
    roots = [s for s in spans if s.name == "core.analyze_archive" and s.parent is None]
    if not roots:
        return None
    root = max(roots, key=lambda s: s.start)
    selfs = self_times([s for s in spans if (s.pid, s.rid) == (root.pid, root.rid)])
    wall = root.end - root.start
    groups = {
        "graph+stats": ("graph.", "stats."),
        "scan read path": ("scan.open", "scan.intern"),
        "query+analysis": ("query.", "analysis."),
    }
    parts = [
        f"{label} {sum(v for n, v in selfs.items() if n.startswith(prefixes)) / wall:.0%}"
        for label, prefixes in groups.items()
    ]
    return f"self time per traced report ({wall:.3f} s): " + ", ".join(parts)
