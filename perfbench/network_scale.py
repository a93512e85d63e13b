"""``network-scale``: the §4.3 data-sharing graph at 1.8x the paper's users.

Set-up runs ``repro synth --users 2500 --shards 2 --workers 2 --weeks 4
--scale 1e-6`` (supervised shard workers plus the validating merge)
:data:`SETUPS` times and keeps the last archive.  The measured operation is
``analyze_archive(analyses="network,collaboration")``: ``graph`` and
``stats.powerlaw`` do nearly all of it and no snapshot is opened.

Check: the report's connected-component count and largest-component size
equal what ``networkx`` computes on the same user–project memberships.
"""

from __future__ import annotations

from pathlib import Path

from perfbench.common import Result, Stopwatch, measure_reports

USERS = 2500
SHARDS = 2
WORKERS = 2
WEEKS = 4
SCALE = 1e-6
ANALYSES = "network,collaboration"
#: set-ups per run; ``setup_s`` is their median
SETUPS = 2


def _synth(seed: int, out: Path) -> None:
    from repro.core.cli import synth_main

    code = synth_main([
        "--out", str(out), "--seed", str(seed), "--users", str(USERS),
        "--shards", str(SHARDS), "--workers", str(WORKERS),
        "--weeks", str(WEEKS), "--scale", str(SCALE),
    ])
    if code != 0:
        raise RuntimeError(f"repro synth exited {code}")


def _report(archive: Path, config):
    from repro.core.pipeline import analyze_archive

    return analyze_archive(archive, config=config, analyses=ANALYSES)[1]


def _networkx_components(seed: int) -> tuple[int, int]:
    """(component count, largest size) of the user–project graph."""
    import networkx as nx

    from repro.synth.population import generate_population

    population = generate_population(seed=seed, n_users=USERS)
    graph = nx.Graph()
    graph.add_nodes_from(("u", uid) for uid in population.users)
    graph.add_nodes_from(("p", gid) for gid in population.projects)
    graph.add_edges_from(
        (("u", uid), ("p", gid))
        for uid, user in population.users.items()
        for gid in user.projects
    )
    sizes = [len(c) for c in nx.connected_components(graph)]
    return len(sizes), max(sizes)


def run(seed: int, seconds: float, tracer, workdir: Path) -> tuple[Result, dict]:
    from repro.synth.driver import SimulationConfig

    result = Result("network-scale", seed)
    setups = []
    for i in range(SETUPS):
        archive = workdir / f"archive-{i}"
        with Stopwatch() as sw:
            _synth(seed, archive)
        setups.append(sw.seconds)
        # traced runs time the set-up layers once
        if tracer is not None:
            break
    result.add_timings("setup_s", setups)
    config = SimulationConfig(seed=seed, scale=SCALE, weeks=WEEKS, n_users=USERS)

    times, reports, rss, extra = measure_reports(
        lambda: _report(archive, config), seconds, tracer, result
    )
    result.add("peak_rss_mb", rss, "MB", 1)
    result.add_timings("report_s", times)

    expected = _networkx_components(seed)
    for report in reports:
        cc = report.table3.components
        got = (cc.count, cc.largest_size)
        result.check(got == expected, f"components {got} != networkx {expected}")
    return result, extra
