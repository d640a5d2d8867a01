"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``emst``      compute an EMST of a ``.npy`` point file or named dataset
``hdbscan``   cluster points with HDBSCAN*
``bench``     regenerate a paper figure (fig1/fig5/fig6/fig7/fig8/fig9/
              ablation) or ``all``
``datasets``  list the available dataset generators
``serve``     run the job-serving JSON-over-HTTP engine (repro.service)
``submit``    submit one job to a running server and await the result
``route``     front N running nodes with a cluster router (repro.cluster)
``rebalance`` copy stranded store artifacts to their home nodes after a
              fleet membership change (resumable)
``cluster-demo``  boot a whole K-node fleet + router locally and drive it
``top``       live metrics dashboard for a node or router (/v1/metrics)
``slo``       SLO compliance table for a node or fleet
``trace``     print the span tree of one finished job
``profile``   capture a sampling CPU profile of a node or fleet
              (/v1/profile; writes collapsed stacks for flamegraphs)

Point inputs are either a path to an ``(n, d)`` ``.npy`` file or a spec
``dataset:NAME:N[:SEED]`` using the generators of :mod:`repro.data`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.boruvka_emst import SingleTreeConfig
from repro.core.emst import emst, mutual_reachability_emst
from repro.data import DATASETS, dataset_dimension, generate_from_spec
from repro.errors import (
    InvalidInputError,
    NodeHTTPError,
    NodeOverloadedError,
    NodeUnavailableError,
)
from repro.metrics import mfeatures_per_second


def load_points(spec: str) -> np.ndarray:
    """Resolve a CLI point-source spec to an array.

    Raises :class:`InvalidInputError` (exit code 2 from :func:`main`) for a
    malformed spec, a missing or unreadable ``.npy`` file, or an array that
    is not a numeric ``(n, d)`` matrix — never a raw traceback.
    """
    if spec.startswith("dataset:"):
        return generate_from_spec(spec)
    try:
        points = np.load(spec)
    except FileNotFoundError:
        raise InvalidInputError(f"{spec}: no such file")
    except (OSError, ValueError, EOFError) as exc:
        raise InvalidInputError(f"{spec}: not a readable .npy file ({exc})")
    # Kinds b/i/u/f only: complex would silently drop imaginary parts.
    if not isinstance(points, np.ndarray) or points.dtype.kind not in "biuf":
        kind = getattr(points, "dtype", type(points).__name__)
        raise InvalidInputError(
            f"{spec}: expected a real numeric array, got dtype {kind}")
    if points.ndim != 2:
        raise InvalidInputError(
            f"{spec}: expected an (n, d) array, got shape {points.shape}")
    return points


def _config_from_args(args: argparse.Namespace) -> SingleTreeConfig:
    return SingleTreeConfig(
        subtree_skipping=not args.no_subtree_skipping,
        component_bounds=not args.no_component_bounds,
        high_resolution=args.high_resolution,
        tree_type=args.tree,
    )


def cmd_emst(args: argparse.Namespace) -> int:
    points = load_points(args.points)
    config = _config_from_args(args)
    if args.mrd > 1:
        result = mutual_reachability_emst(points, args.mrd, config=config)
        metric = f"mutual reachability (k_pts={args.mrd})"
    else:
        result = emst(points, config=config)
        metric = "Euclidean"
    rate = mfeatures_per_second(result.n_points, result.dimension,
                                max(result.wall_seconds, 1e-12))
    print(f"{metric} MST of {result.n_points} {result.dimension}D points")
    print(f"  total weight   : {result.total_weight:.6g}")
    print(f"  Boruvka rounds : {result.n_iterations}")
    print(f"  wall time      : {result.wall_seconds:.3f}s "
          f"({rate:.2f} MFeatures/s)")
    for name, seconds in result.phases.items():
        print(f"  T_{name:5s}        : {seconds:.3f}s")
    if args.out:
        out = np.concatenate([result.edges.astype(np.float64),
                              result.weights[:, None]], axis=1)
        np.save(args.out, out)
        print(f"  edges written  : {args.out} (u, v, weight rows)")
    return 0


def cmd_hdbscan(args: argparse.Namespace) -> int:
    from repro.hdbscan import hdbscan

    points = load_points(args.points)
    result = hdbscan(points, min_cluster_size=args.min_cluster_size,
                     k_pts=args.k_pts)
    print(f"HDBSCAN* on {points.shape[0]} points: "
          f"{result.n_clusters} clusters, "
          f"{result.noise_fraction:.1%} noise")
    if result.n_clusters:
        sizes = np.bincount(result.labels[result.labels >= 0])
        print("  cluster sizes:", ", ".join(map(str, sorted(sizes)[::-1])))
    if args.out:
        np.save(args.out, result.labels)
        print(f"  labels written: {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import figures

    drivers = {
        "fig1": figures.fig1, "fig5": figures.fig5, "fig6": figures.fig6,
        "fig7": figures.fig7, "fig8": figures.fig8, "fig9": figures.fig9,
        "ablation": figures.ablation,
    }
    names = list(drivers) if args.figure == "all" else [args.figure]
    for name in names:
        _, table = drivers[name].run(quick=args.quick)
        print(table)
        print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import Engine
    from repro.service.server import create_server, run_server

    try:
        engine = Engine(max_workers=args.workers,
                        tree_cache_bytes=args.cache_mb << 20,
                        result_cache_bytes=args.result_cache_mb << 20,
                        store_dir=args.store_dir,
                        store_bytes=args.store_mb << 20,
                        trace_archive_bytes=args.trace_archive_mb << 20,
                        trace_slow_threshold=args.trace_slow_ms / 1000.0,
                        trace_sample=args.trace_sample,
                        peers=args.peer)
    except (ValueError, OSError) as exc:
        # An unusable --store-dir (permissions, a file in the way) is a
        # user-input error like any other bad flag value.
        raise InvalidInputError(str(exc))
    # Only the bind is a user-input error; runtime OSErrors (e.g. a closed
    # stdout pipe) must not be misreported as bind failures.
    try:
        server = create_server(engine, args.host, args.port,
                               verbose=args.verbose, node_name=args.name,
                               access_log_sample=args.access_log_sample,
                               max_inflight=args.max_inflight,
                               max_queue_depth=args.queue_depth)
    except OSError as exc:
        engine.close()
        raise InvalidInputError(
            f"cannot bind http://{args.host}:{args.port}: {exc}")
    run_server(server, engine)
    return 0


def _print_job_result(result_dict: dict) -> None:
    payload = result_dict.get("payload") or {}
    timings = result_dict.get("timings", {})
    cache = result_dict.get("cache", {})
    print(f"job {result_dict['job_id']}: {result_dict['status']} "
          f"({result_dict['algorithm']})")
    if result_dict["status"] == "failed":
        print(f"  error          : {result_dict.get('error')}")
        return
    if result_dict["algorithm"] in ("emst", "mrd_emst"):
        print(f"  points         : {payload['n_points']} "
              f"({payload['dimension']}D)")
        print(f"  total weight   : {payload['total_weight']:.6g}")
        print(f"  Boruvka rounds : {payload['n_iterations']}")
    else:
        print(f"  points         : {payload['emst']['n_points']} "
              f"({payload['emst']['dimension']}D)")
        print(f"  clusters       : {payload['n_clusters']} "
              f"({payload['noise_fraction']:.1%} noise)")
    print(f"  queue / run    : {timings.get('queue', 0.0):.3f}s / "
          f"{timings.get('run', 0.0):.3f}s "
          f"({result_dict.get('mfeatures_per_sec', 0.0):.2f} MFeatures/s)")
    line = (f"  cache          : result_hit={cache.get('result_hit')} "
            f"tree_hit={cache.get('tree_hit')} "
            f"core_hit={cache.get('core_hit')}")
    disk = [name for name in ("result", "tree", "core")
            if cache.get(f"{name}_disk_hit")]
    if disk:
        line += f" (from disk: {', '.join(disk)})"
    print(line)


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.client import Client

    if args.points.startswith("dataset:"):
        body: dict = {"dataset": args.points}
    else:
        body = {"points": load_points(args.points).tolist()}
    body.update(algorithm=args.algorithm, k_pts=args.k_pts,
                min_cluster_size=args.min_cluster_size,
                priority=args.priority)
    client = Client(args.url, timeout=90.0)
    try:
        result = client.submit_and_wait(body, timeout=args.timeout)
    except NodeHTTPError as exc:
        print(f"error: server rejected the request ({exc.code}): {exc}",
              file=sys.stderr)
        return 1
    except NodeOverloadedError as exc:
        retry = f" (retry after {exc.retry_after:g}s)" \
            if exc.retry_after else ""
        print(f"error: server is shedding load (429): {exc}{retry}",
              file=sys.stderr)
        return 1
    except NodeUnavailableError as exc:
        print(f"error: cannot reach {client.url}: {exc}\n"
              f"       is `python -m repro serve` running?", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_job_result(result)
    return 0 if result["status"] == "done" else 1


def _parse_node(arg: str):
    """``[NAME=]URL`` → a cluster :class:`~repro.cluster.topology.Node`.

    "NAME=URL" names the node explicitly; a bare URL is named by its
    host:port (matching the node's own default identity).
    """
    from repro.cluster import Node

    if "=" in arg and not arg.startswith(("http://", "https://")):
        name, _, url = arg.partition("=")
        return Node(url, name=name)
    return Node(arg)


def cmd_route(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterRouter, create_router_server
    from repro.cluster.server import run_router_server

    try:
        nodes = [_parse_node(arg) for arg in args.node]
        router = ClusterRouter(nodes, timeout=args.node_timeout,
                               retries=args.retries,
                               replicas=args.replicas)
    except InvalidInputError:
        raise
    except ValueError as exc:
        raise InvalidInputError(str(exc))
    health = router.healthz()
    print(f"fleet: {health['nodes_up']}/{health['nodes_total']} node(s) "
          f"reachable ({health['status']})")
    for entry in health["nodes"]:
        state = "up" if entry.get("reachable") else \
            f"DOWN ({entry.get('last_error')})"
        print(f"  {entry['name']:24s} {entry['base_url']:32s} {state}")
    try:
        server = create_router_server(router, args.host, args.port,
                                      verbose=args.verbose,
                                      access_log_sample=args.access_log_sample,
                                      max_inflight=args.max_inflight)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot bind http://{args.host}:{args.port}: {exc}")
    run_router_server(server, router)
    return 0


def cmd_rebalance(args: argparse.Namespace) -> int:
    from repro.cluster import run_rebalance

    try:
        nodes = [_parse_node(arg) for arg in args.node]
    except ValueError as exc:
        raise InvalidInputError(str(exc))
    summary = run_rebalance(nodes, replicas=args.replicas,
                            journal_path=args.journal,
                            timeout=args.node_timeout,
                            log=print if args.verbose else lambda line: None)
    print(f"rebalance over {len(nodes)} node(s) at replicas="
          f"{args.replicas}: {summary['planned']} copies planned, "
          f"{summary['copied']} copied, {summary['skipped']} already "
          f"journaled, {summary['failed']} failed")
    if summary["unreachable"]:
        print("  unreachable: " + ", ".join(summary["unreachable"]))
    if args.journal:
        print(f"  journal: {args.journal} (rerun resumes)")
    return 0 if not summary["failed"] and not summary["unreachable"] else 1


def cmd_cluster_demo(args: argparse.Namespace) -> int:
    """Boot K nodes + a router locally and drive traffic through them.

    Each node persists its shard of the fleet's artifacts under its own
    subdirectory of ``--store-dir`` (nodes never share one journal —
    placement, not the filesystem, is what makes a point set's artifacts
    land together).  The same job set is driven through the router twice:
    the second pass must be answered entirely from the warm tiers of the
    nodes placement pinned each point set to.
    """
    import shutil
    import tempfile
    import threading
    import time

    from repro.client import Client
    from repro.cluster import ClusterRouter, Node, create_router_server
    from repro.service import Engine
    from repro.service.server import create_server

    if args.nodes < 1:
        raise InvalidInputError(f"--nodes must be >= 1, got {args.nodes}")
    store_root = args.store_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    cleanup_store = args.store_dir is None
    engines, servers = [], []
    router = None
    try:
        for i in range(args.nodes):
            engine = Engine(max_workers=1,
                            store_dir=f"{store_root}/node-{i}")
            server = create_server(engine, node_name=f"node-{i}")
            threading.Thread(target=server.serve_forever,
                             name=f"repro-http-node-{i}",
                             daemon=True).start()
            engines.append(engine)
            servers.append(server)
        nodes = [Node(f"http://127.0.0.1:{srv.server_address[1]}",
                      name=f"node-{i}")
                 for i, srv in enumerate(servers)]
        router = ClusterRouter(nodes)
        router_server = create_router_server(router)
        threading.Thread(target=router_server.serve_forever,
                         name="repro-http-router", daemon=True).start()
        servers.append(router_server)
        client = Client(
            f"http://127.0.0.1:{router_server.server_address[1]}")
        print(f"{args.nodes} node(s) + router up at {client.url} "
              f"(stores under {store_root})")

        specs = []
        for j in range(args.jobs):
            dataset = f"Uniform100M2:{args.points + 100 * j}"
            algorithm = ("emst", "mrd_emst", "hdbscan")[j % 3]
            specs.append({"dataset": dataset, "algorithm": algorithm,
                          "k_pts": 4})
        for label in ("cold", "warm"):
            started = time.perf_counter()
            accepted = [client.submit(spec) for spec in specs]
            results = [client.wait(a["job_id"], timeout=60.0)
                       for a in accepted]
            wall = time.perf_counter() - started
            done = sum(r["status"] == "done" for r in results)
            hits = sum(r.get("cache", {}).get("result_hit", False)
                       for r in results)
            print(f"{label:4s}: {done}/{len(specs)} done in {wall:.2f}s, "
                  f"{hits} result-cache hit(s)")
            for spec, result in zip(specs, results):
                print(f"    {spec['dataset']:24s} {spec['algorithm']:8s} "
                      f"-> {result.get('node')} "
                      f"(result_hit={result['cache']['result_hit']})")
        stats = client.stats()
        fleet = stats["fleet"]
        print(f"fleet: {fleet['jobs']['done']} jobs done, result tier "
              f"hit rate {fleet['result_cache']['hit_rate']:.0%}, "
              f"{fleet['mfeatures_per_sec']:.2f} MFeatures/s pooled")
        print("routed by node:",
              stats["router"]["routed_by_node"])
        return 0
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        if router is not None:
            router.close()
        for engine in engines:
            engine.close()
        if cleanup_store:
            shutil.rmtree(store_root, ignore_errors=True)


def _window_seconds(label: str) -> float:
    """``"5m" -> 300.0`` — sorts window labels chronologically."""
    try:
        unit = label[-1]
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0}.get(unit)
        if scale is None:
            return float(label)
        return float(label[:-1]) * scale
    except (ValueError, IndexError):
        return float("inf")


def _slo_rows(doc: dict) -> list:
    """``(slo, target, {window: burn}, budget)`` rows from one registry
    document (empty when the server exports no SLO gauges).

    Reads every field defensively: a node running ``REPRO_OBS=off`` or an
    older server exports a sparser document, and that must degrade to an
    empty table, never a raw ``KeyError``.
    """
    targets: dict = {}
    burns: dict = {}
    budgets: dict = {}
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    for metric in metrics or []:
        name = metric.get("name")
        samples = metric.get("samples") or []
        if name == "repro_slo_target":
            for sample in samples:
                targets[(sample.get("labels") or {}).get("slo", "?")] = \
                    sample.get("value", 0.0)
        elif name == "repro_slo_burn_rate":
            for sample in samples:
                labels = sample.get("labels") or {}
                burns.setdefault(labels.get("slo", "?"), {})[
                    labels.get("window", "?")] = sample.get("value", 0.0)
        elif name == "repro_slo_budget_remaining":
            for sample in samples:
                budgets[(sample.get("labels") or {}).get("slo", "?")] = \
                    sample.get("value", 1.0)
    return [(slo, targets[slo], burns.get(slo, {}), budgets.get(slo, 1.0))
            for slo in sorted(targets)]


#: Resource-telemetry gauges rendered as ``repro top``'s resources block.
_RESOURCE_SERIES = {"repro_process_rss_bytes": "rss",
                    "repro_process_cpu_seconds": "cpu"}


def _render_metrics_doc(title: str, doc: dict) -> None:
    """Print one registry document as a counters + latency-table block.

    Tolerates sparse documents (``REPRO_OBS=off`` nodes export skeleton
    families; older servers may omit series entirely) — missing fields
    skip their block instead of raising.
    """
    from repro.obs import histogram_from_sample

    counters = []
    latency_rows = []
    cache: dict = {}
    resources: dict = {}
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    for metric in metrics or []:
        name = metric.get("name", "?")
        samples = metric.get("samples") or []
        if metric.get("type") == "histogram":
            for sample in samples:
                try:
                    hist = histogram_from_sample(sample)
                except (KeyError, TypeError, ValueError):
                    continue  # malformed/legacy sample; skip the row
                if not hist.count:
                    continue
                labels = ",".join(
                    f"{k}={v}"
                    for k, v in sorted((sample.get("labels") or {}).items()))
                full = name + (f"{{{labels}}}" if labels else "")
                latency_rows.append((full, hist))
        elif name == "repro_cache_lookups_total":
            for sample in samples:
                labels = sample.get("labels") or {}
                key = f"{labels.get('tier', '?')}/{labels.get('level', '?')}"
                cache.setdefault(key, {})[labels.get("outcome", "?")] = \
                    sample.get("value", 0.0)
        elif name in _RESOURCE_SERIES:
            field = _RESOURCE_SERIES[name]
            for sample in samples:
                role = (sample.get("labels") or {}).get("role", "?")
                resources.setdefault(role, {})[field] = \
                    sample.get("value", 0.0)
        elif metric.get("type") == "counter":
            total = sum(s.get("value", 0.0) for s in samples)
            if total:
                counters.append((name, total))
    print(f"-- {title} " + "-" * max(0, 64 - len(title)))
    slo_rows = _slo_rows(doc)
    if slo_rows:
        print("  slo (burn rate per window; >1 = spending budget too fast):")
        for slo, target, burn, budget in slo_rows:
            winds = "  ".join(
                f"{window} {burn[window]:.2f}" for window in
                sorted(burn, key=_window_seconds))
            status = "BURNING" if any(rate >= 1.0
                                      for rate in burn.values()) else "ok"
            print(f"    {slo:16s} target {target:7.2%}  {winds}  "
                  f"budget {budget:7.1%}  {status}")
    if counters:
        width = max(len(name) for name, _ in counters)
        for name, total in counters:
            print(f"  {name:{width}s} {total:>12g}")
    if cache:
        print("  cache lookups (tier/level: hits/total, hit rate):")
        for key in sorted(cache):
            hits = cache[key].get("hit", 0)
            total = hits + cache[key].get("miss", 0)
            rate = hits / total if total else 0.0
            print(f"    {key:16s} {hits:>8g}/{total:<8g} {rate:6.1%}")
    if resources:
        print("  resources (role: rss, cpu):")
        for role in sorted(resources):
            rss = resources[role].get("rss")
            cpu = resources[role].get("cpu")
            rss_text = f"{rss / (1 << 20):8.1f} MiB" if rss else \
                "     n/a    "
            cpu_text = f"{cpu:8.1f}s cpu" if cpu is not None else ""
            print(f"    {role:16s} {rss_text}  {cpu_text}")
    if latency_rows:
        width = max(len(name) for name, _ in latency_rows)
        print(f"  {'latency':{width}s} {'count':>8s} {'mean':>9s} "
              f"{'p50':>9s} {'p95':>9s} {'p99':>9s}")
        for name, hist in latency_rows:
            print(f"  {name:{width}s} {hist.count:>8d} "
                  f"{hist.mean * 1e3:>7.2f}ms "
                  f"{hist.quantile(0.5) * 1e3:>7.2f}ms "
                  f"{hist.quantile(0.95) * 1e3:>7.2f}ms "
                  f"{hist.quantile(0.99) * 1e3:>7.2f}ms")


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.client import Client

    client = Client(args.url)
    base = client.url
    iteration = 0
    while True:
        try:
            doc = client.metrics_json()
        except NodeHTTPError as exc:
            print(f"error: {base} answered {exc.code} — is it a repro "
                  f"node/router with observability enabled?",
                  file=sys.stderr)
            return 1
        except NodeUnavailableError as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(doc, dict):
            print(f"error: {base} answered /v1/metrics with "
                  f"{type(doc).__name__}, not a registry document — is it "
                  f"a repro node/router?", file=sys.stderr)
            return 1
        if iteration and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        if doc.get("role") == "router":
            sections = [("router", doc.get("router") or {})]
            sections += [(f"node {name}", node_doc or {}) for name, node_doc
                         in sorted((doc.get("nodes") or {}).items())]
            if not any(isinstance(sec.get("metrics"), list)
                       for _, sec in sections):
                print(f"error: the fleet behind {base} exports no metrics "
                      f"series — the servers may run with REPRO_OBS=off or "
                      f"predate /v1/metrics", file=sys.stderr)
                return 1
            print(f"repro top — router at {base}")
            for title, sec in sections:
                if "error" in sec:
                    print(f"-- {title} " + "-" * max(0, 64 - len(title)))
                    print(f"  UNREACHABLE: {sec['error']}")
                else:
                    _render_metrics_doc(title, sec)
        else:
            if not isinstance(doc.get("metrics"), list):
                print(f"error: {base} exports no metrics series — it may "
                      f"run with REPRO_OBS=off or predate /v1/metrics",
                      file=sys.stderr)
                return 1
            print(f"repro top — node at {base}")
            _render_metrics_doc("node", doc)
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.client import Client

    client = Client(args.url)
    base = client.url
    try:
        doc = client.metrics_json()
    except NodeHTTPError as exc:
        print(f"error: {base} answered {exc.code}: {exc}", file=sys.stderr)
        return 1
    except NodeUnavailableError as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print(f"error: {base} answered /v1/metrics with "
              f"{type(doc).__name__}, not a registry document — is it a "
              f"repro node/router?", file=sys.stderr)
        return 1
    if doc.get("role") == "router":
        print(f"repro slo — fleet behind {base}")
        sources = sorted((doc.get("nodes") or {}).items())
    else:
        print(f"repro slo — node at {base}")
        sources = [("node", doc)]
    rows = []
    unreachable = []
    for name, node_doc in sources:
        if not isinstance(node_doc, dict):
            continue
        if "error" in node_doc:
            unreachable.append((name, node_doc["error"]))
            continue
        for slo, target, burn, budget in _slo_rows(node_doc):
            rows.append((name, slo, target, burn, budget))
    if not rows and not unreachable:
        print("error: no SLO series exported — the server may run with "
              "REPRO_OBS=off or predate the SLO engine", file=sys.stderr)
        return 1
    windows = sorted({window for _, _, _, burn, _ in rows
                      for window in burn}, key=_window_seconds)
    name_w = max([len(name) for name, *_ in rows] + [4])
    slo_w = max([len(slo) for _, slo, *_ in rows] + [3])
    header = (f"{'node':{name_w}s}  {'slo':{slo_w}s}  {'target':>8s}  "
              + "  ".join(f"{'burn ' + w:>9s}" for w in windows)
              + f"  {'budget':>8s}  status")
    print(header)
    for name, slo, target, burn, budget in rows:
        cells = "  ".join(f"{burn.get(window, 0.0):>9.2f}"
                          for window in windows)
        status = "BURNING" if any(rate >= 1.0 for rate in burn.values()) \
            else "ok"
        print(f"{name:{name_w}s}  {slo:{slo_w}s}  {target:>8.2%}  "
              f"{cells}  {budget:>8.1%}  {status}")
    for name, error in unreachable:
        print(f"{name:{name_w}s}  UNREACHABLE: {error}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.client import Client
    from repro.obs import format_trace

    client = Client(args.url)
    base = client.url
    try:
        body = client.poll(args.job_id)
    except NodeHTTPError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except NodeUnavailableError as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 1
    trace = body.get("trace")
    if not trace:
        status = body.get("status", "unknown")
        print(f"error: job {args.job_id} ({status}) carries no trace — "
              f"it may predate tracing, still be running, or the server "
              f"may run with REPRO_OBS=off", file=sys.stderr)
        return 1
    print(format_trace(trace))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.client import Client
    from repro.obs import render_collapsed

    if args.seconds < 0:
        raise InvalidInputError(
            f"--seconds must be >= 0, got {args.seconds:g}")
    client = Client(args.url)
    base = client.url
    if args.seconds:
        print(f"sampling {base} for {args.seconds:g}s ...", flush=True)
    try:
        doc = client.profile(seconds=args.seconds or None, hz=args.hz)
    except NodeHTTPError as exc:
        if exc.code == 404:
            print(f"error: {base} has no /v1/profile endpoint — the "
                  f"server predates the sampling profiler",
                  file=sys.stderr)
        else:
            print(f"error: {base} answered {exc.code}: {exc}",
                  file=sys.stderr)
        return 1
    except NodeOverloadedError as exc:
        print(f"error: server is shedding load (429): {exc}",
              file=sys.stderr)
        return 1
    except NodeUnavailableError as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 1
    if not doc.get("enabled"):
        print(f"error: the profiler is disabled on {base} — the server "
              f"runs with REPRO_OBS=off", file=sys.stderr)
        return 1
    samples = int(doc.get("samples") or 0)
    in_phase = int(doc.get("in_phase_samples") or 0)
    fleet = " (fleet)" if doc.get("role") == "router" else ""
    print(f"profile of {base}{fleet}: {samples} samples at "
          f"{doc.get('hz', 0.0):g} Hz over {doc.get('duration_s', 0.0):.1f}s"
          + (f", {in_phase / samples:.0%} inside engine phases"
             if samples else ""))
    phases = doc.get("phases") or {}
    if phases and samples:
        print("  by engine phase:")
        for name, count in phases.items():
            print(f"    {name:12s} {count:>8d}  ({count / samples:6.1%})")
    # Hot functions: pool sample counts by the innermost (leaf) frame.
    hot: dict = {}
    for row in doc.get("stacks") or []:
        stack = row.get("stack") or []
        if stack:
            hot[stack[-1]] = hot.get(stack[-1], 0) \
                + int(row.get("count") or 0)
    top = sorted(hot.items(), key=lambda item: -item[1])[:args.top]
    if top and samples:
        width = max(len(frame) for frame, _ in top)
        print(f"  hot functions (top {len(top)} by leaf samples):")
        for frame, count in top:
            print(f"    {frame:{width}s} {count:>8d}  "
                  f"({count / samples:6.1%})")
    if args.out:
        text = render_collapsed(doc)
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out}: {exc}")
        print(f"  collapsed stacks written: {args.out} "
              f"({len(text.splitlines())} rows) — render with "
              f"flamegraph.pl or speedscope")
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':18s} dim")
    for name in sorted(DATASETS):
        print(f"{name:18s} {dataset_dimension(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Single-tree Boruvka EMST (ICPP 2022 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_emst = sub.add_parser("emst", help="compute an EMST")
    p_emst.add_argument("points", help=".npy file or dataset:NAME:N[:SEED]")
    p_emst.add_argument("--mrd", type=int, default=1, metavar="K",
                        help="mutual-reachability metric with k_pts=K")
    p_emst.add_argument("--tree", choices=("bvh", "kdtree"), default="bvh")
    p_emst.add_argument("--high-resolution", action="store_true",
                        help="128-bit Morton codes (GeoLife fix)")
    p_emst.add_argument("--no-subtree-skipping", action="store_true")
    p_emst.add_argument("--no-component-bounds", action="store_true")
    p_emst.add_argument("--out", help="write (u, v, w) edge rows to .npy")
    p_emst.set_defaults(func=cmd_emst)

    p_hdb = sub.add_parser("hdbscan", help="HDBSCAN* clustering")
    p_hdb.add_argument("points", help=".npy file or dataset:NAME:N[:SEED]")
    p_hdb.add_argument("--min-cluster-size", type=int, default=5)
    p_hdb.add_argument("--k-pts", type=int, default=5)
    p_hdb.add_argument("--out", help="write labels to .npy")
    p_hdb.set_defaults(func=cmd_hdbscan)

    p_bench = sub.add_parser("bench", help="regenerate a paper figure")
    p_bench.add_argument("figure",
                         choices=("fig1", "fig5", "fig6", "fig7", "fig8",
                                  "fig9", "ablation", "all"))
    p_bench.add_argument("--quick", action="store_true",
                         help="reduced sizes for a fast smoke run")
    p_bench.set_defaults(func=cmd_bench)

    p_data = sub.add_parser("datasets", help="list dataset generators")
    p_data.set_defaults(func=cmd_datasets)

    p_serve = sub.add_parser("serve", help="run the job-serving HTTP API")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker thread count")
    p_serve.add_argument("--cache-mb", type=int, default=256,
                         help="tree-cache budget in MiB")
    p_serve.add_argument("--result-cache-mb", type=int, default=64,
                         help="result-cache budget in MiB")
    p_serve.add_argument("--store-dir", default=None, metavar="DIR",
                         help="persist cached artifacts under DIR; a "
                              "restarted server warms its tiers from it "
                              "instead of recomputing")
    p_serve.add_argument("--store-mb", type=int, default=1024,
                         help="disk-store budget in MiB (with --store-dir)")
    p_serve.add_argument("--name", default=None, metavar="NAME",
                         help="node identity reported in X-Repro-Node and "
                              "healthz (default: host:port); must be "
                              "stable for cluster routing to be")
    p_serve.add_argument("--peer", action="append", default=None,
                         metavar="URL",
                         help="base URL of a sibling node whose artifact "
                              "endpoint is consulted on a local cache "
                              "miss before recomputing (repeatable)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.add_argument("--access-log-sample", type=float, default=1.0,
                         metavar="FRAC",
                         help="fraction of HTTP access events kept in the "
                              "structured event log (deterministic, 0..1)")
    p_serve.add_argument("--max-inflight", type=int, default=1024,
                         help="concurrent HTTP requests before shedding "
                              "with 429 (healthz/metrics exempt)")
    p_serve.add_argument("--queue-depth", type=int, default=512,
                         help="unfinished engine jobs before submissions "
                              "shed with 429 + Retry-After")
    p_serve.add_argument("--trace-archive-mb", type=int, default=16,
                         help="trace-archive ring budget in MiB (persists "
                              "under --store-dir/traces when a store is "
                              "configured)")
    p_serve.add_argument("--trace-slow-ms", type=float, default=250.0,
                         help="jobs at or over this runtime always keep "
                              "their trace")
    p_serve.add_argument("--trace-sample", type=float, default=0.05,
                         metavar="FRAC",
                         help="fraction of fast, successful traces kept "
                              "(deterministic; failures, slow jobs and "
                              "failover traces are always kept)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a job to a running server")
    p_submit.add_argument("points", help=".npy file or dataset:NAME:N[:SEED]")
    p_submit.add_argument("--url", default="http://127.0.0.1:8321",
                          help="server base URL")
    p_submit.add_argument("--algorithm",
                          choices=("emst", "mrd_emst", "hdbscan"),
                          default="emst")
    p_submit.add_argument("--k-pts", type=int, default=5,
                          help="core-distance k (mrd_emst / hdbscan)")
    p_submit.add_argument("--min-cluster-size", type=int, default=5,
                          help="condensation threshold (hdbscan)")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs earlier")
    p_submit.add_argument("--timeout", type=float, default=60.0,
                          help="seconds to wait for completion")
    p_submit.set_defaults(func=cmd_submit)

    p_route = sub.add_parser(
        "route", help="front running nodes with a cluster router")
    p_route.add_argument("--node", action="append", required=True,
                         metavar="[NAME=]URL",
                         help="base URL of a repro.service node, "
                              "optionally named (repeatable)")
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument("--port", type=int, default=8320)
    p_route.add_argument("--node-timeout", type=float, default=30.0,
                         help="per-request timeout against a node")
    p_route.add_argument("--retries", type=int, default=1,
                         help="extra attempts for idempotent node GETs")
    p_route.add_argument("--replicas", type=int, default=1, metavar="K",
                         help="home nodes per key: finished jobs' "
                              "artifacts are copied to the key's K-1 "
                              "other home nodes in the background, so a "
                              "node death costs zero recomputation "
                              "(default 1 = no replication)")
    p_route.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_route.add_argument("--access-log-sample", type=float, default=1.0,
                         metavar="FRAC",
                         help="fraction of HTTP access events kept in the "
                              "structured event log (deterministic, 0..1)")
    p_route.add_argument("--max-inflight", type=int, default=1024,
                         help="concurrent HTTP requests before shedding "
                              "with 429 (healthz/metrics exempt)")
    p_route.set_defaults(func=cmd_route)

    p_rebal = sub.add_parser(
        "rebalance",
        help="copy stranded artifacts to their home nodes after a "
             "membership change")
    p_rebal.add_argument("--node", action="append", required=True,
                         metavar="[NAME=]URL",
                         help="a member of the NEW fleet membership "
                              "(repeatable; names must match the ones "
                              "the router will use)")
    p_rebal.add_argument("--replicas", type=int, default=1, metavar="K",
                         help="home nodes per artifact to guarantee")
    p_rebal.add_argument("--journal", default=None, metavar="FILE",
                         help="append-only JSONL progress journal; a "
                              "rerun with the same FILE skips completed "
                              "copies (resumable)")
    p_rebal.add_argument("--node-timeout", type=float, default=30.0,
                         help="per-request timeout against a node")
    p_rebal.add_argument("--verbose", action="store_true",
                         help="log every copy")
    p_rebal.set_defaults(func=cmd_rebalance)

    p_demo = sub.add_parser(
        "cluster-demo",
        help="boot a local K-node fleet + router and drive traffic")
    p_demo.add_argument("--nodes", type=int, default=3, metavar="K",
                        help="how many service nodes to boot")
    p_demo.add_argument("--jobs", type=int, default=6,
                        help="jobs per traffic pass")
    p_demo.add_argument("--points", type=int, default=2000,
                        help="points in the smallest job")
    p_demo.add_argument("--store-dir", default=None, metavar="DIR",
                        help="root for the per-node persistent stores "
                             "(default: a temp dir, removed afterwards)")
    p_demo.set_defaults(func=cmd_cluster_demo)

    p_top = sub.add_parser(
        "top", help="live metrics dashboard for a node or router")
    p_top.add_argument("url", nargs="?", default="http://127.0.0.1:8321",
                       help="base URL of a node or router")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0, metavar="N",
                       help="stop after N refreshes (0 = run until ^C)")
    p_top.set_defaults(func=cmd_top)

    p_trace = sub.add_parser(
        "trace", help="print the span tree of one finished job")
    p_trace.add_argument("url", help="base URL of the node or router "
                                     "that served the job")
    p_trace.add_argument("job_id", help="job id returned at submit time")
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile", help="capture a sampling CPU profile of a node or fleet")
    p_prof.add_argument("url", nargs="?", default="http://127.0.0.1:8321",
                        help="base URL of a node or router")
    p_prof.add_argument("--seconds", type=float, default=5.0,
                        help="burst-capture window in seconds "
                             "(0 = answer instantly from the always-on "
                             "sample ring)")
    p_prof.add_argument("--hz", type=float, default=None,
                        help="burst sampling rate (default: server-side, "
                             ">= 50 Hz)")
    p_prof.add_argument("--top", type=int, default=15, metavar="N",
                        help="hot-function rows to print")
    p_prof.add_argument("--out", default=None, metavar="FILE",
                        help="write collapsed stacks to FILE for "
                             "flamegraph.pl / speedscope")
    p_prof.set_defaults(func=cmd_profile)

    p_slo = sub.add_parser(
        "slo", help="SLO compliance table for a node or fleet")
    p_slo.add_argument("url", nargs="?", default="http://127.0.0.1:8321",
                       help="base URL of a node or router")
    p_slo.set_defaults(func=cmd_slo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush inside the try so a broken pipe surfaces here, where it is
        # handled, instead of at the interpreter's exit-time flush.
        sys.stdout.flush()
        return code
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early — not an error.
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the broken pipe cannot fail (which would exit 120).
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
