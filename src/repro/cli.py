"""Command-line interface for the Vantage reproduction.

Subcommands:

- ``list-apps``: the 29 synthetic applications and their categories.
- ``classify <app>``: run the Table 3 MPKI sweep for one application.
- ``size-unmanaged``: evaluate the Section 4.3 sizing closed form.
- ``run-mix``: simulate one multiprogrammed mix under a scheme
  (``--stats-json`` exports the run's stats tree).
- ``schemes``: list the registered schemes and array kinds.
- ``overheads``: Vantage state-overhead accounting.
- ``traces``: inspect (``--list``, the default) or delete
  (``--purge``) the shared trace-chunk layer: the on-disk store named
  by ``REPRO_TRACE_CACHE`` and the ``/dev/shm/repro_trc`` root
  (``REPRO_TRACE_SHM``), whose traces of dead publishers ``--purge``
  removes (``--force``: live ones too).
- ``serve``: run the resident experiment daemon (Unix socket; TCP
  via ``REPRO_SERVICE_ADDR`` or ``--tcp``).
- ``submit``: run one mix through a running daemon (same output as
  ``run-mix``, but simulated by the shared service).
- ``svc-stats``: a running daemon's telemetry tree (text or JSON).
- ``gateway``: run the federation gateway over N daemons
  (consistent-hash routing, health checks, failover).
- ``fed-submit``: run a mix x scheme sweep through a gateway in one
  batch request.
- ``fed-status``: a running gateway's membership table and counters.

Each subcommand imports what it runs inside its handler, so ``serve``
and ``gateway`` load neither the analysis models nor the classifier,
and the gateway and the client commands never load numpy
(``tests/harness/test_import_footprint.py``).

Interrupts: Ctrl-C exits with code 130 and SIGTERM with 143, after
shutting worker pools down quietly (workers ignore SIGINT; only the
parent reports).

Example::

    python -m repro run-mix --mix-class sftn --scheme vantage-z4/52 \
        --instructions 400000
"""

from __future__ import annotations

import argparse


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _cmd_list_apps(args) -> int:
    from repro.workloads import APPS, CATEGORY_NAMES

    print(f"{'app':14s} {'category':>20s} {'kind':>12s} {'ws (lines)':>11s} {'gap':>6s}")
    for name, app in sorted(APPS.items()):
        print(
            f"{name:14s} {CATEGORY_NAMES[app.category]:>20s} "
            f"{app.kind:>12s} {app.ws_lines:>11d} {app.mean_gap:>6.0f}"
        )
    return 0


def _cmd_classify(args) -> int:
    from repro.harness.classify import SWEEP_LINES, classify_curve, mpki_curve
    from repro.workloads import APPS, CATEGORY_NAMES

    try:
        app = APPS[args.app]
    except KeyError:
        print(f"unknown app {args.app!r}; try `list-apps`")
        return 1
    curve = mpki_curve(app, accesses=args.accesses)
    print(f"{args.app}: declared category {CATEGORY_NAMES[app.category]}")
    for lines, mpki in zip(SWEEP_LINES, curve):
        print(f"  {lines * 64 // 1024:>6d} KB: {mpki:8.2f} MPKI")
    got = classify_curve(curve)
    print(f"classified as: {CATEGORY_NAMES[got]}")
    return 0 if got == app.category else 1


def _cmd_size_unmanaged(args) -> int:
    from repro.analysis.sizing import required_unmanaged_fraction

    u = required_unmanaged_fraction(args.candidates, args.a_max, args.slack, args.pev)
    print(
        f"R={args.candidates}, A_max={args.a_max}, slack={args.slack}, "
        f"Pev={args.pev:g} -> unmanaged fraction u = {u:.3f}"
    )
    return 0


def _cmd_overheads(args) -> int:
    from repro.analysis.overheads import vantage_overheads

    o = vantage_overheads(
        cache_bytes=args.cache_mb * 1024 * 1024,
        num_partitions=args.partitions,
        num_banks=args.banks,
    )
    print(f"partition-ID tag bits: {o.partition_id_bits}")
    print(f"register bits per partition: {o.register_bits_per_partition}")
    print(f"total extra state: {o.total_extra_bits / 8 / 1024:.1f} KB")
    print(f"overhead vs data+tags: {o.overhead_fraction:.2%}")
    return 0


def _cmd_run_mix(args) -> int:
    from repro.harness.runner import run_mix
    from repro.harness.schemes import split_scheme
    from repro.sim import large_system, small_system
    from repro.workloads import make_mix

    system = small_system if args.system == "small" else large_system
    config = system(epoch_cycles=args.epoch_cycles)
    apps_per_slot = config.num_cores // 4
    try:
        # Validate both names before the (potentially long) run; the
        # errors carry did-you-mean hints from the registries.
        split_scheme(args.scheme)
        mix = make_mix(
            args.mix_class, args.mix_index, apps_per_slot=apps_per_slot
        )
    except ValueError as err:
        print(f"error: {err}")
        return 1
    print(f"mix {mix.name}: {[a.name for a in mix.apps]}")
    run = run_mix(mix, args.scheme, config, args.instructions, seed=args.seed)
    result = run.result
    print(f"scheme {args.scheme}: throughput {result.throughput:.3f}")
    for i, core in enumerate(result.cores):
        print(
            f"  core {i:>2d} {mix.apps[i].name:12s} ipc={core.ipc:6.3f} "
            f"l2-miss-rate={result.l2_miss_rates[i]:.3f}"
        )
    if hasattr(run.cache, "managed_eviction_fraction"):
        print(f"managed-eviction fraction: {run.cache.managed_eviction_fraction():.4f}")
    if args.stats_json:
        run.telemetry.dump(args.stats_json)
        print(f"wrote stats tree to {args.stats_json}")
    return 0


def _cmd_schemes(args) -> int:
    from repro.harness.schemes import ARRAYS, SCHEMES

    if args.list:
        for entry in SCHEMES.entries():
            print(entry.name)
        return 0
    print("schemes (compose with an array token, e.g. vantage-z4/52):")
    for entry in SCHEMES.entries():
        part = "partitioned" if entry.metadata.get("partitioned") else "baseline"
        line = f"  {entry.name:20s} {part:12s} {entry.description}"
        if args.fingerprints:
            line += f"  [{entry.fingerprint()[:16]}]"
        print(line)
    print("arrays:")
    for entry in ARRAYS.entries():
        line = f"  {entry.name:20s} {'':12s} {entry.description}"
        if args.fingerprints:
            line += f"  [{entry.fingerprint()[:16]}]"
        print(line)
    return 0


def _cmd_traces(args) -> int:
    from repro.traces import store

    disk = store.TraceStore.disk_dir()
    shm = store.shm_root()
    if args.purge:
        if disk is not None:
            removed = store.TraceStore.purge_disk()
            print(f"purged {removed} trace(s) from {disk}")
        removed = store.scavenge(force=args.force)
        live = store.list_traces(shm)
        print(
            f"removed {removed} shared-memory trace(s) or temp file(s); "
            f"{len(live)} trace(s) kept for live publishers"
        )
        for row in live:
            print(f"  kept {row['key'][:10]} (publisher pid {row.get('pid', '?')})")
        return 0
    if disk is None:
        print("REPRO_TRACE_CACHE is not set; the on-disk trace store is off")
    else:
        _print_traces(f"trace store at {disk}", store.list_traces(disk))
    shm_rows = store.list_traces(shm)
    if shm is not None:
        _print_traces(f"shared-memory traces at {shm} (REPRO_TRACE_SHM)", shm_rows)
    return 1 if disk is None and not shm_rows else 0


def _print_traces(title: str, rows: list[dict]) -> None:
    """One ``repro traces --list`` table (publisher columns for rows
    that record a pid: the ``/dev/shm`` root)."""
    print(f"{title}: {len(rows)} trace(s)")
    if not rows:
        return
    print(
        f"{'app':14s} {'kind':>12s} {'base':>16s} {'seed':>6s} "
        f"{'chunks':>7s} {'MiB':>8s} {'key':>10s} {'pid':>8s} {'alive':>6s}"
    )
    for row in rows:
        print(
            f"{row.get('name', '?'):14s} {row.get('kind', '?'):>12s} "
            f"{row.get('base', 0):>16x} {row.get('seed', 0):>6d} "
            f"{row['chunks']:>7d} {row['bytes'] / (1 << 20):>8.1f} "
            f"{row['key'][:10]:>10s} {row.get('pid', '-'):>8} "
            f"{str(row.get('alive', '-')):>6s}"
        )
    total = sum(row["bytes"] for row in rows)
    print(f"total: {total / (1 << 20):.1f} MiB")


def _tcp_arg(text: str | None):
    """Parse a ``--tcp HOST:PORT`` value (``None`` passes through)."""
    if not text:
        return None
    from repro.service import parse_addr

    return parse_addr(text, what="--tcp")


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(
        socket_path=args.socket, tcp=_tcp_arg(getattr(args, "tcp", None))
    )


def _cmd_serve(args) -> int:
    from pathlib import Path

    from repro.harness import default_workers
    from repro.service import ServiceConfig, serve
    from repro.service.protocol import default_socket, tcp_addr

    config = ServiceConfig(
        socket_path=Path(args.socket) if args.socket else default_socket(),
        tcp=_tcp_arg(args.tcp) or tcp_addr(),
        workers=args.workers or default_workers(),
        queue_size=args.queue_size,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        use_cache=not args.no_cache,
    )
    print(
        f"repro daemon: socket {config.socket_path}, "
        f"{config.workers} workers, queue {config.queue_size}"
        + (f", tcp {config.tcp[0]}:{config.tcp[1]}" if config.tcp else "")
    )
    serve(config)
    print("repro daemon: stopped")
    return 0


def _cmd_submit(args) -> int:
    from repro.harness import SimJob
    from repro.harness.schemes import split_scheme
    from repro.sim import large_system, small_system
    from repro.workloads import make_mix

    system = small_system if args.system == "small" else large_system
    config = system(epoch_cycles=args.epoch_cycles)
    apps_per_slot = config.num_cores // 4
    try:
        # Same up-front validation as run-mix: fail with a hint before
        # anything is submitted to the daemon.
        split_scheme(args.scheme)
        mix = make_mix(
            args.mix_class, args.mix_index, apps_per_slot=apps_per_slot
        )
    except ValueError as err:
        print(f"error: {err}")
        return 1
    job = SimJob(mix, args.scheme, config, args.instructions, seed=args.seed)
    with _service_client(args) as svc:
        if args.no_wait:
            ticket = svc.submit(job, priority=args.priority, wait=False)
            print(
                f"submitted job {ticket['id']} "
                f"({'deduped' if ticket['deduped'] else ticket['state']})"
            )
            return 0
        outcome = svc.submit(job, priority=args.priority)
    result = outcome.result
    print(f"mix {mix.name}: {[a.name for a in mix.apps]}")
    print(f"scheme {args.scheme}: throughput {result.throughput:.3f}")
    for i, core in enumerate(result.cores):
        print(
            f"  core {i:>2d} {mix.apps[i].name:12s} ipc={core.ipc:6.3f} "
            f"l2-miss-rate={result.l2_miss_rates[i]:.3f}"
        )
    if outcome.managed_eviction_fraction is not None:
        print(
            f"managed-eviction fraction: "
            f"{outcome.managed_eviction_fraction:.4f}"
        )
    return 0


def _cmd_svc_stats(args) -> int:
    import json

    with _service_client(args) as svc:
        tree = svc.stats()
    if args.json:
        from pathlib import Path

        text = json.dumps(tree, indent=2) + "\n"
        if args.json == "-":
            print(text, end="")
        else:
            Path(args.json).write_text(text)
            print(f"wrote daemon stats tree to {args.json}")
        return 0

    def walk(node, prefix=""):
        for name, value in node.items():
            path = f"{prefix}{name}"
            if isinstance(value, dict) and not {"count", "total"} <= set(value):
                walk(value, path + ".")
            else:
                print(f"  {path:42s} {value}")

    print("daemon stats:")
    walk(tree)
    return 0


def _cmd_gateway(args) -> int:
    from pathlib import Path

    from repro.federation import (
        GatewayConfig,
        default_gateway_socket,
        serve_gateway,
    )

    config = GatewayConfig(
        socket_path=(
            Path(args.socket) if args.socket else default_gateway_socket()
        ),
        tcp=_tcp_arg(args.tcp),
        nodes=args.node,
        health_interval=args.health_interval,
        fail_threshold=args.fail_threshold,
        per_node_inflight=args.per_node_inflight,
        max_retries=args.max_retries,
        use_cache=not args.no_cache,
    )
    print(
        f"repro gateway: socket {config.socket_path}, "
        f"{len(config.nodes)} node(s): {', '.join(config.nodes)}"
        + (f", tcp {config.tcp[0]}:{config.tcp[1]}" if config.tcp else "")
    )
    serve_gateway(config)
    print("repro gateway: stopped")
    return 0


def _sweep_jobs(args):
    """Build the mix x scheme job grid shared by fed-submit."""
    from repro.harness import SimJob
    from repro.harness.schemes import split_scheme
    from repro.sim import large_system, small_system
    from repro.workloads import make_mix

    system = small_system if args.system == "small" else large_system
    config = system(epoch_cycles=args.epoch_cycles)
    apps_per_slot = config.num_cores // 4
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ValueError("--schemes names no schemes")
    for scheme in schemes:
        split_scheme(scheme)
    mixes = [
        make_mix(args.mix_class, index, apps_per_slot=apps_per_slot)
        for index in range(1, args.mixes + 1)
    ]
    jobs = [
        SimJob(mix, scheme, config, args.instructions, seed=args.seed)
        for mix in mixes
        for scheme in schemes
    ]
    return jobs, mixes, schemes


def _cmd_fed_submit(args) -> int:
    from repro.federation import FederatedClient
    from repro.service import ServiceError

    try:
        jobs, mixes, schemes = _sweep_jobs(args)
    except ValueError as err:
        print(f"error: {err}")
        return 1
    print(
        f"fed-submit: {len(jobs)} job(s) "
        f"({len(mixes)} mix(es) x {len(schemes)} scheme(s))"
    )
    try:
        with FederatedClient(args.gateway) as fed:
            batch = fed.submit_batch(jobs, priority=args.priority)
    except (ServiceError, OSError) as err:
        print(f"error: {err}")
        return 1
    slot = 0
    for mix in mixes:
        for scheme in schemes:
            outcome = batch.outcomes[slot]
            origin = (
                "cache" if batch.cached[slot]
                else "dedup" if batch.deduped[slot]
                else "fleet"
            )
            if outcome is None:
                print(
                    f"  {mix.name:12s} {scheme:20s} "
                    f"FAILED: {batch.errors[slot]}"
                )
            else:
                print(
                    f"  {mix.name:12s} {scheme:20s} "
                    f"throughput {outcome.result.throughput:7.3f}  [{origin}]"
                )
            slot += 1
    failed = sum(1 for e in batch.errors if e is not None)
    print(
        f"done: {len(jobs) - failed}/{len(jobs)} ok, "
        f"{sum(batch.cached)} cached, {sum(batch.deduped)} deduped"
    )
    return 1 if failed else 0


def _cmd_fed_status(args) -> int:
    import json

    from repro.federation import FederatedClient
    from repro.service import ServiceError

    try:
        with FederatedClient(args.gateway) as fed:
            summary = fed.status()
    except (ServiceError, OSError) as err:
        print(f"error: {err}")
        return 1
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(
        f"gateway: up {summary.get('uptime_s', 0):.0f}s, "
        f"routed {summary.get('routed', 0)}, "
        f"dedupe {summary.get('dedupe_hits', 0)}, "
        f"cache {summary.get('cache_hits', 0)}, "
        f"failover {summary.get('failover_requeues', 0)}, "
        f"completed {summary.get('completed', 0)}, "
        f"failed {summary.get('failed', 0)}"
    )
    nodes = summary.get("nodes", [])
    print(
        f"{'node':8s} {'state':>8s} {'addr':>24s} {'routed':>7s} "
        f"{'inflight':>9s} {'queue':>6s} {'workers':>8s}"
    )
    for row in nodes:
        queue = row.get("queue_depth")
        workers = row.get("workers_alive")
        print(
            f"{row['name']:8s} {row['state']:>8s} {row['addr']:>24s} "
            f"{row['routed']:>7d} {row['in_flight']:>9d} "
            f"{'?' if queue is None else queue:>6} "
            f"{'?' if workers is None else workers:>8}"
        )
    return 0 if any(row["state"] != "dead" for row in nodes) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Vantage cache-partitioning reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the synthetic applications")

    p = sub.add_parser("classify", help="MPKI sweep for one application")
    p.add_argument("app")
    p.add_argument("--accesses", type=int, default=40_000)

    p = sub.add_parser("size-unmanaged", help="Section 4.3 sizing closed form")
    p.add_argument("--candidates", "-r", type=int, default=52)
    p.add_argument("--a-max", type=float, default=0.5)
    p.add_argument("--slack", type=float, default=0.1)
    p.add_argument("--pev", type=float, default=1e-2)

    p = sub.add_parser("overheads", help="Vantage state-overhead accounting")
    p.add_argument("--cache-mb", type=int, default=8)
    p.add_argument("--partitions", type=int, default=32)
    p.add_argument("--banks", type=int, default=4)

    p = sub.add_parser("run-mix", help="simulate one multiprogrammed mix")
    p.add_argument("--mix-class", default="sftn")
    p.add_argument("--mix-index", type=int, default=1)
    p.add_argument("--scheme", default="vantage-z4/52")
    p.add_argument("--system", choices=("small", "large"), default="small")
    p.add_argument("--instructions", type=_positive_int, default=400_000)
    p.add_argument("--epoch-cycles", type=_positive_int, default=250_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the run's exported stats tree to PATH as JSON",
    )

    p = sub.add_parser("schemes", help="list the registered schemes and arrays")
    p.add_argument(
        "--list",
        action="store_true",
        help="bare scheme names only, one per line (for scripting/CI)",
    )
    p.add_argument(
        "--fingerprints",
        action="store_true",
        help="show each registry entry's fingerprint prefix",
    )

    p = sub.add_parser(
        "traces",
        help="inspect or purge the shared trace-chunk layer: the "
        "REPRO_TRACE_CACHE directory and the /dev/shm root",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list the traces under REPRO_TRACE_CACHE and under "
        "/dev/shm/repro_trc, with their publisher (the default action)",
    )
    p.add_argument(
        "--purge",
        action="store_true",
        help="delete every trace under REPRO_TRACE_CACHE and the "
        "/dev/shm traces and temp files whose publisher is dead",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="with --purge: also remove /dev/shm traces whose publisher "
        "is still alive (its workers keep their mappings and fall back "
        "to compiling)",
    )

    p = sub.add_parser("serve", help="run the resident experiment daemon")
    p.add_argument("--socket", default=None, help="Unix socket path")
    p.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="also listen on TCP (or set REPRO_SERVICE_ADDR)",
    )
    p.add_argument("--workers", type=_positive_int, default=None)
    p.add_argument("--queue-size", type=_positive_int, default=256)
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry jobs that run longer than this",
    )
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk results cache",
    )

    p = sub.add_parser("submit", help="run one mix via a running daemon")
    p.add_argument("--socket", default=None, help="daemon Unix socket path")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT")
    p.add_argument("--mix-class", default="sftn")
    p.add_argument("--mix-index", type=int, default=1)
    p.add_argument("--scheme", default="vantage-z4/52")
    p.add_argument("--system", choices=("small", "large"), default="small")
    p.add_argument("--instructions", type=_positive_int, default=400_000)
    p.add_argument("--epoch-cycles", type=_positive_int, default=250_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", type=int, default=0)
    p.add_argument(
        "--no-wait",
        action="store_true",
        help="print the submission ticket instead of waiting",
    )

    p = sub.add_parser("svc-stats", help="a running daemon's telemetry tree")
    p.add_argument("--socket", default=None, help="daemon Unix socket path")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT")
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the tree as JSON to PATH ('-' for stdout)",
    )

    p = sub.add_parser(
        "gateway", help="run the federation gateway over N daemons"
    )
    p.add_argument(
        "--socket",
        default=None,
        help="gateway Unix socket path (or REPRO_GATEWAY_SOCKET)",
    )
    p.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="also listen on TCP",
    )
    p.add_argument(
        "--node",
        action="append",
        required=True,
        metavar="ADDR",
        help="a backend daemon (host:port, [v6]:port or a socket "
        "path); repeat once per node",
    )
    p.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between node health probes",
    )
    p.add_argument(
        "--fail-threshold",
        type=_positive_int,
        default=2,
        help="consecutive failed probes before a node is dead",
    )
    p.add_argument(
        "--per-node-inflight",
        type=_positive_int,
        default=8,
        help="concurrent jobs forwarded per node",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="failover hops tolerated per job",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the gateway's read-through results cache",
    )

    p = sub.add_parser(
        "fed-submit", help="run a mix x scheme sweep via a gateway"
    )
    p.add_argument(
        "--gateway",
        default=None,
        metavar="ADDR",
        help="gateway host:port or socket path (or REPRO_FED_GATEWAY)",
    )
    p.add_argument("--mix-class", default="sftn")
    p.add_argument(
        "--mixes",
        type=_positive_int,
        default=1,
        help="submit mix indices 1..N of the class",
    )
    p.add_argument(
        "--schemes",
        default="vantage-z4/52",
        help="comma-separated scheme list (the sweep is mixes x schemes)",
    )
    p.add_argument("--system", choices=("small", "large"), default="small")
    p.add_argument("--instructions", type=_positive_int, default=400_000)
    p.add_argument("--epoch-cycles", type=_positive_int, default=250_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", type=int, default=0)

    p = sub.add_parser(
        "fed-status", help="a running gateway's nodes and counters"
    )
    p.add_argument(
        "--gateway",
        default=None,
        metavar="ADDR",
        help="gateway host:port or socket path (or REPRO_FED_GATEWAY)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the raw summary as JSON",
    )

    return parser


_COMMANDS = {
    "list-apps": _cmd_list_apps,
    "classify": _cmd_classify,
    "size-unmanaged": _cmd_size_unmanaged,
    "overheads": _cmd_overheads,
    "run-mix": _cmd_run_mix,
    "schemes": _cmd_schemes,
    "traces": _cmd_traces,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "svc-stats": _cmd_svc_stats,
    "gateway": _cmd_gateway,
    "fed-submit": _cmd_fed_submit,
    "fed-status": _cmd_fed_status,
}

#: Conventional 128+signal exit codes for interrupted runs.
EXIT_SIGINT = 130
EXIT_SIGTERM = 143


def _sigterm_to_exit(signum, frame):
    raise SystemExit(EXIT_SIGTERM)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A terminal Ctrl-C or a supervisor's SIGTERM must shut worker
    # pools down without spraying per-process tracebacks, and exit
    # with a distinct code the caller can script against.  Workers
    # themselves ignore SIGINT (see repro.service.workers._worker_main,
    # the one worker loop); the daemon installs
    # its own asyncio handlers and exits 0 on a clean shutdown.
    import signal as _signal

    previous = None
    try:
        previous = _signal.signal(_signal.SIGTERM, _sigterm_to_exit)
    except (OSError, ValueError):
        pass  # not the main thread (embedding); keep default handling
    from repro.service.protocol import ProtocolError

    try:
        return _COMMANDS[args.command](args)
    except ProtocolError as err:
        # Malformed --tcp / REPRO_SERVICE_ADDR / node address specs:
        # one clear line, exit 1, no traceback.
        print(f"error: {err}")
        return 1
    except KeyboardInterrupt:
        print("\ninterrupted", flush=True)
        return EXIT_SIGINT
    finally:
        if previous is not None:
            try:
                _signal.signal(_signal.SIGTERM, previous)
            except (OSError, ValueError):
                pass


if __name__ == "__main__":
    raise SystemExit(main())
