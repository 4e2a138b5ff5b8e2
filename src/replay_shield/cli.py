"""Command-line front end: serve, run-workload, analyze, reproduce.

`reproduce` wires the simulated archive behind the caching proxy in one
process, replays a scenario against it on a logical clock, and writes the
cached run's artifacts (series_after.csv / events_after.csv / summary.txt /
metrics.txt); `--both` runs the uncached stack first and adds the `before`
files and the comparison. The same experiment on sockets is `serve upstream`,
`serve proxy` and `run-workload --base`, which replays a page against a proxy
already running there. `--config` is read only by `serve proxy`.

Exit codes: 0 success, 2 configuration/parse error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .analyzer import (
    MAX_SPAN_SECONDS,
    TrafficReport,
    build_report,
    compare_reports,
    emit_series_csv,
    parse_har,
    render_comparison,
    render_report_text,
)
from .cache import CachePolicy, KeyMode
from .configtext import ConfigError
from .httpmsg import Request
from .proxy import (
    METRICS_PATH,
    InjectionMode,
    ProxyConfig,
    ProxyMetrics,
    ReverseProxy,
    UpstreamUnreachable,
    proxy_config_from_text,
    render_metrics,
)
from .upstream import (
    PatchConfig,
    UpstreamSimulator,
    load_store_from_manifest,
    parse_manifest_text,
)
from .urls import FuzzyRuleSet
from .wire import http_fetch, serve_handler
from .workload import (
    ClientEvent,
    EventSource,
    LimiterRule,
    LogicalClock,
    PageSpec,
    builtin_scenario,
    read_events_csv,
    run_page,
    spec_from_text,
    write_events_csv,
)

CONFIG_ENV_VAR = "REPLAY_SHIELD_CONFIG"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: str
    cache_enabled: bool = True
    injection_mode: InjectionMode = InjectionMode.ALWAYS
    duration: float | None = None
    key_mode: KeyMode = KeyMode.EXACT
    patch: bool = False
    limiter: LimiterRule | None = None
    manifest_path: Path | None = None
    min_repeats: int = 3


@dataclass(frozen=True)
class ExperimentResult:
    client_report: TrafficReport
    events: tuple[ClientEvent, ...]
    network_events: tuple[ClientEvent, ...]
    proxy_metrics: ProxyMetrics
    upstream_request_count: int
    upstream_status_counts: dict[int, int]


def load_scenario(spec: ExperimentSpec) -> tuple[PageSpec, str | None]:
    """Resolve a builtin name or a scenario spec file; returns (page, manifest text)."""
    path = Path(spec.scenario)
    if path.suffix in (".spec", ".conf", ".txt") or path.exists():
        page = spec_from_text(path.read_text(encoding="utf-8"))
        manifest = None
    else:
        page, manifest = builtin_scenario(spec.scenario)
    if spec.duration is not None:
        page = replace(page, duration=spec.duration)
    if page.duration > MAX_SPAN_SECONDS:  # refused before the run, not after
        raise ConfigError(f"duration {page.duration:g} s is over the {MAX_SPAN_SECONDS} s one report covers")
    return page, manifest


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    page, manifest_text = load_scenario(spec)
    if spec.manifest_path is not None:
        store = load_store_from_manifest(spec.manifest_path)
    elif manifest_text is not None:
        store = parse_manifest_text(manifest_text)
    else:
        raise ConfigError("a scenario file needs --manifest for the upstream holdings")

    sim = UpstreamSimulator(store, patch=PatchConfig(enabled=spec.patch))
    proxy_cfg = ProxyConfig(
        policy=CachePolicy(key_mode=spec.key_mode),
        injection_mode=spec.injection_mode,
        proxy_caching_enabled=spec.cache_enabled,
    )
    clock = LogicalClock()
    proxy = ReverseProxy(proxy_cfg, lambda req: sim.serve(req, clock.now()))
    events = run_page(page, lambda req: proxy.handle_request(req, clock.now()), clock, spec.limiter)
    network = tuple(e for e in events if e.source is EventSource.NETWORK)
    return ExperimentResult(
        client_report=build_report(list(network), min_repeats=spec.min_repeats),
        events=tuple(events),
        network_events=network,
        proxy_metrics=proxy.metrics_snapshot(),
        upstream_request_count=sim.request_count,
        upstream_status_counts=sim.status_counts(),
    )


def _paced(clock: LogicalClock, address: str):
    """Transport that sends each request to `address` once the wall clock,
    counted from now, has caught up with the logical clock."""
    start = time.monotonic()

    def transport(request: Request):
        wait = clock.now() - (time.monotonic() - start)
        if wait > 0:
            time.sleep(wait)
        return http_fetch(address, request)

    return transport


def write_experiment_files(result: ExperimentResult, out_dir: Path, label: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_series_csv(result.client_report, out_dir / f"series_{label}.csv")
    write_events_csv(result.events, out_dir / f"events_{label}.csv")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _page_spec(args) -> ExperimentSpec:
    """The page the flags shared by reproduce and run-workload describe."""
    return ExperimentSpec(
        scenario=args.scenario,
        duration=args.duration,
        # without --limiter, --min-repeats sets only the report's cluster threshold
        limiter=LimiterRule(args.min_repeats) if args.limiter else None,
        min_repeats=args.min_repeats,
    )


def cmd_reproduce(args) -> int:
    out_dir = Path(args.output)
    spec = replace(
        _page_spec(args),
        injection_mode=InjectionMode(args.injection),
        key_mode=KeyMode(args.key_mode),
        patch=args.patch == "ia",
        manifest_path=Path(args.manifest) if args.manifest else None,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_chunks: list[str] = []
    if args.both:
        before = run_experiment(replace(spec, cache_enabled=False, injection_mode=InjectionMode.OFF))
        after = run_experiment(spec)
        write_experiment_files(before, out_dir, "before")
        write_experiment_files(after, out_dir, "after")
        summary = render_comparison(compare_reports(before.client_report, after.client_report))
        summary += "\n[before]\n" + render_report_text(before.client_report)
        summary += "\n[after]\n" + render_report_text(after.client_report)
        metrics_chunks.append("[before]\n" + render_metrics(before.proxy_metrics))
        metrics_chunks.append("[after]\n" + render_metrics(after.proxy_metrics))
    else:
        result = run_experiment(spec)
        write_experiment_files(result, out_dir, "after")
        summary = render_report_text(result.client_report)
        summary += f"upstream_requests: {result.upstream_request_count}\n"
        metrics_chunks.append(render_metrics(result.proxy_metrics))

    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    (out_dir / "metrics.txt").write_text("\n".join(metrics_chunks), encoding="utf-8")
    print(summary, end="")
    return EXIT_OK


def cmd_run_workload(args) -> int:
    """Replay the page against the live proxy at --base, which has its own
    cache and archive settings."""
    spec = _page_spec(args)
    page, _ = load_scenario(spec)
    try:
        # the proxy answers its metrics path without counting it
        probe = http_fetch(args.base, Request("GET", METRICS_PATH))
    except UpstreamUnreachable as exc:
        raise ConnectionError(f"no proxy answers at --base {args.base}: {exc}") from exc
    if probe.status != 200 or not any(line.startswith(b"client_requests ") for line in probe.body.splitlines()):
        raise ConnectionError(f"--base {args.base} is not a replay-shield proxy: "
                              f"GET {METRICS_PATH} answered {probe.status} without its metrics")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = LogicalClock()
    events = run_page(page, _paced(clock, args.base), clock, spec.limiter)
    report = build_report([e for e in events if e.source is EventSource.NETWORK], spec.min_repeats)
    write_events_csv(events, out_dir / "events.csv")
    emit_series_csv(report, out_dir / "series.csv")
    print(render_report_text(report), end="")
    return EXIT_OK


def cmd_analyze(args) -> int:
    path = Path(args.input)
    rules = FuzzyRuleSet(
        strip_params=frozenset(args.fuzzy_strip.split(",")) if args.fuzzy_strip else frozenset(),
        strip_numeric_only_params=args.fuzzy_numeric,
    )
    if path.suffix == ".csv":
        entries: list = read_events_csv(path)
    else:
        entries = parse_har(path)
    report = build_report(entries, min_repeats=args.min_repeats, rules=rules)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_series_csv(report, out_dir / "series.csv")
    print(render_report_text(report), end="")
    return EXIT_OK


def cmd_serve_upstream(args) -> int:
    store = load_store_from_manifest(args.manifest)
    sim = UpstreamSimulator(store, patch=PatchConfig(enabled=args.patch == "ia"))
    return _serve(args.role, serve_handler(sim.serve, listen=args.listen, log=sys.stdout))


def cmd_serve_proxy(args) -> int:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = proxy_config_from_text(Path(config_path).read_text(encoding="utf-8")) if config_path else ProxyConfig()
    if args.listen:
        cfg = replace(cfg, listen_address=args.listen)
    if args.upstream:
        cfg = replace(cfg, upstream_address=args.upstream)
    proxy = ReverseProxy(cfg, lambda req: http_fetch(cfg.upstream_address, req))
    return _serve(args.role, serve_handler(proxy.handle_request, listen=cfg.listen_address, log=sys.stdout))


def _serve(role: str, handle) -> int:
    print(f"serving {role} on {handle.address}", file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        handle.close()


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replay-shield",
        description="Eliminate and measure recurring 404 traffic against archival replay backends.",
    )
    parser.add_argument("--config", help="serve proxy's config file (fallback: $" + CONFIG_ENV_VAR + ")")
    parser.add_argument("--output", help="output directory, not read by serve (default: ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_page_flags(p):
        p.add_argument("--scenario", required=True, help="builtin scenario name or spec file path")
        p.add_argument("--duration", type=float, default=None, help="override run duration (seconds)")
        p.add_argument("--limiter", action="store_true", help="enable the client-side repeat limiter")
        p.add_argument("--min-repeats", type=int, default=3)

    p_rep = sub.add_parser("reproduce", help="run a scenario through the proxy and report rates")
    add_page_flags(p_rep)
    p_rep.add_argument("--injection", choices=[m.value for m in InjectionMode], default="always")
    p_rep.add_argument("--key-mode", choices=[m.value for m in KeyMode], default="exact")
    p_rep.add_argument("--patch", choices=("off", "ia"), default="off")
    p_rep.add_argument("--manifest", help="upstream holdings manifest (required for spec files)")
    p_rep.add_argument("--both", action="store_true", help="run the uncached stack first and compare")
    p_rep.set_defaults(fn=cmd_reproduce)

    p_run = sub.add_parser("run-workload", help="replay a page workload against a live proxy and dump its event log")
    add_page_flags(p_run)
    p_run.add_argument("--base", required=True, help="live proxy address (host:port)")
    p_run.set_defaults(fn=cmd_run_workload)

    p_an = sub.add_parser("analyze", help="analyze a HAR file or an events CSV")
    p_an.add_argument("input", help="path to .har/.json or events .csv")
    p_an.add_argument("--min-repeats", type=int, default=3)
    p_an.add_argument("--fuzzy-numeric", action="store_true", help="strip long all-digit query params")
    p_an.add_argument("--fuzzy-strip", help="comma-separated query param names to strip")
    p_an.set_defaults(fn=cmd_analyze)

    p_srv = sub.add_parser("serve", help="run the proxy or the simulated upstream on real sockets")
    roles = p_srv.add_subparsers(dest="role", required=True)
    p_proxy = roles.add_parser("proxy", help="the caching proxy, configured by --config")
    p_proxy.add_argument("--listen", help="host:port (default: the config's listen)")
    p_proxy.add_argument("--upstream", help="upstream host:port (default: the config's upstream)")
    p_proxy.set_defaults(fn=cmd_serve_proxy)
    p_up = roles.add_parser("upstream", help="the simulated archive")
    p_up.add_argument("--manifest", required=True, help="holdings manifest path")
    p_up.add_argument("--listen", default="127.0.0.1:0", help="host:port (default: a free port)")
    p_up.add_argument("--patch", choices=("off", "ia"), default="off")
    p_up.set_defaults(fn=cmd_serve_upstream)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.config and args.fn is not cmd_serve_proxy:
        parser.error("--config is read only by serve proxy")
    if args.output is None:
        args.output = "out"
    elif args.command == "serve":
        parser.error("--output is not read by serve")
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:  # the parse errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
