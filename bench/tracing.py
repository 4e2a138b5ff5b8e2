"""Per-layer timing and counts for traced runs, recorded from outside the
program: the callables it accepts, public methods of the instances it builds,
and http.client's connect are wrapped; nothing under src/ is edited.

Durations are summed per name as they are recorded (count and total seconds)
instead of being kept as individual spans. A layer's self time is its own
duration minus that of the wrapped call it makes (the proxy's upstream
callable, run_page's transport), tracked per thread.
"""

from __future__ import annotations

import http.client
import threading
from time import perf_counter

import replay_shield.cli as cli
import replay_shield.proxy as proxy_mod
from replay_shield.cache import LookupState


class Recorder:
    def __init__(self):
        self._lock = threading.Lock()
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self.local = threading.local()

    def span(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def summary(self) -> dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}


def _timed(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.span(name, perf_counter() - start)

    return wrapper


def _wrap_cache(rec: Recorder, cache) -> None:
    lookup, store = cache.lookup, cache.store
    capacity = cache.policy.capacity

    def traced_lookup(key, now):
        start = perf_counter()
        found = lookup(key, now)
        rec.span("cache.lookup", perf_counter() - start)
        rec.count("cache.lookups")
        if found.state is LookupState.FRESH:
            rec.count("cache.fresh")
        rec.local.last_lookup_missed = found.state is LookupState.MISS
        return found

    def traced_store(key, response, directives, now):
        before = len(cache)
        start = perf_counter()
        outcome = store(key, response, directives, now)
        rec.span("cache.store", perf_counter() - start)
        after = len(cache)
        # a new key that did not grow the cache pushed the oldest entry out
        if outcome.stored and getattr(rec.local, "last_lookup_missed", False) and after <= before:
            rec.count("cache.evictions")
        rec.peak("cache.entries", after)
        if after > capacity:
            rec.count("cache.over_capacity")
        return outcome

    cache.lookup, cache.store = traced_lookup, traced_store


def _traced_proxy(rec: Recorder, real_cls):
    def build(config, upstream):
        def traced_upstream(request):
            start = perf_counter()
            try:
                return upstream(request)
            finally:
                took = perf_counter() - start
                rec.span("upstream.fetch", took)
                rec.local.upstream_seconds += took

        proxy = real_cls(config, traced_upstream)
        handle = proxy.handle_request

        def traced_handle(request, now):
            rec.local.upstream_seconds = 0.0
            start = perf_counter()
            response = handle(request, now)
            took = perf_counter() - start
            rec.span("proxy.handle", took)
            marker = response.header("X-Cache")
            if marker == "HIT":
                rec.span("proxy.hit", took)
            elif marker == "MISS" and rec.local.upstream_seconds:
                rec.span("proxy.miss_self", took - rec.local.upstream_seconds)
            return response

        proxy.handle_request = traced_handle
        _wrap_cache(rec, proxy.cache)
        return proxy

    return build


def _traced_simulator(rec: Recorder, real_cls):
    def build(store, *args, **kwargs):
        sim = real_cls(store, *args, **kwargs)
        serve = sim.serve

        def traced_serve(request, now):
            start = perf_counter()
            response = serve(request, now)
            rec.span("upstream.serve", perf_counter() - start)
            rec.count(f"upstream.status_{response.status}")
            return response

        sim.serve = traced_serve
        return sim

    return build


def _traced_store_loader(rec: Recorder, load):
    def traced(*args, **kwargs):
        start = perf_counter()
        store = load(*args, **kwargs)
        rec.span("upstream.manifest_load", perf_counter() - start)
        store.nearest_capture = _timed(rec, "upstream.nearest", store.nearest_capture)
        return store

    return traced


def _traced_run_page(rec: Recorder, run_page):
    def traced(spec, transport, *args, **kwargs):
        waited = 0.0

        def traced_transport(request):
            nonlocal waited
            start = perf_counter()
            try:
                return transport(request)
            finally:
                waited += perf_counter() - start

        start = perf_counter()
        events = run_page(spec, traced_transport, *args, **kwargs)
        rec.span("workload.tick_self", perf_counter() - start - waited)
        for e in events:
            rec.count(f"workload.{e.source.value}_events")
        return events

    return traced


def _traced_serve_handler(rec: Recorder, serve_handler):
    def traced(app, *args, **kwargs):
        def traced_app(request, now):
            start = perf_counter()
            response = app(request, now)
            if not request.url.endswith(proxy_mod.METRICS_PATH):
                rec.span("wire.app", perf_counter() - start)
            return response

        return serve_handler(traced_app, *args, **kwargs)

    return traced


def install(rec: Recorder) -> None:
    """Wrap the program's layers in this process; call before it builds anything."""
    cli.ReverseProxy = _traced_proxy(rec, cli.ReverseProxy)
    cli.UpstreamSimulator = _traced_simulator(rec, cli.UpstreamSimulator)
    cli.load_store_from_manifest = _traced_store_loader(rec, cli.load_store_from_manifest)
    cli.parse_manifest_text = _traced_store_loader(rec, cli.parse_manifest_text)
    cli.serve_handler = _traced_serve_handler(rec, cli.serve_handler)
    cli.run_page = _traced_run_page(rec, cli.run_page)
    cli.build_report = _timed(rec, "analyzer.build_report", cli.build_report)
    cli.run_experiment = _timed(rec, "cli.run_experiment", cli.run_experiment)
    cli.write_experiment_files = _timed(rec, "cli.write", cli.write_experiment_files)
    proxy_mod.make_cache_key = _timed(rec, "urls.key", proxy_mod.make_cache_key)

    connect = http.client.HTTPConnection.connect

    def counted_connect(self):
        rec.count("upstream.connects")
        return connect(self)

    http.client.HTTPConnection.connect = counted_connect
