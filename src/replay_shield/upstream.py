"""Simulated archive replay backend.

Serves stored captures, 404s for holdings gaps, and optionally emulates
live-web patching: a miss redirects to a /save/_embed/ endpoint that archives
the resource if the (simulated) live web has it, with sliding-window 429
throttling on repeat attempts. No outbound network calls ever happen; the
"live web" is a static map loaded from the manifest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from functools import cached_property, lru_cache, partial
from pathlib import Path

from .httpmsg import Request, Response, origin_form, text_response
from .proxy import PATCH_PATH_PREFIX, SlidingWindowThrottle, Tally, patch_target
from .urls import (
    UriR,
    UrlError,
    canonicalize,
    parse_urir,
    split_at_timestamp,
    timestamp14_datetime,
    validate_timestamp14,
)

logger = logging.getLogger(__name__)

# the answer for a URL the archive holds no capture of; Response is frozen, so one serves all
NOT_FOUND = Response(404, (("Content-Type", "text/html"),),
                     b"<!doctype html><html><body><h1>404 Not Found</h1><p>capture not in archive</p></body></html>")

# logical time 0 of a simulation run, used to mint timestamps for patched captures
DEFAULT_EPOCH = datetime(2021, 9, 1, 0, 0, 0, tzinfo=timezone.utc)

# a replay URL's canonical target key, prefix, timestamp14, modifier and remainder
_Route = tuple[str, str, str, str, str]
# the most request URLs one simulator keeps the route of, least recently used out first
ROUTE_MEMO_SIZE = 4096


class ManifestParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"manifest line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class MementoRecord:
    target: UriR
    timestamp14: str
    status: int
    content_type: str
    body: bytes

    # derived on first use and kept: a record is read on every request for its target
    @cached_property
    def memento_datetime(self) -> str:
        return rfc1123_from_timestamp14(self.timestamp14)

    @cached_property
    def seconds(self) -> float:
        return _ts_seconds(self.timestamp14)


@dataclass
class MementoStore:
    """Archive holdings, keyed by canonical target and then by timestamp14, plus
    the simulated live web used by patch mode."""

    records: dict[str, dict[str, MementoRecord]] = field(default_factory=dict)
    live_web: dict[str, tuple[int, str, bytes]] = field(default_factory=dict)

    def insert(self, record: MementoRecord) -> bool:
        """Store `record`; True when it replaced one for the same target and timestamp."""
        captures = self.records.setdefault(canonicalize(record.target), {})
        replaced = record.timestamp14 in captures
        captures[record.timestamp14] = record
        return replaced

    def nearest_capture(self, key: str, timestamp14: str) -> MementoRecord | None:
        """Closest-in-time 200-status capture of the target, the first stored
        winning a tie; None when the target has no 200 capture."""
        captures = [r for r in self.records.get(key, {}).values() if r.status == 200]
        if not captures:
            return None  # before any timestamp is parsed: most requests in a lab run end here
        wanted = _ts_seconds(timestamp14)
        return min(captures, key=lambda r: abs(r.seconds - wanted))


@dataclass(frozen=True)
class PatchConfig:
    enabled: bool = False


def rfc1123_from_timestamp14(ts14: str) -> str:
    return format_datetime(timestamp14_datetime(ts14), usegmt=True)


def timestamp14_at(now_seconds: float) -> str:
    return (DEFAULT_EPOCH + timedelta(seconds=now_seconds)).strftime("%Y%m%d%H%M%S")


def _ts_seconds(ts14: str) -> float:
    return timestamp14_datetime(ts14).timestamp()


def _route_of(patching: bool, url: str) -> Response | str | _Route:
    """NOT_FOUND for a URL that names no capture, the target of a patch request
    when `patching`, or a replay URL's route."""
    try:
        path = origin_form(url)
    except ValueError:  # urlsplit refuses it, as it does a host with an unclosed "["
        return NOT_FOUND
    target_url = patch_target(path) if patching else None
    if target_url is not None:
        return target_url
    try:
        prefix, ts, modifier, remainder = split_at_timestamp(path)
        target = parse_urir(remainder)
    except UrlError:
        return NOT_FOUND
    return canonicalize(target), prefix, ts, modifier, remainder


class UpstreamSimulator:
    """In-process archive server; also drives the live upstream role in wire mode.

    A request URL's route is worked out once and memoized. The holdings lookup
    and the patch attempt still run on every request: patching changes the
    holdings, and the throttle keeps state.
    """

    def __init__(self, store: MementoStore, patch: PatchConfig = PatchConfig()):
        self.store = store
        self.patch_config = patch
        self.throttle = SlidingWindowThrottle()
        self._tally = Tally()  # statuses served
        # a function of the patch setting, not a method, so the memo holds no cycle through the simulator
        self._route_of = lru_cache(maxsize=ROUTE_MEMO_SIZE)(partial(_route_of, patch.enabled))

    @property
    def request_count(self) -> int:
        return sum(self.status_counts().values())

    def status_counts(self) -> dict[int, int]:
        return self._tally.snapshot()

    def serve(self, request: Request, now: float) -> Response:
        response = self._dispatch(request, now)
        self._tally.add(response.status)
        return response

    def _dispatch(self, request: Request, now: float) -> Response:
        route = self._route_of(request.url)
        if route is NOT_FOUND:
            return NOT_FOUND
        if isinstance(route, str):
            return self._patch(route, now)

        key, prefix, ts, modifier, remainder = route
        # the nearest 200 capture at no distance is the exact one
        nearest = self.store.nearest_capture(key, ts)
        if nearest is not None and nearest.timestamp14 == ts:
            return Response(
                200,
                (
                    ("Content-Type", nearest.content_type),
                    ("Memento-Datetime", nearest.memento_datetime),
                ),
                nearest.body,
            )
        if nearest is not None:
            location = f"{prefix}/{nearest.timestamp14}{modifier}/{remainder}"
            return Response(302, (("Location", location),))

        if self.patch_config.enabled:
            return Response(302, (("Location", f"{PATCH_PATH_PREFIX}{remainder}"),))
        return NOT_FOUND

    def patch(self, target_url: str, now: float) -> Response:
        """Attempt to archive `target_url` from the simulated live web."""
        response = self._patch(target_url, now)
        self._tally.add(response.status)
        return response

    def _patch(self, target_url: str, now: float) -> Response:
        try:
            target = parse_urir(target_url)
        except UrlError:
            return text_response(404, "unresolvable patch target")
        throttled = self.throttle.check(target_url, now)
        if throttled is not None:
            return throttled
        live = self.store.live_web.get(canonicalize(target))
        if live is None or live[0] != 200:
            return text_response(404, "target not on the live web")
        status, content_type, body = live
        self.store.insert(
            MementoRecord(
                target=target,
                timestamp14=timestamp14_at(now),
                status=status,
                content_type=content_type,
                body=body,
            )
        )
        return text_response(200, f"archived {target_url}")


def parse_manifest_text(text: str, base_dir: Path | None = None) -> MementoStore:
    """Parse the tab-separated store manifest.

    Record lines: timestamp14 <TAB> status <TAB> content_type <TAB> target_url
    <TAB> body, where body is `inline:<text>` or a file path (resolved against
    the manifest's directory). Lines whose first field is `live:` describe the
    simulated live web instead. Later duplicates win, with a warning.
    """
    store = MementoStore()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ManifestParseError(lineno, f"expected 5 tab-separated fields, got {len(fields)}")
        head, status_s, content_type, target_url, body_spec = fields

        try:
            status = int(status_s)
        except ValueError:
            raise ManifestParseError(lineno, f"bad status {status_s!r}") from None
        if not 0 <= status <= 599:
            raise ManifestParseError(lineno, f"status out of range: {status}")
        try:
            target = parse_urir(target_url)
        except UrlError as exc:
            raise ManifestParseError(lineno, str(exc)) from None
        body = _read_body(body_spec, base_dir)
        if content_type == "-":
            content_type = ""

        if head == "live:":
            store.live_web[canonicalize(target)] = (status, content_type, body)
            continue
        try:
            validate_timestamp14(head)
        except UrlError as exc:
            raise ManifestParseError(lineno, str(exc)) from None
        if store.insert(MementoRecord(target, head, status, content_type, body)):
            logger.warning("manifest line %d: duplicate record for %s@%s, last one wins", lineno, target_url, head)
    return store


def load_store_from_manifest(path: str | Path) -> MementoStore:
    p = Path(path)
    return parse_manifest_text(p.read_text(encoding="utf-8"), base_dir=p.parent)


def _read_body(spec: str, base_dir: Path | None) -> bytes:
    if spec.startswith("inline:"):
        return spec[len("inline:"):].encode("utf-8")
    path = Path(spec)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return path.read_bytes()
