"""Minimal HTTP request/response values shared by the proxy, upstream, and workload."""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlsplit


@dataclass(frozen=True)
class Request:
    method: str
    url: str


@dataclass(frozen=True)
class Response:
    status: int
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes = b""

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for n, v in self.headers:
            if n.lower() == wanted:
                return v
        return None

    def with_header(self, name: str, value: str) -> "Response":
        """Return a copy with `name` set to `value`, replacing any existing occurrence."""
        unwanted = name.lower()
        kept = tuple((n, v) for n, v in self.headers if n.lower() != unwanted)
        return Response(self.status, kept + ((name, value),), self.body)


def origin_form(url: str) -> str:
    """The request target as sent on the wire: path plus query, host stripped."""
    parts = urlsplit(url)
    path = parts.path or "/"
    return f"{path}?{parts.query}" if parts.query else path


def text_response(status: int, text: str) -> Response:
    return Response(status, (("Content-Type", "text/plain"),), text.encode("utf-8"))
