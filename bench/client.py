"""A minimal HTTP/1.1 keep-alive GET client over one socket.

The load generator uses it instead of http.client because it is cheaper per
request and returns the exact size of each response head as read off the wire.
"""

from __future__ import annotations

import socket


class Connection:
    def __init__(self, address: str, timeout: float = 30.0):
        host, _, port = address.rpartition(":")
        self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._host = address.encode()
        self._buf = b""

    def get(self, path: str) -> tuple[int, list[tuple[str, str]], bytes, int]:
        """Send one GET; return (status, headers, body, head_bytes)."""
        self._sock.sendall(b"GET " + path.encode() + b" HTTP/1.1\r\nHost: " + self._host + b"\r\n\r\n")
        buf = self._buf
        end = buf.find(b"\r\n\r\n")
        while end < 0:
            buf += self._recv()
            end = buf.find(b"\r\n\r\n")
        head_bytes = end + 4
        lines = buf[:end].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = []
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            value = value.strip()
            headers.append((name, value))
            if name.lower() == "content-length":
                length = int(value)
        rest = buf[head_bytes:]
        while len(rest) < length:
            rest += self._recv()
        self._buf = rest[length:]
        return status, headers, rest[:length], head_bytes

    def _recv(self) -> bytes:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self._sock.close()
