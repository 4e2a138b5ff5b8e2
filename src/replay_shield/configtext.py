"""Line-oriented `key = value` config text used by proxy configs and scenario files.

Dotted keys express nesting (`injection.mode`), indexed keys express lists
(`essential.0`, `essential.1`). Values are raw strings; `#` starts a comment.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed config text or an invalid value for a known key."""


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "on", "yes", "1"):
        return True
    if v in ("false", "off", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def indexed_keys(items: dict[str, str], prefix: str) -> list[str]:
    """The keys `prefix.0`, `prefix.1`, ... present, in index order."""
    found: list[tuple[int, str]] = []
    for key in items:
        head, _, idx = key.rpartition(".")
        if head == prefix and idx.isdigit():
            found.append((int(idx), key))
    return [k for _, k in sorted(found)]
