"""Flat key-value run configuration files.

The format is one ``key = value`` assignment per line.  Values are integers,
floats, bare strings, or bracketed arrays of values; nested arrays express
matrices (``generator = [[-1.0, 1.0], [1.0, -1.0]]``).  Blank lines and lines
starting with ``#`` are ignored.  Keys follow identifier rules and may not
repeat.  The format needs no quoting, so bare strings cannot contain
whitespace, brackets, commas, ``=`` or ``#``.
"""

from __future__ import annotations

import re

from .errors import ConfigError

__all__ = ["parse_config", "load_config"]

_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
# anything unquoted that cannot be confused with structure
_BARE_RE = re.compile(r"[^\s\[\],=#]+\Z")


def _split_top(text: str, key: str):
    """Split on commas that sit outside any bracket."""
    items = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ConfigError("%s: unbalanced ']' in value" % key)
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ConfigError("%s: unbalanced '[' in value" % key)
    items.append("".join(current))
    return items


def _parse_value(text: str, key: str):
    text = text.strip()
    if not text:
        raise ConfigError("%s: empty value" % key)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("%s: array value must end with ']'" % key)
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(part, key) for part in _split_top(inner, key)]
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        pass
    if _BARE_RE.match(text):
        return text
    raise ConfigError("%s: cannot parse value %r" % (key, text))


def parse_config(text: str) -> dict:
    """Parse config text into an ordered mapping.

    Raises ConfigError naming the offending key or line.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError("line %d: invalid config key %r" % (lineno, key))
        if key in out:
            raise ConfigError("%s: duplicate config key" % key)
        out[key] = _parse_value(value, key)
    return out


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("config: cannot read %s (%s)" % (path, exc)) from exc
    return parse_config(text)

