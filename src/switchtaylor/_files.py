"""File arguments that may be a filesystem path or an open file object."""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def opened(file, mode: str):
    """Yield ``file`` itself when it is a file object; open a path in
    ``mode`` and close it on exit."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        with open(file, mode) as handle:
            yield handle
    else:
        yield file
