"""File arguments that may be a filesystem path or an open file object."""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def opened(file, mode: str):
    """Yield ``file`` itself when it is a file object; open a path in
    ``mode`` and close it on exit.  A path opened as text is UTF-8 with
    "\\n" line ends, so the bytes written do not depend on the platform."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
        with open(file, mode, **text) as handle:
            yield handle
    else:
        yield file
