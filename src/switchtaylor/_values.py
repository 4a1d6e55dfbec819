"""The package's number, time and label rules.  bool is an ``Integral`` in
Python but no count, label or time here, and numeric text is no number.
The array rules raise the calling site's package error, for text or ragged
input too: ``floats`` reads numbers, ``times`` a 1-D run of finite, strictly
increasing times and ``labels`` integer labels from 1, as ``label`` does for
one label."""

from __future__ import annotations

import numbers

import numpy as np


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def number(value) -> float:
    """``float(value)`` for a real number, else NaN, which range checks refuse."""
    return float(value) if is_real(value) else float("nan")


def label(value, what: str, error, m0=None) -> None:
    """An integer label from 1, and at most ``m0`` where the count is known."""
    if not is_int(value) or value < 1 or (m0 is not None and value > m0):
        raise error("%s %r outside 1..%s" % (what, value, m0 or "m0"))


def _array(value, dtype, what: str, error) -> np.ndarray:
    # numpy's own refusal of text or ragged input is a bare ValueError
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise error("%s must be an array of numbers" % what) from None


def floats(value, what: str, error) -> np.ndarray:
    """``value`` as a float array, not copied when it is one already."""
    return _array(value, float, what, error)


def times(value, what: str, error, least: int = 2) -> np.ndarray:
    """A 1-D float array of at least ``least`` finite, strictly increasing times."""
    t = _array(value, float, what, error)
    # NaN fails every comparison, so with the order held only the ends can be inf
    if t.ndim != 1 or t.size < least or (
        t.size and not (-np.inf < t[0] and t[-1] < np.inf and (t[1:] > t[:-1]).all())
    ):
        need = ", at least %d of them" % least if least else ""
        raise error("%s must be finite and strictly increasing in 1-D%s" % (what, need))
    return t


def labels(value, what: str, error) -> np.ndarray:
    """An integer array of labels from 1; an empty one passes whatever its dtype."""
    a = _array(value, None, what, error)
    if a.size and a.dtype.kind not in "iu":
        raise error("%s must be integers, got dtype %s" % (what, a.dtype))
    if a.size and a.min() < 1:
        raise error("%s must start at 1, got %d" % (what, a.min()))
    return a
