"""The package's number, count, time and label rules.  bool is an
``Integral`` in Python but no count, label or time here, and numeric text is
no number.  ``count`` reads levels, paths, grid intervals and dimensions:
integers from 1 to 2**53, the ones a float holds exactly.  The array rules
raise the calling site's package error, for text or ragged input too:
``floats`` reads numbers, ``finite`` numbers that are all finite, ``times`` a
1-D run of finite, strictly increasing times and ``labels`` integer labels
from 1 to the regime count where it is known, as ``label`` does for one label.
No other module converts a caller's array with ``dtype=float``.  Exact int
and float skip the ``numbers`` ABCs' slow check."""

from __future__ import annotations

import numbers

import numpy as np


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return type(value) is int or (type(value) is not bool and isinstance(value, numbers.Integral))


def is_real(value) -> bool:
    """A real number that is not a bool."""
    kind = type(value)
    return kind is float or kind is int or (kind is not bool and isinstance(value, numbers.Real))


def number(value) -> float:
    """``float(value)`` for a real number, else NaN, which range checks refuse;
    an integer too large for a float is an infinity of its sign."""
    try:
        return float(value) if is_real(value) else float("nan")
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def is_count(value, dyadic: bool = False) -> bool:
    """An integer from 1 to 2**53, and a power of two if ``dyadic``."""
    return is_int(value) and 1 <= value <= 2**53 and not (dyadic and value & (value - 1))


def count(value, what: str, error, dyadic: bool = False) -> int:
    """``value`` as an int if ``is_count`` accepts it; a float is no count."""
    if not is_count(value, dyadic):
        kind = " and a power of two" if dyadic else ""
        raise error("%s must be an integer from 1 to 2**53%s, got %r" % (what, kind, value))
    return int(value)


def label(value, what: str, error, m0=None) -> None:
    """An integer label from 1, and at most ``m0`` where the count is known."""
    if not is_int(value) or value < 1 or (m0 is not None and value > m0):
        raise error("%s %r outside 1..%s" % (what, value, m0 or "m0"))


def _array(value, dtype, what: str, error) -> np.ndarray:
    # numpy refuses text, ragged or oversized input with a bare builtin error
    try:
        return np.asarray(value, dtype=dtype)
    except (OverflowError, TypeError, ValueError):
        raise error("%s must be an array of numbers" % what) from None


def floats(value, what: str, error) -> np.ndarray:
    """``value`` as a float array, not copied when it is one already."""
    return _array(value, float, what, error)


def finite(value, what: str, error) -> np.ndarray:
    """``floats`` with every entry finite."""
    a = _array(value, float, what, error)
    if not np.isfinite(a).all():
        raise error("%s must be finite" % what)
    return a


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


def labels(value, what: str, error, m0=None) -> np.ndarray:
    """An integer array of labels from 1, and at most ``m0`` where the count
    is known; an empty one passes whatever its dtype."""
    a = value if type(value) is np.ndarray else _array(value, None, what, error)
    if a.size and a.dtype.kind not in "iu":
        raise error("%s must be integers, got dtype %s" % (what, a.dtype))
    # one label is read as a Python int, which is cheaper than a reduction
    one = a.size == 1
    lo = a.item() if one else a.min(initial=1)
    if lo < 1:
        raise error("%s must start at 1, got %d" % (what, lo))
    if m0 is not None and (lo if one else a.max(initial=1)) > m0:
        raise error("%s run from 1 to %d, got %d..%d" % (what, m0, a.min(), a.max()))
    return a
