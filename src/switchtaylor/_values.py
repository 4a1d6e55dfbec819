"""The package's integer and real-number rules.  bool is an ``Integral`` in
Python but no count, label or time here, and numeric text is no number."""

from __future__ import annotations

import numbers


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def number(value) -> float:
    """``float(value)`` for a real number, else NaN, which range checks refuse."""
    return float(value) if is_real(value) else float("nan")
