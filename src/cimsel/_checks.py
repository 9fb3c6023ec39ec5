"""The one rule for each kind of number cimsel takes from outside.

Counts, seeds, indices, penalty weights and solver constants all pass
through these checks, so a bad value raises ``ValueError`` naming its field
and nothing is converted silently: ``True`` is not 1 and ``2.0`` or ``"2"``
is not an integer.
"""

from __future__ import annotations

import math
import numbers
import operator


def integer(name: str, value, low: int) -> int:
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if operator.index(value) < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return operator.index(value)


def real(name: str, value) -> float:
    try:
        # an int too large for a float overflows in isfinite
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")
