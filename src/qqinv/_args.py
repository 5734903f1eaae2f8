"""The argument contract of the public functions: one reader per kind of
argument.

Each reader returns the argument in the form the code computes with, or
raises an error that names it: a TypeError for a value of the wrong kind,
a ValueError for one out of range or malformed.  The defaults and bounds
that the command line shares with the library live here too, so that its
parser imports no command's module; local_invariants and molien re-export
them.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

#: seed of the identity panels of local_invariants, qqinv invariants and selftest
DEFAULT_PANEL_SEED = 20260
#: highest word degree of enumerate_words, independence_evidence and the CLI
MAX_WORD_DEGREE = 8
#: molien_series's and qqinv molien's resource cap on the degree
DEFAULT_DEGREE_CAP = 20


def integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int.  Any type with __index__ will do (numpy
    integers included); a bool, a float or None raises a TypeError, never a
    cast.  With lo, a value below lo raises a ValueError, and with lo and
    hi too, a value outside lo..hi."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if lo is not None and value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def real(value, name: str) -> float:
    """A real scalar as a Python float.  Python and numpy integers and
    floats will do (any numbers.Real); a bool, a str, None or a complex
    number raises a TypeError, never a cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def seed(value, name: str = "seed") -> int:
    """A generator seed as an integer >= 0.  numpy would read a bool as an
    integer and None as a fresh, irreproducible draw, and it rejects a
    negative seed without naming it."""
    return integer(value, name, 0)


def real_array(value, name: str) -> np.ndarray:
    """A field of real coordinates as a float array; only integer and float
    input is converted.  Complex input (the conversion would drop the
    imaginary part), booleans, objects and strings raise a ValueError naming
    the field, and so does ragged nesting."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise ValueError(f"field {name!r} is ragged: its nested sequences "
                         f"differ in length") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(
            f"field {name!r} has dtype {array.dtype}, expected real coordinates")
    return np.asarray(array, dtype=float)


def degree_pairs(value, name: str) -> list[tuple[int, int]]:
    """A sequence of (degree, multiplicity) pairs as Python ints, each >= 1;
    an entry is read by integer as "<name> degree" or "<name> multiplicity"."""
    return [(integer(deg, f"{name} degree", 1), integer(mult, f"{name} multiplicity", 1))
            for deg, mult in value]
