"""Rational arithmetic backend.

Every quantity in this package is an exact rational, so the hot loops are
dominated by rational adds and comparisons.  When gmpy2 is importable its
GMP-backed mpq type is used; otherwise the stdlib Fraction.  The choice can
be forced with PRISONERS_RATIONAL_BACKEND=gmpy2|fraction, so one workload
can be run on either backend without uninstalling gmpy2.
"""
from __future__ import annotations

import os
from fractions import Fraction

_requested = os.environ.get("PRISONERS_RATIONAL_BACKEND", "").strip().lower()

if _requested not in ("", "gmpy2", "fraction", "fractions"):
    raise RuntimeError(
        "PRISONERS_RATIONAL_BACKEND must be 'gmpy2' or 'fraction', "
        f"not {_requested!r}"
    )

_mpq = None
if _requested in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as _mpq
    except ImportError:
        if _requested == "gmpy2":
            raise
        _mpq = None

if _mpq is not None:
    Rat = _mpq
    BACKEND = "gmpy2"
else:
    Rat = Fraction
    BACKEND = "fraction"
