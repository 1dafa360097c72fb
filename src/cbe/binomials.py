"""Exact combinatorial arithmetic for the rank codec.

Multinomial coefficients over a table of symbol counts, plus the `mpz`
integer type the codec's hot loops run on (gmpy2's when it is
installed, plain `int` otherwise). Every value in this module is an
exact integer; coefficients are never approximated.
"""

import math

try:
    from gmpy2 import bincoef as _comb, mpz
except ImportError:  # pragma: no cover - plain ints are a correct fallback
    mpz = int
    _comb = math.comb


def multinomial(counts) -> int:
    """Number of distinct arrangements of a multiset with these counts.

    Computed as a product of binomials over running totals, so the full
    factorial of the total is never materialized.
    """
    total = 0
    result = mpz(1)
    for c in counts:
        if c < 0:
            raise ValueError("counts must be nonnegative")
        if c:
            total += c
            result *= _comb(total, c)
    return int(result)
