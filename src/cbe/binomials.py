"""Exact combinatorial arithmetic for the rank codec.

Multinomial coefficients over a table of symbol counts, plus the `mpz`
integer type the codec's hot loops run on (gmpy2's when it is
installed, plain `int` otherwise). Every value in this module is an
exact integer; coefficients are never approximated.
"""

import math
from operator import mul

try:
    from gmpy2 import bincoef as _comb, mpz
except ImportError:  # pragma: no cover - plain ints are a correct fallback
    mpz = int
    _comb = math.comb


def multinomial(counts) -> int:
    """Number of distinct arrangements of a multiset with these counts.

    Computed as a product of binomials over running totals, so the full
    factorial of the total is never materialized. The binomials are
    multiplied pairwise, level by level, with an odd one carried up, so
    most products join operands of similar width.
    """
    total = 0
    factors = []
    for c in counts:
        if c:
            if c < 0:
                raise ValueError("counts must be nonnegative")
            total += c
            factors.append(_comb(total, c))
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) & 1 else []
        factors = [*map(mul, factors[0::2], factors[1::2]), *odd]
    return int(factors[0]) if factors else 1
