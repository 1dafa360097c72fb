"""Shared test helpers."""

from functools import cache
from math import factorial, prod

from cbe import Alphabet, FrequencyTable


def table_of(*counts) -> FrequencyTable:
    """Frequency table over the implicit alphabet 0..len(counts)-1."""
    return FrequencyTable(Alphabet(tuple(range(len(counts)))), counts)


def char_table(spec: dict) -> FrequencyTable:
    """Frequency table from a {char: count} mapping."""
    alphabet = Alphabet(tuple(ord(c) for c in spec))
    return FrequencyTable(
        alphabet, tuple(spec[chr(s)] for s in alphabet.symbols)
    )


def factorial_multinomial(counts) -> int:
    """Arrangement count straight from factorials (independent oracle)."""
    return _factorial(sum(counts)) // prod(_factorial(c) for c in counts)


@cache
def _factorial(n: int) -> int:
    return factorial(n)
