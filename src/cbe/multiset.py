"""Alphabets, frequency tables, and the information-theoretic yardsticks
used to size and judge encoded ranks."""

import math
from collections import Counter

from .binomials import multinomial


class FrozenRecord:
    """Base of the package's immutable value types.

    A subclass names its fields in `_fields`, stores them with
    `_set_fields` in `__init__`, and gets equality (with its own type
    only), hashing and a repr over those fields, in that order. Its
    fields cannot be assigned or deleted afterwards. Copies and pickles
    rebuild it by passing the field values to `__init__`; a subclass
    whose `__init__` takes other arguments overrides `__reduce__`.
    """

    __slots__ = ()
    _fields = ()

    def _set_fields(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class UnknownSymbolError(ValueError):
    """A message symbol is not a member of the working alphabet."""

    def __init__(self, symbol, position=None):
        where = "" if position is None else f" at position {position}"
        super().__init__(f"symbol {symbol!r}{where} is not in the alphabet")
        self.symbol = symbol
        self.position = position


class Alphabet(FrozenRecord):
    """Ordered set of distinct unsigned symbol identifiers.

    Symbols are kept in ascending order and a symbol's position is its
    rank; smaller identifiers rank lower in every ordering this package
    produces.
    """

    __slots__ = ("symbols", "_ranks")
    _fields = ("symbols",)

    def __init__(self, symbols: tuple):
        ordered = tuple(sorted(symbols))
        if not ordered:
            raise ValueError("alphabet must contain at least one symbol")
        for s in ordered:
            if not isinstance(s, int) or s < 0:
                raise ValueError(f"symbol {s!r} is not an unsigned integer")
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate symbol {a!r}")
        self._set_fields(ordered)
        object.__setattr__(self, "_ranks", {s: i for i, s in enumerate(ordered)})

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._ranks

    def rank_of(self, symbol) -> int:
        try:
            return self._ranks[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol, None) from None

    @property
    def rank_map(self) -> dict:
        """Symbol -> rank lookup table (treat as read-only)."""
        return self._ranks


BYTE_ALPHABET = Alphabet(tuple(range(256)))
BIT_ALPHABET = Alphabet((0, 1))


class FrequencyTable(FrozenRecord):
    """Per-symbol occurrence counts; the decoder's side information.

    `n`, the number of symbols counted, is derived from the counts.
    """

    __slots__ = _fields = ("alphabet", "counts", "n")

    def __init__(self, alphabet: Alphabet, counts: tuple):
        counts = tuple(counts)
        if len(counts) != len(alphabet):
            raise ValueError(
                f"{len(counts)} counts for {len(alphabet)} symbols"
            )
        for c in counts:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"count {c!r} is not a nonnegative integer")
        self._set_fields(alphabet, counts, sum(counts))

    def __reduce__(self):
        return FrequencyTable, (self.alphabet, self.counts)

    @property
    def t_effective(self) -> int:
        """Number of symbols that actually occur."""
        return sum(1 for c in self.counts if c)

    def nonzero_items(self):
        """(symbol, count) pairs for occurring symbols, ascending."""
        return [
            (s, c) for s, c in zip(self.alphabet.symbols, self.counts) if c
        ]

    def multiset(self):
        """The counted symbols expanded into an ascending list."""
        out = []
        for s, c in zip(self.alphabet.symbols, self.counts):
            out.extend([s] * c)
        return out


def build_frequency_table(message, alphabet: Alphabet) -> FrequencyTable:
    """Tally a message over `alphabet`, rejecting foreign symbols.

    The message is counted by `Counter`; only when a symbol is foreign
    is it scanned again, to report the first one and its position.
    """
    if iter(message) is message:  # a one-pass iterator
        message = list(message)
    counts = [0] * len(alphabet)
    ranks = alphabet.rank_map
    for symbol, count in Counter(message).items():
        rank = ranks.get(symbol)
        if rank is None:
            for position, symbol in enumerate(message):
                if symbol not in ranks:
                    raise UnknownSymbolError(symbol, position)
        counts[rank] = count
    return FrequencyTable(alphabet, tuple(counts))


def shannon_entropy(table: FrequencyTable) -> float:
    """Entropy of the table's empirical distribution, bits/symbol.

    Zero-count symbols contribute nothing; the empty table has entropy 0.
    """
    n = table.n
    if n == 0:
        return 0.0
    total = 0.0
    for c in table.counts:
        if c:
            p = c / n
            total -= p * math.log2(p)
    return total


def permutation_count(table: FrequencyTable) -> int:
    """Number of distinct arrangements of the table's multiset."""
    return multinomial(table.counts)


def log2_arrangements(counts) -> float:
    """log2 of the multinomial count of `counts`, from lgamma.

    (lgamma(n+1) - sum lgamma(c+1)) / ln 2 takes time linear in the
    number of counts, whatever their size, where the exact count grows
    superlinearly in n. The float error is a small multiple of
    1e-16 * lgamma(n+1); a one-symbol or empty table gives exactly 0.0.
    """
    whole = math.lgamma(sum(counts) + 1)
    parts = math.fsum(math.lgamma(c + 1) for c in counts if c)
    return (whole - parts) / math.log(2)


def rank_width_bits(permutations: int) -> int:
    """Bits needed to address any rank in [0, permutations)."""
    if permutations < 1:
        raise ValueError("permutation count must be positive")
    return (permutations - 1).bit_length()


def naive_bit_length(n: int, t: int) -> float:
    """Bits for n symbols with no statistics: n * log2(t)."""
    if t < 1:
        raise ValueError("alphabet size must be positive")
    if n == 0:
        return 0.0
    return n * math.log2(t)


def compression_ratio(uncompressed_bits: float, compressed_bits: float) -> float:
    """Uncompressed over compressed size."""
    if compressed_bits <= 0:
        raise ValueError("compressed size must be positive")
    return uncompressed_bits / compressed_bits


def space_saving_percent(uncompressed_bits: float, compressed_bits: float) -> float:
    """Percentage of space removed by compression."""
    if uncompressed_bits <= 0:
        raise ValueError("uncompressed size must be positive")
    return (1.0 - compressed_bits / uncompressed_bits) * 100.0


class MessageStats(FrozenRecord):
    """Size accounting for one message/table."""

    __slots__ = _fields = (
        "n",
        "t_effective",
        "entropy_bits_per_symbol",
        "shannon_total_bits",
        "rank_bound_bits_real",
        "naive_bits",
        "compression_ratio",
        "space_saving_percent",
    )

    def __init__(self, n: int, t_effective: int,
                 entropy_bits_per_symbol: float, shannon_total_bits: float,
                 rank_bound_bits_real: float, naive_bits: float,
                 compression_ratio: float, space_saving_percent: float):
        self._set_fields(n, t_effective, entropy_bits_per_symbol,
                         shannon_total_bits, rank_bound_bits_real, naive_bits,
                         compression_ratio, space_saving_percent)


def message_stats(table: FrequencyTable) -> MessageStats:
    """All yardsticks for one table.

    The naive baseline uses the number of symbols actually present, so
    it is a length the message itself could be stored in. Ratio and
    saving compare that baseline against the entropy total; with one or
    zero distinct symbols both lengths vanish and the ratio degenerates
    to 1 (nothing to compress). The rank bound log2 P comes from
    `log2_arrangements`, so no exact count is built.
    """
    n = table.n
    t_eff = table.t_effective
    entropy = shannon_entropy(table)
    total_entropy_bits = n * entropy
    naive = naive_bit_length(n, t_eff) if t_eff else 0.0
    if naive > 0.0 and total_entropy_bits > 0.0:
        ratio = compression_ratio(naive, total_entropy_bits)
        saving = space_saving_percent(naive, total_entropy_bits)
    else:
        ratio = 1.0
        saving = 0.0
    return MessageStats(
        n=n,
        t_effective=t_eff,
        entropy_bits_per_symbol=entropy,
        shannon_total_bits=total_entropy_bits,
        rank_bound_bits_real=log2_arrangements(table.counts),
        naive_bits=naive,
        compression_ratio=ratio,
        space_saving_percent=saving,
    )
