"""The rank codec: a bijection between a message and its index in the
ordered list of all rearrangements of its symbol multiset.

Arrival convention
------------------
The symbol processed first sits at arrival position 0, and positions
gain significance as they grow: two messages compare by their *reversed*
arrival sequences under alphabet order. A binary numeral written
most-significant-bit first is therefore fed in from its least
significant bit, while a text string is fed in reading order. Under
this one convention the string "aabb" and the numeral [1100] are the
same input, and both rank 5 among the arrangements of two zeros and two
ones.

Encoding is adaptive and single-pass: each arrival is charged the
number of arrangements of the prefix seen so far that would sort below
it, maintained incrementally. No symbol statistics are needed up
front; the counts accumulated during the pass are exactly the side
information the decoder requires.

`encode`/`decode` handle any alphabet. Bit mode uses `encode_binary`/
`decode_binary`, the two-symbol case of the same ranking (Cover's
enumerative code): they produce the same ranks, but roll a single
binomial coefficient forward instead of keeping a Fenwick tally.
"""

import math

from .binomials import mpz, multinomial
from .multiset import Alphabet, FrequencyTable, UnknownSymbolError


class RankRangeError(ValueError):
    """Rank is outside [0, P) for the paired frequency table."""


def arrivals_from_numeral(numeral: str):
    """Bits of a 0/1 numeral string in arrival order (LSB first)."""
    bits = []
    for ch in reversed(numeral):
        if ch not in "01":
            raise ValueError(f"invalid numeral digit {ch!r}")
        bits.append(ord(ch) - ord("0"))
    return bits


def numeral_from_arrivals(bits) -> str:
    """Render an arrival-order bit sequence as an MSB-first numeral."""
    return "".join("01"[b] for b in reversed(list(bits)))


def encode_binary(bits):
    """Rank a 0/1 arrival sequence among arrangements of its bit counts.

    Returns (rank, zeros, ones). Every ONE at arrival position i adds
    C(i, j), where j counts ones through position i inclusive; zeros
    add nothing. The single coefficient needed next is rolled forward
    with one exact multiply and divide per bit, so memory stays flat
    and nothing is shared between calls.
    """
    # coeff tracks C(i, ones-before-i); both updates divide exactly.
    rank = mpz(0)
    coeff = mpz(1)
    ones = 0
    i = 0
    for b in bits:
        if b == 1:
            rank += coeff * (i - ones) // (ones + 1)  # C(i, ones+1)
            ones += 1
            coeff = coeff * (i + 1) // ones
        elif b == 0:
            coeff = coeff * (i + 1) // (i + 1 - ones)
        else:
            raise ValueError(f"bit at position {i} is {b!r}, expected 0 or 1")
        i += 1
    return int(rank), i - ones, ones


def decode_binary(rank, zeros: int, ones: int):
    """Rebuild the arrival sequence for (rank, zeros, ones).

    Walks positions from most significant down: with the position index
    equal to the number of remaining lower positions, a ONE is placed
    whenever the rank covers every arrangement that would put a ZERO
    there. Raises RankRangeError unless 0 <= rank < C(zeros+ones, ones).
    """
    if zeros < 0 or ones < 0:
        raise ValueError("bit counts must be nonnegative")
    n = zeros + ones
    total = math.comb(n, ones)
    if not 0 <= rank < total:
        raise RankRangeError(
            f"rank {rank} out of range for {zeros} zeros and {ones} ones "
            f"({total} arrangements)"
        )
    if n == 0:
        return []
    # threshold tracks C(pos, ones); stays 0 while only ones remain.
    rank = mpz(rank)
    threshold = mpz(math.comb(n - 1, ones))
    out = [0] * n
    for pos in range(n - 1, -1, -1):
        if rank >= threshold:
            rank -= threshold
            out[pos] = 1
            if pos:
                threshold = threshold * ones // pos
            ones -= 1
        elif pos:
            threshold = threshold * (pos - ones) // pos
    assert rank == 0 and ones == 0
    return out


def encode(message, alphabet: Alphabet):
    """Rank `message` among all arrangements of its own symbol multiset.

    Single forward pass over any iterable of symbols; works against a
    stream with no lookahead. Returns (rank, table) where the frequency
    table was tallied during the pass and is the side information
    `decode` needs back.
    """
    ranks = alphabet.rank_map
    t = len(alphabet)
    # Fenwick tree over symbol ranks: tree[j] holds the arrivals in the
    # rank range ending at j-1 of width j & -j. Inlined because this
    # loop is the container's hot path.
    tree = [0] * (t + 1)
    counts = [0] * t
    current = mpz(1)
    rank = mpz(0)
    i = 0
    for symbol in message:
        k = ranks.get(symbol)
        if k is None:
            raise UnknownSymbolError(symbol, i)
        below = 0
        j = k
        while j:
            below += tree[j]
            j &= j - 1
        seen_k = counts[k] + 1
        i += 1
        if below:
            rank += current * below // seen_k
        current = current * i // seen_k
        counts[k] = seen_k
        j = k + 1
        while j <= t:
            tree[j] += 1
            j += j & -j
    return int(rank), FrequencyTable(alphabet, tuple(counts))


def decode(rank, table: FrequencyTable):
    """Invert `encode`: the arrival sequence whose rank is `rank`.

    Fails fast with RankRangeError unless 0 <= rank < the number of
    arrangements of the table's multiset, so corrupted input cannot emit
    plausible-looking output.
    """
    permutations = multinomial(table.counts)
    if not 0 <= rank < permutations:
        raise RankRangeError(
            f"rank {rank} out of range for table with {permutations} arrangements"
        )
    ranks = _unrank_counts(rank, table.counts, permutations)
    symbols = table.alphabet.symbols
    return [symbols[k] for k in ranks]


def _unrank_counts(rank, counts, permutations):
    """Arrival ranks for `rank`, given remaining `counts` summing to n.

    Caller guarantees 0 <= rank < permutations == multinomial(counts).
    Chooses the top position's symbol by cumulative arrangement counts,
    found through a Fenwick descent, then moves down one position.
    """
    t = len(counts)
    remaining = list(counts)
    m = sum(remaining)
    out = [0] * m
    if m == 0:
        return out
    rank = mpz(rank)
    total = mpz(permutations)
    tree = [0] * (t + 1)
    for idx in range(1, t + 1):
        tree[idx] += remaining[idx - 1]
        parent = idx + (idx & -idx)
        if parent <= t:
            tree[parent] += tree[idx]
    top = 1 << t.bit_length()
    pos = m
    while m:
        cut = int(rank * m // total)
        k = 0
        below = cut
        bit = top
        while bit:
            nxt = k + bit
            if nxt <= t and tree[nxt] <= below:
                below -= tree[nxt]
                k = nxt
            bit >>= 1
        below = cut - below  # prefix count of ranks < k
        if below:
            rank -= total * below // m
        total = total * remaining[k] // m
        remaining[k] -= 1
        j = k + 1
        while j <= t:
            tree[j] -= 1
            j += j & -j
        m -= 1
        pos -= 1
        out[pos] = k
    assert rank == 0
    return out
