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
it. No symbol statistics are needed up front; the counts accumulated
during the pass are exactly the side information the decoder requires.
`encode` tallies the message run by run and turns each run into one
term of a rational series. It keeps the ranks of all arrivals so far in
one sorted array, as decode keeps its pool, so the arrivals below a
symbol are where it would go in that array. While the arrangement count
is short it adds each term to the rank in one exact step, taking the
runs from `groupby`. Once the count is wider, it reads the raw symbols
and counts each run as it goes, combines every few runs' terms into one
with the product tree's own rule, and sums every few hundred arrivals'
terms at once with a product tree over those groups (binary splitting,
after Haible and Papanikolaou), folding each partial sum into the rank
with one exact division. The last step or fold also yields the block's
arrangement count.

Both directions follow one width rule: exact steps while the
arrangement count is at most `_TAIL` bits, chunked folds above it.

`decode` walks back from the top position down. Each of its steps is
the interval-narrowing step of arithmetic decoding (Witten, Neal and
Cleary) on the fraction x = rank/arrangements: the symbol on top is
the one whose share of the remaining symbols holds floor(x*m), read
off a sorted pool of the symbols left. A step needs only the leading
bits of x, so decode carries x as a fixed-point fraction with a proven
error bound, takes a symbol only when no value within the bound would
give another, and folds every chunk of decisions back into the exact
rank and arrangement count. It combines the chunk's terms as it takes
them, with the product tree's own rule applied one term at a time, so
the fold is the encoder's single exact division.
Where the numbers are short enough to step exactly, a run of one
symbol is decoded in one step: the arrangements that put that symbol
on the top j positions form nested intervals, and the run's length is
the deepest one that holds the rank, guessed in floats and checked
exactly (Cover's enumerative code, taken a run at a time).

`encode`/`decode` handle any alphabet. Bit mode has its own ranker and
unranker for the two-symbol case of the same ranking (Cover's
enumerative code), with the same ranks. `_rank_bit_string` finds the
ones with `str.split` and `str.find`, with no regular expression, and
carries one binomial coefficient from each one to the next: a lone one
adds a term that is the last one's rolled across the gap, at one exact
division, and the ones of a run telescope to the coefficient after it
minus the coefficient before it, at two. A long gap or run takes the
coefficient whole from `math.comb` instead (see `_LONG_RUN`), so it
costs about the width of its result, and a block whose ones are the
majority is ranked as its complement.
`_unrank_bits` walks the positions down, one exact step per bit, two
per step through sparser zeros, and returns the block as one int.
Where zeros leave long gaps it jumps to the next one in one step,
guessed in floats and checked exactly, and it stops once the rank is
spent. `encode_binary`/`decode_binary` wrap them for bit lists.
"""

import math
from bisect import bisect_left
from itertools import chain, groupby

from .binomials import mpz, multinomial
from .multiset import Alphabet, FrequencyTable, UnknownSymbolError


# Arrivals per fold once the arrangement count is wider than `_TAIL`:
# encode's product trees and, at most, decode's windowed chunks. Larger
# chunks multiply ever wider products, of which only the ratio P/Q
# reaches the rank; smaller ones pay more full-width divisions.
_CHUNK = 512

# Runs' leaves `_rank_message` combines one at a time into each leaf of
# its product trees. On a random 4 KiB block 16 leaves make numbers of
# about 200 bits, too short for a tree's balanced products to pay, and a
# tree of 32 groups costs less than one of 512 leaves.
_GROUP = 16

# `_unrank_counts` decodes from a `_WINDOW`-bit fixed-point fraction of
# rank over total, whose top 64 bits decide each cut. A chunk stops once
# its float error bound comes within `_GUARD` bits of the window. The
# bound is carried in units of 2^(_WINDOW - 64) and is never below 2
# units, so _WINDOW - 64 must stay at most 1022 for every value it takes
# to be a normal float, which scales by powers of two exactly; and
# _WINDOW must stay above 64. A total of at most `_TAIL` bits is finished
# with exact steps, which are then no dearer than windowed ones, and
# `_rank_message` steps exactly while its count is that narrow.
_WINDOW = 768
_GUARD = 32
_TAIL = 2 * _WINDOW
_LN2 = math.log(2)  # `_ln` scales wide values by powers of two

# `encode_binary` spells bits out with `_BIT_CHARS`.
_BIT_CHARS = {0: "0", 1: "1"}

# A gap of zeros longer than this, and than half the ones before it, or
# a run of ones longer than this, and than half the zeros before it,
# takes its binomial coefficient from `math.comb` rather than rolling
# the last one across it: rolling multiplies and divides by operands
# about g * log2(position) bits wide, while `math.comb` costs about the
# width of its result. `_rank_bit_string` reads a block with such a run
# of ones with `str.find`, a step per run rather than per one. Random
# 4096-bit blocks at 10% ones have no run this long.
_LONG_RUN = 32

# `_unrank_bits` steps over zeros one position at a time while at most
# `_PAIR` positions remain per remaining one, and two at a time beyond
# that; past `_JUMP` positions per one, a gap that outlasts its first
# two-position step is jumped to its end. A two-position step multiplies
# and divides by single-digit ints below 32768 positions; a jump costs
# about as much as 25 such steps, so ones bunched among long gaps are
# not jumped to one at a time. On random 4096-bit blocks two-position
# steps take 1.12x the time of single steps at 2 positions per one,
# 1.01x at 3 and 0.78x at 4, and jumps 0.95x that of two-position steps
# at 16 to 24 positions per one, 0.80x at 32 and 0.57x at 48.
_PAIR = 4
_JUMP = 32

# `_rank_message` splices each run of rank k into its sorted bytearray
# of arrivals as `_BYTE_PIECES[k] * r`, and `_END` ends its wide loop,
# so the last run closes like any other.
_BYTE_PIECES = [bytes((k,)) for k in range(256)]
_END = object()


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

    Returns (rank, zeros, ones): Cover's enumerative rank, the sum of
    C(p, j) over the positions p of the ones, j counting ones through p
    inclusive. Any iterable of 0/1 values is accepted; anything else
    raises ValueError naming the first bad position. The bits are
    spelled out as a '0'/'1' string and ranked by `_rank_bit_string`.
    """
    bits = list(bits)
    try:
        s = "".join(map(_BIT_CHARS.__getitem__, bits))
    except (KeyError, TypeError):
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(
                    f"bit at position {i} is {b!r}, expected 0 or 1"
                ) from None
        raise
    rank, ones, _ = _rank_bit_string(s)
    return rank, len(s) - ones, ones


def _rank_bit_string(s):
    """Rank a '0'/'1' string of arrivals; returns (rank, ones, P).

    The rank is Cover's sum of C(p, j) over the positions p of the ones,
    j counting ones through p, and P = C(n, ones) is the block's
    arrangement count. One coefficient, coeff = C(q, j) for the j ones
    before some position q, is carried from one to the next:
    - a lone one at p, g = p - q positions on, adds C(p, j + 1), which
      is coeff * perm(p, g) / ((j + 1) * perm(p - j - 1, g - 1)): one
      exact division, whose result is the next coeff, with q = p;
    - a run of r ones at p adds C(p + b, j + 1 + b) for b < r, which
      telescopes to C(p + r, j + r) - C(p, j): coeff is rolled across
      the gap to C(p, j) by perm(p, g) / perm(p - j, g), and across the
      run by perm(p + r, r) / perm(j + r, r), two exact divisions, with
      q = p + r.
    Any q up to the next one will do, so no step leaves a factor over
    for the next. The last coeff, rolled to q = n, is P. A long gap or
    run takes its coefficient from `math.comb` instead (see `_LONG_RUN`).

    The ones are found by splitting the string at each one, so a piece
    is the gap before the next one, and an empty piece puts that one in
    a run. A block with a run longer than `_LONG_RUN` is read with
    `str.find` instead (`_found_gaps`), a step per run, so a long run
    costs no step per one. Ones before the first zero add C(p, p + 1) =
    0 each. A block whose ones are the majority is ranked as its
    complement, rank = P - 1 - rank(~s), with the two characters' roles
    swapped, so that the loop takes one step per zero instead.
    """
    n = len(s)
    first = s.find("1")
    if first < 0:
        return 0, 0, 1
    ones = s.count("1", first)
    one, zero = ("1", "0") if 2 * ones <= n else ("0", "1")
    t = s + zero  # so the last one has a gap after it, like every other
    rank = mpz(0)
    coeff = mpz(1)
    q = j = t.find(zero)
    if t.find(one * (_LONG_RUN + 1), q) < 0:
        gaps = map(len, t[q:].split(one))
    else:  # a run of ones too long to take a piece per one
        gaps = _found_gaps(t, one, zero, q)
    p = q + next(gaps)  # where the first run starts
    r = 1  # ones in the run from p, so far
    for z in gaps:
        if z <= 0:  # the next one is adjacent, or 1 - z more are
            r += 1 - z
            continue
        g = p - q
        if r == 1:
            j += 1
            if g > _LONG_RUN and 2 * g > j:
                coeff = mpz(math.comb(p, j))
            else:
                coeff = coeff * math.perm(p, g) // (j * math.perm(p - j, g - 1))
            rank += coeff
            q = p
            p += 1 + z
        else:
            if g == 1:  # as in a table's composition, between its runs
                coeff = coeff * p // (p - j)
            elif g > _LONG_RUN and 2 * g > j:
                coeff = mpz(math.comb(p, j))
            else:
                coeff = coeff * math.perm(p, g) // math.perm(p - j, g)
            q = p + r
            if r > _LONG_RUN and 2 * r > p - j:
                new = mpz(math.comb(q, p - j))
            else:
                new = coeff * math.perm(q, r) // math.perm(j + r, r)
            rank += new - coeff
            coeff = new
            j += r
            p = q + z
            r = 1
    g = n - q
    if g > _LONG_RUN and 2 * g > j:
        coeff = mpz(math.comb(n, j))
    elif g:
        coeff = coeff * math.perm(n, g) // math.perm(n - j, g)
    if one == "0":
        rank = coeff - 1 - rank
    return int(rank), ones, int(coeff)


def _found_gaps(t, one, zero, start):
    """`_rank_bit_string`'s gaps from t[start], a zero, found with `str.find`.

    The same numbers as the lengths of the pieces between ones, but a run
    of r >= 2 ones stands in as one number, 2 - r, in place of the r - 1
    empty pieces between its ones, so it costs one step however long.
    """
    while (p := t.find(one, start)) >= 0:
        yield p - start
        start = t.find(zero, p)
        if start - p > 1:
            yield p + 2 - start
    yield len(t) - start


def decode_binary(rank, zeros: int, ones: int):
    """Rebuild the arrival sequence for (rank, zeros, ones) as a list.

    Raises RankRangeError unless 0 <= rank < C(zeros+ones, ones).
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
    word = _unrank_bits(rank, zeros, ones)
    return list(map(int, bin(word | 1 << n)[:2:-1]))  # n digits, LSB first


def _unrank_bits(rank, zeros, ones):
    """The block for (rank, zeros, ones) as an int, bit i = arrival i.

    Caller guarantees 0 <= rank < C(zeros+ones, ones). Walks positions
    from most significant down: with the position index equal to the
    number of remaining lower positions, a ONE is placed whenever the
    rank covers every arrangement that would put a ZERO there. Zeros
    are passed one or two positions a step, or, where the ones left are
    sparse, in one jump to the next one (`_next_one`); see `_PAIR` and
    `_JUMP`. Once the rank is spent, the ones left take the lowest
    positions, so the walk ends at the lowest one it must place rather
    than at position 0. The ones are marked in a numeral that is read
    back as one int.
    """
    n = zeros + ones
    if n == 0:
        return 0
    rank = mpz(rank)
    # arrival order, reversed at the end. Built from bytes: CPython 3.11
    # also prints a SystemError when `bytearray(b"0") * n` runs out of
    # memory
    digits = bytearray(b"0" * n)
    pos = n - 1
    threshold = mpz(math.comb(pos, ones))  # tracks C(pos, ones)
    while rank:
        if rank < threshold:  # zeros from pos down to the next one
            if pos <= _PAIR * ones:
                while rank < threshold:
                    threshold = threshold * (pos - ones) // pos
                    pos -= 1
            else:
                jump = pos > _JUMP * ones
                while True:  # pos is a zero; below is C(pos - 2, ones)
                    below = (threshold * ((pos - ones) * (pos - 1 - ones))
                             // (pos * (pos - 1)))
                    if rank < below:
                        threshold = below
                        pos -= 2
                        if jump:
                            pos, threshold = _next_one(rank, threshold, pos, ones)
                            break
                        continue
                    mid = threshold * (pos - ones) // pos
                    if rank < mid:  # the one is at pos - 2
                        threshold = below
                        pos -= 2
                    else:
                        threshold = mid
                        pos -= 1
                    break
        rank -= threshold
        digits[pos] = 0x31
        threshold = threshold * ones // pos
        ones -= 1
        pos -= 1
    digits[:ones] = b"1" * ones  # rank 0: the lowest arrangement
    return int(digits[::-1], 2)


def _next_one(rank, threshold, pos, ones):
    """(q, C(q, ones)) for the largest q with C(q, ones) <= rank.

    `_unrank_bits` state: 1 <= rank < threshold = C(pos, ones), so the
    next one sits at some q in [ones, pos) and every position between
    is a zero. C(pos - g, ones) / threshold is the product of
    (pos - t - ones) / (pos - t) over t < g, whose log is close to g
    times the log of its middle factor: the gap g is solved for with
    the first factor, then once more with the middle one of the gap
    found. The coefficient is rolled across the guessed gap in one
    exact step, or taken from `math.comb` past `_LONG_RUN` as
    `_rank_bit_string` does, and the guess is walked to q exactly.
    """
    ratio = rank / threshold  # in (0, 1), unless it underflows
    target = math.log(ratio) if ratio else _ln(rank) - _ln(threshold)
    g = min(target / math.log1p(-ones / pos), pos - ones)
    g = max(1, min(math.ceil(target / math.log1p(-ones / (pos - g / 2))), pos - ones))
    q = pos - g
    if g > _LONG_RUN and 2 * g > ones:
        coeff = mpz(math.comb(q, ones))
    else:
        coeff = threshold * math.perm(pos - ones, g) // math.perm(pos, g)
    if coeff > rank:
        while coeff > rank:  # ends by q == ones, where C(q, ones) == 1
            coeff = coeff * (q - ones) // q
            q -= 1
    else:
        while True:  # ends by q + 1 == pos, where C(pos, ones) > rank
            up = coeff * (q + 1) // (q + 1 - ones)
            if up > rank:
                break
            coeff = up
            q += 1
    return q, coeff


def encode(message, alphabet: Alphabet):
    """Rank `message` among all arrangements of its own symbol multiset.

    Single forward pass over any iterable of symbols; works against a
    stream with no lookahead. Returns (rank, table) where the frequency
    table was tallied during the pass and is the side information
    `decode` needs back.
    """
    rank, counts, _ = _rank_message(message, alphabet)
    return rank, FrequencyTable(alphabet, tuple(counts))


def _rank_message(message, alphabet):
    """`encode`'s kernel; returns (rank, counts per symbol rank, P).

    Arrival i adds M_i * b_i / s_i to the rank, where M_i counts the
    arrangements of the first i arrivals, b_i of those rank below the
    arriving symbol, and s_i is the symbol's count once it has arrived;
    M_{i+1} = M_i * (i+1) / s_i. A run of r equal symbols, arriving at
    i with s of them seen before and b arrivals below them, is tallied
    once and becomes one leaf (P, Q, T) = (perm(i+r, r), perm(s+r, r),
    b*(P - Q)/(i - s)), or the same ratio in fewer factors where i - s
    < r (see `_run_ratio`): its r terms telescope, and i - s divides
    P - Q. The first run adds nothing; runs are maximal, so every later
    one has s < i. `seen` holds the rank of every arrival so far in
    ascending order, as decode's pool does, so b is where the symbol's
    rank would go in it; each run is spliced in whole. It is a bytearray
    for alphabets of at most 256 symbols, and a list for wider ones. b
    comes from `bisect_left`, or, in the wide loop for a symbol seen
    before, from the bytearray's `find`, whose memchr is cheaper.

    The kernel follows `_unrank_counts`' width rule. While M is at most
    `_TAIL` bits, each run is one exact step, rank += M*T/Q and
    M = M*P/Q: every term counts arrangements, so both divisions are
    exact. These runs come from `groupby`, which counts a long run in C
    and keeps a sparse page cheap. Once M is wider, the loop reads the
    same iterator of raw symbols, starting from the run whose first
    symbol `groupby` has already read, and counts each run as it goes,
    so a one-pass iterator is still read once. It combines the leaves
    of every `_GROUP` runs into one with the product tree's own rule,
    T = T*q + P*t, P = P*p, Q = Q*q. At the end of the first group past
    each `_CHUNK` arrivals, a product tree reduces the groups and
    `_fold` folds them into the rank with one exact division by Q,
    which keeps the numbers near the size of the rank itself. The last
    step or fold carries M to M_n, the block's arrangement count P. A
    block whose count stays within `_TAIL` bits, such as a 4 KiB page
    with 3% nonzero bytes, builds no tree.
    """
    ranks = alphabet.rank_map
    counts = [0] * len(alphabet)
    if len(counts) <= 256:
        seen, pieces = bytearray(), _BYTE_PIECES
        find = seen.find  # memchr, for a symbol seen before
    else:
        seen, pieces = [], _Singletons()

        def find(k):  # list.index is linear
            return bisect_left(seen, k)
    prefix = mpz(1)  # M, or M at the start of the pending chunk once wide
    rank = mpz(0)
    i = 0
    symbols = iter(message)
    runs = groupby(symbols)
    for symbol, run in runs:  # exact steps while M is narrow
        k = ranks.get(symbol)
        if k is None:
            raise UnknownSymbolError(symbol, i)
        r = len(list(run))
        s = counts[k]
        b = bisect_left(seen, k)
        if r == 1:
            if not s:  # a first copy: both divisions are by 1
                rank += prefix * b
                prefix *= i + 1
            else:
                if b:
                    rank += prefix * b // (s + 1)
                prefix = prefix * (i + 1) // (s + 1)
            seen.insert(b, k)
        else:
            if i:  # the first run is the identity
                p, q = _run_ratio(i, s, r)
                if b:
                    rank += prefix * (b * (p - q) // (i - s)) // q
                prefix = prefix * p // q
            seen[b:b] = pieces[k] * r
        counts[k] = s + r
        i += r
        if prefix.bit_length() > _TAIL:
            break
    after = next(runs, None)  # `groupby` has read this run's first symbol
    if after is None:
        return int(rank), counts, int(prefix)
    symbol = after[0]
    prev = ranks.get(symbol)  # the pending run's symbol, r copies so far
    if prev is None:
        raise UnknownSymbolError(symbol, i)
    r = 1
    group = _GROUP
    ps, qs, ts = [], [], []  # the pending chunk's closed groups
    gp, gq, gt, g = 1, 1, 0, 0  # the open group and its leaf count
    fold_at = i + _CHUNK
    for symbol in chain(symbols, (_END,)):  # wide: runs counted inline
        k = ranks.get(symbol)
        if k == prev:
            r += 1
            continue
        if k is None and symbol is not _END:
            raise UnknownSymbolError(symbol, i + r)
        # the pending run has ended: combine its leaf into the open group
        s = counts[prev]
        b = find(prev) if s else bisect_left(seen, prev)
        if r == 1:
            q = s + 1
            gt = gt * q + gp * b
            gp *= i + 1
            gq *= q
            seen.insert(b, prev)
        else:
            p, q = _run_ratio(i, s, r)
            gt = gt * q + gp * (b * (p - q) // (i - s))
            gp *= p
            gq *= q
            seen[b:b] = pieces[prev] * r
        counts[prev] = s + r
        i += r
        g += 1
        if g == group or k is None:
            ps.append(gp)
            qs.append(gq)
            ts.append(gt)
            gp, gq, gt, g = 1, 1, 0, 0
            if i >= fold_at or k is None:
                t, prefix = _fold(prefix, *_product_tree(ps, qs, ts))
                rank += t
                ps, qs, ts = [], [], []
                fold_at = i + _CHUNK
        prev = k
        r = 1
    return int(rank), counts, int(prefix)


def _run_ratio(i, s, r):
    """(P, Q) of a run of r symbols at arrival i, s of them seen before.

    P/Q = perm(i + r, r) / perm(s + r, r), which is also
    perm(i + r, i - s) / perm(i, i - s): the kernel takes whichever pair
    has fewer factors, so a long run after few other symbols costs about
    as much as a short one. perm(x, d) is d! times a binomial, so i - s
    divides P - Q either way.
    """
    d = i - s
    if d < r:
        return math.perm(i + r, d), math.perm(i, d)
    return math.perm(i + r, r), math.perm(s + r, r)


class _Singletons:
    """`_Singletons()[k] == [k]`, as `_BYTE_PIECES[k] == bytes((k,))`:
    a run of r copies of k is `pieces[k] * r`, spliced into `seen`."""

    __slots__ = ()

    def __getitem__(self, k):
        return [k]


def _product_tree(ps, qs, ts):
    """Reduce leaves (P, Q, T) pairwise into one (P, Q, T).

    A pair combines as (P1*P2, Q1*Q2, T1*Q2 + P1*T2), so the root's T/Q
    is the sum of every leaf's T/Q scaled by the P/Q of the leaves
    before it, and its P and Q are the products of all leaves.
    """
    while len(ps) > 1:
        p_left = ps[0::2]
        q_right = qs[1::2]
        new_ts = [t1 * q2 + p1 * t2 for p1, t1, q2, t2
                  in zip(p_left, ts[0::2], q_right, ts[1::2])]
        new_ps = [p1 * p2 for p1, p2 in zip(p_left, ps[1::2])]
        new_qs = [q1 * q2 for q1, q2 in zip(qs[0::2], q_right)]
        if len(ps) & 1:
            new_ps.append(ps[-1])
            new_qs.append(qs[-1])
            new_ts.append(ts[-1])
        ps, qs, ts = new_ps, new_qs, new_ts
    return ps[0], qs[0], ts[0]


def _fold(x, p, q, t):
    """(x*t/q, x*p/q), where q divides both x*t and x*p.

    One division takes x apart as whole*q + part, and the rest divides
    only part*t and part*p, about twice q's width, by q: both are exact
    because whole*q*t and whole*q*p are multiples of q too.
    """
    whole, part = divmod(x, q)
    return whole * t + part * t // q, whole * p + part * p // q


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
    Decoding runs from the top position down. With m symbols left and
    x = rank/total in [0, 1), the symbol there is the one whose
    cumulative-count interval holds cut = floor(x*m); with `below`
    symbols ranking under it and p copies of it left, x becomes
    (x*m - below)/p, rank -= total*below/m and total = total*p/m. That
    is the interval-narrowing step of arithmetic decoding. `pool` holds
    the remaining symbol ranks in ascending order, so the symbol is
    pool[cut], `below` is where its copies start, and deleting one copy
    keeps the pool current. A cut that repeats the previous symbol
    reuses its `below`: only copies of that symbol have left since.

    Deciding a symbol needs only the leading bits of x, so a chunk
    carries X, a W-bit fixed-point fraction (W = `_WINDOW`), and a
    float E, with the invariant |X - x*2^W| <= E:
    - Start: with a and b the top W + 64 bits of rank and total,
      X = floor(a*2^W/b), clamped below 2^W, and E = 3. a/b is within
      2^-(W+62) of x, and flooring or clamping (x < 1) moves X by at
      most 1 more.
    - Cut: y = X*m is within E*m of x*m*2^W, and cut = floor(y/2^W).
      The cut is taken only if its fraction f = y - cut*2^W lies at
      least E*m inside [0, 2^W), where the ends of [0, m) do not count,
      so every value the bound allows has the same cut: no decision is
      ever wrong. E is carried in units of 2^(W-64), which only scales
      its float by a power of two, and the test reads f's top 64 bits
      against E*m rounded up: it compares integers only, whatever their
      type, and errs only towards a miss.
    - Update: X' = floor((y - below*2^W)/p) and E' = E*m/p + 2, since
      x' = (x*m - below)/p puts x'*2^W within E*m/p of
      (y - below*2^W)/p, and flooring adds less than 1. The spare 1 per
      step covers E's float rounding.

    Each accepted symbol is a term (p, m, below) of the chunk's
    (P, Q, T), combined as it is taken with the product tree's rule:
    T = T*m + P*below, then P = P*p. Q is the falling factorial of the
    m's, so at the chunk's end `_fold` applies rank -= total*T/Q and
    total = total*P/Q exactly, with one full-width division by Q. On a
    4 KiB block of random bytes T and Q stay near 1.1 kbit. A chunk ends
    after `_CHUNK` symbols, once E*m exceeds 2^(W - `_GUARD`), or at a
    cut it cannot certify, which is then taken as one exact full-width
    step. Once total is at most `_TAIL` bits the block finishes with
    exact steps, and a rank of 0 is the lowest arrangement, written out
    directly.

    An exact step whose symbol k likely starts a run, because it
    repeats the previous symbol or holds most of what remains, takes
    the whole run at once: `_run_length` finds the longest J for which
    the top J positions are all k, and rank -= L_J, total = tot_J (see
    there) apply it exactly. A sparse page, short enough to step
    exactly throughout, then costs about one step per zero run instead
    of one per zero.
    """
    remaining = list(counts)
    m = sum(remaining)
    out = [0] * m
    pool = []
    for k, c in enumerate(remaining):
        pool += [k] * c
    rank = mpz(rank)
    total = mpz(permutations)
    w = _WINDOW
    low = w - 64  # the certainty test reads a fraction's top 64 bits
    unit = 2.0 ** -low  # E is carried in these units
    floor_err = 2 * unit  # flooring and float rounding, per step
    full = (1 << 64) - 1
    limit = 2.0 ** (w - _GUARD - low)  # E*m at most 2^(W - _GUARD)
    prev = below = -1  # the last symbol decided and where its copies start
    missed = False
    while m:
        if not rank:  # lowest arrangement: ascending from the top down
            out[:m] = pool[::-1]
            break
        width = total.bit_length()
        if width > _TAIL and not missed:
            start = m
            p_run, t_run = 1, 0  # the chunk's P and T so far
            shift = width - w - 64
            # clamped, or rank P - 1, whose top bits can equal total's,
            # would start every chunk on an uncertain cut
            x = min((rank >> shift << w) // (total >> shift), (1 << w) - 1)
            err = 3 * unit
            stop = max(m - _CHUNK, 0)
            while m > stop:
                em = err * m
                if em > limit:
                    break
                reach = math.ceil(em)  # E*m, rounded up
                y = x * m
                top = y >> low
                cut = top >> 64
                f = top - (cut << 64)  # the fraction's top 64 bits
                # the cut is exact unless the error could cross one of
                # its boundaries; the ends of [0, m) cannot be crossed
                if (cut and f < reach) or (cut < m - 1 and full - f < reach):
                    missed = True
                    break
                k = pool[cut]
                p = remaining[k]
                if k != prev:  # k's p copies hold cut, so start near it
                    below = bisect_left(pool, k, cut - p + 1 if cut >= p
                                        else 0, cut)
                    prev = k
                del pool[below]
                remaining[k] = p - 1
                t_run = t_run * m + p_run * below
                p_run *= p
                x = (y - (below << w)) // p
                err = em / p + floor_err
                m -= 1
                out[m] = k
            if m < start:
                # rank -= total*T/Q and total = total*P/Q, both exact
                drop, total = _fold(total, p_run,
                                    math.perm(start, start - m), t_run)
                rank -= drop
            continue
        # exact: one step after a miss, or the whole tail
        missed = False
        stop = m - 1 if width > _TAIL else 0
        while m > stop:
            k = pool[rank * m // total]
            repeat = k == prev
            if not repeat:
                below = bisect_left(pool, k)
                prev = k
            p = remaining[k]
            if p > 1 and (repeat or 2 * p > m):
                # a run is likely: take all of k's top positions at once
                j, tot_j = _run_length(rank, total, m, p, below)
                if below:  # L_J; below is 0 where m == p
                    rank -= below * (total - tot_j) // (m - p)
                total = tot_j
            else:
                j = 1
                if below:
                    rank -= total * below // m
                total = total * p // m
            remaining[k] = p - j
            del pool[below:below + j]
            out[m - j:m] = [k] * j
            m -= j
    assert rank == 0
    return out


def _run_length(rank, total, m, c, lo):
    """(J, tot_J): how many of the top positions hold the symbol there.

    Exact-step state: m symbols remain with `total` arrangements, and
    the cut has put at the top the symbol that owns cuts [lo, lo + c),
    so J >= 1. The arrangements whose top j positions all hold it form
    the interval [L_j, L_j + tot_j), where tot_j = total*perm(c, j) /
    perm(m, j) and L_j = lo*(total - tot_j)/(m - c); both are exact,
    and the intervals nest. With d = rank*(m - c) - lo*total, rank lies
    in the j-th interval exactly when -lo*tot_j <= d < hi*tot_j, where
    hi = m - c - lo; that is side*tot_j >= bound for one of the two
    sides, fixed by the sign of d. J is the largest such j <= c.
    `_run_guess` estimates it in floats. tot_j at the guess comes from
    the perms or, for a run longer than `_LONG_RUN` and than m - c,
    from binomials over the m - c other symbols, as `_rank_bit_string`
    takes a long run's coefficient. It is checked exactly at J and at
    J + 1 and walked to the exact J if either check fails.
    A symbol holding at most half of what remains is tried only after
    a repeat, and its runs mostly end there, so j = 2 is checked first.
    """
    if c == m:  # one symbol left: the rest of the block is this run
        return c, total
    d = rank * (m - c) - lo * total
    if d < 0:
        side, bound = lo, -d
    else:
        side, bound = m - c - lo, d + 1
    if 2 * c <= m:
        tot_j = total * c // m
        if side * (tot_j * (c - 1) // (m - 1)) < bound:
            return 1, tot_j
    j = _run_guess(bound, side, total, m, c)
    if j > _LONG_RUN and j > m - c:
        # perm(c, j) / perm(m, j) == C(m - j, m - c) / C(m, m - c), whose
        # binomials cost about m - c factors where the perms cost j
        tot_j = total * math.comb(m - j, m - c) // math.comb(m, m - c)
    else:
        tot_j = total * math.perm(c, j) // math.perm(m, j)
    if side * tot_j >= bound:
        while j < c:  # is position m - j - 1 the same symbol?
            nxt = tot_j * (c - j) // (m - j)
            if side * nxt < bound:
                break
            j += 1
            tot_j = nxt
    else:
        while True:  # ends by j == 1, which the cut has decided
            tot_j = tot_j * (m - j + 1) // (c - j + 1)
            j -= 1
            if side * tot_j >= bound:
                break
    return j, tot_j


def _run_guess(bound, side, total, m, c):
    """Float estimate, in [1, c], of the J that `_run_length` finds.

    J is the largest j with a_j = perm(c, j)/perm(m, j) at least
    bound/(side*total). log a_j sums log((c - i)/(m - i)) over i < j,
    which is close to j times the log of its middle term: solve that
    with the first term, then once more with the middle term of the
    run found.
    """
    target = _ln(bound) - math.log(side) - _ln(total)
    j = target / math.log(c / m)
    if j >= c:
        return c
    half = (j - 1) / 2
    return max(1, min(int(target / math.log((c - half) / (m - half))), c))


def _ln(x):
    """Natural log of a positive integer of any width, int or mpz.

    math.log takes a wide int whole, but any other integer type, gmpy2's
    mpz among them, goes through float, which overflows past 1024 bits;
    so a wide value is shifted down to its top 64 bits first.
    """
    n = x.bit_length()
    if n <= 1000:
        return math.log(x)
    return math.log(x >> (n - 64)) + (n - 64) * _LN2
