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
term of a rational series. While the arrangement count is short it
adds each term to the rank in one exact step; once it is wider, it
sums every few hundred arrivals' terms at once with a product tree
(binary splitting, after Haible and Papanikolaou), folding each partial
sum into the rank with exact divisions. The last step or fold also
yields the block's arrangement count.

Both directions follow one width rule: exact steps while the
arrangement count is at most `_TAIL` bits, product-tree folds above it.

`decode` walks back from the top position down. Each of its steps is
the interval-narrowing step of arithmetic decoding (Witten, Neal and
Cleary) on the fraction x = rank/arrangements: the symbol on top is
the one whose share of the remaining symbols holds floor(x*m), read
off a sorted pool of the symbols left. A step needs only the leading
bits of x, so decode carries x as a fixed-point fraction with a proven
error bound, takes a symbol only when no value within the bound would
give another, and folds every chunk of decisions back into the exact
rank and arrangement count with the same product tree.
Where the numbers are short enough to step exactly, a run of one
symbol is decoded in one step: the arrangements that put that symbol
on the top j positions form nested intervals, and the run's length is
the deepest one that holds the rank, guessed in floats and checked
exactly (Cover's enumerative code, taken a run at a time).

`encode`/`decode` handle any alphabet. Bit mode has its own ranker and
unranker for the two-symbol case of the same ranking (Cover's
enumerative code), with the same ranks. `_rank_bit_string` finds the
block's runs with one regular expression and rolls a single binomial
coefficient across each run in one exact step: the ones of a run
telescope to the coefficient after it minus the coefficient before it,
and the final coefficient is the block's arrangement count.
`_unrank_bits` walks the positions down, one exact step per bit, and
returns the block as one int. `encode_binary`/`decode_binary` wrap
them for bit lists.
"""

import math
from bisect import bisect_left
from itertools import groupby

from .binomials import mpz, multinomial
from .multiset import Alphabet, FrequencyTable, UnknownSymbolError


# Arrivals per product tree once the arrangement count is wider than
# `_TAIL`. Larger trees multiply ever wider products, of which only the
# ratio P/Q reaches the rank; smaller ones pay more full-width
# divisions.
_CHUNK = 512

# `_unrank_counts` decodes from a `_WINDOW`-bit fixed-point fraction of
# rank over total, whose top 64 bits decide each cut. A chunk stops once
# its float error bound comes within `_GUARD` bits of the window, so
# _WINDOW - _GUARD must stay below 1024 for that bound to fit a float,
# and _WINDOW above 64. A total of at most `_TAIL` bits is finished
# with exact steps, which are then no dearer than windowed ones, and
# `_rank_message` steps exactly while its count is that narrow.
_WINDOW = 768
_GUARD = 32
_TAIL = 2 * _WINDOW
_LN2 = math.log(2)  # `_ln` scales wide values by powers of two

# `_rank_bit_string` matches a zero run, maybe empty, and the one run
# after it at a time with `_runs`, compiled on first use so that
# importing the codec does not load `re`; `encode_binary` spells bits
# out with `_BIT_CHARS`.
_runs = None
_BIT_CHARS = {0: "0", 1: "1"}


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
    spelled out as a '0'/'1' string and ranked a run at a time by
    `_rank_bit_string`.
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

    P = C(n, ones) is the block's arrangement count. One coefficient,
    coeff = C(i, ones) at arrival i, is rolled across a whole run
    [i, e) of length r in one exact step: a zero run multiplies it by
    perm(e, r) / perm(e - ones, r), a one run by
    perm(e, r) / perm(ones + r, r). The r ones of a run add
    C(i + b, ones + b + 1) for b < r, which telescopes to the new
    coefficient minus the old, so a run costs one multiply and one
    divide however long it is. Runs are matched a zero run and the
    following one run at a time, which halves the loop's trips.
    """
    global _runs
    if _runs is None:
        import re
        _runs = re.compile("(0*)(1+)").findall
    rank = mpz(0)
    coeff = mpz(1)
    ones = 0
    i = 0
    for zero_run, one_run in _runs(s):
        r = len(zero_run)
        if r:
            i += r
            if ones:  # C(i, 0) == 1 until the first one
                coeff = coeff * math.perm(i, r) // math.perm(i - ones, r)
        r = len(one_run)
        i += r
        new = coeff * math.perm(i, r) // math.perm(ones + r, r)
        rank += new - coeff
        coeff = new
        ones += r
    n = len(s)
    if ones and n > i:  # trailing zeros
        coeff = coeff * math.perm(n, n - i) // math.perm(n - ones, n - i)
    return int(rank), ones, int(coeff)


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
    rank covers every arrangement that would put a ZERO there. The
    ones are marked in a numeral that is read back as one int.
    """
    n = zeros + ones
    if n == 0:
        return 0
    # threshold tracks C(pos, ones); stays 0 while only ones remain.
    rank = mpz(rank)
    threshold = mpz(math.comb(n - 1, ones))
    digits = bytearray(b"0") * n  # arrival order; reversed at the end
    for pos in range(n - 1, -1, -1):
        if rank >= threshold:
            rank -= threshold
            digits[pos] = 0x31
            if pos:
                threshold = threshold * ones // pos
            ones -= 1
        elif pos:
            threshold = threshold * (pos - ones) // pos
    assert rank == 0 and ones == 0
    return int(digits[::-1], 2)


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
    b*(P - Q)/(i - s)): its r terms telescope, and i - s divides P - Q.
    The first run adds nothing; runs are maximal, so every later one
    has s < i.

    The kernel follows `_unrank_counts`' width rule. While M is at most
    `_TAIL` bits, each run is one exact step, rank += M*T/Q and
    M = M*P/Q: every term counts arrangements, so both divisions are
    exact. Once M is wider, the leaves are gathered, and every `_CHUNK`
    arrivals a product tree reduces them and they are folded into the
    rank with exact divisions, which keeps the numbers near the size of
    the rank itself. The last step or fold carries M to M_n, the
    block's arrangement count P. A block whose count stays within
    `_TAIL` bits, such as a 4 KiB page with 3% nonzero bytes, builds no
    tree.
    """
    ranks = alphabet.rank_map
    counts = [0] * len(alphabet)
    coarse = [0] * ((len(alphabet) + 15) >> 4)  # arrivals per 16 ranks
    prefix = mpz(1)  # M, or M at the start of the pending chunk once wide
    rank = mpz(0)
    i = 0
    runs = groupby(message)
    for symbol, run in runs:  # exact steps while M is narrow
        k = ranks.get(symbol)
        if k is None:
            raise UnknownSymbolError(symbol, i)
        r = len(list(run))
        s = counts[k]
        hi = k >> 4
        if i:  # the first run is the identity
            # arrivals below k: whole groups of 16 ranks, then k's group
            b = sum(coarse[:hi]) + sum(counts[hi << 4:k])
            if r == 1:
                if not s:  # a first copy: both divisions are by 1
                    rank += prefix * b
                    prefix *= i + 1
                else:
                    if b:
                        rank += prefix * b // (s + 1)
                    prefix = prefix * (i + 1) // (s + 1)
            else:
                p = math.perm(i + r, r)
                q = math.perm(s + r, r)
                if b:
                    rank += prefix * (b * (p - q) // (i - s)) // q
                prefix = prefix * p // q
        counts[k] = s + r
        coarse[hi] += r
        i += r
        if prefix.bit_length() > _TAIL:
            break
    ps, qs, ts = [], [], []
    fold_at = i + _CHUNK
    for symbol, run in runs:  # wide: leaves folded every `_CHUNK` arrivals
        k = ranks.get(symbol)
        if k is None:
            raise UnknownSymbolError(symbol, i)
        r = len(list(run))
        s = counts[k]
        hi = k >> 4
        b = sum(coarse[:hi]) + sum(counts[hi << 4:k])
        if r == 1:
            ps.append(i + 1)
            qs.append(s + 1)
            ts.append(b)
        else:
            p = math.perm(i + r, r)
            q = math.perm(s + r, r)
            ps.append(p)
            qs.append(q)
            ts.append(b * (p - q) // (i - s))
        counts[k] = s + r
        coarse[hi] += r
        i += r
        if i >= fold_at:
            p, q, t = _product_tree(ps, qs, ts)
            if t:
                rank += prefix * t // q
            prefix = prefix * p // q
            ps, qs, ts = [], [], []
            fold_at = i + _CHUNK
    if ps:
        p, q, t = _product_tree(ps, qs, ts)
        rank += prefix * t // q
        prefix = prefix * p // q
    return int(rank), counts, int(prefix)


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
      ever wrong. The test reads f's top 64 bits against E*m rounded up
      in units of 2^(W-64): it compares integers only, whatever their
      type, and errs only towards a miss.
    - Update: X' = floor((y - below*2^W)/p) and E' = E*m/p + 2, since
      x' = (x*m - below)/p puts x'*2^W within E*m/p of
      (y - below*2^W)/p, and flooring adds less than 1. The spare 1 per
      step covers E's float rounding.

    Each accepted symbol leaves a leaf (p, m, below); at the chunk's
    end `_product_tree` reduces them to (P, Q, T), and one full-width
    division by Q applies rank -= total*T/Q and total = total*P/Q
    exactly. A chunk ends after `_CHUNK` symbols, once E*m exceeds
    2^(W - `_GUARD`), or at a cut it cannot certify, which is then
    taken as one exact full-width step. Once total is at most `_TAIL`
    bits the block finishes with exact steps, and a rank of 0 is the
    lowest arrangement, written out directly.

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
    unit = 2.0 ** -low
    full = (1 << 64) - 1
    limit = float(1 << (w - _GUARD))
    prev = below = -1  # the last symbol decided and where its copies start
    missed = False
    while m:
        if not rank:  # lowest arrangement: ascending from the top down
            out[:m] = pool[::-1]
            break
        width = total.bit_length()
        if width > _TAIL and not missed:
            start = m
            ps, ts = [], []
            shift = width - w - 64
            # clamped, or rank P - 1, whose top bits can equal total's,
            # would start every chunk on an uncertain cut
            x = min((rank >> shift << w) // (total >> shift), (1 << w) - 1)
            err = 3.0
            stop = max(m - _CHUNK, 0)
            while m > stop:
                em = err * m
                if em > limit:
                    break
                em = math.ceil(em * unit)  # in units of 2^low, rounded up
                y = x * m
                top = y >> low
                cut = top >> 64
                f = top - (cut << 64)  # the fraction's top 64 bits
                # the cut is exact unless the error could cross one of
                # its boundaries; the ends of [0, m) cannot be crossed
                if (cut and f < em) or (cut < m - 1 and full - f < em):
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
                ps.append(p)
                ts.append(below)
                x = (y - (below << w)) // p
                err = err * m / p + 2
                m -= 1
                out[m] = k
            if ps:
                # rank -= total*T/Q and total = total*P/Q, both exact
                p, q, t_sum = _product_tree(ps, list(range(start, m, -1)), ts)
                whole, part = divmod(total, q)
                rank -= whole * t_sum + part * t_sum // q
                total = whole * p + part * p // q
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
    `_run_guess` estimates it in floats; the guess is checked exactly
    at J and at J + 1 and walked to the exact J if either check fails.
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
