import functools
import itertools
import math
import operator
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbe import codec
from cbe.codec import (
    _TAIL,
    _run_guess,
    _run_length,
    _rank_bit_string,
    _rank_message,
    _unrank_bits,
    RankRangeError,
    arrivals_from_numeral,
    decode,
    decode_binary,
    encode,
    encode_binary,
    numeral_from_arrivals,
)
from cbe.multiset import (
    BYTE_ALPHABET,
    Alphabet,
    FrequencyTable,
    UnknownSymbolError,
    permutation_count,
)
from cbe.oracle import brute_rank, enumerate_in_rank_order
from helpers import factorial_multinomial, table_of

ABN = Alphabet((97, 98, 110))


def chars(symbols) -> str:
    return "".join(chr(s) for s in symbols)


class TestNumeralHelpers:
    def test_arrival_order_is_lsb_first(self):
        assert arrivals_from_numeral("1100") == [0, 0, 1, 1]
        assert numeral_from_arrivals([0, 0, 1, 1]) == "1100"

    def test_bad_digit(self):
        with pytest.raises(ValueError):
            arrivals_from_numeral("10x1")


class TestEncodeBinary:
    def test_worked_example(self):
        rank, zeros, ones = encode_binary(arrivals_from_numeral("11011100101"))
        assert (rank, zeros, ones) == (251, 4, 7)

    @pytest.mark.parametrize(
        "numeral,want",
        [("0011", 0), ("0101", 1), ("0110", 2), ("1001", 3), ("1010", 4),
         ("1100", 5)],
    )
    def test_length4_words(self, numeral, want):
        assert encode_binary(arrivals_from_numeral(numeral))[0] == want

    def test_text_convention_matches_numeral(self):
        # "aabb" read left to right is the numeral 1100 read from its LSB
        assert encode_binary([0, 0, 1, 1])[0] == 5
        assert encode_binary([1, 1, 0, 0])[0] == 0

    def test_all_zeros_and_empty(self):
        assert encode_binary([0] * 9) == (0, 9, 0)
        assert encode_binary([1] * 9) == (0, 0, 9)
        assert encode_binary([]) == (0, 0, 0)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            encode_binary([0, 2, 1])
        with pytest.raises(ValueError):
            encode_binary(iter([0, 2, 1]))  # iterators are checked too

    def test_accepts_iterator(self):
        # C(0,1) + C(2,2) for the two ones
        assert encode_binary(iter([1, 0, 1])) == (1, 1, 2)


class TestDecodeBinary:
    def test_worked_example(self):
        bits = decode_binary(251, 4, 7)
        assert numeral_from_arrivals(bits) == "11011100101"

    def test_fig_words(self):
        assert numeral_from_arrivals(decode_binary(0, 2, 2)) == "0011"
        assert numeral_from_arrivals(decode_binary(5, 2, 2)) == "1100"

    def test_all_zeros(self):
        assert decode_binary(0, 6, 0) == [0] * 6

    def test_range_check(self):
        with pytest.raises(RankRangeError):
            decode_binary(6, 2, 2)  # C(4, 2) == 6 arrangements: 0..5
        with pytest.raises(RankRangeError):
            decode_binary(-1, 2, 2)
        with pytest.raises(ValueError):
            decode_binary(0, -1, 3)

    def test_empty(self):
        assert decode_binary(0, 0, 0) == []


class TestEncode:
    def test_banana(self):
        rank, table = encode([ord(c) for c in "banana"], ABN)
        assert rank == 22
        assert table.counts == (3, 1, 2)

    def test_extremes(self):
        assert encode([ord(c) for c in "nnbaaa"], ABN)[0] == 0
        assert encode([ord(c) for c in "aaabnn"], ABN)[0] == 59

    def test_empty_message(self):
        rank, table = encode([], ABN)
        assert rank == 0
        assert table.counts == (0, 0, 0)
        assert decode(0, table) == []

    def test_unknown_symbol_position(self):
        with pytest.raises(UnknownSymbolError) as err:
            encode([97, 97, 120], ABN)
        assert err.value.symbol == 120
        assert err.value.position == 2

    @pytest.mark.parametrize("where", ["after-switch", "wide", "after-run",
                                       "last"])
    @pytest.mark.parametrize("one_pass", [False, True], ids=["bytes", "iter"])
    def test_unknown_symbol_past_the_switch(self, where, one_pass):
        # byte 255 is foreign to the alphabet 0..254; once the count is
        # wider than `_TAIL`, runs are counted on the raw symbols, and
        # the first symbol after the switch was already read by groupby
        msg = bytearray(random.Random(31).randbytes(3000).replace(b"\xff", b""))
        switch = _switch_position(msg)
        at = {"after-switch": switch, "wide": switch + 1000,
              "after-run": switch + 1500, "last": len(msg) - 1}[where]
        if where == "after-run":
            msg[at - 3:at] = b"\x07\x07\x07"
            assert msg[at - 4] != 7
        msg[at] = 0xFF
        if at + 5 < len(msg):
            msg[at + 5] = 0xFF  # only the first foreign symbol is named
        alphabet = Alphabet(tuple(range(255)))
        for rank_with in (encode, _rank_message):
            message = iter(list(msg)) if one_pass else bytes(msg)
            with pytest.raises(UnknownSymbolError) as err:
                rank_with(message, alphabet)
            assert (err.value.symbol, err.value.position) == (0xFF, at)

    def test_single_pass_over_iterator(self):
        rank, table = encode(iter([ord(c) for c in "banana"]), ABN)
        assert rank == 22 and table.n == 6

    def test_gapped_alphabet(self):
        alpha = Alphabet((10, 200, 255))
        msg = [200, 10, 255, 10, 255, 10]
        rank, table = encode(msg, alpha)
        assert rank == 22  # same shape as banana under rank order
        assert decode(rank, table) == msg


class TestDecode:
    def test_banana_rows(self):
        table = table_of(3, 1, 2)
        assert chars(decode(22, FrequencyTable(ABN, (3, 1, 2)))) == "banana"
        assert chars(decode(0, FrequencyTable(ABN, (3, 1, 2)))) == "nnbaaa"
        assert decode(0, table) == [2, 2, 1, 0, 0, 0]

    def test_range_check(self):
        table = FrequencyTable(ABN, (3, 1, 2))
        with pytest.raises(RankRangeError):
            decode(60, table)
        with pytest.raises(RankRangeError):
            decode(-1, table)

    def test_exhaustive_small_sweep(self):
        # every message over 3 symbols up to length 6 roundtrips
        alpha = Alphabet((0, 1, 2))
        for n in range(7):
            for msg in itertools.product(range(3), repeat=n):
                rank, table = encode(msg, alpha)
                assert rank < permutation_count(table)
                assert tuple(decode(rank, table)) == msg


class TestBinaryBijectivity:
    def test_exhaustive_up_to_length_12(self):
        for n in range(13):
            ranks_by_counts = {}
            for value in range(1 << n):
                bits = [(value >> s) & 1 for s in range(n)]
                rank, zeros, ones = encode_binary(bits)
                bucket = ranks_by_counts.setdefault((zeros, ones), set())
                assert rank not in bucket, "rank collision"
                bucket.add(rank)
                assert decode_binary(rank, zeros, ones) == bits
            for (zeros, ones), ranks in ranks_by_counts.items():
                assert ranks == set(range(math.comb(zeros + ones, ones)))


class TestBijectivity:
    @pytest.mark.parametrize(
        "counts",
        [(2, 2), (3, 1, 2), (1, 1, 1, 1), (4, 3), (2, 2, 2), (0, 5, 1)],
    )
    def test_ranks_cover_range(self, counts):
        table = table_of(*counts)
        alpha = table.alphabet
        perms = set(itertools.permutations(table.multiset()))
        ranks = {encode(p, alpha)[0] for p in perms}
        assert ranks == set(range(permutation_count(table)))
        for p in perms:
            rank, _ = encode(p, alpha)
            assert tuple(decode(rank, table)) == p


binary_messages = st.lists(st.integers(0, 1), max_size=200)


class TestSpecialization:
    @given(binary_messages)
    def test_encode_matches_binary(self, bits):
        rank, table = encode(bits, Alphabet((0, 1)))
        brank, zeros, ones = encode_binary(bits)
        assert rank == brank
        assert table.counts == (zeros, ones)

    @given(binary_messages)
    def test_decode_matches_binary(self, bits):
        rank, table = encode(bits, Alphabet((0, 1)))
        assert decode(rank, table) == decode_binary(
            rank, table.counts[0], table.counts[1]
        )

    def test_large_messages_agree(self):
        rng = random.Random(3)
        bits = [rng.randrange(2) for _ in range(1500)]
        rank, table = encode(bits, Alphabet((0, 1)))
        assert (rank, *table.counts) == encode_binary(bits)
        assert decode(rank, table) == decode_binary(rank, *table.counts) == bits


class TestBinaryPaths:
    """The rolling binary coder matches the general one at every length."""

    @pytest.mark.parametrize("length", [1, 63, 64, 511, 512, 513, 1024])
    @pytest.mark.parametrize("density", [0.1, 0.5])
    def test_agrees_with_general(self, length, density):
        rng = random.Random(length)
        bits = [int(rng.random() < density) for _ in range(length)]
        rank, table = encode(bits, Alphabet((0, 1)))
        assert encode_binary(bits) == (rank, *table.counts)
        assert decode_binary(rank, *table.counts) == decode(rank, table) == bits


class TestBitRunKernel:
    """The run kernel ranks like the general `encode` over {0, 1}, its P
    is C(n, ones), and `_unrank_bits` gives the block back as an int."""

    @staticmethod
    def check(bits):
        s = "".join(map(str, bits))
        rank, ones, permutations = _rank_bit_string(s)
        want, table = encode(bits, Alphabet((0, 1)))
        assert (rank, len(bits) - ones, ones) == (want, *table.counts)
        assert permutations == math.comb(len(bits), ones)
        assert _unrank_bits(rank, len(bits) - ones, ones) == int("0" + s[::-1], 2)

    @pytest.mark.parametrize("bits", [
        [0], [1], [0] * 4096, [1] * 4096,
        [0] * 700 + [1] * 300, [1] * 300 + [0] * 700,
        [0, 1] * 500, [1, 0] * 500,
        [1] + [0] * 999, [0] * 999 + [1],
        [0] * 3 + [1] * 5 + [0] * 2 + [1] * 1 + [0] * 1 + [1] * 7,
    ], ids=["zero", "one", "all-zero", "all-one", "zeros-then-ones",
            "ones-then-zeros", "alternating-01", "alternating-10",
            "first-one", "last-one", "mixed-runs"])
    def test_shapes(self, bits):
        self.check(bits)

    @pytest.mark.parametrize("n", [1, 127, 4096, 32768])
    @pytest.mark.parametrize("p", [0.02, 0.1, 0.5, 0.9])
    def test_biased(self, n, p):
        rng = random.Random(n + int(100 * p))
        self.check([int(rng.random() < p) for _ in range(n)])

    def test_empty(self):
        assert _rank_bit_string("") == (0, 0, 1)
        assert _unrank_bits(0, 0, 0) == 0

    @pytest.mark.parametrize("lead", [1, 2, 40])
    def test_leading_ones_then_lone_ones(self, lead):
        # the leading ones add nothing, and the first lone one after them
        # rolls C(lead, lead) = 1 across its gap
        self.check([1] * lead + [0, 0, 1, 0, 0, 0, 1, 0, 1] + [0] * 5)
        self.check([1] * lead + [0, 1] * 30)

    LONG = codec._LONG_RUN

    @pytest.mark.parametrize("run", [2, LONG, LONG + 1])
    @pytest.mark.parametrize("gap", [1, LONG - 1, LONG, LONG + 1])
    @pytest.mark.parametrize("before", [0, 100])
    def test_runs_and_gaps_at_the_long_run_bound(self, run, gap, before):
        # a run or gap past the bound takes math.comb when it is longer
        # than half the zeros or ones before it, and rolls otherwise
        body = ([0] * gap + [1] * run) * 3 + [0] * gap + [1] + [0] * gap
        self.check([1, 0] * before + body + [1, 1, 0, 1] + [0] * before + body)

    @pytest.mark.parametrize("shape", ["p=0.99", "p=0.5 in long runs"])
    def test_wide_blocks(self, shape):
        rng = random.Random(32768)
        if shape == "p=0.99":  # ranked as its complement
            bits = [int(rng.random() < 0.99) for _ in range(32768)]
        else:
            bits, bit = [], 0
            while len(bits) < 32768:
                bits += [bit] * rng.randint(1, 512)
                bit ^= 1
            bits = bits[:32768]
        self.check(bits)

    @pytest.mark.parametrize("bound", [1, 2, 5])
    def test_any_long_run_bound(self, monkeypatch, bound):
        # with a low bound, most runs are cut out with str.find and most
        # gaps and runs take math.comb; the ranks do not change
        monkeypatch.setattr(codec, "_LONG_RUN", bound)
        rng = random.Random(bound)
        for p in (0.1, 0.5, 0.9):
            self.check([int(rng.random() < p) for _ in range(700)])
        self.check([1] * 9 + [0] * 3 + [1] * 6 + [0, 1, 1, 0, 1] + [1] * 7)

    @settings(max_examples=300)
    @given(st.text("01", max_size=300))
    def test_complement_rank(self, s):
        # a block whose ones are the majority is ranked as its complement
        rank, ones, permutations = _rank_bit_string(s)
        flipped = s.translate(str.maketrans("01", "10"))
        assert _rank_bit_string(flipped) == (permutations - 1 - rank,
                                             len(s) - ones, permutations)

    @pytest.mark.parametrize("pair,jump", [(10**9, 10**9), (0, 10**9), (0, 0)],
                             ids=["single-steps", "pairs", "jumps"])
    @pytest.mark.parametrize("p", [0.02, 0.1, 0.5, 0.9])
    def test_each_unrank_path(self, monkeypatch, pair, jump, p):
        # every zero gap is passed one way: in single steps, in pairs, or
        # in jumps, which then also start right before the next one
        monkeypatch.setattr(codec, "_PAIR", pair)
        monkeypatch.setattr(codec, "_JUMP", jump)
        rng = random.Random(int(100 * p))
        for n in (1, 2, 3, 7, 64, 513, 4096):
            self.check([int(rng.random() < p) for _ in range(n)])
        self.check([1] + [0] * 3000 + [1, 1] + [0] * 40 + [1])

    def test_long_runs_rank_in_linear_time(self):
        # a zero run between the ends rolls C(i, 1) across 2^18 zeros,
        # and a one run C(i, 1) across 2^18 ones; both take math.comb
        n = 2 ** 18
        for s in ("1" + "0" * (n - 2) + "1", "0" + "1" * (n - 2) + "0"):
            start = time.perf_counter()
            rank, ones, permutations = _rank_bit_string(s)
            assert time.perf_counter() - start < 0.2
            assert permutations == math.comb(n, ones)
            assert rank == sum(math.comb(i, j) for j, i in
                               enumerate((k for k, c in enumerate(s) if c == "1"), 1))

    def test_trailing_zeros_rank_in_linear_time(self):
        # a match that fails at the end of the string would rescan the
        # trailing zeros from each of their positions
        s = "01" * 50 + "0" * 2 ** 18
        start = time.perf_counter()
        rank, ones, permutations = _rank_bit_string(s)
        assert time.perf_counter() - start < 0.2
        assert permutations == math.comb(len(s), 50)
        assert rank == sum(math.comb(2 * j + 1, j + 1) for j in range(50))

    @pytest.mark.parametrize("low", [0, 5, 2 ** 19])
    def test_sparse_unrank_follows_the_ones(self, low):
        # ones at the top and at `low` only: the walk jumps the gap and
        # ends at the lowest one, whatever the length of the block
        n = 2 ** 20
        word = 1 << (n - 1) | 1 << (n - 2) | 1 << low
        s = bin(word | 1 << n)[:2:-1]
        rank, ones, _ = _rank_bit_string(s)
        start = time.perf_counter()
        assert _unrank_bits(rank, n - ones, ones) == word
        assert time.perf_counter() - start < 0.2


def _sparse_page(rng, size):
    """A page of zeros with 3% nonzero bytes."""
    block = bytearray(size)
    for i in rng.sample(range(size), size * 3 // 100):
        block[i] = rng.randrange(1, 256)
    return bytes(block)


def _just_above_tail(extra=5):
    """Random bytes whose arrangement count first passes `_TAIL` bits
    `extra` arrivals before the end."""
    data = random.Random(15).randbytes(400)
    counts = [0] * 256
    for n, byte in enumerate(data, 1):
        counts[byte] += 1
        if factorial_multinomial(counts).bit_length() > _TAIL:
            return data[:n + extra]
    raise AssertionError("never passed the tail")


def _switch_position(message):
    """Arrival index where `_rank_message` stops stepping exactly: the
    start of the run after the one that takes the arrangement count past
    `_TAIL` bits."""
    counts = {}
    i = 0
    for symbol, run in itertools.groupby(message):
        r = len(list(run))
        counts[symbol] = counts.get(symbol, 0) + r
        i += r
        if factorial_multinomial(list(counts.values())).bit_length() > _TAIL:
            assert i < len(message)
            return i
    raise AssertionError("never passed the tail")


class TestRankMessageCount:
    """`encode`'s kernel returns the rank and counts `encode` does, and
    its P is the table's arrangement count, across the switch from
    exact steps to chunk folds too."""

    @pytest.mark.parametrize("block", [
        b"", b"a", b"\x00" * 4096, bytes(range(256)) * 4,
        bytes(sorted(random.Random(11).randbytes(4096))),
        bytes(sorted(random.Random(12).randbytes(4096), reverse=True)),
        b"\x05" * 600 + random.Random(13).randbytes(600),
        random.Random(14).randbytes(9000),
        _sparse_page(random.Random(16), 4096),
        _just_above_tail(),
    ], ids=["empty", "one-symbol", "constant", "ascending-cycles", "sorted",
            "reverse-sorted", "constant-prefix", "random-9000", "sparse",
            "just-above-tail"])
    def test_count_matches_factorials(self, block):
        rank, counts, permutations = _rank_message(block, BYTE_ALPHABET)
        want, table = encode(block, BYTE_ALPHABET)
        assert (rank, tuple(counts)) == (want, table.counts)
        assert permutations == factorial_multinomial(counts)

    def test_just_above_tail_is_just_above(self):
        permutations = _rank_message(_just_above_tail(), BYTE_ALPHABET)[2]
        assert _TAIL < permutations.bit_length() <= _TAIL + 64

    @pytest.mark.parametrize("kind", ["sparse", "random"])
    def test_product_trees_built(self, kind, monkeypatch):
        # a sparse page stays narrow enough to step exactly throughout;
        # a random block folds at most one tree per chunk, and each tree
        # reduces groups of `_GROUP` runs' leaves, not one leaf per run
        rng = random.Random(17)
        block = (_sparse_page(rng, 4096) if kind == "sparse"
                 else rng.randbytes(4096))
        want = encode(block, BYTE_ALPHABET)[0]
        trees = []
        tree = codec._product_tree
        monkeypatch.setattr(codec, "_product_tree",
                            lambda *leaves: trees.append(len(leaves[0]))
                            or tree(*leaves))
        rank, counts, permutations = _rank_message(block, BYTE_ALPHABET)
        assert rank == want
        assert permutations == factorial_multinomial(counts)
        if kind == "sparse":
            assert trees == []
        else:
            assert 1 <= len(trees) <= -(-len(block) // codec._CHUNK)
            assert max(trees) <= -(-codec._CHUNK // codec._GROUP)


def literal_weight(counts, rank):
    """Arrival weight as the spelled-out sum of factorial multinomials."""
    total = 0
    for j in range(rank):
        if counts[j]:
            moved = list(counts)
            moved[j] -= 1
            moved[rank] += 1
            total += factorial_multinomial(moved)
    return total


class TestFactorialWeights:
    """Each arrival raises encode's rank by the factorial-formula weight."""

    def test_500_random_sequences_against_factorials(self):
        rng = random.Random(1405)
        for _ in range(500):
            t = rng.randint(1, 8)
            length = rng.randint(0, 64)
            alpha = Alphabet(tuple(range(t)))
            seq = [rng.randrange(t) for _ in range(length)]
            counts = [0] * t
            previous = 0
            for i, rank in enumerate(seq):
                weight = literal_weight(counts, rank)
                counts[rank] += 1
                encoded, table = encode(seq[: i + 1], alpha)
                assert encoded - previous == weight
                assert table.counts == tuple(counts)
                assert permutation_count(table) == factorial_multinomial(counts)
                previous = encoded


def _run_sequence(rng, symbols, length):
    """Runs of random length over `symbols`, with runs of a symbol that is
    not the lowest seen straddling arrival positions 512 and 1024."""
    seq = []
    while len(seq) < length:
        r = 1 if rng.random() < 0.5 else rng.randint(2, 80)
        seq.extend([rng.choice(symbols)] * r)
    seq[490:540] = [symbols[-1]] * 50
    seq[1000:1030] = [symbols[len(symbols) // 2 + 1]] * 30
    return seq[:length]


def _prefix_weights(seq, t, lengths):
    """Sum of the factorial weights of the first n arrivals of `seq`, over
    ranks below t, for each n in `lengths`."""
    counts = [0] * t
    total = 0
    weights = {}
    for n, k in enumerate(seq, 1):
        total += literal_weight(counts, k)
        counts[k] += 1
        if n in lengths:
            weights[n] = total
    return weights


class TestChunkBoundaries:
    """Once the arrangement count is wider than `_TAIL`, encode folds a
    product tree every few hundred arrivals; ranks of prefixes ending on
    either side of those folds match the factorial weights. With the
    tail at 0 the folds start after the first run; at the default the
    switch itself falls between 480 and 1080 arrivals in."""

    PREFIXES = (1, 511, 512, 513, 1023, 1024, 1025, 1100)

    @staticmethod
    @functools.cache
    def _cases():
        rng = random.Random(2718)
        cases = []
        for case in range(50):
            t = (3, 17, 256)[case % 3]
            # over 256 symbols, a spread subset keeps the oracle affordable
            symbols = (list(range(t)) if t < 256
                       else sorted(rng.sample(range(t), 6) + [40, 41, 47]))
            seq = _run_sequence(rng, symbols, 1100)
            assert min(seq[:490]) < seq[500] and min(seq[:1000]) < seq[1010]
            weights = _prefix_weights(seq, t, TestChunkBoundaries.PREFIXES)
            cases.append((Alphabet(tuple(range(t))), seq, weights))
        return cases

    def _check_prefixes(self, monkeypatch):
        for case, (alpha, seq, weights) in enumerate(self._cases()):
            for tail in (0, _TAIL):
                monkeypatch.setattr(codec, "_TAIL", tail)
                for length in self.PREFIXES:
                    rank, table = encode(seq[:length], alpha)
                    assert rank == weights[length], (case, tail, length)

    def test_50_sequences_against_factorials(self, monkeypatch):
        self._check_prefixes(monkeypatch)
        for alpha, seq, _ in self._cases():
            rank, table = encode(iter(seq), alpha)
            assert decode(rank, table) == seq

    @pytest.mark.parametrize("group", [1, 2])
    def test_short_groups(self, group, monkeypatch):
        # a tree leaf of one or two runs' leaves
        monkeypatch.setattr(codec, "_GROUP", group)
        self._check_prefixes(monkeypatch)

    def test_wide_alphabet(self):
        # over more than 256 symbols the sorted arrivals are a list, not
        # a bytearray, which could not hold ranks 256 and 299
        rng = random.Random(300)
        symbols = sorted(rng.sample(range(257, 299), 5) + [3, 255, 256, 299])
        seq = _run_sequence(rng, symbols, 1500)
        assert _switch_position(seq) < 1000
        weights = _prefix_weights(seq, 300, self.PREFIXES + (1500,))
        alpha = Alphabet(tuple(range(300)))
        for length in self.PREFIXES:
            assert encode(seq[:length], alpha)[0] == weights[length]
        rank, table = encode(iter(seq), alpha)
        assert rank == weights[1500]
        assert _rank_message(seq, alpha) == (
            rank, list(table.counts), permutation_count(table))
        assert decode(rank, table) == seq


def _runs_message(rng, t, length):
    """Runs of one to six copies of random symbols below t."""
    msg = []
    while len(msg) < length:
        msg += [rng.randrange(t)] * rng.choice((1, 1, 2, 3, 6))
    return msg[:length]


class TestRankWidthSwitch:
    """encode steps exactly while the arrangement count M is at most
    `_TAIL` bits and gathers product-tree leaves above it. With the tail
    patched low, M passes it after the first run, which adds nothing,
    after a later run of r > 1 or a single arrival, or never; each rank
    matches the factorial weights and, where affordable, the
    brute-force oracle."""

    SWITCHES = {0: {"first", "none"}, 8: {"run", "single", "none"},
                64: {"run", "single", "none"}, 300: {"none"}}

    @pytest.mark.parametrize("tail", sorted(SWITCHES))
    def test_short_messages_against_ground_truth(self, tail, monkeypatch):
        monkeypatch.setattr(codec, "_TAIL", tail)
        rng = random.Random(5000 + tail)
        switches = set()
        brute = 0
        for case in range(250):
            t = rng.randint(1, 8)
            msg = _runs_message(rng, t, rng.randint(0, 60))
            counts = [0] * t
            want = 0
            switch = "none"
            for j, (k, run) in enumerate(itertools.groupby(msg)):
                r = 0
                for _ in run:
                    want += literal_weight(counts, k)
                    counts[k] += 1
                    r += 1
                if (switch == "none" and
                        factorial_multinomial(counts).bit_length() > tail):
                    switch = ("first" if j == 0 else
                              "run" if r > 1 else "single")
            switches.add(switch)
            rank, got, permutations = _rank_message(
                msg, Alphabet(tuple(range(t))))
            assert (rank, got) == (want, counts), case
            assert permutations == factorial_multinomial(counts)
            if permutations <= 2000:
                assert rank == brute_rank(msg, table_of(*counts)), case
                brute += 1
        assert switches == self.SWITCHES[tail]
        assert brute >= 50


class TestRoundtripProperty:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 12).flatmap(
            lambda t: st.lists(st.integers(0, t - 1), max_size=300)
        )
    )
    def test_roundtrip(self, msg):
        t = (max(msg) + 1) if msg else 2
        alpha = Alphabet(tuple(range(t)))
        rank, table = encode(msg, alpha)
        assert rank < permutation_count(table)
        assert decode(rank, table) == msg


def _unrank_block(kind, seed, size=4096):
    """4 KiB blocks whose ranks the chunked unranker must walk."""
    rng = random.Random(seed)
    if kind == "random":
        return rng.randbytes(size)
    if kind == "text":
        words = [b"the", b"codec", b"counts", b"every", b"letter", b"so",
                 b"far", b"while", b"it", b"ranks", b"a", b"block."]
        out = b""
        while len(out) < size:
            out += rng.choice(words) + b" "
        return out[:size]
    if kind == "skewed":
        return bytes(rng.choices(range(8), weights=(40, 20, 10, 8, 8, 6, 4, 4),
                                 k=size))
    if kind == "sparse":
        block = bytearray(size)
        for i in rng.sample(range(size), size // 32):
            block[i] = rng.randrange(1, 256)
        return bytes(block)
    data = rng.randbytes(size)
    if kind == "sorted":
        return bytes(sorted(data))
    if kind == "reverse-sorted":
        return bytes(sorted(data, reverse=True))
    assert kind == "sorted-first-half"
    return bytes(sorted(data[:size // 2])) + data[size // 2:]


def _assert_unranks(rank, table):
    """decode(rank) is a message that encode ranks back to `rank`."""
    msg = decode(rank, table)
    assert encode(msg, table.alphabet) == (rank, table)


def _first_cut_boundaries(table, most=None):
    """Ranks total*below/m where the top position's symbol changes, for
    at most `most` of them spread over the symbols present."""
    permutations = permutation_count(table)
    belows = list(itertools.accumulate(c for c in table.counts if c))[:-1]
    step = 1 if most is None else -(-len(belows) // most)
    return [permutations * below // table.n for below in belows[::step]]


class TestChunkedUnrank:
    """decode reads each symbol off the leading bits of rank and total
    and certifies it before folding it into the exact numbers; encode is
    the independent check of every rank it walks."""

    KINDS = ("random", "text", "skewed", "sparse", "sorted",
             "reverse-sorted", "sorted-first-half")

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_and_end_ranks(self, kind):
        data = _unrank_block(kind, seed=len(kind))
        rank, table = encode(data, BYTE_ALPHABET)
        assert bytes(decode(rank, table)) == data
        permutations = permutation_count(table)
        for end in (0, 1, permutations - 2, permutations - 1):
            _assert_unranks(end, table)

    @pytest.mark.parametrize("kind", ["random", "text", "skewed"])
    def test_first_decision_boundaries(self, kind):
        # an exact boundary puts rank*m on a multiple of total, where a
        # decision from truncated numbers could fall either way
        _, table = encode(_unrank_block(kind, seed=7), BYTE_ALPHABET)
        for boundary in _first_cut_boundaries(table, most=12):
            for rank in (boundary - 1, boundary, boundary + 1):
                _assert_unranks(rank, table)

    @pytest.mark.parametrize("t", [2, 3])
    def test_sizes_around_exact_tail(self, t):
        # log2 P runs from below the tail threshold to well above it
        rng = random.Random(t)
        alpha = Alphabet(tuple(range(t)))
        widths = []
        for width in range(_TAIL - 400, 2 * _TAIL, 97):
            n = round(width / math.log2(t))
            msg = [rng.randrange(t) for _ in range(n)]
            rank, table = encode(msg, alpha)
            permutations = permutation_count(table)
            widths.append(permutations.bit_length())
            assert decode(rank, table) == msg
            for other in {0, 1, permutations - 2, permutations - 1,
                          *_first_cut_boundaries(table)}:
                _assert_unranks(other, table)
        assert min(widths) < _TAIL < max(widths)


class TestWindowedUnrank:
    """A windowed chunk carries rank/total as a fixed-point fraction X
    with an error bound E, and takes a cut only when no value within E
    could give another; a narrow window puts short blocks through many
    chunks, so their boundary ranks meet that test at every width."""

    @pytest.fixture
    def narrow(self, monkeypatch):
        monkeypatch.setattr(codec, "_WINDOW", 128)
        monkeypatch.setattr(codec, "_TAIL", 256)

    @staticmethod
    def _blocks():
        for seed, size in enumerate((40, 77, 130, 211, 300)):
            rng = random.Random(seed)
            data = rng.randbytes(size)
            yield data
            yield _unrank_block("text", seed, size)
            yield bytes(sorted(data))
            yield b"".join(bytes([rng.randrange(4)]) * rng.randrange(1, 6)
                           for _ in range(size))[:size]

    def test_roundtrip(self, narrow):
        self._check_roundtrips()

    def test_boundary_ranks(self, narrow):
        self._check_boundary_ranks()

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_short_chunks(self, chunk, narrow, monkeypatch):
        # a chunk of one or two symbols folds running products of one
        # or two terms
        monkeypatch.setattr(codec, "_CHUNK", chunk)
        self._check_roundtrips()
        self._check_boundary_ranks()

    def _check_roundtrips(self):
        for data in self._blocks():
            rank, table = encode(data, BYTE_ALPHABET)
            assert bytes(decode(rank, table)) == data

    def _check_boundary_ranks(self):
        checked = 0
        widths = []
        for data in self._blocks():
            _, table = encode(data, BYTE_ALPHABET)
            permutations = permutation_count(table)
            widths.append(permutations.bit_length())
            ranks = {0, 1, permutations - 2, permutations - 1}
            for boundary in _first_cut_boundaries(table):
                ranks.update((boundary - 1, boundary, boundary + 1))
            for rank in ranks:
                _assert_unranks(rank, table)
            checked += len(ranks)
        assert min(widths) < codec._TAIL < max(widths)
        assert checked > 3000

    @pytest.mark.parametrize("kind", ["random", "sorted"])
    def test_windows_decide_most_symbols(self, kind, monkeypatch):
        # each windowed chunk folds the symbols it decided, from position
        # `start` down to `m`, with one `_fold`; a miss at every chunk's
        # first cut would leave the block to full-width exact steps,
        # right but several times slower. A sorted block has rank P - 1,
        # where the fraction starts at its top end and must be clamped
        # below 1 to give a certain cut.
        data = _unrank_block(kind, seed=13)
        rank, table = encode(data, BYTE_ALPHABET)
        if kind == "sorted":
            assert rank == permutation_count(table) - 1
        decided = []
        fold = codec._fold

        def counting_fold(*args):
            chunk = sys._getframe(1).f_locals
            decided.append(chunk["start"] - chunk["m"])
            return fold(*args)

        monkeypatch.setattr(codec, "_fold", counting_fold)
        assert bytes(decode(rank, table)) == data
        assert sum(decided) >= 0.9 * len(data)


def _run_block(kind, size, seed):
    """Blocks with long runs, for the unranker's one-step run rule."""
    rng = random.Random(seed)
    if kind == "sparse":
        return _sparse_page(rng, size)
    if kind == "runs-40":
        return b"".join(bytes([rng.randrange(256)]) * 40
                        for _ in range(-(-size // 40)))[:size]
    if kind == "two-symbol":
        return bytes(rng.choices(b"ab", weights=(7, 3), k=size))
    if kind == "few-others":  # runs far longer than the other symbols left
        data = bytearray(size)
        for i in rng.sample(range(size), 5):
            data[i] = rng.randrange(1, 4)
        return bytes(data)
    data = bytes(rng.choices(range(16), k=size))
    if kind == "sorted":
        return bytes(sorted(data))
    assert kind == "reverse-sorted"
    return bytes(sorted(data, reverse=True))


def _top_run_interval(counts, k, j):
    """(L_j, tot_j): the ranks whose top j positions all hold symbol k."""
    m = sum(counts)
    c = counts[k]
    lo = sum(counts[:k])
    total = factorial_multinomial(counts)
    tot_j = total * math.perm(c, j) // math.perm(m, j)
    return (lo * (total - tot_j) // (m - c) if lo else 0), tot_j


def _stepped_run(rank, total, m, c, lo):
    """The run length `_run_length` must find, one exact step at a time."""
    j = 0
    while j < c and lo <= rank * (m - j) // total < lo + c - j:
        rank -= total * lo // (m - j)
        total = total * (c - j) // (m - j)
        j += 1
    return j, total


def _compositions(n):
    """Every count tuple of positive parts summing to n."""
    for parts in range(n):
        for cuts in itertools.combinations(range(1, n), parts):
            ends = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(ends, ends[1:]))


class _Wide:
    """An integer type that, like gmpy2's mpz, is not an int, so
    math.log takes it through float, which overflows past 1024 bits."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = int(value)

    def __float__(self):
        return float(self.value)

    def __int__(self):
        return self.value

    __index__ = __int__

    def __bool__(self):
        return bool(self.value)

    def __neg__(self):
        return _Wide(-self.value)

    def bit_length(self):
        return self.value.bit_length()

    def __divmod__(self, other):
        q, r = divmod(self.value, int(other))
        return _Wide(q), _Wide(r)

    def __rdivmod__(self, other):
        q, r = divmod(int(other), self.value)
        return _Wide(q), _Wide(r)


def _lift(op):
    return (lambda a, b: _Wide(op(a.value, int(b))),
            lambda a, b: _Wide(op(int(b), a.value)))


for _name in ("add", "sub", "mul", "floordiv", "mod", "lshift", "rshift"):
    _op = getattr(operator, _name)
    _fwd, _rev = _lift(_op)
    setattr(_Wide, f"__{_name}__", _fwd)
    setattr(_Wide, f"__r{_name}__", _rev)
for _name in ("eq", "ne", "lt", "le", "gt", "ge"):
    setattr(_Wide, f"__{_name}__",
            lambda a, b, op=getattr(operator, _name): op(a.value, int(b)))
_Wide.__hash__ = None

WIDE_TYPES = [_Wide]
try:
    from gmpy2 import mpz as _gmpy2_mpz
    WIDE_TYPES.append(_gmpy2_mpz)
except ImportError:
    pass


class TestRunUnrank:
    """The exact steps decode the run of one symbol at the top in one
    step: rank -= L_J and total = tot_J for the longest run J that the
    nested intervals [L_j, L_j + tot_j) admit."""

    BLOCKS = [("sparse", 4096), ("sparse", 600), ("runs-40", 4096),
              ("runs-40", 400), ("sorted", 4096), ("sorted", 300),
              ("reverse-sorted", 4096), ("reverse-sorted", 300),
              ("two-symbol", 4096), ("two-symbol", 500),
              ("few-others", 4096), ("few-others", 300)]

    @pytest.mark.parametrize("kind,size", BLOCKS,
                             ids=[f"{k}-{n}" for k, n in BLOCKS])
    def test_run_interval_ends(self, kind, size):
        data = _run_block(kind, size, seed=size)
        rank, table = encode(data, BYTE_ALPHABET)
        assert bytes(decode(rank, table)) == data
        permutations = permutation_count(table)
        for end in (0, 1, permutations - 2, permutations - 1):
            _assert_unranks(end, table)
        # the first run of the lowest, a middle and the top symbol, for
        # one, two, half and all of its copies (J == c exhausts it)
        counts = [c for c in table.counts if c]
        symbols = [s for s, c in enumerate(table.counts) if c]
        for k in sorted({0, len(counts) // 2, len(counts) - 1}):
            c = counts[k]
            for j in sorted({1, min(2, c), max(c // 2, 1), c}):
                start, width = _top_run_interval(counts, k, j)
                for rank in (start, start + width - 1):
                    msg = decode(rank, table)
                    assert msg[size - j:] == [symbols[k]] * j
                    assert encode(msg, BYTE_ALPHABET) == (rank, table)

    def test_sparse_page_takes_one_step_per_zero_run(self, monkeypatch):
        data = _run_block("sparse", 4096, seed=3)
        rank, table = encode(data, BYTE_ALPHABET)
        runs = []

        def run_length(*args):
            j, tot_j = _run_length(*args)
            runs.append(j)
            return j, tot_j

        monkeypatch.setattr(codec, "_run_length", run_length)
        assert bytes(decode(rank, table)) == data
        # decoding runs from the top position down
        assert runs == [len(list(run)) for byte, run
                        in itertools.groupby(reversed(data)) if byte == 0]

    @pytest.mark.parametrize("counts", [(3, 4), (7, 1), (2, 6, 1), (5, 2, 3),
                                        (1, 1, 4, 2)])
    def test_any_guess_finds_the_exact_run(self, counts, monkeypatch):
        # the float guess only saves steps: from every guess in [1, c],
        # checks at J and J + 1 and the walk between them find the same J
        m = sum(counts)
        total = factorial_multinomial(counts)
        ends = list(itertools.accumulate(counts))
        for rank in range(total):
            cut = rank * m // total
            k = next(i for i, end in enumerate(ends) if cut < end)
            lo, c = ends[k] - counts[k], counts[k]
            want = _stepped_run(rank, total, m, c, lo)
            assert want[0] >= 1
            for guess in range(1, c + 1):
                monkeypatch.setattr(codec, "_run_guess", lambda *_: guess)
                assert _run_length(rank, total, m, c, lo) == want

    def test_any_guess_on_a_sparse_page(self, monkeypatch):
        data = _run_block("sparse", 4096, seed=11)
        rank, table = encode(data, BYTE_ALPHABET)
        counts = [c for c in table.counts if c]
        m, c = sum(counts), counts[0]
        total = permutation_count(table)
        want = _stepped_run(rank, total, m, c, 0)
        j = want[0]
        assert data[-j:] == bytes(j)
        guesses = []
        float_guess = codec._run_guess
        monkeypatch.setattr(codec, "_run_guess",
                            lambda *args: guesses.append(float_guess(*args))
                            or guesses[-1])
        assert _run_length(rank, total, m, c, 0) == want
        assert abs(guesses[0] - j) <= 1  # the float guess is itself close
        # guesses on both sides of J, up to all c zeros
        for guess in {1, max(j - 1, 1), j, j + 1, j + 5, m - c + 1, c}:
            monkeypatch.setattr(codec, "_run_guess", lambda *_: guess)
            assert _run_length(rank, total, m, c, 0) == want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_multiset_against_oracle(self, n):
        for counts in _compositions(n):
            rows = enumerate_in_rank_order(table_of(*counts))
            total = len(rows)
            assert [tuple(codec._unrank_counts(rank, counts, total))
                    for rank in range(total)] == rows

    @pytest.mark.parametrize("wide", WIDE_TYPES,
                             ids=lambda t: t.__module__ + "." + t.__name__)
    def test_wide_operands_of_any_integer_type(self, wide, monkeypatch):
        # a sparse page's total is about 1.4 kbit and its first cut takes
        # a jump, so the float guess must not convert it whole
        data = _run_block("sparse", 4096, seed=5)
        rank, table = encode(data, BYTE_ALPHABET)
        counts = [c for c in table.counts if c]
        m, c = sum(counts), counts[0]
        total = permutation_count(table)
        assert total.bit_length() > 1100
        with pytest.raises(OverflowError):
            float(wide(total))
        bound = rank * (m - c) + 1  # with lo == 0, side is m - c
        assert bound.bit_length() > 1100
        assert (_run_guess(wide(bound), m - c, wide(total), m, c)
                == _run_guess(bound, m - c, total, m, c))
        assert (_run_length(wide(rank), wide(total), m, c, 0)
                == _run_length(rank, total, m, c, 0))
        # and so must the whole decoder, stepped exactly or windowed
        monkeypatch.setattr(codec, "mpz", wide)
        for block in (data, _run_block("runs-40", 4096, seed=5)):
            assert bytes(decode(*encode(block, BYTE_ALPHABET))) == block
