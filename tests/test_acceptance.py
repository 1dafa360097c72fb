"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.
"""

import io
import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from cbe.codec import (
    arrivals_from_numeral,
    decode,
    decode_binary,
    encode,
    encode_binary,
    numeral_from_arrivals,
)
from cbe.container import compress, compress_bytes, decompress_bytes
from cbe.multiset import (
    Alphabet,
    FrequencyTable,
    compression_ratio,
    naive_bit_length,
    permutation_count,
    rank_width_bits,
    shannon_entropy,
    space_saving_percent,
)
from cbe.oracle import brute_rank, enumerate_in_rank_order
from cbe.selftest import BANANA_RANKING, banana_table


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_worked_binary_example():
    with criterion(1, "11011100101 ranks to 251 and back, under 1 ms"):
        bits = arrivals_from_numeral("11011100101")
        encode_binary(bits)  # warm-up call, outside the timed window
        start = time.perf_counter()
        rank, zeros, ones = encode_binary(bits)
        restored = decode_binary(rank, zeros, ones)
        elapsed = time.perf_counter() - start
        assert (rank, zeros, ones) == (251, 4, 7)
        assert restored == bits
        assert numeral_from_arrivals(restored) == "11011100101"
        assert elapsed < 0.001, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_four_bit_words():
    with criterion(2, "the six length-4 words rank 0..5 exactly"):
        words = ["0011", "0101", "0110", "1001", "1010", "1100"]
        for want, numeral in enumerate(words):
            rank, _, _ = encode_binary(arrivals_from_numeral(numeral))
            assert rank == want, f"{numeral}: expected {want}, got {rank}"


def test_criterion_3_banana_table():
    with criterion(3, "banana ranks 22, 6-bit payload, full 60-row table"):
        table = banana_table()
        alphabet = table.alphabet
        rank, tallied = encode([ord(c) for c in "banana"], alphabet)
        assert rank == 22
        assert tallied == table
        assert rank_width_bits(permutation_count(table)) == 6
        rows = enumerate_in_rank_order(table)
        assert len(rows) == 60
        for index, expected in enumerate(BANANA_RANKING):
            assert "".join(chr(s) for s in rows[index]) == expected
            unranked = "".join(chr(s) for s in decode(index, table))
            assert unranked == expected


def test_criterion_4_entropy_numbers():
    with criterion(4, "entropy, bound, naive, ratio and saving values"):
        table = banana_table()
        entropy = shannon_entropy(table)
        assert entropy == pytest.approx(1.4591, abs=1e-4)
        assert 6 * entropy == pytest.approx(8.7546, abs=1e-3)
        assert math.log2(permutation_count(table)) == pytest.approx(
            5.9069, abs=1e-4
        )
        assert naive_bit_length(6, 3) == pytest.approx(9.5098, abs=1e-4)
        assert compression_ratio(1.5850, 1.4591) == pytest.approx(
            1.0863, abs=1e-3
        )
        assert space_saving_percent(1.5850, 1.4591) == pytest.approx(
            7.94, abs=0.05
        )


def _sweep_tables(trials, seed):
    rng = random.Random(seed)
    alphabet = Alphabet(tuple(range(16)))
    for _ in range(trials):
        distinct = rng.randint(2, 16)
        n = rng.randint(distinct + 1, 256)
        cuts = sorted(rng.sample(range(1, n), distinct - 1))
        bounds = [0] + cuts + [n]
        counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        counts += [0] * (16 - distinct)
        rng.shuffle(counts)
        yield FrequencyTable(alphabet, tuple(counts))


def test_criterion_5_entropy_bound_sweep():
    with criterion(5, "log2(P) < n*H on 1000 random tables, under 5 s"):
        start = time.perf_counter()
        for table in _sweep_tables(1000, seed=0xB0B):
            exact = math.log2(permutation_count(table))
            bound = table.n * shannon_entropy(table)
            assert exact < bound, f"{table.counts}: {exact} >= {bound}"
        solo = FrequencyTable(Alphabet((0,)), (37,))
        assert math.log2(permutation_count(solo)) == 0.0
        assert solo.n * shannon_entropy(solo) == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_6_payload_bound_and_roundtrip():
    with criterion(6, "payload within entropy budget; 10^4 roundtrips, under 60 s"):
        start = time.perf_counter()
        for table in _sweep_tables(1000, seed=0xFACE):
            budget = math.floor(table.n * shannon_entropy(table)) + 1
            assert rank_width_bits(permutation_count(table)) <= budget

        rng = random.Random(0xC0DEC)
        alphabets = {
            t: Alphabet(tuple(range(t))) for t in (2, 3, 4, 8, 16, 64, 256)
        }
        sizes = [4096, 4096, 0, 1]  # force the extremes, then log-uniform
        while len(sizes) < 10_000:
            sizes.append(int(4096 ** rng.random()))
        for index, n in enumerate(sizes):
            t = 256 if index < 2 else rng.choice(tuple(alphabets))
            message = [rng.randrange(t) for _ in range(n)]
            rank, table = encode(message, alphabets[t])
            assert decode(rank, table) == message
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_7_oracle_equivalence():
    with criterion(7, "exhaustive t<=3, n<=8 equivalence with the oracle, under 2 min"):
        start = time.perf_counter()
        for t in (1, 2, 3):
            alphabet = Alphabet(tuple(range(t)))
            for n in range(0, 9):
                ranks_by_signature = {}
                for message in itertools.product(range(t), repeat=n):
                    rank, table = encode(message, alphabet)
                    assert brute_rank(message, table) == rank
                    seen = ranks_by_signature.setdefault(table.counts, set())
                    assert rank not in seen, "rank collision"
                    seen.add(rank)
                for counts, ranks in ranks_by_signature.items():
                    table = FrequencyTable(alphabet, counts)
                    total = permutation_count(table)
                    assert ranks == set(range(total))
                    rows = enumerate_in_rank_order(table)
                    for position, row in enumerate(rows):
                        assert encode(row, alphabet)[0] == position
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f} s"


def _text_corpus(size):
    paragraph = (
        b"A block codec needs boring, compressible prose: the same words "
        b"repeat, the same letters dominate, and long runs of plain text "
        b"give the entropy bound something to chew on. "
    )
    return (paragraph * (size // len(paragraph) + 1))[:size]


def test_criterion_8_container_corpus():
    with criterion(8, "byte-exact corpus roundtrip; 1 MiB random under 30 s"):
        mib = 1 << 20
        random_blob = bytes(random.Random(0xA5).randbytes(mib))
        corpus = [
            b"",
            b"\x00" * mib,
            _text_corpus(mib),
            bytes(random.Random(0x51).randbytes(13_000)),
            b"\x42",
        ]
        for data in corpus:
            assert decompress_bytes(compress_bytes(data)) == data

        start = time.perf_counter()
        archive = compress_bytes(random_blob)
        assert decompress_bytes(archive) == random_blob
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"

        again = io.BytesIO()
        compress(io.BytesIO(random_blob), again)
        assert again.getvalue() == archive, "archives differ across runs"


def _printed_operation_order(bits):
    """The uncorrected binary encoder: add C(i, ones) before counting.

    Kept only as a regression guard; it does not invert cleanly.
    """
    rank = 0
    ones = 0
    for i, bit in enumerate(bits):
        if bit == 1:
            if i > ones:
                rank += math.comb(i, ones)
            ones += 1
    return rank


def test_criterion_9_operation_order_guard():
    with criterion(9, "count-then-add order is load-bearing: the swap yields 403"):
        bits = arrivals_from_numeral("11011100101")
        assert _printed_operation_order(bits) == 403
        assert encode_binary(bits)[0] == 251
