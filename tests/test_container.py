import collections
import hashlib
import io
import math
import random
import sys
import threading
import time
import tracemalloc
import types
import zlib
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cbe import container
from cbe.codec import encode
from cbe.container import (
    ArchiveError,
    ArchiveSummary,
    MODE_BIT,
    MODE_BYTE,
    compress,
    compress_bytes,
    decompress,
    decompress_bytes,
    summarize,
    write_varint,
    _ByteReader,
    _RUN_PIECE,
    _table_rank,
    _width,
)
from cbe.binomials import multinomial
from cbe.multiset import BIT_ALPHABET, Alphabet, rank_width_bits
from helpers import FailingSource, check_frozen_record, probe_archive

# magic, mode, cap 4096, n = 6, d = 3, a 4-byte table, rank 22, CRC, end
BANANA_ARCHIVE = bytes.fromhex("4342453201802006030021abf116038b67cf00")
# the same block in the earlier layout, which `decompress` still reads
BANANA_CBE1 = bytes.fromhex("43424531010603610362016e02011600")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def read_varint(data: bytes):
    """(value, bytes consumed) for the varint at the start of `data`."""
    fp = io.BytesIO(data)
    return _ByteReader(fp).varint("varint"), fp.tell()


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [(0, b"\x00"), (1, b"\x01"), (127, b"\x7f"), (128, b"\x80\x01"),
         (300, b"\xac\x02"), (1 << 21, b"\x80\x80\x80\x01")],
    )
    def test_known_encodings(self, value, encoded):
        assert write_varint(value) == encoded
        assert read_varint(encoded) == (value, len(encoded))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(-1)

    def test_offset(self):
        # a varint after other bytes; the position counts from the start
        fp = io.BytesIO(b"\xff" + write_varint(300))
        reader = _ByteReader(fp)
        reader.exact(1, "lead byte")
        assert (reader.varint("varint"), fp.tell()) == (300, 3)

    def test_truncated(self):
        with pytest.raises(ArchiveError):
            read_varint(b"\x80")
        with pytest.raises(ArchiveError):
            read_varint(b"")

    def test_non_canonical_rejected(self):
        with pytest.raises(ArchiveError):
            read_varint(b"\x80\x00")
        with pytest.raises(ArchiveError):
            read_varint(b"\xff\x80\x00")

    def test_overlong_rejected(self):
        with pytest.raises(ArchiveError):
            read_varint(b"\xff" * 10 + b"\x01")

    @given(st.integers(0, (1 << 62) - 1))
    def test_roundtrip(self, value):
        encoded = write_varint(value)
        assert read_varint(encoded) == (value, len(encoded))

    def test_roundtrip_bulk(self):
        rng = random.Random(9)
        for _ in range(10_000):
            value = rng.getrandbits(rng.randrange(1, 63))
            encoded = write_varint(value)
            assert read_varint(encoded) == (value, len(encoded))


class TestByteModeFraming:
    def test_banana_archive_exact_bytes(self):
        assert compress_bytes(b"banana") == BANANA_ARCHIVE

    def test_banana_archive_roundtrip(self):
        assert decompress_bytes(BANANA_ARCHIVE) == b"banana"
        assert decompress_bytes(BANANA_CBE1) == b"banana"

    def test_banana_table(self):
        # support {a, b, n} = {97, 98, 110} ranks sum C(p, j) over its
        # ids; composition (3, 1, 2) is bars after positions 2 and 3 of
        # 5, rank C(2, 1) + C(3, 2)
        support = math.comb(97, 1) + math.comb(98, 2) + math.comb(110, 3)
        counts = [0] * 256
        counts[97], counts[98], counts[110] = 3, 1, 2
        table, tables = _table_rank(counts)
        assert (table, tables) == (support * 10 + 5, math.comb(256, 3) * 10)
        assert BANANA_ARCHIVE[9:13] == table.to_bytes(4, "big")

    def test_empty_input(self):
        archive = compress_bytes(b"")
        assert archive == b"CBE2\x01\x80\x20\x00"
        assert decompress_bytes(archive) == b""

    def test_summary_accounting(self):
        out = io.BytesIO()
        summary = compress(io.BytesIO(b"banana"), out)
        assert summary.blocks == 1
        assert summary.symbols == 6
        assert summary.payload_bits == 6
        assert summary.payload_bytes == 1
        assert summary.total_bytes == len(out.getvalue())

    def test_summary_record(self):
        fields = {"blocks": 1, "symbols": 6, "payload_bits": 6,
                  "payload_bytes": 1, "overhead_bytes": 18}
        summary = compress(io.BytesIO(b"banana"), io.BytesIO())
        assert summary == ArchiveSummary(*fields.values())
        assert summary == ArchiveSummary(**fields)
        assert repr(summary) == (
            "ArchiveSummary(blocks=1, symbols=6, payload_bits=6, "
            "payload_bytes=1, overhead_bytes=18)"
        )
        check_frozen_record(summary, ArchiveSummary(**fields),
                            ArchiveSummary(**{**fields, "blocks": 2}), fields)

    def test_constant_block_has_empty_payload(self):
        archive = compress_bytes(b"\x55" * 5000)
        assert decompress_bytes(archive) == b"\x55" * 5000
        summary = compress(io.BytesIO(b"\x55" * 5000), io.BytesIO())
        assert summary.payload_bits == 0
        assert summary.payload_bytes == 0
        assert summary.blocks == 2  # 4096 + 904

    def test_multi_block_roundtrip(self):
        data = b"banana" * 3000  # 18000 bytes, several blocks
        archive = compress_bytes(data)
        assert decompress_bytes(archive) == data

    def test_block_size_one(self):
        data = b"abc"
        archive = compress_bytes(data, block_size=1)
        assert decompress_bytes(archive) == data

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            compress_bytes(b"x", block_size=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            compress_bytes(b"x", mode=0x07)


class TestBitMode:
    def test_small_roundtrip(self):
        data = bytes([0b00001011, 0xFF, 0x00])
        archive = compress_bytes(data, mode=MODE_BIT)
        assert archive[4] == MODE_BIT
        assert decompress_bytes(archive) == data

    def test_block_not_multiple_of_eight(self):
        data = bytes(random.Random(4).randbytes(64))
        archive = compress_bytes(data, mode=MODE_BIT, block_size=13)
        assert decompress_bytes(archive) == data

    def test_empty(self):
        archive = compress_bytes(b"", mode=MODE_BIT)
        assert archive == b"CBE2\x02\x80\x20\x00"
        assert decompress_bytes(archive) == b""

    def test_constant_bits(self):
        data = b"\x00" * 100 + b"\xff" * 100
        archive = compress_bytes(data, mode=MODE_BIT)
        assert decompress_bytes(archive) == data

    def test_ragged_tail_rejected(self):
        # a lone 3-bit block cannot reassemble into bytes
        block = (
            write_varint(3) + write_varint(1) + b"\x01" + write_varint(3)
            + write_varint(0)
        )
        archive = b"CBE1\x02" + block + b"\x00"
        with pytest.raises(ArchiveError, match="byte boundary"):
            decompress_bytes(archive)


class TestRoundtripCorpus:
    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    @pytest.mark.parametrize(
        "name,data",
        [
            ("empty", b""),
            ("one", b"A"),
            ("constant", b"\x00" * 10_000),
            ("text", (b"the quick brown fox jumps over the lazy dog. " * 300)),
            ("random", bytes(random.Random(11).randbytes(20_000))),
            ("edge-4095", bytes(random.Random(12).randbytes(4095))),
            ("edge-4097", bytes(random.Random(13).randbytes(4097))),
        ],
    )
    def test_roundtrip(self, mode, name, data):
        archive = compress_bytes(data, mode=mode)
        assert decompress_bytes(archive) == data

    def test_determinism(self):
        data = bytes(random.Random(21).randbytes(50_000))
        assert compress_bytes(data) == compress_bytes(data)
        assert compress_bytes(data, mode=MODE_BIT) == compress_bytes(
            data, mode=MODE_BIT
        )

    @settings(deadline=None, max_examples=40)
    @given(st.binary(max_size=2000), st.sampled_from([MODE_BYTE, MODE_BIT]),
           st.integers(1, 64))
    def test_roundtrip_property(self, data, mode, block_size):
        # short blocks mix one-symbol and ranked blocks, and in bit mode
        # start at every offset within a byte
        archive = compress_bytes(data, block_size=block_size, mode=mode)
        assert decompress_bytes(archive) == data


def _golden_input(kind, size, seed):
    rng = random.Random(seed)
    if kind == "random":
        return rng.randbytes(size)
    if kind == "text":
        text = b"the quick brown fox jumps over the lazy dog. "
        return (text * (size // len(text) + 1))[:size]
    return bytes(rng.choice((0, 0, 0, 0, 0, 0, 0, 1, 16, 128))
                 for _ in range(size))


# sha256 of each `CBE1` archive as it was written, kept in
# fixtures/cbe1, and of the `CBE2` archive `compress` writes now; input
# i is seeded with 7000 + i. Bit-mode block sizes 511, 512 and 513 put
# blocks on both sides of 512 bits.
GOLDEN_ARCHIVES = [
    ("random", 4096, MODE_BYTE, 4096,
     "146d2ccfe518aff8b6ca9a8f2780e8d30ba65711e21752782a22b71582022706",
     "6feb8a358fe54a50ad8a9a3ac1c5608f99bace7503074d663784b3253633b1b5"),
    ("text", 9000, MODE_BYTE, 4096,
     "a8183bd256262fd239be36a0d46fd192bdd9a73336db2602e2c7bd0770250961",
     "1700493c6665fb58dc70c5b6e014a27f48db6ba0da8f12cd7529360dd8daf9aa"),
    ("sparse", 9000, MODE_BYTE, 4096,
     "5cec5b434c19a79d0a85fd182f5b0a99d062070f9bd18de02b3e749741ca3bde",
     "a7b34e9181f3ee619f509f75930a9fc239ce8c47ba87c03b4f832ccfa7d0134f"),
    ("random", 700, MODE_BYTE, 64,
     "4389d642b9a0f529f7c5543c06515117a7b4a7658246d6cde100ffbe98f96c2f",
     "f0d00345325560c091ee676f60c37ec9a3ff99328f93d0cc965c292ea9b7cf49"),
    ("text", 700, MODE_BYTE, 511,
     "c2eea9745c2176a2d535a102f55e93ff9fe133a6168d592d40be84c53f9db429",
     "fc0cab5d59b99e7ad88ead7d32e68ff3150032fbd85cb8f5cbd6ee543f0c1dcf"),
    ("sparse", 700, MODE_BYTE, 513,
     "d6bb4f5b419cdd1757c22e5d518046d00b451bb9f4ad32ae8f662ba3bd32b536",
     "a93dd3bc49327a83fc905d12269cebdd215940681ee448d3b12b7ccee063357a"),
    ("random", 64, MODE_BIT, 64,
     "41426f0f11f05e45bc5d6c9da7642059ba73158e60bfb883705cff5620429abb",
     "1b5bd1cd37b3a8e1412abcee4c944de6f6c389b9dd4f2ce278f9a28a9ea005c3"),
    ("random", 200, MODE_BIT, 511,
     "f79f9c9b53cd3baa5de95f867abdd55327e01363abea5a798e0916c1e2af9869",
     "c2cdd89006aecabc0899b01027978af4a86a86d388265268b19d835d5490e15c"),
    ("random", 200, MODE_BIT, 512,
     "9a79efb49c4430e4d5e00009686648c40dcc6ac417233d83fdbbe6fc01c70836",
     "996a99c196cabeed5b010155b5fcff2d15af442ededad60cfd54022179913c94"),
    ("random", 200, MODE_BIT, 513,
     "990862e29d7ac96ce3544d2fdfd1c06cd0f4bedf9c9737e894e5dbed88b9f9a3",
     "b6e8896f7b5e4f4162256b53a8a80ab91e299bd3dd25d0fe07f0d1a2a0a64717"),
    ("text", 200, MODE_BIT, 512,
     "00999d814d596d51fb181bbc07f11c20111fe5e52cf25200438a7319195fcc73",
     "739c32293a545ee761754bfafade8e377000ed67862d407ec2f5d568994b9cda"),
    ("sparse", 200, MODE_BIT, 511,
     "4204c4cc9737b1e6d7ca7b29059cbd55e0c0c83f761d198572495ef5c5d72f9c",
     "19fec5e3841cbab0d8335efdfafca35b659086a4767e0f4224a99690ff85a9b4"),
    ("sparse", 200, MODE_BIT, 512,
     "9fe01b5fbbd6aa97b1793bd52a0d2caa7d5c6ad5f033f456cacc8d7a6e9b2ae8",
     "03ce32ca04f3a59850946bf7e5ee835d684f6981823dcddebec995dedac1bc97"),
    ("sparse", 200, MODE_BIT, 513,
     "305383ca9f1a79082b0acf0e97f17af55b111e6ab5677bf811dcad35f1e5e447",
     "8657b0a8ed2e2a41068a87d8926bb3ff6b8a85cf66e60d95fae0f6283f806ba5"),
    ("sparse", 1000, MODE_BIT, 4096,
     "bfe278e1b9814cec544b4fb7b6b0a0aff923da1bf1e5ff0e05666cc9a042e9f8",
     "6093de4d07e375154e70ab0184d8cd06ac993aebbf6bf50ecc866487f5fadcb5"),
]
GOLDEN_IDS = [f"{kind}-{size}-{'bit' if mode == MODE_BIT else 'byte'}-{bs}"
              for kind, size, mode, bs, _, _ in GOLDEN_ARCHIVES]


class TestGoldenArchives:
    """Archives stay byte-identical to the pinned ones, and the pinned
    `CBE1` archives still decode byte for byte."""

    @pytest.mark.parametrize(
        "index,kind,size,mode,block_size,digest",
        [(i, *case[:4], case[5]) for i, case in enumerate(GOLDEN_ARCHIVES)],
        ids=GOLDEN_IDS,
    )
    def test_archive_digest(self, index, kind, size, mode, block_size, digest):
        data = _golden_input(kind, size, 7000 + index)
        archive = compress_bytes(data, block_size=block_size, mode=mode)
        assert hashlib.sha256(archive).hexdigest() == digest
        assert decompress_bytes(archive) == data

    @pytest.mark.parametrize(
        "index,kind,size,digest",
        [(i, case[0], case[1], case[4]) for i, case in enumerate(GOLDEN_ARCHIVES)],
        ids=GOLDEN_IDS,
    )
    def test_cbe1_fixture_decodes(self, index, kind, size, digest):
        archive = (FIXTURES / "cbe1" / f"{index:02d}-{GOLDEN_IDS[index]}.cbe").read_bytes()
        assert archive[:4] == b"CBE1"
        assert hashlib.sha256(archive).hexdigest() == digest
        assert decompress_bytes(archive) == _golden_input(kind, size, 7000 + index)


def _reference_bit_archive(data, block_size):
    """The bit-mode archive spelled out block by block with the general
    `encode`, independent of how `compress` reads and splits its input.
    The table's support and composition strings are ranked by `encode`
    too, not by the bit kernel."""
    bits = [(byte >> s) & 1 for byte in data for s in range(8)]
    parts = [b"CBE2\x02", write_varint(block_size)]
    for start in range(0, len(bits), block_size):
        block = bits[start:start + block_size]
        n = len(block)
        rank, table = encode(block, BIT_ALPHABET)
        d = table.t_effective
        support, _ = encode([int(c > 0) for c in table.counts], BIT_ALPHABET)
        bars = [0] * (n - 1)
        if d == 2:  # one bar, after the zeros
            bars[table.counts[0] - 1] = 1
        composition, _ = encode(bars, BIT_ALPHABET)
        compositions = math.comb(n - 1, d - 1)
        tables = math.comb(2, d) * compositions
        width = (math.comb(n, table.counts[1]) - 1).bit_length()
        packed = sum(b << i for i, b in enumerate(block)).to_bytes((n + 7) // 8, "little")
        parts += [
            write_varint(n), write_varint(d),
            (support * compositions + composition).to_bytes(
                ((tables - 1).bit_length() + 7) // 8, "big"),
            rank.to_bytes((width + 7) // 8, "big"),
            zlib.crc32(packed).to_bytes(4, "big"),
        ]
    parts.append(write_varint(0))
    return b"".join(parts)


class TestBitBlocksAcrossChunks:
    """Bit blocks that straddle the 4096-byte read chunk carry their
    leftover bits into the next chunk, in both directions."""

    @staticmethod
    def make(kind, size, seed):
        rng = random.Random(seed)
        if kind == "random":
            return rng.randbytes(size)
        if kind == "biased":  # independent bits, p(1) = 0.1
            return bytes(sum((rng.random() < 0.1) << s for s in range(8))
                         for _ in range(size))
        # runs of 0x00/0xFF across chunk ends, between random stretches
        out = b""
        while len(out) < size:
            out += rng.randbytes(rng.randrange(1, 300))
            out += bytes((rng.choice((0x00, 0xFF)),)) * rng.randrange(300, 3000)
        return out[:size]

    @pytest.mark.parametrize("block_size", [4095, 4097, 33000])
    @pytest.mark.parametrize("kind", ["random", "biased", "runs"])
    def test_matches_reference_and_roundtrips(self, kind, block_size):
        data = self.make(kind, 10_000, block_size)
        archive = compress_bytes(data, block_size=block_size, mode=MODE_BIT)
        assert archive == _reference_bit_archive(data, block_size)
        assert decompress_bytes(archive) == data


class TestThreads:
    def test_four_threads_match_sequential(self):
        # every thread codes its own inputs; no state may leak between them
        jobs = []
        for k in range(4):
            rng = random.Random(k)
            jobs.append([(rng.randbytes(size), mode)
                         for mode in (MODE_BIT, MODE_BYTE)
                         for size in (64, 4096)])
        barrier = threading.Barrier(4, timeout=60)
        results = [None] * 4
        errors = []

        def work(k):
            try:
                barrier.wait()
                out = []
                for data, mode in jobs[k]:
                    archive = compress_bytes(data, mode=mode)
                    out.append((archive, decompress_bytes(archive)))
                results[k] = out
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave threads inside short calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for k in range(4):
            for (data, mode), (archive, restored) in zip(jobs[k], results[k]):
                assert archive == compress_bytes(data, mode=mode)
                assert restored == data


class _CountingSink:
    """Write target that keeps only how many bytes, and which, arrived."""

    def __init__(self):
        self.size = 0
        self.values = set()

    def write(self, data):
        self.size += len(data)
        self.values.update(data)
        return len(data)


def _one_symbol_archive(magic, mode, n, symbol):
    """An archive of one block of n copies of `symbol`, with no payload."""
    if magic == b"CBE1":
        block = (write_varint(n) + write_varint(1) + bytes((symbol,))
                 + write_varint(n) + write_varint(0))
        return magic + bytes((mode,)) + block + write_varint(0)
    # the support {symbol} ranks C(symbol, 1); the one composition, 0.
    # A block longer than 2^24 symbols gets a CRC of 0: it is refused
    # before its CRC is read
    crc = 0
    if n <= 2 ** 24:
        if mode == MODE_BYTE:
            packed = bytes((symbol,)) * n
        elif symbol:
            packed = b"\xff" * (n // 8) + (bytes(((1 << n % 8) - 1,)) if n % 8 else b"")
        else:
            packed = bytes((n + 7) // 8)
        crc = zlib.crc32(packed)
    return (magic + bytes((mode,)) + write_varint(n) + write_varint(n)
            + write_varint(1) + bytes((symbol,))
            + crc.to_bytes(4, "big") + write_varint(0))


class TestOneSymbolBlocks:
    """A block of one repeated byte or bit is written out without
    unranking."""

    @staticmethod
    def streamed(archive, n):
        """The sink `archive` streams into, and the peak memory it took."""
        sink = _CountingSink()
        tracemalloc.start()
        try:
            decompress(io.BytesIO(archive), sink, block_cap=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return sink, peak

    def test_huge_block_streams_in_bounded_memory(self):
        n = 2 ** 24
        for magic in (b"CBE1", b"CBE2"):
            sink, peak = self.streamed(_one_symbol_archive(magic, MODE_BYTE, n, 0x41), n)
            assert peak < 1 << 20
            assert sink.size == n
            assert sink.values == {0x41}

    def test_huge_bit_block_streams_in_bounded_memory(self):
        n = 2 ** 24
        for magic in (b"CBE1", b"CBE2"):
            sink, peak = self.streamed(_one_symbol_archive(magic, MODE_BIT, n, 1), n)
            assert peak < 1 << 20
            assert sink.size == n // 8
            assert sink.values == {0xFF}

    @pytest.mark.parametrize("magic", [b"CBE1", b"CBE2"])
    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_block_above_the_cap_is_refused(self, magic, mode):
        # a valid archive that would write 2^40 symbols: each block costs
        # a few archive bytes, so only the cap bounds the output
        archive = _one_symbol_archive(magic, mode, 2 ** 40, 1)
        sink = _CountingSink()
        with pytest.raises(ArchiveError, match="above the cap of 1048576"):
            decompress(io.BytesIO(archive), sink)
        assert sink.size == 0
        archive = _one_symbol_archive(magic, mode, 5000, 1)
        with pytest.raises(ArchiveError, match="above the cap of 4999"):
            decompress_bytes(archive, block_cap=4999)
        assert len(decompress_bytes(archive, block_cap=5000)) == (
            5000 if mode == MODE_BYTE else 625)

    @pytest.mark.parametrize("block_size", [511, 513])
    def test_bit_blocks_off_byte_boundaries(self, block_size):
        # each run of 0x00 or 0xFF spans whole one-symbol blocks, which
        # start and end mid-byte between blocks of mixed bits
        rng = random.Random(block_size)
        data = b"".join(rng.randbytes(rng.randrange(1, 90))
                        + bytes((rng.choice((0x00, 0xFF)),)) * rng.randrange(140, 400)
                        for _ in range(6))
        archive = compress_bytes(data, block_size=block_size, mode=MODE_BIT)
        assert decompress_bytes(archive) == data

    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097])
    def test_constant_roundtrip(self, size):
        data = b"\x9c" * size
        archive = compress_bytes(data)
        assert decompress_bytes(archive) == data
        # every block is one symbol, so every payload is empty
        assert compress(io.BytesIO(data), io.BytesIO()).payload_bytes == 0


def _whole_counts(data, mode):
    """Symbol counts of all of `data`, indexed by symbol id."""
    if mode == MODE_BYTE:
        return tuple(data.count(bytes((k,))) for k in range(256))
    ones = sum(bin(byte).count("1") for byte in data)
    return (8 * len(data) - ones, ones)


class TestSummarize:
    """`summarize` sizes an archive from block tables, as `compress` does,
    and sums the tables into the whole input's counts."""

    @pytest.mark.parametrize("kind", ["random", "text", "sparse"])
    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    @pytest.mark.parametrize("block_size", [64, 513, 4096])
    def test_equals_compress_summary(self, kind, mode, block_size):
        data = _golden_input(kind, 2500, 900 + block_size)
        archive = io.BytesIO()
        want = compress(io.BytesIO(data), archive,
                        block_size=block_size, mode=mode)
        summary, counts = summarize(data, block_size=block_size, mode=mode)
        assert summary == want
        assert summary.total_bytes == len(archive.getvalue())
        assert counts == _whole_counts(data, mode)

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_empty_input(self, mode):
        want = compress(io.BytesIO(b""), io.BytesIO(), mode=mode)
        assert summarize(b"", mode=mode) == (want, _whole_counts(b"", mode))

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_long_blocks(self, mode):
        # tables and payloads wide enough for lgamma to size them alone
        data = _golden_input("sparse", 40_000, 77)
        want = compress(io.BytesIO(data), io.BytesIO(), block_size=30_000, mode=mode)
        assert summarize(data, block_size=30_000, mode=mode)[0] == want

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            summarize(b"abc", block_size=0)
        with pytest.raises(ValueError):
            summarize(b"abc", mode=7)


class TestPayloadWidth:
    """`summarize` takes a block's rank and table widths from lgamma, and
    from the exact count only where lgamma's error bound reaches an
    integer."""

    # P is a power of two, or one away from it, or 1
    NEAR_POWERS = [(1,), (9,), (1, 1), (1, 3), (3, 1), (1, 2), (1, 4),
                   (2, 2), (1, 1, 1, 1), (1, 7), (1, 2**20 - 1),
                   (1, 2**20 - 2), (1, 2**20), (2**20 - 1, 1, 0)]
    NEAR_POWERS += [(1, 2**k + e) for k in range(1, 31) for e in (-2, -1, 0)]

    @pytest.mark.parametrize("counts", NEAR_POWERS)
    def test_powers_of_two(self, counts):
        assert _width(counts) == rank_width_bits(multinomial(counts))

    def test_random_byte_tables(self):
        rng = random.Random(4242)
        for _ in range(300):
            d = rng.randint(1, 256)
            scale = rng.choice((1, 4, 40, 1000))
            counts = [rng.randint(1, scale) for _ in range(d)]
            assert _width(counts) == rank_width_bits(multinomial(counts))

    def test_bit_tables(self):
        rng = random.Random(4243)
        tables = [(z, n - z) for n in range(1, 65) for z in range(n + 1)]
        tables += [(n - o, o) for n in (4096, 32768, 65536)
                   for o in rng.sample(range(n + 1), 40)]
        for zeros, ones in tables:
            assert (_width((zeros, ones))
                    == rank_width_bits(math.comb(zeros + ones, ones)))

    def test_table_widths(self):
        # C(S, d) * C(n-1, d-1), powers of two among them (d = 1 in byte
        # mode, or n - 1 a power of two with d = 2 in bit mode)
        rng = random.Random(4244)
        cases = [(s, n, d) for s in (2, 256) for n in (1, 2, 3, 5, 9, 17, 4096, 4097)
                 for d in range(1, min(s, n) + 1)]
        cases += [(256, rng.randint(1, 10**6), rng.randint(1, 256)) for _ in range(300)]
        for symbols, n, d in cases:
            d = min(d, n)
            want = rank_width_bits(math.comb(symbols, d) * math.comb(n - 1, d - 1))
            assert _width((d, symbols - d), (d - 1, n - d)) == want


def _table_shapes():
    rng = random.Random(4246)
    sparse = bytearray(4096)
    for pos in rng.sample(range(4096), 123):
        sparse[pos] = rng.randrange(1, 256)
    pages = {"byte-random": rng.randbytes(4096), "byte-sparse": bytes(sparse),
             "zero-page": bytes(4096), "every-byte-once": bytes(range(256)),
             "two-bytes": b"\x00" * 3000 + b"\xff" * 1096}
    shapes = {}
    for name, page in pages.items():
        counts = [0] * 256
        for byte, count in collections.Counter(page).items():
            counts[byte] = count
        shapes[name] = counts
    shapes["bit-block"] = [3700, 396]
    shapes["all-ones"] = [0, 4096]
    return shapes


class TestTableRank:
    """A table's rank unranks to the same counts, and is its support's
    rank times the compositions plus its composition's rank, both ranked
    as the general encoder ranks the same bits."""

    SHAPES = _table_shapes()

    @pytest.mark.parametrize("name", SHAPES)
    def test_roundtrip(self, name):
        counts = self.SHAPES[name]
        symbols, n = len(counts), sum(counts)
        d = sum(1 for c in counts if c)
        compositions = math.comb(n - 1, d - 1)
        table, tables = _table_rank(counts)
        assert tables == math.comb(symbols, d) * compositions
        assert container._table_counts(table, symbols, n, d, compositions) == counts
        support = [int(c > 0) for c in counts]
        bars = [bit for c in counts if c for bit in [0] * (c - 1) + [1]][:-1]
        two = Alphabet((0, 1))
        assert table == encode(support, two)[0] * compositions + encode(bars, two)[0]


class _DribbleReader:
    """File-like source that returns at most two bytes per read."""

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def read(self, size):
        take = min(size, 2, len(self._data) - self._pos)
        chunk = self._data[self._pos:self._pos + take]
        self._pos += take
        return chunk


class TestStreamHandling:
    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_short_reads_do_not_change_output(self, mode):
        data = bytes(random.Random(31).randbytes(5000))
        whole = compress_bytes(data, mode=mode)
        dribbled = io.BytesIO()
        summary = compress(_DribbleReader(data), dribbled, mode=mode)
        assert dribbled.getvalue() == whole
        assert summary.symbols == (len(data) if mode == MODE_BYTE
                                   else 8 * len(data))
        out = io.BytesIO()
        decompress(_DribbleReader(whole), out)
        assert out.getvalue() == data

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_huge_block_size_reads_in_pieces(self, mode):
        # one block of the whole input: no read asks for the block size,
        # which would size the read buffer. Two set bits keep the block
        # ranked; at the very end they leave no long run for bit mode's
        # ranker to roll its coefficient across.
        data = bytes(3 * _RUN_PIECE // 2) + b"\x01\x80"
        src = FailingSource(data)
        archive = io.BytesIO()
        summary = compress(src, archive, block_size=10**12, mode=mode)
        assert summary.blocks == 1
        assert len(src.requests) > 2
        assert max(src.requests) <= _RUN_PIECE
        assert decompress_bytes(archive.getvalue()) == data

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_block_size_above_the_cap(self, mode):
        # blocks stop at the reader's default cap, so the default reader
        # takes the archive. A run of zeros fills the first blocks and
        # leaves no long run for the rankers to roll across
        cap = container.DEFAULT_BLOCK_CAP
        data = bytes(cap // 8 if mode == MODE_BIT else cap) + random.Random(5).randbytes(300)
        archive = io.BytesIO()
        summary = compress(io.BytesIO(data), archive, block_size=cap + 1, mode=mode)
        archive = archive.getvalue()
        assert archive[5:8] == write_varint(cap)
        assert summary.blocks == 2
        assert summarize(data, block_size=cap + 1, mode=mode)[0] == summary
        assert decompress_bytes(archive) == data

    @pytest.mark.parametrize("fail_at", [0, 3, 5])
    @pytest.mark.parametrize("mode,block_size",
                             [(MODE_BYTE, 4096), (MODE_BIT, 8 * 4096)])
    def test_read_error_names_its_block(self, mode, block_size, fail_at):
        # each read fills one block, so read k fails in block k; read 5
        # is the one that finds the end of the five blocks
        src = FailingSource(bytes(range(256)) * 80, fail_at)
        with pytest.raises(OSError, match=f"^reading block {fail_at}: disk on fire$"):
            compress(src, io.BytesIO(), block_size=block_size, mode=mode)
        assert src.requests == [4096] * fail_at


class TestCodecThroughGlobals:
    """Every mode reaches the codec through `cbe.container`'s globals,
    which the benchmark's tracer patches to book codec time to `codec`;
    a captured reference would bypass the patch."""

    IMPORTED = {"_rank_message", "_rank_bit_string", "_unrank_counts",
                "_unrank_bits", "multinomial", "log2_arrangements",
                "rank_width_bits"}
    # each block's own ranker and unranker; every table is ranked and
    # unranked by the bit kernels, in both modes
    RANKERS = {MODE_BYTE: ("_rank_message", "_unrank_counts"),
               MODE_BIT: ("_rank_bit_string", "_unrank_bits")}
    TABLE = ("_rank_bit_string", "_unrank_bits")

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_kernels_reached_through_patched_names(self, mode, monkeypatch):
        imported = {name for name, obj in vars(container).items()
                    if isinstance(obj, types.FunctionType)
                    and obj.__module__ != container.__name__}
        assert imported == self.IMPORTED
        calls = collections.Counter()
        for name in imported:
            def counted(*args, _name=name, _fn=getattr(container, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(container, name, counted)
        # ranked blocks and a one-symbol block
        data = bytes(random.Random(34).randbytes(300)) + bytes(600)
        rank, unrank = self.RANKERS[mode]
        want = {
            "compress": {rank, self.TABLE[0], "rank_width_bits"},
            "decompress": {unrank, self.TABLE[1], "multinomial",
                           "log2_arrangements", "rank_width_bits"},
            "summarize": {"multinomial", "log2_arrangements"},
        }
        archive = io.BytesIO()
        ops = {
            "compress": lambda: compress(io.BytesIO(data), archive,
                                         block_size=512, mode=mode),
            "decompress": lambda: decompress(io.BytesIO(archive.getvalue()),
                                             io.BytesIO()),
            "summarize": lambda: summarize(data, block_size=512, mode=mode),
        }
        other = set().union(*self.RANKERS.values()) - {rank, unrank, *self.TABLE}
        for op, run in ops.items():
            calls.clear()
            run()
            assert want[op] <= set(calls), op
            assert not other & set(calls), op


def _two_symbol_archive(n, payload_len, payload):
    """Byte-mode `CBE1` archive of one block of n/2 zeros and n/2 ones."""
    half = write_varint(n // 2)
    return (b"CBE1\x01" + write_varint(n) + write_varint(2) + b"\x00" + half
            + b"\x01" + half + write_varint(payload_len) + payload)


def _two_symbol_cbe2(n, payload):
    """The same block as a `CBE2` archive, up to its payload."""
    counts = [n // 2, n - n // 2] + [0] * 254
    table, tables = _table_rank(counts)
    return (b"CBE2\x01" + write_varint(n) + write_varint(n) + write_varint(2)
            + table.to_bytes((rank_width_bits(tables) + 7) // 8, "big") + payload)


class TestHostileArchives:
    """A block claiming n = 10**6 is refused before the exact count, whose
    computation alone takes seconds."""

    N = 10 ** 6

    def _rejects_quickly(self, archive, match):
        start = time.perf_counter()
        with pytest.raises(ArchiveError, match=match):
            decompress_bytes(archive)
        assert time.perf_counter() - start < 1.0

    def test_wrong_payload_length(self):
        self._rejects_quickly(_two_symbol_archive(self.N, 3, b"abc"), "payload")

    def test_truncated_payload(self):
        half = self.N // 2
        bits = (math.lgamma(self.N + 1) - 2 * math.lgamma(half + 1)) / math.log(2)
        payload_len = math.ceil(math.ceil(bits) / 8)
        archive = _two_symbol_archive(self.N, payload_len, bytes(1000))
        self._rejects_quickly(archive, "truncated")

    def test_truncated_cbe2_payload(self):
        # about 125 kB of payload are due; 1000 bytes are there
        self._rejects_quickly(_two_symbol_cbe2(self.N, bytes(1000)), "truncated")

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_long_runs_at_the_cap_decode_quickly(self, mode):
        # 2^20 zeros but a one at arrival t rank C(t, 1) = t among their
        # n arrangements, so the archive takes a few dozen bytes; its two
        # runs must not be rolled symbol by symbol
        n, t = 2 ** 20, 2 ** 20 // 3
        counts = [n - 1, 1] + [0] * (254 if mode == MODE_BYTE else 0)
        data = (bytes(t) + b"\x01" + bytes(n - t - 1) if mode == MODE_BYTE
                else (1 << t).to_bytes(n // 8, "little"))
        table, tables = _table_rank(counts)
        archive = (b"CBE2" + bytes((mode,)) + write_varint(n) + write_varint(n)
                   + write_varint(2)
                   + table.to_bytes(((tables - 1).bit_length() + 7) // 8, "big")
                   + t.to_bytes(3, "big") + zlib.crc32(data).to_bytes(4, "big")
                   + write_varint(0))
        assert len(archive) < 40
        start = time.perf_counter()
        assert decompress_bytes(archive) == data
        assert time.perf_counter() - start < 1.0
        # and encoding rolls the long zero runs by perms of the few other
        # arrivals (byte mode) or takes them from math.comb (bit mode)
        start = time.perf_counter()
        assert compress_bytes(data, block_size=n, mode=mode) == archive
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("magic", [b"CBE1", b"CBE2"])
    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_probe_is_refused_at_the_cap(self, magic, mode):
        archive = probe_archive(magic, mode)
        assert len(archive) == (26 if magic == b"CBE1" else
                                33 if mode == MODE_BYTE else 31)
        self._rejects_quickly(archive, "^block 1: 17179869184 symbols, above the cap")


@st.composite
def short_archives(draw):
    """At most 64 bytes under either magic: arbitrary bytes after the
    mode byte, or a real archive cut to 64 bytes and edited."""
    magic = draw(st.sampled_from([b"CBE1", b"CBE2"]))
    mode = draw(st.sampled_from([MODE_BYTE, MODE_BIT]))
    if draw(st.booleans()):
        return magic + bytes((mode,)) + draw(st.binary(max_size=59))
    data = draw(st.binary(max_size=24))
    block_size = draw(st.integers(1, 40))
    archive = bytearray(compress_bytes(data, block_size=block_size, mode=mode)[:64])
    archive[:4] = magic
    for _ in range(draw(st.integers(0, 3))):
        archive[draw(st.integers(0, len(archive) - 1))] = draw(st.integers(0, 255))
    return bytes(archive)


class TestShortArchives:
    """Every archive of at most 64 bytes decodes or raises ArchiveError,
    within a fixed time."""

    BUDGET = 2.0  # seconds per archive; none takes a tenth of it

    @seed(18)
    @settings(max_examples=500, deadline=None, database=None)
    @given(short_archives())
    def test_decodes_or_fails_in_time(self, archive):
        assert len(archive) <= 64
        start = time.perf_counter()
        try:
            decompress(io.BytesIO(archive), _CountingSink())
        except ArchiveError:
            pass
        assert time.perf_counter() - start < self.BUDGET


class TestCorruptionHandling:
    def test_bad_magic(self):
        with pytest.raises(ArchiveError, match="bad magic"):
            decompress_bytes(b"NOPE\x01\x00")

    def test_unknown_mode(self):
        for magic in (b"CBE1", b"CBE2"):
            with pytest.raises(ArchiveError, match="unknown mode"):
                decompress_bytes(magic + b"\x09\x00")

    def test_zero_cap(self):
        with pytest.raises(ArchiveError, match="cap must be at least 1"):
            decompress_bytes(b"CBE2\x01\x00\x00")

    def test_block_above_declared_cap(self):
        archive = compress_bytes(b"banana" * 3, block_size=7)
        assert decompress_bytes(archive) == b"banana" * 3
        with pytest.raises(ArchiveError, match="above the cap of 6"):
            decompress_bytes(archive[:5] + b"\x06" + archive[6:])

    def test_rank_out_of_range(self):
        # banana block with payload byte forced to 60 (valid ranks 0..59)
        for archive, index in ((BANANA_CBE1, -2), (BANANA_ARCHIVE, -6)):
            corrupt = bytearray(archive)
            corrupt[index] = 60
            with pytest.raises(ArchiveError, match="out of range"):
                decompress_bytes(bytes(corrupt))

    def test_table_out_of_range(self):
        # 4 bytes hold more than the C(256, 3) * C(5, 2) banana tables
        archive = bytearray(BANANA_ARCHIVE)
        archive[9:13] = b"\xff\xff\xff\xff"
        with pytest.raises(ArchiveError, match="table .* out of range"):
            decompress_bytes(bytes(archive))

    @pytest.mark.parametrize("d", [0, 7, 257])
    def test_invalid_distinct_count(self, d):
        # banana's n is 6, so d may be 1 to 6
        archive = BANANA_ARCHIVE[:8] + write_varint(d) + BANANA_ARCHIVE[9:]
        with pytest.raises(ArchiveError, match="distinct"):
            decompress_bytes(archive)

    def test_payload_length_mismatch(self):
        archive = bytearray(BANANA_CBE1)
        archive[-3] = 2  # payload_len field
        with pytest.raises(ArchiveError, match="payload"):
            decompress_bytes(bytes(archive))

    def test_counts_sum_mismatch(self):
        archive = bytearray(BANANA_CBE1)
        archive[5] = 7  # block says n=7, entries still sum to 6
        with pytest.raises(ArchiveError, match="sum"):
            decompress_bytes(bytes(archive))

    def test_unsorted_entries(self):
        head = b"CBE1\x01" + write_varint(2) + write_varint(2)
        body = b"\x62" + write_varint(1) + b"\x61" + write_varint(1)
        tail = write_varint(1) + b"\x00" + b"\x00"
        with pytest.raises(ArchiveError, match="ascending"):
            decompress_bytes(head + body + tail)

    def test_zero_distinct_count(self):
        archive = b"CBE1\x01" + write_varint(3) + write_varint(0) + b"\x00"
        with pytest.raises(ArchiveError, match="distinct"):
            decompress_bytes(archive)

    def test_bit_mode_rejects_byte_symbols(self):
        block = (
            write_varint(4) + write_varint(1) + b"\x05" + write_varint(4)
            + write_varint(0)
        )
        with pytest.raises(ArchiveError, match="invalid for this mode"):
            decompress_bytes(b"CBE1\x02" + block + b"\x00")

    def test_trailing_garbage(self):
        for archive in (BANANA_CBE1, BANANA_ARCHIVE):
            with pytest.raises(ArchiveError, match="trailing"):
                decompress_bytes(archive + b"\x00")

    def test_every_truncation_errors(self):
        for archive in (BANANA_CBE1, BANANA_ARCHIVE):
            for cut in range(len(archive)):
                with pytest.raises(ArchiveError):
                    decompress_bytes(archive[:cut])

    def test_every_bit_flip_is_detected_or_differs(self):
        # No flipped byte may crash or silently return the original.
        for position in range(len(BANANA_CBE1)):
            for bit in range(8):
                corrupt = bytearray(BANANA_CBE1)
                corrupt[position] ^= 1 << bit
                try:
                    output = decompress_bytes(bytes(corrupt))
                except ArchiveError:
                    continue
                assert output != b"banana"

    def test_every_bit_flip_is_detected(self):
        # outside the cap, which only bounds the blocks, every flip of a
        # CBE2 archive fails to decode; inside it, none changes the output
        for position in range(len(BANANA_ARCHIVE)):
            for bit in range(8):
                corrupt = bytearray(BANANA_ARCHIVE)
                corrupt[position] ^= 1 << bit
                try:
                    output = decompress_bytes(bytes(corrupt))
                except ArchiveError:
                    continue
                assert position in (5, 6) and output == b"banana"

    def test_flipped_payload_decodes_to_different_message(self):
        # CBE1 has no CRC: rank 22 -> 23 stays in range, and
        # bijectivity forces another output
        archive = bytearray(BANANA_CBE1)
        archive[-2] = 23
        assert decompress_bytes(bytes(archive)) == b"abnana"

    def test_flipped_payload_fails_the_crc(self):
        # the same flip in CBE2 decodes to "abnana", which the CRC refuses
        archive = bytearray(BANANA_ARCHIVE)
        archive[-6] ^= 1
        with pytest.raises(ArchiveError, match="^block 1: CRC mismatch$"):
            decompress_bytes(bytes(archive))

    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    def test_random_corruptions_never_crash_or_pass_silently(self, mode):
        rng = random.Random(mode)
        data = bytes(rng.randbytes(3000))
        archive = compress_bytes(data, mode=mode, block_size=512)
        for _ in range(150):
            corrupt = bytearray(archive)
            for _ in range(rng.randint(1, 3)):
                action = rng.randrange(3)
                if action == 0:
                    corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
                elif action == 1:
                    del corrupt[rng.randrange(len(corrupt))]
                else:
                    corrupt.insert(rng.randrange(len(corrupt) + 1),
                                   rng.randrange(256))
            blob = bytes(corrupt)
            if blob == archive:
                continue
            try:
                output = decompress_bytes(blob)
            except ArchiveError:
                continue
            # the CRC leaves only edits that keep every block intact,
            # such as a larger cap
            assert output == data
