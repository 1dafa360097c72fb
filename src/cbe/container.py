"""Block archive framing for the rank codec.

Layout (integers are canonical little-endian base-128 varints):

    magic   4 bytes   b"CBE1"
    mode    1 byte    0x01 byte symbols, 0x02 bit symbols
    block*  varint    n, symbols in the block, >= 1
            varint    d, distinct symbols present, >= 1
            d times   symbol id (1 byte), count (varint >= 1),
                      strictly ascending symbol ids
            varint    payload_len == ceil(ceil(log2 P) / 8) for the
                      block's table, where P is its arrangement count
            bytes     the block's rank, big-endian, payload_len bytes
    end     varint 0  terminator; nothing may follow

Each block is independently decodable: its table is complete side
information for its rank. Bit mode unpacks every input byte least
significant bit first, so byte k contributes arrival positions
8k..8k+7.

The two modes differ only in symbol width, in how a block is ranked,
tallied and unranked, and in how many symbol ids a table may name.
`_MODES` holds one entry per mode byte with exactly those, and nothing
else here tests the mode. `decompress` has one writer for both: a
block is n symbols of 8 or 1 bits, a one-symbol block streams as a run
of bytes, and every other block is unranked to one little-endian int
and packed above the bits still pending from the blocks before it.
Input is read in pieces of at most `_RUN_PIECE` bytes, whatever the
block size.
"""

import io
import itertools
import math
from collections import Counter

from .binomials import multinomial
from .codec import _rank_bit_string, _rank_message, _unrank_bits, _unrank_counts
from .multiset import BYTE_ALPHABET, FrozenRecord, log2_arrangements, rank_width_bits

MAGIC = b"CBE1"
MODE_BYTE = 0x01
MODE_BIT = 0x02
DEFAULT_BLOCK_SIZE = 4096
_RUN_PIECE = 1 << 16  # largest single read, and largest write of a run


class ArchiveError(ValueError):
    """The bytes violate the archive format."""


def write_varint(value: int) -> bytes:
    """Canonical base-128 little-endian encoding of a nonnegative int."""
    if value < 0:
        raise ValueError("varint values are unsigned")
    out = bytearray()
    while True:
        group = value & 0x7F
        value >>= 7
        out.append(group | (0x80 if value else 0))
        if not value:
            return bytes(out)


class _ByteReader:
    """Exact-length reads with format-level diagnostics."""

    def __init__(self, fp):
        self._fp = fp

    def exact(self, size: int, what: str) -> bytes:
        data = _read_full(self._fp, size)
        if len(data) < size:
            raise ArchiveError(f"truncated archive while reading {what}")
        return data

    def byte(self, what: str) -> int:
        """One byte as an int: varints and symbol ids are read this way."""
        chunk = self._fp.read(1)
        if not chunk:
            raise ArchiveError(f"truncated archive while reading {what}")
        return chunk[0]

    def varint(self, what: str) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.byte(what)
            group = byte & 0x7F
            value |= group << shift
            if not byte & 0x80:
                if shift and not group:
                    raise ArchiveError(f"non-canonical varint in {what}")
                return value
            shift += 7
            if shift > 63:
                raise ArchiveError(f"varint too long in {what}")


class ArchiveSummary(FrozenRecord):
    """Size accounting returned by `compress` and `summarize`."""

    __slots__ = _fields = (
        "blocks", "symbols", "payload_bits", "payload_bytes", "overhead_bytes",
    )

    def __init__(self, blocks: int, symbols: int, payload_bits: int,
                 payload_bytes: int, overhead_bytes: int):
        self._set_fields(blocks, symbols, payload_bits, payload_bytes,
                         overhead_bytes)

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.overhead_bytes


def _read_full(src, size: int) -> bytes:
    """Read exactly `size` bytes unless the stream ends first.

    No single read asks for more than `_RUN_PIECE` bytes, so neither a
    huge block size nor a hostile length sizes a read buffer.
    """
    parts = []
    while size:
        chunk = src.read(min(size, _RUN_PIECE))
        if not chunk:
            break
        parts.append(chunk)
        size -= len(chunk)
    return b"".join(parts)


def _frame(n, counts, width):
    """One block's header bytes, for a rank `width` bits wide.

    The single place that lays out a block's framing: `compress` writes
    this header ahead of the rank, `summarize` only measures it. The
    table lists the nonzero `counts`, which are indexed by symbol id.
    """
    parts = [write_varint(n), write_varint(len(counts) - counts.count(0))]
    for symbol, count in itertools.compress(enumerate(counts), counts):
        parts.append(bytes((symbol,)))
        parts.append(write_varint(count))
    parts.append(write_varint((width + 7) // 8))
    return b"".join(parts)


def _summary(frames):
    """ArchiveSummary of an archive whose blocks frame as (n, header, width)."""
    blocks = symbols = payload_bits = payload_bytes = 0
    overhead = len(MAGIC) + 2  # mode byte and end marker
    for n, header, width in frames:
        blocks += 1
        symbols += n
        payload_bits += width
        payload_bytes += (width + 7) // 8
        overhead += len(header)
    return ArchiveSummary(
        blocks=blocks,
        symbols=symbols,
        payload_bits=payload_bits,
        payload_bytes=payload_bytes,
        overhead_bytes=overhead,
    )


def _byte_blocks(src, block_size):
    """(n, rank, counts, P) for each block of bytes, ranked in one pass."""
    while chunk := _read_full(src, block_size):
        # a byte is its own rank in BYTE_ALPHABET
        rank, counts, permutations = _rank_message(chunk, BYTE_ALPHABET)
        yield len(chunk), rank, counts, permutations


def _byte_tallies(data, block_size):
    """(n, counts) for each block of bytes, from symbol counts alone."""
    for start in range(0, len(data), block_size):
        chunk = data[start:start + block_size]
        counts = [0] * 256
        for symbol, count in Counter(chunk).items():
            counts[symbol] = count
        yield len(chunk), counts


def _unrank_byte_block(rank, counts, permutations):
    return int.from_bytes(bytes(_unrank_counts(rank, counts, permutations)), "little")


def _bit_blocks(src, block_size):
    """(n, rank, counts, P) for each block of bits, in arrival order.

    Each read chunk is spelled out LSB first by one `bin` of its
    little-endian int with a marker bit above it; the bits past the
    last whole block carry over, and the stream's end flushes them.
    """
    bits = ""
    while True:
        chunk = _read_full(src, max(4096, (block_size + 7) // 8))
        bits += bin(int.from_bytes(chunk, "little") | 1 << 8 * len(chunk))[:2:-1]
        end = len(bits) - len(bits) % block_size if chunk else len(bits)
        for start in range(0, end, block_size):
            n = min(block_size, end - start)
            rank, ones, permutations = _rank_bit_string(bits[start:start + n])
            yield n, rank, [n - ones, ones], permutations
        if not chunk:
            return
        bits = bits[end:]


def _bit_tallies(data, block_size):
    """(n, counts) for each block of bits, from one popcount each."""
    total = 8 * len(data)
    for start in range(0, total, block_size):
        n = min(block_size, total - start)
        word = int.from_bytes(data[start >> 3:(start + n + 7) >> 3], "little")
        ones = (word >> (start & 7) & ((1 << n) - 1)).bit_count()
        yield n, [n - ones, ones]


def _unrank_bit_block(rank, counts, permutations):
    return _unrank_bits(rank, counts[0], counts[1])


class _Mode:
    """What one archive mode does differently; see the module docstring.

    `ranked(src, block_size)` and `tallied(data, block_size)` yield
    (n, rank, counts, P) and (n, counts) per block, `unrank(rank, counts,
    P)` gives a block back as one little-endian int of n symbols, and a
    table names `symbols` ids at most. `counts` are indexed by symbol id.
    Entries call the codec through this module's globals, so a patched
    global sees every call.
    """

    def __init__(self, symbols, ranked, tallied, unrank):
        self.symbols = symbols
        self.unit = (symbols - 1).bit_length()  # bits per symbol
        self.ranked = ranked
        self.tallied = tallied
        self.unrank = unrank


_MODES = {
    MODE_BYTE: _Mode(256, _byte_blocks, _byte_tallies, _unrank_byte_block),
    MODE_BIT: _Mode(2, _bit_blocks, _bit_tallies, _unrank_bit_block),
}


def _coding(block_size, mode):
    """The `_MODES` entry for `mode`, once the arguments are checked."""
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _MODES[mode]


def _read_errors_tagged(blocks):
    """`blocks`, with a read error tagged by the index of its block."""
    index = 0
    try:
        for block in blocks:
            yield block
            index += 1
    except OSError as exc:
        raise OSError(f"reading block {index}: {exc}") from exc


def compress(src, dst, *, block_size: int = DEFAULT_BLOCK_SIZE, mode: int = MODE_BYTE):
    """Encode `src` into `dst` as independent blocks; returns ArchiveSummary.

    Every block is a single adaptive pass: the counts tallied while
    ranking the block become its header.
    """
    blocks = _coding(block_size, mode).ranked(src, block_size)
    dst.write(MAGIC)
    dst.write(bytes((mode,)))

    def frames():
        for n, rank, counts, permutations in _read_errors_tagged(blocks):
            width = rank_width_bits(permutations)
            header = _frame(n, counts, width)
            dst.write(header + rank.to_bytes((width + 7) // 8, "big"))
            yield n, header, width

    summary = _summary(frames())
    dst.write(write_varint(0))
    return summary


def summarize(data: bytes, *, block_size: int = DEFAULT_BLOCK_SIZE,
              mode: int = MODE_BYTE) -> ArchiveSummary:
    """The ArchiveSummary `compress` returns for `data`, without ranking.

    A block's header and payload width follow from its symbol counts, so
    each block is only tallied.
    """
    blocks = _coding(block_size, mode).tallied(data, block_size)

    def frames():
        for n, counts in blocks:
            width = _payload_width(counts)
            yield n, _frame(n, counts, width), width

    return _summary(frames())


def _read_block_table(reader, n, index, symbols):
    """Parse one block's table; returns a count for each of `symbols` ids."""
    what = f"block {index}"
    distinct = reader.varint(what)
    if not 1 <= distinct <= symbols:
        raise ArchiveError(f"{what}: invalid distinct-symbol count {distinct}")
    counts = [0] * symbols
    previous = -1
    total = 0
    for _ in range(distinct):
        symbol = reader.byte(what)
        if symbol <= previous:
            raise ArchiveError(f"{what}: symbol entries not strictly ascending")
        if symbol >= symbols:
            raise ArchiveError(f"{what}: symbol {symbol} invalid for this mode")
        count = reader.varint(what)
        if count < 1:
            raise ArchiveError(f"{what}: zero count for symbol {symbol}")
        counts[symbol] = count
        total += count
        previous = symbol
    if total != n:
        raise ArchiveError(f"{what}: counts sum to {total}, header says {n}")
    return counts


def _log2_error(counts):
    """Bits by which `log2_arrangements(counts)` may be off, with room.

    Its float error is a small multiple of 1e-16 * lgamma(n+1) bits
    (at most 6.2e-16 * lgamma(n+1) on 3000 random byte, bit and wide
    tables); this allows 2e-12 * lgamma(n+1), plus 1e-9.
    """
    return 1e-9 + 2e-12 * math.lgamma(sum(counts) + 1)


def _payload_width(counts):
    """A block's rank width ceil(log2 P), from lgamma where that is safe.

    When log2_arrangements lies farther than `_log2_error` from every
    integer, log2 P lies strictly between the same two integers and the
    width is the upper one. Otherwise, as for P == 1 and powers of two,
    the exact count decides.
    """
    bits = log2_arrangements(counts)
    error = _log2_error(counts)
    below = math.floor(bits - error)
    if below < bits - error and bits + error < below + 1:
        return below + 1
    return rank_width_bits(multinomial(counts))


def _payload_len_bracket(counts):
    """Bounds on a block's payload length from lgamma, not from P itself.

    The exact arrangement count P takes time superlinear in n, and n is
    whatever the archive claims, so a length is first checked against
    `log2_arrangements`, widened past `_log2_error`.
    """
    bits = log2_arrangements(counts)
    slack = 2 + _log2_error(counts)
    return max(0, math.floor((bits - slack) / 8)), math.ceil((bits + slack) / 8) + 1


def _read_block_rank(reader, index, counts):
    """Parse one block's payload; returns (rank, arrangement count).

    The length is checked against an lgamma bracket and the payload
    read before the exact count is computed, so a block that claims a
    huge n with a short or wrong payload fails in time bounded by the
    archive's size.
    """
    what = f"block {index}"
    payload_len = reader.varint(what)
    low, high = _payload_len_bracket(counts)
    if not low <= payload_len <= high:
        raise ArchiveError(
            f"{what}: payload is {payload_len} bytes, table requires "
            f"{low} to {high}"
        )
    payload = reader.exact(payload_len, what)
    permutations = multinomial(counts)
    expected_len = (rank_width_bits(permutations) + 7) // 8
    if payload_len != expected_len:
        raise ArchiveError(
            f"{what}: payload is {payload_len} bytes, table requires {expected_len}"
        )
    rank = int.from_bytes(payload, "big")
    if rank >= permutations:
        raise ArchiveError(
            f"{what}: rank {rank} out of range ({permutations} arrangements)"
        )
    return rank, permutations


def _write_run(dst, byte, count):
    """Write `byte` `count` times in pieces of at most `_RUN_PIECE`."""
    piece = bytes((byte,)) * min(count, _RUN_PIECE)
    while count > len(piece):
        dst.write(piece)
        count -= len(piece)
    dst.write(piece[:count])


def decompress(src, dst):
    """Decode an archive from `src`, writing original bytes to `dst`."""
    reader = _ByteReader(src)
    if reader.exact(4, "archive magic") != MAGIC:
        raise ArchiveError("bad magic: not a CBE archive")
    mode = reader.byte("archive mode")
    if mode not in _MODES:
        raise ArchiveError(f"unknown mode byte 0x{mode:02x}")
    coding = _MODES[mode]

    index = 0
    acc = 0  # bits written by earlier blocks but not yet a whole byte
    fill = 0  # how many: always 0 in byte mode
    while n := reader.varint("block length"):
        index += 1
        counts = _read_block_table(reader, n, index, coding.symbols)
        rank, permutations = _read_block_rank(reader, index, counts)
        bits = n * coding.unit
        if permutations == 1:
            # one symbol, n times, streamed rather than unranked. `byte`
            # repeats its bits (s, or 0xFF * s): top up the pending byte,
            # write whole bytes, and carry the rest (the pending byte is
            # empty by then)
            byte = counts.index(n) * 0xFF // (coding.symbols - 1)
            top = min(bits, -fill % 8)
            acc |= (byte >> (8 - top)) << fill
            fill += top
            bits -= top
            if fill == 8:
                dst.write(bytes((acc,)))
                acc = fill = 0
            _write_run(dst, byte, bits >> 3)
            fill += bits & 7
            acc |= byte >> (8 - (bits & 7))
        else:
            # the block goes above the pending bits; whole bytes go out
            acc |= coding.unrank(rank, counts, permutations) << fill
            whole, fill = (fill + bits) >> 3, (fill + bits) & 7
            packed = acc.to_bytes(whole + 1, "little")
            dst.write(packed[:whole])
            acc = packed[whole]
    if fill:
        raise ArchiveError("bit stream does not end on a byte boundary")
    if src.read(1):
        raise ArchiveError("trailing data after terminator")


def compress_bytes(data: bytes, *, block_size: int = DEFAULT_BLOCK_SIZE,
                   mode: int = MODE_BYTE) -> bytes:
    """`compress` for in-memory data."""
    out = io.BytesIO()
    compress(io.BytesIO(data), out, block_size=block_size, mode=mode)
    return out.getvalue()


def decompress_bytes(archive: bytes) -> bytes:
    """`decompress` for in-memory data."""
    out = io.BytesIO()
    decompress(io.BytesIO(archive), out)
    return out.getvalue()
