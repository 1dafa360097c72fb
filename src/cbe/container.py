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
"""

import io
import math
from collections import Counter

from .binomials import multinomial
from .codec import _rank_bit_string, _rank_message, _unrank_bits, _unrank_counts
from .multiset import BYTE_ALPHABET, FrozenRecord, log2_arrangements, rank_width_bits

MAGIC = b"CBE1"
MODE_BYTE = 0x01
MODE_BIT = 0x02
DEFAULT_BLOCK_SIZE = 4096
_RUN_PIECE = 1 << 16  # largest read or write of a run of bytes


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
        parts = []
        need = size
        while need:
            # a hostile length must not size the read buffer
            chunk = self._fp.read(min(need, _RUN_PIECE))
            if not chunk:
                raise ArchiveError(f"truncated archive while reading {what}")
            parts.append(chunk)
            need -= len(chunk)
        return b"".join(parts)

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
    """Read exactly `size` bytes unless the stream ends first."""
    parts = []
    need = size
    while need:
        chunk = src.read(need)
        if not chunk:
            break
        parts.append(chunk)
        need -= len(chunk)
    return b"".join(parts)


def _frame(n, entries, width):
    """One block's header bytes, for a rank `width` bits wide.

    The single place that lays out a block's framing: `compress` writes
    this header ahead of the rank, `summarize` only measures it.
    """
    parts = [write_varint(n), write_varint(len(entries))]
    for symbol, count in entries:
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


def _check_coding(block_size, mode):
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if mode not in (MODE_BYTE, MODE_BIT):
        raise ValueError(f"unknown mode {mode!r}")


def _bit_strings(src, block_size):
    """Arrival-order '0'/'1' strings of at most block_size bits.

    Each read chunk is spelled out LSB first by one `format` of its
    little-endian int; the bits past the last whole block carry over.
    """
    pending = ""
    while True:
        chunk = _read_full(src, max(4096, (block_size + 7) // 8))
        if not chunk:
            break
        digits = format(int.from_bytes(chunk, "little"), f"0{8 * len(chunk)}b")
        bits = pending + digits[::-1]
        whole = len(bits) - len(bits) % block_size
        for start in range(0, whole, block_size):
            yield bits[start:start + block_size]
        pending = bits[whole:]
    if pending:
        yield pending


def _ranked_blocks(src, block_size, mode):
    """(n, entries, rank, P) for each block of `src`, each ranked in one pass."""
    index = 0
    if mode == MODE_BYTE:
        while True:
            try:
                chunk = _read_full(src, block_size)
            except OSError as exc:
                raise OSError(f"reading block {index}: {exc}") from exc
            if not chunk:
                return
            rank, counts, permutations = _rank_message(chunk, BYTE_ALPHABET)
            # a byte is its own rank in BYTE_ALPHABET
            entries = [(s, c) for s, c in enumerate(counts) if c]
            yield len(chunk), entries, rank, permutations
            index += 1
    else:
        try:
            for bits in _bit_strings(src, block_size):
                n = len(bits)
                rank, ones, permutations = _rank_bit_string(bits)
                entries = [(s, c) for s, c in ((0, n - ones), (1, ones)) if c]
                yield n, entries, rank, permutations
                index += 1
        except OSError as exc:
            raise OSError(f"reading block {index}: {exc}") from exc


def compress(src, dst, *, block_size: int = DEFAULT_BLOCK_SIZE, mode: int = MODE_BYTE):
    """Encode `src` into `dst` as independent blocks; returns ArchiveSummary.

    Every block is a single adaptive pass: the counts tallied while
    ranking the block become its header.
    """
    _check_coding(block_size, mode)
    dst.write(MAGIC)
    dst.write(bytes((mode,)))

    def frames():
        for n, entries, rank, permutations in _ranked_blocks(src, block_size, mode):
            width = rank_width_bits(permutations)
            header = _frame(n, entries, width)
            dst.write(header + rank.to_bytes((width + 7) // 8, "big"))
            yield n, header, width

    summary = _summary(frames())
    dst.write(write_varint(0))
    return summary


def _tallied_blocks(data, block_size, mode):
    """(n, entries) for each block of `data`, from symbol counts alone."""
    if mode == MODE_BYTE:
        for start in range(0, len(data), block_size):
            chunk = data[start:start + block_size]
            yield len(chunk), sorted(Counter(chunk).items())
    else:
        total = 8 * len(data)
        for start in range(0, total, block_size):
            n = min(block_size, total - start)
            word = int.from_bytes(data[start >> 3:(start + n + 7) >> 3], "little")
            ones = (word >> (start & 7) & ((1 << n) - 1)).bit_count()
            yield n, [(s, c) for s, c in ((0, n - ones), (1, ones)) if c]


def summarize(data: bytes, *, block_size: int = DEFAULT_BLOCK_SIZE,
              mode: int = MODE_BYTE) -> ArchiveSummary:
    """The ArchiveSummary `compress` returns for `data`, without ranking.

    A block's header and payload width follow from its symbol counts, so
    each block is only tallied.
    """
    _check_coding(block_size, mode)

    def frames():
        for n, entries in _tallied_blocks(data, block_size, mode):
            width = _payload_width([count for _, count in entries])
            yield n, _frame(n, entries, width), width

    return _summary(frames())


def _read_block_table(reader, n, index, max_symbol):
    """Parse one block's symbol entries; returns a count per symbol id."""
    what = f"block {index}"
    distinct = reader.varint(what)
    if not 1 <= distinct <= max_symbol + 1:
        raise ArchiveError(f"{what}: invalid distinct-symbol count {distinct}")
    counts = [0] * (max_symbol + 1)
    previous = -1
    total = 0
    for _ in range(distinct):
        symbol = reader.byte(what)
        if symbol <= previous:
            raise ArchiveError(f"{what}: symbol entries not strictly ascending")
        if symbol > max_symbol:
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
    if mode not in (MODE_BYTE, MODE_BIT):
        raise ArchiveError(f"unknown mode byte 0x{mode:02x}")

    index = 0
    bit_acc = 0
    bit_fill = 0
    while True:
        n = reader.varint("block length")
        if n == 0:
            break
        index += 1
        counts = _read_block_table(reader, n, index, 255 if mode == MODE_BYTE else 1)
        rank, permutations = _read_block_rank(reader, index, counts)
        if mode == MODE_BIT and permutations == 1:
            # n equal bits: top up the pending byte, stream whole bytes,
            # and carry the rest (the pending byte is empty by then)
            byte = 0xFF if counts[1] else 0x00
            fill = min(n, -bit_fill % 8)
            bit_acc |= (byte >> (8 - fill)) << bit_fill
            bit_fill += fill
            n -= fill
            if bit_fill == 8:
                dst.write(bytes((bit_acc,)))
                bit_acc = bit_fill = 0
            _write_run(dst, byte, n >> 3)
            bit_fill += n & 7
            bit_acc |= byte >> (8 - (n & 7))
        elif mode == MODE_BIT:
            # the block goes above the pending bits; whole bytes go out
            bit_acc |= _unrank_bits(rank, counts[0], counts[1]) << bit_fill
            whole, bit_fill = (bit_fill + n) >> 3, (bit_fill + n) & 7
            packed = bit_acc.to_bytes(whole + 1, "little")
            dst.write(packed[:whole])
            bit_acc = packed[whole]
        elif permutations == 1:
            # one symbol, n times: stream it rather than unrank n arrivals
            _write_run(dst, counts.index(n), n)
        else:
            dst.write(bytes(_unrank_counts(rank, counts, permutations)))
    if mode == MODE_BIT and bit_fill:
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
