"""Block archive framing for the rank codec.

`compress` writes the `CBE2` layout. Integers are canonical
little-endian base-128 varints, and fixed-width fields are big-endian:

    magic   4 bytes   b"CBE2"
    mode    1 byte    0x01 byte symbols, 0x02 bit symbols
    cap     varint    the writer's block size, 1 <= cap <= 2^20
    block*  varint    n, symbols in the block, 1 <= n <= cap
            varint    d, distinct symbols present, 1 <= d <= min(S, n)
            bytes     the table: support * C(n-1, d-1) + composition,
                      in ceil(ceil(log2(C(S, d) * C(n-1, d-1))) / 8) bytes
            bytes     the block's rank, in ceil(ceil(log2 P) / 8) bytes,
                      where P is its arrangement count
            4 bytes   zlib.crc32 of the block's symbols, packed LSB first
    end     varint 0  terminator; nothing may follow

S is 256 in byte mode and 2 in bit mode. The table is Cover's two-part
enumerative code for the block's symbol counts. The support, the set of
symbol ids present, is ranked among the C(S, d) sets as the S-bit string
whose bit s is set when symbol s occurs. The composition, the d nonzero
counts c_1..c_d in ascending symbol order, is ranked among the
C(n-1, d-1) compositions of n as the (n-1)-bit string of c_1 - 1 zeros,
a one, c_2 - 1 zeros, a one, ..., c_d - 1 zeros. The bit codec ranks
and unranks both, as it ranks bit-mode blocks. Every width follows
from (S, n, d) and the counts, so a block carries no lengths.

`decompress` also reads `CBE1`, the layout before it: magic b"CBE1",
the mode byte, no cap, and per block a varint n, a varint d, d pairs of
(symbol id byte, varint count) in strictly ascending id order, a varint
payload length and the rank, with no CRC; the same varint 0 ends it. It
refuses any block longer than its `block_cap`, or than a `CBE2` stream's
own cap, before any arithmetic, so that the output is bounded by the
archive's size times the cap. A block that does not fit in memory fails
as `ArchiveError` too. The default cap, `DEFAULT_BLOCK_CAP`, is also the
longest block `compress` writes, whatever block size it is given, so
every archive it writes decodes with the default cap.

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
import math
import zlib
from collections import Counter

from .binomials import multinomial
from .codec import _rank_bit_string, _rank_message, _unrank_bits, _unrank_counts
from .multiset import BYTE_ALPHABET, FrozenRecord, log2_arrangements, rank_width_bits

MAGIC = b"CBE2"
MAGIC_CBE1 = b"CBE1"  # read, never written
MODE_BYTE = 0x01
MODE_BIT = 0x02
DEFAULT_BLOCK_SIZE = 4096
# The longest block `decompress` accepts unless told otherwise: 256
# default blocks, 1 MiB of bytes or 128 KiB of bits. `compress` writes
# no longer block, so the default reader takes every archive it writes.
DEFAULT_BLOCK_CAP = 1 << 20
_CRC_BYTES = 4
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
    while size > 0:
        chunk = src.read(min(size, _RUN_PIECE))
        if not chunk:
            break
        parts.append(chunk)
        size -= len(chunk)
    return b"".join(parts)


def _table_rank(counts):
    """(rank, count) of a block's table: the rank of its support and
    composition (see the module docstring) among `count` tables.

    A one-symbol table needs no bit strings: its support, the one id,
    ranks C(id, 1) = id among C(S, 1) = S sets, and n has one
    composition, C(n - 1, 0) = 1, of rank 0.
    """
    if counts.count(0) == len(counts) - 1:
        return counts.index(sum(counts)), len(counts)
    support, _, sets = _rank_bit_string("".join("1" if c else "0" for c in counts))
    parts, _, compositions = _rank_bit_string("1".join("0" * (c - 1) for c in counts if c))
    return support * compositions + parts, sets * compositions


def _table_counts(rank, symbols, n, d, sets, compositions):
    """Counts per symbol id for a table rank, given C(S, d) and C(n-1, d-1)."""
    support, parts = divmod(rank, compositions)
    present = bin(_unrank_bits(support, symbols - d, d, sets) | 1 << symbols)[:2:-1]
    sizes = [n]
    if d > 1:  # else n has one composition, and a run need not be spelled out
        bars = bin(_unrank_bits(parts, n - d, d - 1, compositions)
                   | 1 << (n - 1))[:2:-1]
        sizes = [len(zeros) + 1 for zeros in bars.split("1")]
    sizes = iter(sizes)
    return [next(sizes) if bit == "1" else 0 for bit in present]


def _framing_bytes(n, d, table_width):
    """Bytes a block spends besides its rank: n, d, table and CRC."""
    return (len(write_varint(n)) + len(write_varint(d)) + (table_width + 7) // 8
            + _CRC_BYTES)


def _summary(frames, block_size):
    """ArchiveSummary of an archive whose blocks frame as
    (n, framing bytes, rank width)."""
    blocks = symbols = payload_bits = payload_bytes = 0
    # magic, mode byte, cap and end marker
    overhead = len(MAGIC) + 1 + len(write_varint(block_size)) + 1
    for n, framing, width in frames:
        blocks += 1
        symbols += n
        payload_bits += width
        payload_bytes += (width + 7) // 8
        overhead += framing
    return ArchiveSummary(
        blocks=blocks,
        symbols=symbols,
        payload_bits=payload_bits,
        payload_bytes=payload_bytes,
        overhead_bytes=overhead,
    )


def _byte_blocks(src, block_size):
    """(n, rank, counts, P, CRC) for each block of bytes, ranked in one pass."""
    while chunk := _read_full(src, block_size):
        # a byte is its own rank in BYTE_ALPHABET
        rank, counts, permutations = _rank_message(chunk, BYTE_ALPHABET)
        yield len(chunk), rank, counts, permutations, zlib.crc32(chunk)


def _byte_tallies(data, block_size):
    """(n, counts) for each block of bytes, from symbol counts alone."""
    for start in range(0, len(data), block_size):
        chunk = data[start:start + block_size]
        counts = [0] * 256
        for symbol, count in Counter(chunk).items():
            counts[symbol] = count
        yield len(chunk), counts


def _unrank_byte_block(rank, counts, permutations):
    return int.from_bytes(_unrank_counts(rank, counts, permutations), "little")


def _bit_blocks(src, block_size):
    """(n, rank, counts, P, CRC) for each block of bits, in arrival order.

    The bits read are carried as one int, bit i = arrival i: each read
    chunk's little-endian int goes above the bits left over from the
    last one, and the stream's end flushes them. A block is a shift and
    a mask of the bytes that hold it, as in `_bit_tallies`, so it costs
    its own width rather than the chunk's; it is CRC'd as it stands and
    ranked as one `bin` of it, spelled out LSB first with a marker bit
    above it.
    """
    word = fill = 0  # the bits not yet in a block, and how many
    mask = (1 << block_size) - 1
    while True:
        chunk = _read_full(src, max(4096, (block_size + 7) // 8))
        word |= int.from_bytes(chunk, "little") << fill
        fill += 8 * len(chunk)
        end = fill - fill % block_size if chunk else fill
        data = word.to_bytes((fill + 7) // 8, "little")
        for start in range(0, end, block_size):
            n = min(block_size, end - start)
            block = (int.from_bytes(data[start >> 3:(start + n + 7) >> 3], "little")
                     >> (start & 7) & mask)
            rank, ones, permutations = _rank_bit_string(bin(block | 1 << n)[:2:-1])
            packed = block.to_bytes((n + 7) // 8, "little")
            yield n, rank, [n - ones, ones], permutations, zlib.crc32(packed)
        if not chunk:
            return
        word >>= end
        fill -= end


def _bit_tallies(data, block_size):
    """(n, counts) for each block of bits, from one popcount each."""
    total = 8 * len(data)
    for start in range(0, total, block_size):
        n = min(block_size, total - start)
        word = int.from_bytes(data[start >> 3:(start + n + 7) >> 3], "little")
        ones = (word >> (start & 7) & ((1 << n) - 1)).bit_count()
        yield n, [n - ones, ones]


def _unrank_bit_block(rank, counts, permutations):
    return _unrank_bits(rank, counts[0], counts[1], permutations)


class _Mode:
    """What one archive mode does differently; see the module docstring.

    `ranked(src, block_size)` and `tallied(data, block_size)` yield
    (n, rank, counts, P, CRC) and (n, counts) per block, `unrank(rank,
    counts, P)` gives a block back as one little-endian int of n
    symbols, and a table names `symbols` ids at most. `counts` are
    indexed by symbol id. Entries call the codec through this module's
    globals, so a patched global sees every call.
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
    """(the `_MODES` entry for `mode`, the block size written), once
    the arguments are checked: blocks are independent, so a size above
    `DEFAULT_BLOCK_CAP` is written as that cap."""
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _MODES[mode], min(block_size, DEFAULT_BLOCK_CAP)


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
    ranking the block become its table. Blocks hold at most
    `DEFAULT_BLOCK_CAP` symbols, whatever `block_size` asks.
    """
    coding, block_size = _coding(block_size, mode)
    blocks = coding.ranked(src, block_size)
    dst.write(MAGIC + bytes((mode,)) + write_varint(block_size))

    def frames():
        for n, rank, counts, permutations, crc in _read_errors_tagged(blocks):
            table, tables = _table_rank(counts)
            table_width = rank_width_bits(tables)
            width = rank_width_bits(permutations)
            d = len(counts) - counts.count(0)
            dst.write(b"".join((
                write_varint(n), write_varint(d),
                table.to_bytes((table_width + 7) // 8, "big"),
                rank.to_bytes((width + 7) // 8, "big"),
                crc.to_bytes(_CRC_BYTES, "big"),
            )))
            yield n, _framing_bytes(n, d, table_width), width

    summary = _summary(frames(), block_size)
    dst.write(write_varint(0))
    return summary


def summarize(data: bytes, *, block_size: int = DEFAULT_BLOCK_SIZE,
              mode: int = MODE_BYTE):
    """(ArchiveSummary, counts): what `compress` returns for `data`, and
    its symbol counts summed over the blocks, indexed by symbol id.

    A block's framing and payload width follow from its symbol counts,
    so each block is only tallied, and the sums cost no second pass.
    """
    coding, block_size = _coding(block_size, mode)
    totals = [0] * coding.symbols

    def frames():
        for n, counts in coding.tallied(data, block_size):
            totals[:] = map(int.__add__, totals, counts)
            d = len(counts) - counts.count(0)
            table_width = _width((d, coding.symbols - d), (d - 1, n - d))
            yield n, _framing_bytes(n, d, table_width), _width(counts)

    return _summary(frames(), block_size), tuple(totals)


def _read_block_table(reader, n, what, symbols):
    """Parse one `CBE1` block's table; returns a count for each of
    `symbols` ids."""
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


def _width(*tables):
    """Rank width ceil(log2 Q) for Q the product of the tables'
    arrangement counts, from lgamma where that is safe.

    A block's payload width is that of its counts alone; its table's,
    that of C(S, d) and C(n-1, d-1). When the summed
    log2_arrangements lie farther than their summed `_log2_error` from
    every integer, log2 Q lies strictly between the same two integers
    and the width is the upper one. Otherwise, as for Q == 1 and
    powers of two, the exact count decides.
    """
    bits = sum(map(log2_arrangements, tables))
    error = sum(map(_log2_error, tables))
    below = math.floor(bits - error)
    if below < bits - error and bits + error < below + 1:
        return below + 1
    return rank_width_bits(math.prod(map(multinomial, tables)))


def _payload_len_bracket(counts):
    """Bounds on a block's payload length from lgamma, not from P itself.

    The exact arrangement count P takes time superlinear in n, and n is
    whatever the archive claims, so a length is first checked against
    `log2_arrangements`, widened past `_log2_error`.
    """
    bits = log2_arrangements(counts)
    slack = 2 + _log2_error(counts)
    return max(0, math.floor((bits - slack) / 8)), math.ceil((bits + slack) / 8) + 1


def _read_block_rank(reader, what, counts, length=None):
    """Parse one block's payload; returns (rank, arrangement count).

    A `CBE1` payload states its `length`, which is checked against an
    lgamma bracket; a `CBE2` payload is as long as P requires. Either
    way the bytes that lgamma proves P needs are read before the exact
    count is computed, so a block that claims a huge n with a short or
    wrong payload fails in time bounded by the archive's size.
    """
    low, high = _payload_len_bracket(counts)
    if length is not None and not low <= length <= high:
        raise ArchiveError(
            f"{what}: payload is {length} bytes, table requires {low} to {high}"
        )
    payload = reader.exact(low if length is None else length, what)
    permutations = multinomial(counts)
    expected = (rank_width_bits(permutations) + 7) // 8
    if length is None:
        payload += reader.exact(expected - low, what)
    elif length != expected:
        raise ArchiveError(
            f"{what}: payload is {length} bytes, table requires {expected}"
        )
    rank = int.from_bytes(payload, "big")
    if rank >= permutations:
        raise ArchiveError(
            f"{what}: rank {rank} out of range ({permutations} arrangements)"
        )
    return rank, permutations


def _read_block(reader, n, what, symbols):
    """Parse the rest of one `CBE2` block: (counts, rank, P, CRC)."""
    d = reader.varint(what)
    if not 1 <= d <= min(symbols, n):
        raise ArchiveError(f"{what}: invalid distinct-symbol count {d}")
    sets = multinomial((d, symbols - d))
    compositions = multinomial((d - 1, n - d))
    tables = sets * compositions
    table = int.from_bytes(
        reader.exact((rank_width_bits(tables) + 7) // 8, what), "big")
    if table >= tables:
        raise ArchiveError(f"{what}: table {table} out of range ({tables} tables)")
    counts = _table_counts(table, symbols, n, d, sets, compositions)
    rank, permutations = _read_block_rank(reader, what, counts)
    crc = int.from_bytes(reader.exact(_CRC_BYTES, what), "big")
    return counts, rank, permutations, crc


def _read_cbe1_block(reader, n, what, symbols):
    """Parse the rest of one `CBE1` block: (counts, rank, P, None)."""
    counts = _read_block_table(reader, n, what, symbols)
    rank, permutations = _read_block_rank(reader, what, counts, reader.varint(what))
    return counts, rank, permutations, None


def _run_pieces(byte, count):
    """`count` copies of `byte`, in pieces of at most `_RUN_PIECE`."""
    piece = bytes((byte,)) * min(count, _RUN_PIECE)
    while count > len(piece):
        yield piece
        count -= len(piece)
    yield piece[:count]


def _run_crc(byte, bits):
    """CRC of a one-symbol block of `bits` bits, each symbol's bits
    being those of `byte`, packed LSB first."""
    crc = 0
    for piece in _run_pieces(byte, bits >> 3):
        crc = zlib.crc32(piece, crc)
    if bits & 7:
        crc = zlib.crc32(bytes((byte >> (8 - (bits & 7)),)), crc)
    return crc


def decompress(src, dst, *, block_cap: int = DEFAULT_BLOCK_CAP):
    """Decode an archive from `src`, writing original bytes to `dst`.

    Reads `CBE2` and `CBE1`. A block of more than `block_cap` symbols,
    or more than a `CBE2` stream's own cap, is refused before any
    arithmetic; the default is `DEFAULT_BLOCK_CAP`. A `CBE2` block is
    checked against its CRC before any of it is written.
    """
    reader = _ByteReader(src)
    magic = reader.exact(4, "archive magic")
    if magic not in (MAGIC, MAGIC_CBE1):
        raise ArchiveError("bad magic: not a CBE archive")
    mode = reader.byte("archive mode")
    if mode not in _MODES:
        raise ArchiveError(f"unknown mode byte 0x{mode:02x}")
    coding = _MODES[mode]
    read_block = _read_cbe1_block
    if magic == MAGIC:
        read_block = _read_block
        declared = reader.varint("block cap")
        if declared < 1:
            raise ArchiveError("block cap must be at least 1")
        block_cap = min(block_cap, declared)

    index = 0
    acc = 0  # bits written by earlier blocks but not yet a whole byte
    fill = 0  # how many: always 0 in byte mode
    while n := reader.varint("block length"):
        index += 1
        what = f"block {index}"
        if n > block_cap:
            raise ArchiveError(f"{what}: {n} symbols, above the cap of {block_cap}")
        try:
            counts, rank, permutations, crc = read_block(reader, n, what, coding.symbols)
            bits = n * coding.unit
            if permutations == 1:
                # one symbol, n times, streamed rather than unranked.
                # `byte` repeats its bits (s, or 0xFF * s)
                byte = counts.index(n) * 0xFF // (coding.symbols - 1)
                block = None
                if crc is not None and crc != _run_crc(byte, bits):
                    raise ArchiveError(f"{what}: CRC mismatch")
            else:
                block = coding.unrank(rank, counts, permutations)
                if crc is not None and crc != zlib.crc32(
                        block.to_bytes((bits + 7) // 8, "little")):
                    raise ArchiveError(f"{what}: CRC mismatch")
        except MemoryError:
            raise ArchiveError(f"{what}: {n} symbols do not fit in memory") from None
        if block is None:
            # top up the pending byte, write whole bytes, and carry the
            # rest (the pending byte is empty by then)
            top = min(bits, -fill % 8)
            acc |= (byte >> (8 - top)) << fill
            fill += top
            bits -= top
            if fill == 8:
                dst.write(bytes((acc,)))
                acc = fill = 0
            for piece in _run_pieces(byte, bits >> 3):
                dst.write(piece)
            fill += bits & 7
            acc |= byte >> (8 - (bits & 7))
        else:
            # the block goes above the pending bits; whole bytes go out
            acc |= block << fill
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


def decompress_bytes(archive: bytes, *, block_cap: int = DEFAULT_BLOCK_CAP) -> bytes:
    """`decompress` for in-memory data."""
    out = io.BytesIO()
    decompress(io.BytesIO(archive), out, block_cap=block_cap)
    return out.getvalue()
