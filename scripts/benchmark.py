#!/usr/bin/env python3
"""Cold-start, throughput and bound-tightness report for the block codec.

First times fresh `-E -s` interpreters: a bare one, one that imports
cbe, and `python -m cbe compress` on empty stdin, each the median of
11 runs. Then times compress/decompress over synthetic corpora, with
decode time over encode time (above 1 where decode is the slower half),
and shows how close the payload lands to the entropy total per corpus,
with the sizes zlib -9, bz2 -9 and lzma give the same corpus beside
cbe's archive. The `stdlib-src` corpus is the first --size bytes of this
interpreter's standard library sources (lib/python3.X/*.py, sorted by
name), and its line ends with their sha256, so runs on other
interpreters can be told apart. With --repeat N each corpus makes N
roundtrips, and enc and dec are the medians of their times, so a change
can be told from drift in the host:

    python scripts/benchmark.py
    python scripts/benchmark.py --size 4194304 --block-size 8192
    python scripts/benchmark.py --repeat 5
"""

import argparse
import bz2
import hashlib
import io
import lzma
import random
import statistics
import subprocess
import sys
import sysconfig
import time
import zlib
from pathlib import Path

import cbe
from cbe.container import MODE_BIT, MODE_BYTE, compress, decompress
from cbe.multiset import (
    BIT_ALPHABET,
    BYTE_ALPHABET,
    FrequencyTable,
    build_frequency_table,
    message_stats,
)


COLD_START_RUNS = 11


def cold_start_ms(args):
    """Median wall time, in ms, of a fresh interpreter run with `args`.

    The interpreter starts with -E -s, so neither the environment nor
    the user's site directory changes what it loads, and it runs beside
    the cbe package being measured, with empty stdin and output
    discarded.
    """
    package_dir = Path(cbe.__file__).resolve().parent.parent
    times = []
    for _ in range(COLD_START_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-E", "-s", *args], cwd=package_dir,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def corpora(size, seed, block_bytes):
    """Named inputs of `size` bytes; `sorted` sorts each block's bytes."""
    rng = random.Random(seed)
    text = (
        b"the quick brown fox jumps over the lazy dog while the codec "
        b"counts every letter it has seen so far. "
    )
    skew = bytes(rng.choices(range(8), weights=(40, 20, 10, 8, 8, 6, 4, 4),
                             k=size))
    yield "constant", b"\x2a" * size
    yield "text", (text * (size // len(text) + 1))[:size]
    yield "skewed-8", skew
    yield "random", rng.randbytes(size)
    # every rank sits at the top of its range: decisions land on cut
    # boundaries, where the unranker must certify or step exactly
    shuffled = rng.randbytes(size)
    yield "sorted", b"".join(
        bytes(sorted(shuffled[i:i + block_bytes]))
        for i in range(0, size, block_bytes)
    )
    # independent bits with p(1) = 0.1 and 0.9: long runs of zeros, then
    # of ones; each byte value is drawn with its eight bits' probability
    for p in (0.1, 0.9):
        weights = [p ** v.bit_count() * (1 - p) ** (8 - v.bit_count())
                   for v in range(256)]
        yield f"bits-{p}", bytes(rng.choices(range(256), weights=weights, k=size))
    # 4 KiB pages of zeros, each with 123 random nonzero bytes: long zero
    # runs that the unranker takes one exact step per run
    sparse = bytearray(size)
    for start in range(0, size, 4096):
        page = min(4096, size - start)
        for pos in rng.sample(range(page), min(123, page)):
            sparse[start + pos] = rng.randrange(1, 256)
    yield "sparse", bytes(sparse)
    # alternating runs of 0x00 and 0xFF bytes, 1 to 512 long: in bit mode
    # the ones come in long runs as well as the zeros
    runs = bytearray()
    byte = 0
    while len(runs) < size:
        runs += bytes((byte,)) * rng.randint(1, 512)
        byte ^= 0xFF
    yield "runs", bytes(runs[:size])
    yield "stdlib-src", stdlib_source(size)


def stdlib_source(size):
    """The first `size` bytes of this interpreter's lib/python3.X/*.py,
    concatenated in name order: real text that is the same on every host
    with the same Python build."""
    out = bytearray()
    for path in sorted(Path(sysconfig.get_paths()["stdlib"]).glob("*.py")):
        if len(out) >= size:
            break
        out += path.read_bytes()
    return bytes(out[:size])


def reference_sizes(data):
    """Archive bytes of the stdlib compressors, as (label, size) pairs."""
    return (("zlib-9", len(zlib.compress(data, 9))),
            ("bz2-9", len(bz2.compress(data, 9))),
            ("lzma", len(lzma.compress(data))))


def roundtrip(name, data, block_size, mode):
    """(compress seconds, decompress seconds, summary) of one roundtrip."""
    src = io.BytesIO(data)
    archive = io.BytesIO()
    t0 = time.perf_counter()
    summary = compress(src, archive, block_size=block_size, mode=mode)
    t1 = time.perf_counter()
    archive.seek(0)
    out = io.BytesIO()
    decompress(archive, out)
    t2 = time.perf_counter()
    assert out.getvalue() == data, f"{name}: roundtrip mismatch"
    return t1 - t0, t2 - t1, summary


def run(name, data, block_size, mode, repeat):
    times = [roundtrip(name, data, block_size, mode) for _ in range(repeat)]
    enc = max(statistics.median(t[0] for t in times), 1e-9)
    dec = max(statistics.median(t[1] for t in times), 1e-9)
    summary = times[0][2]

    # reference entropy in the same symbol domain the codec ranks over
    if mode == MODE_BYTE:
        table = build_frequency_table(data, BYTE_ALPHABET)
    else:
        ones = int.from_bytes(data, "little").bit_count()
        table = FrequencyTable(BIT_ALPHABET, (8 * len(data) - ones, ones))
    stats = message_stats(table)
    mib = len(data) / (1 << 20)
    print(
        f"{name:>10}  enc {mib / enc:6.2f} MiB/s"
        f"  dec {mib / dec:6.2f} MiB/s"
        f"  dec/enc {dec / enc:5.2f}"
        f"  payload {summary.payload_bits:>9} bits"
        f"  nH {stats.shannon_total_bits:12.1f}"
        f"  archive {summary.total_bytes:>9} B"
        f"  blocks {summary.blocks:>4}"
        + "".join(f"  {label} {n:>9} B" for label, n in reference_sizes(data))
        + (f"  sha256 {hashlib.sha256(data).hexdigest()}"
           if name == "stdlib-src" else "")
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=1 << 20,
                        help="corpus size in bytes (default 1 MiB)")
    parser.add_argument("--block-size", type=int, default=4096)
    parser.add_argument("--mode", choices=("byte", "bit"), default="byte")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--repeat", type=int, default=1,
                        help="roundtrips per corpus; enc and dec are their "
                             "medians (default 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    mode = MODE_BYTE if args.mode == "byte" else MODE_BIT

    print(
        f"cold start, median of {COLD_START_RUNS} fresh interpreters:"
        f"  python {cold_start_ms(['-c', 'pass']):.1f} ms"
        f"  import cbe {cold_start_ms(['-c', 'import cbe']):.1f} ms"
        f"  cbe compress of empty stdin {cold_start_ms(['-m', 'cbe', 'compress']):.1f} ms"
    )
    print(f"size={args.size} block_size={args.block_size} mode={args.mode}"
          + (f" repeat={args.repeat}" if args.repeat > 1 else ""))
    block_bytes = args.block_size if mode == MODE_BYTE else -(-args.block_size // 8)
    for name, data in corpora(args.size, args.seed, block_bytes):
        run(name, data, args.block_size, mode, args.repeat)


if __name__ == "__main__":
    main()
