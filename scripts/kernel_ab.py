#!/usr/bin/env python3
"""In-process A/B of the rank kernels: a parent checkout against this one.

Loads `cbe` from PARENT/src and from this checkout's src side by side,
as two packages under distinct names, and runs both on the same fixed,
seeded block classes:

    byte-sparse   4 KiB pages of zeros with 123 nonzero bytes
    byte-random   4 KiB blocks of random bytes
    sorted        4 KiB random blocks with their bytes sorted
    skewed-8      4 KiB blocks over 8 symbols with skewed weights
    runs          4 KiB of alternating 0x00 and 0xFF runs, 1 to 512 long
    bit-records   bit blocks at p(1) = 0.1, 128 to 4096 bits long
    bits-0.5      4096-bit blocks at p(1) = 0.5
    bits-0.01     4096-bit blocks at p(1) = 0.01

Byte classes time the block ranker and unranker and the coders of the
blocks' `CBE2` tables (`container._table_rank`, `_table_counts`), which
run on the bit kernels; bit classes time the bit ranker and unranker.
Every rank, count and arrival of the two sides must be equal, or it
exits with status 1 before timing anything. Then each round times every
kernel over a class's blocks on both sides, in an order that alternates
from round to round, and it prints, per class and kernel, the median of
the change's time over the parent's [first, third quartile] and the
rounds the change won:

    python scripts/kernel_ab.py --parent ../parent-checkout
    python scripts/kernel_ab.py --parent ../parent-checkout --rounds 21 --json
"""

import argparse
import gc
import importlib
import importlib.util
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent / "src"
BLOCK_BYTES = 4096
BLOCKS_PER_CLASS = 10


def load(src, name):
    """The `codec`, `multiset` and `container` modules of the cbe
    package in `src`, imported as package `name` so that two copies can
    coexist."""
    init = Path(src) / "cbe" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no cbe package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("codec", "multiset", "container"))


def byte_classes(rng):
    """(name, blocks) for each byte class, BLOCKS_PER_CLASS blocks each."""
    def sparse():
        page = bytearray(BLOCK_BYTES)
        for pos in rng.sample(range(BLOCK_BYTES), 123):
            page[pos] = rng.randrange(1, 256)
        return bytes(page)

    def runs():
        out, byte = bytearray(), 0
        while len(out) < BLOCK_BYTES:
            out += bytes((byte,)) * rng.randint(1, 512)
            byte ^= 0xFF
        return bytes(out[:BLOCK_BYTES])

    makers = {
        "byte-sparse": sparse,
        "byte-random": lambda: rng.randbytes(BLOCK_BYTES),
        "sorted": lambda: bytes(sorted(rng.randbytes(BLOCK_BYTES))),
        "skewed-8": lambda: bytes(rng.choices(
            range(8), weights=(40, 20, 10, 8, 8, 6, 4, 4), k=BLOCK_BYTES)),
        "runs": runs,
    }
    for name, make in makers.items():
        yield name, [make() for _ in range(BLOCKS_PER_CLASS)]


def bit_classes(rng):
    """(name, blocks) for each bit class: '0'/'1' strings in arrival order."""
    def bits(n, p):
        return "".join("1" if rng.random() < p else "0" for _ in range(n))

    yield "bit-records", [bits(round(128 * 32 ** ((i + 0.5) / BLOCKS_PER_CLASS)), 0.1)
                          for i in range(BLOCKS_PER_CLASS)]
    yield "bits-0.5", [bits(4096, 0.5) for _ in range(BLOCKS_PER_CLASS)]
    yield "bits-0.01", [bits(4096, 0.01) for _ in range(BLOCKS_PER_CLASS)]


def byte_jobs(codec, multiset, container, blocks):
    """{kernel: function of no arguments} for byte blocks and their tables."""
    alphabet = multiset.BYTE_ALPHABET
    ranked = [codec._rank_message(block, alphabet) for block in blocks]
    tables = [counts for _, counts, _ in ranked]
    symbols = len(alphabet.symbols)
    coded = []  # (table rank, n, d, C(S, d), C(n - 1, d - 1))
    for counts in tables:
        n, d = sum(counts), sum(map(bool, counts))
        coded.append((container._table_rank(counts)[0], n, d,
                      math.comb(symbols, d), math.comb(n - 1, d - 1)))

    def rank():
        return [codec._rank_message(block, alphabet) for block in blocks]

    def unrank():
        return [codec._unrank_counts(r, counts, p) for r, counts, p in ranked]

    def table_rank():
        return [container._table_rank(counts) for counts in tables]

    def table_unrank():
        return [container._table_counts(r, symbols, n, d, sets, compositions)
                for r, n, d, sets, compositions in coded]

    return {"_rank_message": rank, "_unrank_counts": unrank,
            "_table_rank": table_rank, "_table_counts": table_unrank}


def bit_jobs(codec, multiset, container, blocks):
    """{kernel: function of no arguments} for bit blocks."""
    ranked = [(codec._rank_bit_string(s), len(s)) for s in blocks]

    def rank():
        return [codec._rank_bit_string(s) for s in blocks]

    def unrank():
        return [codec._unrank_bits(r, n - ones, ones, p)
                for (r, ones, p), n in ranked]

    return {"_rank_bit_string": rank, "_unrank_bits": unrank}


def outputs(job):
    """What `job` returns, with each bytearray as a list: the byte
    unranker may return either."""
    return [list(out) if isinstance(out, bytearray) else out for out in job()]


def timed(job):
    gc.collect()
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def summary(ratios):
    """(median, q1, q3) of the change/parent time ratios."""
    if len(ratios) < 2:
        return ratios[0], ratios[0], ratios[0]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="a checkout whose src/ holds the parent's cbe")
    parser.add_argument("--rounds", type=int, default=15,
                        help="interleaved timing rounds (default 15)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of a table")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = load(args.parent / "src", "cbe_ab_parent")
    change = load(HERE, "cbe_ab_change")

    rng = random.Random(20240)
    classes = [(name, blocks, byte_jobs) for name, blocks in byte_classes(rng)]
    classes += [(name, blocks, bit_jobs) for name, blocks in bit_classes(rng)]
    cases = []  # (class, kernel, parent job, change job)
    for name, blocks, jobs in classes:
        old, new = jobs(*parent, blocks), jobs(*change, blocks)
        for kernel in old:
            if outputs(old[kernel]) != outputs(new[kernel]):
                print(f"{name}: {kernel} outputs differ", file=sys.stderr)
                return 1
            cases.append((name, kernel, old[kernel], new[kernel]))

    times = {(name, kernel): ([], []) for name, kernel, _, _ in cases}
    for round_ in range(args.rounds):
        for name, kernel, old, new in cases:
            parent_s, change_s = times[name, kernel]
            if round_ % 2:
                change_s.append(timed(new))
                parent_s.append(timed(old))
            else:
                parent_s.append(timed(old))
                change_s.append(timed(new))

    rows = []
    for (name, kernel), (parent_s, change_s) in times.items():
        ratios = [c / p for p, c in zip(parent_s, change_s)]
        median, q1, q3 = summary(ratios)
        rows.append({
            "class": name, "kernel": kernel,
            "parent_ms": statistics.median(parent_s) * 1e3,
            "change_ms": statistics.median(change_s) * 1e3,
            "ratio": median, "q1": q1, "q3": q3,
            "won": sum(r < 1 for r in ratios), "rounds": args.rounds,
        })
    if args.json:
        print(json.dumps({"blocks_per_class": BLOCKS_PER_CLASS, "rows": rows}))
        return 0
    print(f"change/parent time, median [q1, q3] of {args.rounds} interleaved "
          f"rounds, {BLOCKS_PER_CLASS} blocks per class")
    for row in rows:
        print(f"{row['class']:>12} {row['kernel']:>17}"
              f"  parent {row['parent_ms']:8.2f} ms  change {row['change_ms']:8.2f} ms"
              f"  {row['ratio']:.3f} [{row['q1']:.3f}, {row['q3']:.3f}]"
              f"  won {row['won']}/{row['rounds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
