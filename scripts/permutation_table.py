#!/usr/bin/env python3
"""Print the full rank table for a word's multiset.

    python scripts/permutation_table.py banana

Each line shows the rank, the arrangement, and the rank in binary at
the table's fixed payload width.
"""

import argparse
import sys

from cbe.codec import encode
from cbe.multiset import Alphabet, permutation_count, rank_width_bits
from cbe.oracle import EnumerationCapError, enumerate_in_rank_order


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("word", help="word whose arrangements to list")
    parser.add_argument("--cap", type=int, default=10_000,
                        help="abort above this many arrangements")
    args = parser.parse_args()

    symbols = [ord(c) for c in args.word]
    if not symbols:
        print("empty word: one arrangement, rank 0")
        return 0
    alphabet = Alphabet(tuple(set(symbols)))
    _, table = encode(symbols, alphabet)
    width = rank_width_bits(permutation_count(table))
    try:
        rows = enumerate_in_rank_order(table, cap=args.cap)
    except EnumerationCapError as exc:
        print(f"permutation_table: {exc}", file=sys.stderr)
        return 1

    counts = ",".join(f"{chr(s)}={c}" for s, c in table.nonzero_items())
    print(f"# {len(rows)} arrangements of {{{counts}}}, payload {width} bits")
    for rank, row in enumerate(rows):
        word = "".join(chr(s) for s in row)
        print(f"{rank:>6}  {word}  {rank:0{max(width, 1)}b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
