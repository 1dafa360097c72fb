"""Built-in verification vectors and the checks behind ``cbe selftest``.

The vectors are small enough to verify by hand: one 11-bit reference
rank, the six rank-0..5 four-bit words, and the complete 60-row rank
table of the banana multiset. The entropy-bound sweep re-draws the same
seeded tables on every run, so output is identical across runs.
"""

import math
import random

from . import codec, oracle
from .multiset import (
    Alphabet,
    FrequencyTable,
    FrozenRecord,
    permutation_count,
    shannon_entropy,
)

WORKED_NUMERAL = "11011100101"
WORKED_RANK = 251
WORKED_ZEROS = 4
WORKED_ONES = 7

LENGTH4_RANKS = (
    ("0011", 0),
    ("0101", 1),
    ("0110", 2),
    ("1001", 3),
    ("1010", 4),
    ("1100", 5),
)

# Rank table for the multiset {a:3, b:1, n:2} under alphabet order
# a < b < n; strings read in arrival order.
BANANA_RANKING = (
    "nnbaaa", "nbnaaa", "bnnaaa", "nnabaa", "nanbaa",
    "annbaa", "nbanaa", "bnanaa", "nabnaa", "anbnaa",
    "bannaa", "abnnaa", "nnaaba", "nanaba", "annaba",
    "naanba", "ananba", "aannba", "nbaana", "bnaana",
    "nabana", "anbana", "banana", "abnana", "naabna",
    "anabna", "aanbna", "baanna", "abanna", "aabnna",
    "nnaaab", "nanaab", "annaab", "naanab", "ananab",
    "aannab", "naaanb", "anaanb", "aananb", "aaannb",
    "nbaaan", "bnaaan", "nabaan", "anbaan", "banaan",
    "abnaan", "naaban", "anaban", "aanban", "baanan",
    "abanan", "aabnan", "naaabn", "anaabn", "aanabn",
    "aaanbn", "baaann", "abaann", "aabann", "aaabnn",
)

ENTROPY_SWEEP_SEED = 0x5EED
ENTROPY_SWEEP_TRIALS = 1000


class GroupResult(FrozenRecord):
    """Outcome of one check group; `detail` says what failed."""

    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set_fields(name, passed, detail)


def _check_worked_numeral() -> GroupResult:
    name = "binary-worked-example"
    bits = codec.arrivals_from_numeral(WORKED_NUMERAL)
    rank, zeros, ones = codec.encode_binary(bits)
    if (rank, zeros, ones) != (WORKED_RANK, WORKED_ZEROS, WORKED_ONES):
        return GroupResult(
            name, False,
            f"expected ({WORKED_RANK}, {WORKED_ZEROS}, {WORKED_ONES}), "
            f"actual ({rank}, {zeros}, {ones})",
        )
    back = codec.decode_binary(WORKED_RANK, WORKED_ZEROS, WORKED_ONES)
    if back != bits:
        return GroupResult(
            name, False,
            f"decode expected {codec.numeral_from_arrivals(bits)}, "
            f"actual {codec.numeral_from_arrivals(back)}",
        )
    return GroupResult(name, True)


def _check_length4_ranks() -> GroupResult:
    name = "binary-length4-ranks"
    for numeral, want in LENGTH4_RANKS:
        rank, zeros, ones = codec.encode_binary(
            codec.arrivals_from_numeral(numeral)
        )
        if rank != want:
            return GroupResult(
                name, False, f"{numeral}: expected {want}, actual {rank}"
            )
    return GroupResult(name, True)


def banana_table() -> FrequencyTable:
    alphabet = Alphabet(tuple(ord(c) for c in "abn"))
    return FrequencyTable(alphabet, (3, 1, 2))


def _check_banana_ranking() -> GroupResult:
    name = "ternary-rank-table"
    table = banana_table()
    alphabet = table.alphabet
    rows = oracle.enumerate_in_rank_order(table)
    if len(rows) != len(BANANA_RANKING):
        return GroupResult(
            name, False,
            f"expected {len(BANANA_RANKING)} rows, actual {len(rows)}",
        )
    for index, expected in enumerate(BANANA_RANKING):
        row = "".join(chr(s) for s in rows[index])
        if row != expected:
            return GroupResult(
                name, False,
                f"row {index}: expected {expected}, actual {row}",
            )
        decoded = "".join(chr(s) for s in codec.decode(index, table))
        if decoded != expected:
            return GroupResult(
                name, False,
                f"unrank {index}: expected {expected}, actual {decoded}",
            )
        rank, _ = codec.encode([ord(c) for c in expected], alphabet)
        if rank != index:
            return GroupResult(
                name, False,
                f"rank {expected}: expected {index}, actual {rank}",
            )
    return GroupResult(name, True)


def _random_counts(rng) -> list:
    distinct = rng.randint(2, 16)
    n = rng.randint(distinct + 1, 256)
    cuts = sorted(rng.sample(range(1, n), distinct - 1))
    bounds = [0] + cuts + [n]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def _check_entropy_bound() -> GroupResult:
    name = "entropy-bound-sweep"
    rng = random.Random(ENTROPY_SWEEP_SEED)
    alphabet_16 = Alphabet(tuple(range(16)))
    for trial in range(ENTROPY_SWEEP_TRIALS):
        counts = _random_counts(rng)
        counts += [0] * (16 - len(counts))
        rng.shuffle(counts)
        table = FrequencyTable(alphabet_16, tuple(counts))
        bound = table.n * shannon_entropy(table)
        exact = math.log2(permutation_count(table))
        if not exact < bound:
            return GroupResult(
                name, False,
                f"trial {trial}: log2(arrangements) {exact:.6f} not below "
                f"entropy total {bound:.6f} for counts {counts}",
            )
    solo = FrequencyTable(Alphabet((7,)), (19,))
    if permutation_count(solo) != 1 or shannon_entropy(solo) != 0.0:
        return GroupResult(name, False, "single-symbol table must be free")
    return GroupResult(name, True)


def run_all() -> list:
    """Run every check group; deterministic output, order fixed."""
    return [
        _check_worked_numeral(),
        _check_length4_ranks(),
        _check_banana_ranking(),
        _check_entropy_bound(),
    ]
