"""Command-line surface: compress, decompress, stats, rank, unrank,
selftest.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 format or
corruption error, 4 selftest failure. Diagnostics go to stderr; data
and results go to stdout, so pipelines stay clean.
"""

import argparse
import functools
import sys
from contextlib import contextmanager

from . import container
from .codec import RankRangeError, decode, encode
from .container import ArchiveError, DEFAULT_BLOCK_CAP, DEFAULT_BLOCK_SIZE, summarize
from .multiset import (
    Alphabet,
    FrequencyTable,
    BIT_ALPHABET,
    BYTE_ALPHABET,
    message_stats,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_SELFTEST = 4

# each mode's byte in the archive, and the alphabet its counts index
_MODES = {"byte": (container.MODE_BYTE, BYTE_ALPHABET),
          "bit": (container.MODE_BIT, BIT_ALPHABET)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cbe",
        description=(
            "Lossless codec that stores a message as its rank among the "
            "orderings of its symbol multiset."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add_io(p, output=True):
        p.add_argument("input", nargs="?", default="-",
                       help="input path, or - for stdin (default)")
        if output:
            p.add_argument("output", nargs="?", default="-",
                           help="output path, or - for stdout (default)")

    def add_coding(p):
        p.add_argument("-b", "--block-size", type=int,
                       default=DEFAULT_BLOCK_SIZE, metavar="N",
                       help="symbols per block, at most 2^20 "
                            "(default %(default)s)")
        p.add_argument("--mode", choices=("byte", "bit"), default="byte",
                       help="symbol granularity (default %(default)s)")

    p = sub.add_parser("compress", help="encode a file or stream")
    add_io(p)
    add_coding(p)

    p = sub.add_parser("decompress", help="decode an archive")
    add_io(p)
    p.add_argument("--block-cap", type=int, default=DEFAULT_BLOCK_CAP,
                   metavar="N",
                   help="refuse blocks of more than N symbols "
                        "(default %(default)s)")

    p = sub.add_parser("stats", help="entropy and size report for an input")
    add_io(p, output=False)
    add_coding(p)

    p = sub.add_parser("rank", help="rank of a text message")
    p.add_argument("message", help="message whose rank to print")

    p = sub.add_parser("unrank", help="message for a rank and frequency list")
    p.add_argument("index", help="decimal rank")
    p.add_argument("freq_spec", help='frequency list, e.g. "a=3,b=1,n=2"')

    sub.add_parser("selftest", help="run the built-in verification vectors")
    return parser


# Built on first use and shared by every later `main` call: parsing
# leaves the parser unchanged, and each call gets a fresh namespace.
_shared_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if "block_size" in args and args.block_size < 1:
        parser.error("block size must be at least 1")
    if "block_cap" in args and args.block_cap < 1:
        parser.error("block cap must be at least 1")
    if args.command == "unrank":
        try:
            args.index = int(args.index)
        except ValueError:
            parser.error(f"index {args.index!r} is not a decimal integer")
        if args.index < 0:
            parser.error("index must be nonnegative")
    return args


@contextmanager
def _open_input(path):
    if path == "-":
        yield sys.stdin.buffer
    else:
        with open(path, "rb") as fp:
            yield fp


@contextmanager
def _open_output(path):
    if path == "-":
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fp:
            yield fp


def run_compress(args: argparse.Namespace) -> int:
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        container.compress(src, dst, block_size=args.block_size,
                           mode=_MODES[args.mode][0])
    return EXIT_OK


def run_decompress(args: argparse.Namespace) -> int:
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        container.decompress(src, dst, block_cap=args.block_cap)
    return EXIT_OK


def run_stats(args: argparse.Namespace) -> int:
    with _open_input(args.input) as src:
        data = src.read()
    mode, alphabet = _MODES[args.mode]
    summary, counts = summarize(data, block_size=args.block_size, mode=mode)
    stats = message_stats(FrequencyTable(alphabet, counts))
    lines = [
        f"n={stats.n}",
        f"t_effective={stats.t_effective}",
        f"entropy_bits_per_symbol={stats.entropy_bits_per_symbol:.4f}",
        f"shannon_total_bits={stats.shannon_total_bits:.4f}",
        f"naive_bits={stats.naive_bits:.4f}",
        f"rank_bound_bits={stats.rank_bound_bits_real:.4f}",
        f"payload_bits={summary.payload_bits}",
        f"header_bytes={summary.overhead_bytes}",
        f"total_archive_bytes={summary.total_bytes}",
        f"compression_ratio={stats.compression_ratio:.4f}",
        f"space_saving_percent={stats.space_saving_percent:.4f}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _freq_string(table: FrequencyTable) -> str:
    return ",".join(f"{chr(s)}={c}" for s, c in table.nonzero_items())


def parse_freq_spec(text: str) -> FrequencyTable:
    """Parse 'a=3,b=1,n=2' into a table over the listed characters."""
    entries = {}
    for part in text.split(","):
        symbol, sep, number = part.partition("=")
        if not sep or len(symbol) != 1 or not number.isdigit():
            raise ValueError(f"bad frequency entry {part!r}")
        code = ord(symbol)
        if code in entries:
            raise ValueError(f"duplicate symbol {symbol!r}")
        entries[code] = int(number)
    alphabet = Alphabet(tuple(entries))
    return FrequencyTable(alphabet, tuple(entries[s] for s in alphabet.symbols))


def run_rank(args: argparse.Namespace) -> int:
    symbols = [ord(c) for c in args.message]
    alphabet = Alphabet(tuple(set(symbols))) if symbols else BIT_ALPHABET
    rank, table = encode(symbols, alphabet)
    print(f"{rank}  {_freq_string(table)}")
    return EXIT_OK


def run_unrank(args: argparse.Namespace) -> int:
    try:
        table = parse_freq_spec(args.freq_spec)
    except ValueError as exc:
        print(f"cbe: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("".join(chr(s) for s in decode(args.index, table)))
    return EXIT_OK


def run_selftest(args: argparse.Namespace) -> int:
    from . import selftest  # its vectors and oracle load only for this command

    results = selftest.run_all()
    for result in results:
        if result.passed:
            print(f"{result.name}: ok")
        else:
            print(f"{result.name}: FAIL ({result.detail})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST


_COMMANDS = {
    "compress": run_compress,
    "decompress": run_decompress,
    "stats": run_stats,
    "rank": run_rank,
    "unrank": run_unrank,
    "selftest": run_selftest,
}


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ArchiveError, RankRangeError) as exc:
        print(f"cbe: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"cbe: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
