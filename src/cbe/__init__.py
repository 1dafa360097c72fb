"""cbe: lossless compression by multiset-permutation ranking.

A message is stored as its rank among all orderings of its own symbol
multiset, next to the symbol counts the decoder needs to invert the
rank. The rank always fits below the message's total entropy, and the
mapping is exact integer arithmetic end to end.
"""

from .codec import (
    RankRangeError,
    arrivals_from_numeral,
    decode,
    decode_binary,
    encode,
    encode_binary,
    numeral_from_arrivals,
)
from .container import (
    ArchiveError,
    ArchiveSummary,
    DEFAULT_BLOCK_SIZE,
    MODE_BIT,
    MODE_BYTE,
    compress,
    compress_bytes,
    decompress,
    decompress_bytes,
)
from .multiset import (
    Alphabet,
    BIT_ALPHABET,
    BYTE_ALPHABET,
    FrequencyTable,
    MessageStats,
    UnknownSymbolError,
    build_frequency_table,
    compression_ratio,
    message_stats,
    naive_bit_length,
    permutation_count,
    shannon_entropy,
    space_saving_percent,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ArchiveError",
    "ArchiveSummary",
    "BIT_ALPHABET",
    "BYTE_ALPHABET",
    "DEFAULT_BLOCK_SIZE",
    "FrequencyTable",
    "MessageStats",
    "MODE_BIT",
    "MODE_BYTE",
    "RankRangeError",
    "UnknownSymbolError",
    "arrivals_from_numeral",
    "build_frequency_table",
    "compress",
    "compress_bytes",
    "compression_ratio",
    "decode",
    "decode_binary",
    "decompress",
    "decompress_bytes",
    "encode",
    "encode_binary",
    "message_stats",
    "naive_bit_length",
    "numeral_from_arrivals",
    "permutation_count",
    "shannon_entropy",
    "space_saving_percent",
]
