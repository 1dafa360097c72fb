"""cbe: lossless compression by multiset-permutation ranking.

A message is stored as its rank among all orderings of its own symbol
multiset, next to the symbol counts the decoder needs to invert the
rank. The rank always fits below the message's total entropy, and the
mapping is exact integer arithmetic end to end.
"""

from .binomials import multinomial
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
    read_varint,
    write_varint,
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
    entropy_bound_margin,
    message_stats,
    naive_bit_length,
    payload_bit_length,
    permutation_count,
    shannon_entropy,
    shannon_pattern_count_log2,
    space_saving_percent,
)
from .oracle import EnumerationCapError, brute_rank, enumerate_in_rank_order

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ArchiveError",
    "ArchiveSummary",
    "BIT_ALPHABET",
    "BYTE_ALPHABET",
    "DEFAULT_BLOCK_SIZE",
    "EnumerationCapError",
    "FrequencyTable",
    "MessageStats",
    "MODE_BIT",
    "MODE_BYTE",
    "RankRangeError",
    "UnknownSymbolError",
    "arrivals_from_numeral",
    "brute_rank",
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
    "entropy_bound_margin",
    "enumerate_in_rank_order",
    "message_stats",
    "multinomial",
    "naive_bit_length",
    "numeral_from_arrivals",
    "payload_bit_length",
    "permutation_count",
    "read_varint",
    "shannon_entropy",
    "shannon_pattern_count_log2",
    "space_saving_percent",
    "write_varint",
]
