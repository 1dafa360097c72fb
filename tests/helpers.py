"""Shared test helpers."""

import copy
import io
import pickle
from functools import cache
from math import comb, factorial, prod
from types import SimpleNamespace

import pytest

from cbe import Alphabet, FrequencyTable, MODE_BYTE
from cbe.container import write_varint


def table_of(*counts) -> FrequencyTable:
    """Frequency table over the implicit alphabet 0..len(counts)-1."""
    return FrequencyTable(Alphabet(tuple(range(len(counts)))), counts)


def char_table(spec: dict) -> FrequencyTable:
    """Frequency table from a {char: count} mapping."""
    alphabet = Alphabet(tuple(ord(c) for c in spec))
    return FrequencyTable(
        alphabet, tuple(spec[chr(s)] for s in alphabet.symbols)
    )


def factorial_multinomial(counts) -> int:
    """Arrangement count straight from factorials (independent oracle)."""
    return _factorial(sum(counts)) // prod(_factorial(c) for c in counts)


@cache
def _factorial(n: int) -> int:
    return factorial(n)


def check_frozen_record(record, equal, unequal, fields: dict):
    """Equality, hashing, immutability, copy and pickle of a record.

    `equal` is built apart from `record` with the same field values,
    `unequal` differs from it in one field, and `fields` maps each field
    name to its value in `record`, in declaration order.
    """
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert {equal: "found"}[record] == "found"
    assert record != unequal
    # equal only to its own type: not to its values as a tuple, nor to
    # another object with the same attributes
    values = tuple(fields.values())
    assert record != values and values != record
    assert record != SimpleNamespace(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    clones = [copy.copy(record), copy.deepcopy(record)]
    clones += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


class FailingSource:
    """Readable source that records every read request and raises
    OSError("disk on fire") on read number `fail_at`, counting from 0."""

    def __init__(self, data, fail_at=None):
        self._fp = io.BytesIO(data)
        self._fail_at = fail_at
        self.requests = []

    def read(self, size):
        if len(self.requests) == self._fail_at:
            raise OSError("disk on fire")
        self.requests.append(size)
        return self._fp.read(size)


def probe_archive(magic, mode):
    """26 bytes under `CBE1`: one block claiming n = 2^34 with counts
    (1, 2^34 - 1) and a 5-byte payload, which passes the lgamma bracket.
    Under `CBE2`, the same block with its declared cap, table and CRC."""
    n = 2 ** 34
    if magic == b"CBE1":
        block = (write_varint(n) + write_varint(2) + b"\x00" + write_varint(1)
                 + b"\x01" + write_varint(n - 1) + write_varint(5) + bytes(5))
    else:
        # the declared cap, then the block: support {0, 1} and
        # composition (1, n - 1) both rank 0, and a CRC of zeros
        tables = comb(256 if mode == MODE_BYTE else 2, 2) * (n - 1)
        block = (write_varint(n) + write_varint(n) + write_varint(2)
                 + bytes(((tables - 1).bit_length() + 7) // 8) + bytes(5) + bytes(4))
    return magic + bytes((mode,)) + block + b"\x00"
