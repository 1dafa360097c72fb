import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbe.binomials import multinomial
from cbe.multiset import (
    Alphabet,
    BYTE_ALPHABET,
    FrequencyTable,
    MessageStats,
    UnknownSymbolError,
    build_frequency_table,
    compression_ratio,
    log2_arrangements,
    message_stats,
    naive_bit_length,
    permutation_count,
    rank_width_bits,
    shannon_entropy,
    space_saving_percent,
)
from helpers import char_table, check_frozen_record, table_of

# sum <= 256, at least two nonzero counts
bounded_tables = st.lists(st.integers(1, 16), min_size=2, max_size=16).map(
    lambda counts: table_of(*counts)
)


@st.composite
def count_lists(draw, max_n=100_000):
    """Up to 16 counts, zeros included, summing to at most max_n."""
    n = draw(st.integers(0, max_n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=15)))
    bounds = [0, *cuts, n]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def payload_width(table):
    return rank_width_bits(permutation_count(table))


def entropy_margin(table):
    """Slack of the entropy bound, n*H - log2 P, in bits."""
    return table.n * shannon_entropy(table) - log2_arrangements(table.counts)


class TestAlphabet:
    def test_orders_symbols(self):
        assert Alphabet((110, 97, 98)).symbols == (97, 98, 110)

    def test_rejects_duplicates_and_junk(self):
        with pytest.raises(ValueError):
            Alphabet((1, 1))
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet((-3,))
        with pytest.raises(ValueError):
            Alphabet(("a",))

    def test_rank_lookup(self):
        alpha = Alphabet((5, 9, 30))
        assert alpha.rank_of(9) == 1
        assert 30 in alpha and 7 not in alpha
        assert len(alpha) == 3
        with pytest.raises(UnknownSymbolError):
            alpha.rank_of(6)


class TestFrequencyTable:
    def test_build_banana(self):
        table = build_frequency_table(
            [ord(c) for c in "banana"], Alphabet((97, 98, 110))
        )
        assert table.counts == (3, 1, 2)
        assert table.n == 6
        assert table.t_effective == 3
        assert table.nonzero_items() == [(97, 3), (98, 1), (110, 2)]

    def test_build_empty(self):
        table = build_frequency_table([], Alphabet((97, 98)))
        assert table.counts == (0, 0) and table.n == 0

    def test_build_degenerate(self):
        table = build_frequency_table([97] * 4, Alphabet((97, 98)))
        assert table.counts == (4, 0) and table.n == 4

    def test_unknown_symbol_reports_position(self):
        with pytest.raises(UnknownSymbolError) as err:
            build_frequency_table([97, 98, 99], Alphabet((97, 98)))
        assert err.value.symbol == 99
        assert err.value.position == 2

    def test_first_foreign_symbol_is_reported(self):
        # two foreign symbols, 99 twice: the first by position is named
        message = [97, 99, 98, 7, 99]
        for source in (message, iter(message), bytes(message)):
            with pytest.raises(UnknownSymbolError) as err:
                build_frequency_table(source, Alphabet((97, 98)))
            assert (err.value.symbol, err.value.position) == (99, 1)

    def test_iterator_and_bytes_tally(self):
        alphabet = Alphabet((97, 98, 110))
        want = build_frequency_table([ord(c) for c in "banana"], alphabet)
        assert build_frequency_table(iter(b"banana"), alphabet) == want
        assert build_frequency_table(b"banana", alphabet) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyTable(Alphabet((1, 2)), (1,))
        with pytest.raises(ValueError):
            FrequencyTable(Alphabet((1, 2)), (1, -1))

    def test_multiset_expansion(self):
        assert char_table({"a": 3, "b": 1, "n": 2}).multiset() == [
            97, 97, 97, 98, 110, 110,
        ]


class TestEntropy:
    def test_banana_value(self):
        assert shannon_entropy(table_of(3, 1, 2)) == pytest.approx(
            1.4591, abs=1e-4
        )

    def test_degenerate_and_uniform(self):
        assert shannon_entropy(table_of(7)) == 0.0
        assert shannon_entropy(table_of(1, 1)) == 1.0
        assert shannon_entropy(table_of(0, 0)) == 0.0


class TestLog2Arrangements:
    @settings(deadline=None)
    @given(count_lists())
    def test_matches_exact_count(self, counts):
        exact = math.log2(multinomial(counts))
        assert abs(log2_arrangements(counts) - exact) <= 1e-6


class TestPermutationCount:
    def test_values(self):
        assert permutation_count(table_of(3, 1, 2)) == 60
        assert permutation_count(table_of(9)) == 1
        assert permutation_count(table_of(2, 2)) == 6

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    def test_symmetric_in_counts(self, counts):
        assert permutation_count(table_of(*counts)) == permutation_count(
            table_of(*sorted(counts))
        )


class TestPayloadBitLength:
    def test_banana(self):
        assert payload_width(table_of(3, 1, 2)) == 6

    def test_single_arrangement(self):
        assert payload_width(table_of(5)) == 0
        assert payload_width(table_of(0, 0)) == 0

    def test_4_7_against_pascal_row(self):
        # independent row build: P for (4, 7) is C(11, 7)
        row = [1]
        for _ in range(11):
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        assert row[7] == 330
        assert payload_width(table_of(4, 7)) == math.ceil(math.log2(330)) == 9

    def test_rank_width_bits(self):
        assert rank_width_bits(1) == 0
        assert rank_width_bits(2) == 1
        assert rank_width_bits(60) == 6
        with pytest.raises(ValueError):
            rank_width_bits(0)


class TestNaiveBits:
    def test_values(self):
        assert naive_bit_length(6, 3) == pytest.approx(9.5098, abs=1e-4)
        assert naive_bit_length(0, 5) == 0.0
        assert naive_bit_length(8, 2) == 8.0

    def test_bad_alphabet_size(self):
        with pytest.raises(ValueError):
            naive_bit_length(4, 0)


class TestRatios:
    def test_reference_ratio_values(self):
        assert compression_ratio(1.5850, 1.4591) == pytest.approx(
            1.0863, abs=1e-3
        )
        assert space_saving_percent(1.5850, 1.4591) == pytest.approx(
            7.94, abs=0.05
        )

    def test_trivial_values(self):
        assert compression_ratio(3.5, 3.5) == 1.0
        assert compression_ratio(10, 5) == 2.0
        assert space_saving_percent(10, 10) == 0.0
        assert space_saving_percent(10, 5) == 50.0

    def test_zero_denominators(self):
        with pytest.raises(ValueError):
            compression_ratio(10, 0)
        with pytest.raises(ValueError):
            space_saving_percent(0, 10)


class TestEntropyBoundMargin:
    """n*H - log2 P, with log2 P from `log2_arrangements`."""

    def test_banana(self):
        assert entropy_margin(table_of(3, 1, 2)) == pytest.approx(
            2.8477, abs=1e-3
        )

    def test_single_symbol_is_tight(self):
        assert entropy_margin(table_of(5)) == 0.0
        assert entropy_margin(table_of(0, 17, 0)) == 0.0

    def test_uniform_pair(self):
        assert entropy_margin(table_of(1, 1)) == pytest.approx(1.0)

    @given(bounded_tables)
    def test_strictly_positive_with_two_symbols(self, table):
        assert entropy_margin(table) > 0.0
        exact = math.log2(permutation_count(table))
        assert exact < table.n * shannon_entropy(table)

    @given(bounded_tables)
    def test_payload_within_entropy_budget(self, table):
        budget = math.floor(table.n * shannon_entropy(table)) + 1
        assert payload_width(table) <= budget


class TestMessageStats:
    def test_banana_stats(self):
        stats = message_stats(table_of(3, 1, 2))
        assert stats.n == 6
        assert stats.t_effective == 3
        assert stats.entropy_bits_per_symbol == pytest.approx(1.4591, abs=1e-4)
        assert stats.shannon_total_bits == pytest.approx(8.7546, abs=1e-3)
        assert stats.rank_bound_bits_real == pytest.approx(5.9069, abs=1e-4)
        assert stats.naive_bits == pytest.approx(9.5098, abs=1e-4)
        assert stats.compression_ratio == pytest.approx(1.0863, abs=1e-3)
        assert stats.space_saving_percent == pytest.approx(7.94, abs=0.05)

    def test_degenerate_stats(self):
        stats = message_stats(table_of(9))
        assert stats.compression_ratio == 1.0
        assert stats.space_saving_percent == 0.0
        assert stats.rank_bound_bits_real == 0.0
        empty = message_stats(build_frequency_table([], BYTE_ALPHABET))
        assert empty.n == 0 and empty.shannon_total_bits == 0.0

    @given(bounded_tables)
    def test_invariants(self, table):
        stats = message_stats(table)
        assert stats.rank_bound_bits_real <= stats.shannon_total_bits
        if stats.t_effective >= 2:
            assert stats.rank_bound_bits_real < stats.shannon_total_bits
        for field_value in (
            stats.n,
            stats.t_effective,
            stats.entropy_bits_per_symbol,
            stats.shannon_total_bits,
            stats.rank_bound_bits_real,
            stats.naive_bits,
            stats.compression_ratio,
            stats.space_saving_percent,
        ):
            assert field_value >= 0


class TestRecords:
    """What callers see of the record types: construction, equality,
    hashing, repr, immutability, copy and pickle."""

    def test_alphabet(self):
        alpha = Alphabet((110, 97, 98))
        assert Alphabet(symbols=(97, 98, 110)) == alpha
        assert repr(alpha) == "Alphabet(symbols=(97, 98, 110))"
        check_frozen_record(alpha, Alphabet((98, 110, 97)), Alphabet((97, 98)),
                            {"symbols": (97, 98, 110)})
        for clone in (copy.copy(alpha), pickle.loads(pickle.dumps(alpha))):
            assert clone.rank_of(110) == 2 and 98 in clone and len(clone) == 3

    def test_frequency_table(self):
        alpha = Alphabet((0, 1, 2))
        table = FrequencyTable(alpha, (3, 1, 2))
        assert FrequencyTable(alphabet=alpha, counts=[3, 1, 2]) == table
        # n is derived from the counts, never passed
        with pytest.raises(TypeError):
            FrequencyTable(alpha, (3, 1, 2), 6)
        with pytest.raises(TypeError):
            FrequencyTable(alpha, (3, 1, 2), n=6)
        assert repr(table) == (
            "FrequencyTable(alphabet=Alphabet(symbols=(0, 1, 2)), "
            "counts=(3, 1, 2), n=6)"
        )
        check_frozen_record(table, table_of(3, 1, 2), table_of(3, 2, 1),
                            {"alphabet": alpha, "counts": (3, 1, 2), "n": 6})

    def test_message_stats(self):
        fields = {
            "n": 6,
            "t_effective": 3,
            "entropy_bits_per_symbol": 1.5,
            "shannon_total_bits": 9.0,
            "rank_bound_bits_real": 5.5,
            "naive_bits": 9.5,
            "compression_ratio": 1.25,
            "space_saving_percent": 5.0,
        }
        stats = MessageStats(*fields.values())
        assert MessageStats(**fields) == stats
        assert repr(stats) == (
            "MessageStats(n=6, t_effective=3, entropy_bits_per_symbol=1.5, "
            "shannon_total_bits=9.0, rank_bound_bits_real=5.5, naive_bits=9.5, "
            "compression_ratio=1.25, space_saving_percent=5.0)"
        )
        check_frozen_record(stats, MessageStats(**fields),
                            MessageStats(**{**fields, "n": 7}), fields)
        with pytest.raises(TypeError):
            MessageStats(*list(fields.values())[:-1])
