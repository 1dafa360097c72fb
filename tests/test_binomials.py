import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbe.binomials import mpz, multinomial
from helpers import factorial_multinomial


class TestBinomial:
    @pytest.mark.parametrize(
        "n,k,want",
        [(10, 7, 120), (0, 0, 1), (5, 0, 1), (9, 6, 84), (7, 5, 21)],
    )
    def test_values(self, n, k, want):
        assert multinomial((k, n - k)) == want

    def test_equals_two_part_multinomial(self):
        for n in range(65):
            for k in range(n + 1):
                assert math.comb(n, k) == multinomial((k, n - k))


class TestMultinomial:
    @pytest.mark.parametrize(
        "counts,want",
        [((3, 1, 2), 60), ((0, 0, 5), 1), ((2, 2), 6), ((), 1), ((0,), 1)],
    )
    def test_values(self, counts, want):
        assert multinomial(counts) == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multinomial((2, -1))

    def test_returns_plain_int(self):
        assert type(multinomial((3, 1, 2))) is int
        assert type(multinomial(())) is int

    @pytest.mark.parametrize("nonzero", [0, 1, 2, 3, 5, 255, 256])
    def test_pairwise_product_of_any_length(self, nonzero):
        # the binomials are multiplied pairwise, so each level of the
        # pairing meets both odd and even lengths
        rng = random.Random(nonzero)
        counts = []
        for _ in range(nonzero):
            counts += [0] * rng.randrange(3)
            counts.append(rng.randrange(1, 40))
        counts.append(0)
        got = multinomial(counts)
        assert type(got) is int
        assert got == factorial_multinomial(counts)

    def test_large_counts_exact(self):
        assert multinomial((1000, 1000)) == math.comb(2000, 1000)
        assert multinomial((40, 0, 25, 7)) == factorial_multinomial((40, 25, 7))

    def test_mpz_arithmetic_is_exact(self):
        big = mpz(3) ** 200
        assert int(big * 7 // 7) == 3 ** 200
        assert int(mpz(0)) == 0

    @given(st.lists(st.integers(0, 12), max_size=8))
    def test_matches_factorial_formula(self, counts):
        assert multinomial(counts) == factorial_multinomial(counts)

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    def test_symmetric_in_counts(self, counts):
        assert multinomial(counts) == multinomial(sorted(counts))
