import math
import random
from collections import Counter

import pytest

from cbe.binomials import multinomial
from cbe.cli import EXIT_OK, EXIT_USAGE, main, parse_args
from cbe.container import DEFAULT_BLOCK_SIZE


def stats_fields(capsys, *argv):
    assert main(["stats", *argv]) == EXIT_OK
    out, _ = capsys.readouterr()
    return dict(line.split("=") for line in out.splitlines())


def binary_entropy(zeros, ones):
    n = zeros + ones
    return -sum(c / n * math.log2(c / n) for c in (zeros, ones) if c)


class TestParseArgs:
    def test_compress_defaults(self):
        args = parse_args(["compress", "in.bin", "out.cbe"])
        assert args.command == "compress"
        assert args.input == "in.bin"
        assert args.output == "out.cbe"
        assert args.block_size == DEFAULT_BLOCK_SIZE
        assert args.mode == "byte"

    def test_unrank_index_becomes_int(self):
        args = parse_args(["unrank", "22", "a=3,b=1,n=2"])
        assert args.index == 22

    @pytest.mark.parametrize("argv", [
        ["compress", "-b", "0", "in.bin"],
        ["unrank", "-1", "a=1"],
        ["unrank", "x1", "a=1"],
    ])
    def test_rejected_values_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err


class TestBitModeStats:
    """Bit-mode stats count ones exactly, whatever the byte pattern."""

    @pytest.mark.parametrize("data", [
        b"\x01",
        b"\x80\x00\x00",
        b"\xff\xff\xff\x00",
        b"\x00" * 9,
        bytes(random.Random(8).randbytes(300)),
    ], ids=["low-bit", "high-bit", "mostly-ones", "all-zero", "random"])
    def test_counts_ones(self, data, tmp_path, capsys):
        src = tmp_path / "bits"
        src.write_bytes(data)
        fields = stats_fields(capsys, "--mode", "bit", str(src))
        ones = sum(bin(b).count("1") for b in data)
        zeros = 8 * len(data) - ones
        assert fields["n"] == str(8 * len(data))
        assert fields["t_effective"] == str((zeros > 0) + (ones > 0))
        assert float(fields["entropy_bits_per_symbol"]) == pytest.approx(
            binary_entropy(zeros, ones), abs=1e-4
        )
        assert float(fields["rank_bound_bits"]) == pytest.approx(
            math.log2(math.comb(zeros + ones, ones)), abs=1e-3
        )


class TestStatsRankBound:
    """`rank_bound_bits` comes from lgamma, yet prints as the exact
    count's log2 does."""

    @pytest.mark.parametrize("mode", ["byte", "bit"])
    @pytest.mark.parametrize("data", [
        b"banana",
        b"\x07" * 1000,
        bytes(random.Random(10).randbytes(4096)),
    ], ids=["banana", "constant", "random-4k"])
    def test_prints_exact_value(self, data, mode, tmp_path, capsys):
        src = tmp_path / "data"
        src.write_bytes(data)
        fields = stats_fields(capsys, "--mode", mode, str(src))
        if mode == "byte":
            permutations = multinomial(Counter(data).values())
        else:
            ones = sum(bin(b).count("1") for b in data)
            permutations = math.comb(8 * len(data), ones)
        assert fields["rank_bound_bits"] == f"{math.log2(permutations):.4f}"


class TestSharedParser:
    """`main` reuses one parser; no option leaks from one call to the next."""

    def test_bit_mode_then_default_mode(self, tmp_path, capsys):
        src = tmp_path / "data"
        src.write_bytes(bytes(random.Random(9).randbytes(100)))
        assert stats_fields(capsys, str(src), "--mode", "bit")["n"] == "800"
        fields = stats_fields(capsys, str(src))
        assert fields["n"] == "100"
        assert int(fields["t_effective"]) > 2  # byte symbols, not bits

    def test_block_size_does_not_stick(self, tmp_path, capsys):
        src = tmp_path / "data"
        src.write_bytes(b"abc" * 100)
        small = stats_fields(capsys, str(src), "-b", "7")
        default = stats_fields(capsys, str(src))
        assert int(small["header_bytes"]) > int(default["header_bytes"])
        assert parse_args(["stats", str(src)]).block_size == DEFAULT_BLOCK_SIZE
