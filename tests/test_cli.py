import io
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cbe
from cbe.cli import main
from cbe.container import MODE_BIT, MODE_BYTE, compress_bytes
from helpers import FailingSource, probe_archive


def run(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCompressDecompress:
    def test_file_roundtrip(self, tmp_path, capsys):
        data = bytes(random.Random(5).randbytes(30_000))
        src = tmp_path / "data.bin"
        arc = tmp_path / "data.cbe"
        back = tmp_path / "data.out"
        src.write_bytes(data)
        code, _, err = run("compress", str(src), str(arc), capsys=capsys)
        assert code == 0 and err == ""
        code, _, err = run("decompress", str(arc), str(back), capsys=capsys)
        assert code == 0 and err == ""
        assert back.read_bytes() == data

    def test_bit_mode_flag(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"hello bits")
        arc = tmp_path / "x.cbe"
        code, _, _ = run("compress", "--mode", "bit", str(src), str(arc),
                         capsys=capsys)
        assert code == 0
        assert arc.read_bytes()[4] == MODE_BIT

    def test_empty_file(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.write_bytes(b"")
        arc = tmp_path / "empty.cbe"
        back = tmp_path / "empty.out"
        assert run("compress", str(src), str(arc), capsys=capsys)[0] == 0
        assert arc.read_bytes() == b"CBE2\x01\x80\x20\x00"
        assert run("decompress", str(arc), str(back), capsys=capsys)[0] == 0
        assert back.read_bytes() == b""

    def test_stdio_pipe(self, tmp_path, capsys, monkeypatch):
        data = b"pipe me through"
        stdin = types.SimpleNamespace(buffer=io.BytesIO(data))
        stdout = types.SimpleNamespace(buffer=io.BytesIO())
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["compress"]) == 0
        archive = stdout.buffer.getvalue()
        assert archive == compress_bytes(data)

        stdin = types.SimpleNamespace(buffer=io.BytesIO(archive))
        stdout = types.SimpleNamespace(buffer=io.BytesIO())
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["decompress"]) == 0
        assert stdout.buffer.getvalue() == data

    def test_decompress_garbage_is_format_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus"
        bogus.write_bytes(b"this is not an archive")
        out = tmp_path / "out"
        code, _, err = run("decompress", str(bogus), str(out), capsys=capsys)
        assert code == 3
        assert "bad magic" in err

    @pytest.mark.parametrize("mode", ["byte", "bit"])
    def test_huge_block_size(self, tmp_path, capsys, mode):
        # the block size does not size a read buffer
        src = tmp_path / "small.txt"
        src.write_bytes(b"a small file, one block\n" * 3)
        arc = tmp_path / "small.cbe"
        back = tmp_path / "small.out"
        code, _, err = run("compress", "-b", "1000000000000", "--mode", mode,
                           str(src), str(arc), capsys=capsys)
        assert (code, err) == (0, "")
        assert run("decompress", str(arc), str(back), capsys=capsys)[0] == 0
        assert back.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("mode", ["byte", "bit"])
    def test_block_size_above_the_cap(self, tmp_path, capsys, mode):
        # the writer stays within the default reader's cap of 2^20 symbols
        src = tmp_path / "data"
        src.write_bytes(bytes(3 << 20) + random.Random(8).randbytes(200))
        arc = tmp_path / "data.cbe"
        back = tmp_path / "data.out"
        code, _, err = run("compress", "-b", "2000000", "--mode", mode,
                           str(src), str(arc), capsys=capsys)
        assert (code, err) == (0, "")
        code, _, err = run("decompress", str(arc), str(back), capsys=capsys)
        assert (code, err) == (0, "")
        assert back.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("mode,block_size", [("byte", 4096), ("bit", 32768)])
    def test_read_error_is_io_error(self, capsys, monkeypatch, mode, block_size):
        source = FailingSource(bytes(range(256)) * 80, fail_at=2)
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=source))
        monkeypatch.setattr(sys, "stdout",
                            types.SimpleNamespace(buffer=io.BytesIO()))
        code, _, err = run("compress", "--mode", mode, "-b", str(block_size),
                           capsys=capsys)
        assert code == 2
        assert err == "cbe: reading block 2: disk on fire\n"

    def test_block_cap(self, tmp_path, capsys):
        src = tmp_path / "data"
        src.write_bytes(bytes(random.Random(6).randbytes(3000)))
        arc = tmp_path / "data.cbe"
        back = tmp_path / "data.out"
        assert run("compress", "-b", "2000", str(src), str(arc), capsys=capsys)[0] == 0
        code, _, err = run("decompress", "--block-cap", "1999", str(arc), str(back),
                           capsys=capsys)
        assert (code, err) == (3, "cbe: block 1: 2000 symbols, above the cap of 1999\n")
        code, _, err = run("decompress", "--block-cap", "2000", str(arc), str(back),
                           capsys=capsys)
        assert (code, err) == (0, "")
        assert back.read_bytes() == src.read_bytes()
        assert run("decompress", "--block-cap", "0", str(arc), capsys=capsys)[0] == 1

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, err = run("compress", str(tmp_path / "absent"), "-",
                           capsys=capsys)
        assert code == 2
        assert err != ""


# Decompress in a child whose address space is capped at 1 GiB, so that
# an allocation the size of a hostile block fails there with MemoryError.
_CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cbe.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestHostileProbe:
    """The probe block claims 2^34 symbols in a few dozen bytes."""

    @pytest.mark.parametrize("magic", [b"CBE1", b"CBE2"])
    @pytest.mark.parametrize("mode", [MODE_BYTE, MODE_BIT])
    @pytest.mark.parametrize("cap", [None, str(2 ** 34)], ids=["default-cap", "raised-cap"])
    def test_exits_three_with_one_line(self, tmp_path, magic, mode, cap):
        # the default cap refuses the block; with the cap raised past it,
        # memory runs out instead, which is reported the same way
        probe = tmp_path / "probe.cbe"
        probe.write_bytes(probe_archive(magic, mode))
        argv = ["decompress", str(probe), str(tmp_path / "out")]
        if cap:
            argv[1:1] = ["--block-cap", cap]
        env = dict(os.environ, PYTHONPATH=str(Path(cbe.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("cbe: block 1: 17179869184 symbols")
        assert proc.stderr.count("\n") == 1


class TestStats:
    def test_banana(self, tmp_path, capsys):
        src = tmp_path / "banana"
        src.write_bytes(b"banana")
        code, out, _ = run("stats", str(src), capsys=capsys)
        assert code == 0
        fields = dict(line.split("=") for line in out.splitlines())
        assert fields["n"] == "6"
        assert fields["t_effective"] == "3"
        assert float(fields["entropy_bits_per_symbol"]) == pytest.approx(
            1.4591, abs=1e-4
        )
        assert float(fields["shannon_total_bits"]) == pytest.approx(
            8.7546, abs=1e-3
        )
        assert float(fields["naive_bits"]) == pytest.approx(9.5098, abs=1e-4)
        assert float(fields["rank_bound_bits"]) == pytest.approx(
            5.9069, abs=1e-4
        )
        assert fields["payload_bits"] == "6"
        assert fields["header_bytes"] == "18"
        assert fields["total_archive_bytes"] == "19"
        assert float(fields["compression_ratio"]) == pytest.approx(
            1.0863, abs=1e-3
        )
        assert float(fields["space_saving_percent"]) == pytest.approx(
            7.94, abs=0.05
        )

    def test_constant_input(self, tmp_path, capsys):
        src = tmp_path / "constant"
        src.write_bytes(b"z" * 500)
        code, out, _ = run("stats", str(src), capsys=capsys)
        assert code == 0
        fields = dict(line.split("=") for line in out.splitlines())
        assert float(fields["entropy_bits_per_symbol"]) == 0.0
        assert fields["payload_bits"] == "0"
        assert float(fields["compression_ratio"]) == 1.0

    def test_bit_mode(self, tmp_path, capsys):
        src = tmp_path / "bits"
        src.write_bytes(b"\x0f\x0f")
        code, out, _ = run("stats", "--mode", "bit", str(src), capsys=capsys)
        assert code == 0
        fields = dict(line.split("=") for line in out.splitlines())
        assert fields["n"] == "16"
        assert fields["t_effective"] == "2"
        assert float(fields["entropy_bits_per_symbol"]) == 1.0


class TestRankUnrank:
    def test_rank_banana(self, capsys):
        code, out, _ = run("rank", "banana", capsys=capsys)
        assert code == 0
        assert out.strip() == "22  a=3,b=1,n=2"

    def test_unrank_extremes(self, capsys):
        assert run("unrank", "0", "a=3,b=1,n=2", capsys=capsys)[1].strip() == \
            "nnbaaa"
        assert run("unrank", "22", "a=3,b=1,n=2", capsys=capsys)[1].strip() == \
            "banana"
        assert run("unrank", "59", "a=3,b=1,n=2", capsys=capsys)[1].strip() == \
            "aaabnn"

    def test_rank_unrank_inverse(self, capsys):
        word = "mississippi"
        code, out, _ = run("rank", word, capsys=capsys)
        rank, spec = out.split()
        code, out, _ = run("unrank", rank, spec, capsys=capsys)
        assert code == 0 and out.strip() == word

    def test_unrank_out_of_range(self, capsys):
        code, _, err = run("unrank", "60", "a=3,b=1,n=2", capsys=capsys)
        assert code == 3
        assert "out of range" in err

    def test_malformed_freq_spec(self, capsys):
        code, _, err = run("unrank", "0", "a=3,b", capsys=capsys)
        assert code == 1
        assert err != ""

    def test_negative_index(self, capsys):
        code, _, err = run("unrank", "-4", "a=1", capsys=capsys)
        assert code == 1


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        code, first, _ = run("selftest", capsys=capsys)
        assert code == 0
        assert first.count(": ok") == 4
        code, second, _ = run("selftest", capsys=capsys)
        assert code == 0
        assert first == second

    def test_failure_exits_four_with_detail(self, capsys, monkeypatch):
        from cbe import selftest

        def broken():
            return [selftest.GroupResult("binary-worked-example", False,
                                         "expected 251, actual 403")]

        monkeypatch.setattr(selftest, "run_all", broken)
        code, out, _ = run("selftest", capsys=capsys)
        assert code == 4
        assert "FAIL" in out and "403" in out


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run("frobnicate", capsys=capsys)
        assert code == 1
        assert err != ""

    def test_no_command(self, capsys):
        assert run(capsys=capsys)[0] == 1

    def test_bad_block_size(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"x")
        code, _, err = run("compress", "-b", "0", str(src), "-", capsys=capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help", capsys=capsys)[0] == 0
