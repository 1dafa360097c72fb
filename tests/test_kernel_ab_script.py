"""`scripts/kernel_ab.py` runs end to end, with this checkout as its own parent."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BYTE_CLASSES = ["byte-sparse", "byte-random", "sorted", "skewed-8", "runs"]
BIT_CLASSES = ["bit-records", "bits-0.5", "bits-0.01"]
BYTE_KERNELS = ["_rank_message", "_unrank_counts", "_table_rank", "_table_counts"]
BIT_KERNELS = ["_rank_bit_string", "_unrank_bits"]


def _kernel_ab(parent, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_ab.py"),
         "--parent", str(parent), *args],
        capture_output=True, text=True, timeout=300)


def test_against_itself():
    result = _kernel_ab(ROOT, "--rounds", "2", "--json")
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout.splitlines()[-1])["rows"]
    assert [(row["class"], row["kernel"]) for row in rows] == (
        [(c, k) for c in BYTE_CLASSES for k in BYTE_KERNELS]
        + [(c, k) for c in BIT_CLASSES for k in BIT_KERNELS])
    for row in rows:
        assert row["rounds"] == 2 and 0 <= row["won"] <= 2
        assert row["q1"] <= row["ratio"] <= row["q3"]


def test_unequal_outputs_fail_before_timing(tmp_path):
    shutil.copytree(ROOT / "src" / "cbe", tmp_path / "src" / "cbe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    codec = tmp_path / "src" / "cbe" / "codec.py"
    codec.write_text(codec.read_text() + (
        "\n_exact_rank_message = _rank_message\n"
        "def _rank_message(message, alphabet):\n"
        "    rank, counts, permutations = _exact_rank_message(message, alphabet)\n"
        "    return rank + 1, counts, permutations\n"))
    result = _kernel_ab(tmp_path, "--rounds", "2")
    assert result.returncode == 1
    assert "byte-sparse: _rank_message outputs differ" in result.stderr
    assert result.stdout == ""
