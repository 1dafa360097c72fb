"""`scripts/benchmark.py` runs end to end on tiny corpora."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ["constant", "text", "skewed-8", "random", "sorted", "bits-0.1",
           "bits-0.9", "sparse"]


def _benchmark(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark.py"), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_repeated_roundtrips():
    result = _benchmark("--size", "2048", "--repeat", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("cold start")
    assert lines[1] == "size=2048 block_size=4096 mode=byte repeat=2"
    assert [line.split()[0] for line in lines[2:]] == CORPORA
    for line in lines[2:]:
        assert " enc " in line and " dec " in line and " dec/enc " in line


def test_repeat_must_be_positive():
    result = _benchmark("--repeat", "0")
    assert result.returncode == 2
    assert "--repeat must be at least 1" in result.stderr
