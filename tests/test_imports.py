"""What importing `cbe` loads from the standard library.

Every `cbe` command runs in a fresh interpreter, so each module the
package imports is paid again on every run. The check runs in a fresh
`-E -s` interpreter and compares `sys.modules` before and after the
import, so modules that start-up itself loads do not count.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "__import__(sys.argv[2])\n"
    "print(*sorted(set(sys.modules) - before))\n"
)

# A bit-mode roundtrip whose blocks have lone ones, short runs, a
# majority of ones, and runs of ones too long to take one at a time.
BIT_ROUNDTRIP = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cbe.container import MODE_BIT, compress_bytes, decompress_bytes\n"
    "data = bytes(range(256)) * 8 + b'\\x01' * 300 + b'\\xff' * 600 + bytes(600)\n"
    "assert decompress_bytes(compress_bytes(data, mode=MODE_BIT)) == data\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


@pytest.mark.parametrize("module, unwanted", [
    ("cbe", {"dataclasses", "inspect", "random", "argparse"}),
    # `cbe selftest` imports its vectors and oracle when it runs
    ("cbe.cli", {"dataclasses", "inspect", "random",
                 "cbe.selftest", "cbe.oracle"}),
])
def test_import_loads_no_unwanted_modules(module, unwanted):
    loaded = loaded_by_import(module, "-s")
    assert module in loaded
    assert sorted(loaded & unwanted) == []


def test_import_without_site_loads_no_re():
    # Under -S start-up skips `site`, which on some installs loads `re`
    # through a `.pth` file.
    loaded = loaded_by_import("cbe", "-S")
    assert "cbe" in loaded
    assert sorted(loaded & {"re", "enum"}) == []


def test_bit_mode_roundtrip_without_site_loads_no_re():
    # bit mode finds its runs with `str.split` and `str.find`, so ranking
    # and unranking a block loads no regular expression engine either
    loaded = loaded_by("-S", BIT_ROUNDTRIP, str(SRC))
    assert "cbe.container" in loaded
    assert sorted(loaded & {"re", "enum"}) == []


def loaded_by_import(module, site_flag):
    """Modules a fresh `-E` interpreter loads to import `module`."""
    return loaded_by(site_flag, CHILD, str(SRC), module)


def loaded_by(site_flag, code, *args):
    """The module names a fresh `-E` interpreter running `code` prints."""
    proc = subprocess.run(
        [sys.executable, "-E", site_flag, "-c", code, *args],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())
