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
    # through a `.pth` file; bit mode compiles its one regular
    # expression on first use instead of at import.
    loaded = loaded_by_import("cbe", "-S")
    assert "cbe" in loaded
    assert sorted(loaded & {"re", "enum"}) == []


def loaded_by_import(module, site_flag):
    """Modules a fresh `-E` interpreter loads to import `module`."""
    proc = subprocess.run(
        [sys.executable, "-E", site_flag, "-c", CHILD, str(SRC), module],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())
