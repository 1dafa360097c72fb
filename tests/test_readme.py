"""The README's `>>>` example runs as a doctest, so it cannot name an
API that no longer exists."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    text = README.read_text()
    blocks = [b for b in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S)
              if ">>>" in b]
    assert blocks, "the README has no >>> example"
    runner = doctest.DocTestRunner()
    parser = doctest.DocTestParser()
    for index, block in enumerate(blocks):
        name = f"README.md block {index}"
        runner.run(parser.get_doctest(block, {}, name, str(README), 0))
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
