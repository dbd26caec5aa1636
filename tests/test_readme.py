"""README's Python examples run, and print what their comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_each_print_shows_its_commented_value(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    # The blocks run in order in one namespace, as a reader pastes them; each
    # `print(...)   # value` line prints one line, the comment's text.
    namespace = {}
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        exec(compile(block, str(README), "exec"), namespace)
        assert capsys.readouterr().out.splitlines() == expected
