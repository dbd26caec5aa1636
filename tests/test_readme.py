"""README's Python examples run, and print what their comments say, and its
library surface lists every name the package exports."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_library_surface_names_each_export_once():
    # The names `ivowa/__init__.py` imports are the public surface; README's
    # "Library surface" section lists each of them once, and nothing else.
    init = ast.parse((ROOT / "src" / "ivowa" / "__init__.py").read_text(encoding="utf-8"))
    exported = sorted(alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                      for alias in node.names)
    section = README.read_text(encoding="utf-8").partition("\n## Library surface\n")[2]
    listed = re.findall(r"`([A-Za-z_]\w*)`", section.partition("\n## ")[0])
    assert sorted(listed) == exported
