"""README's library examples run against the package as documented, its
Keys block lists the values the config parser accepts, and the module
constants it names exist with the values it gives."""
import ast
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import densiflock
from densiflock.config import _KEY_TYPES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_print_their_output_comments():
    # Each ```python block runs on its own; the lines it prints must be the
    # quoted `# "..."` comments of its lines, in order.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    expected = [re.findall(r'#\s*"([^"]*)"\s*$', block, re.M) for block in blocks]
    assert any(expected)  # at least one block states what it prints
    for block, lines in zip(blocks, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        assert out.getvalue().splitlines() == lines


def test_readme_keys_list_every_choice_exactly():
    # Each unindented line of the Keys block opens with the keys it covers,
    # one space apart, then two or more spaces: together they are the keys
    # the parser accepts.  The line `key  a | b | ...` of each choice key
    # names the values the parser accepts, no more and no fewer.
    block = re.search(r"^Keys:\n\n```\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    named = " ".join(re.findall(r"^(\w+(?: \w+)*) {2,}", block, re.M)).split()
    assert sorted(named) == sorted(_KEY_TYPES)
    for key, (kind, allowed) in _KEY_TYPES.items():
        if kind == "choice":
            line = re.search(rf"^{key}\s+(.*)$", block, re.M)
            assert line, f"README Keys block has no {key} line"
            listed = re.split(r"\s{2,}", line.group(1))[0].split(" | ")
            assert sorted(listed) == sorted(allowed), key


CONSTANT = r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+"


def test_readme_constants_exist_with_their_values():
    # Every backticked ALL_CAPS name with an underscore is a module constant
    # of the package, and "`NAME` = value" gives its value.
    constants = {}
    for info in pkgutil.iter_modules(densiflock.__path__):
        module = importlib.import_module(f"densiflock.{info.name}")
        constants.update((k, v) for k, v in vars(module).items() if re.fullmatch(CONSTANT, k))
    text = README.read_text()
    named = set(re.findall(rf"`({CONSTANT})`", text))
    assert named and sorted(named - constants.keys()) == []
    for name, value in re.findall(rf"`({CONSTANT})` = ([\w.+-]*\w)", text):
        assert constants[name] == ast.literal_eval(value), name
