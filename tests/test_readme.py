"""README's library examples run against the package as documented."""
import contextlib
import io
import re
from pathlib import Path

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
