"""The README's library example runs and prints what its comment says."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comment():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    expected = re.search(r"print\(.*\)\s*# (.*)", code)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == expected + "\n"
