"""The README's library example runs, so a renamed public name breaks the build."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "dimension_kind='exact', dimension=17" in out  # as the example's comment says
    assert out.splitlines()[-1].startswith("5 Codim2Class(")
