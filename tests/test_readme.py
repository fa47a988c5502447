"""The README's ``python`` blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    # the Library block's last line prints the K4 optimum it comments on
    assert capsys.readouterr().out.splitlines()[-1] == "5"
