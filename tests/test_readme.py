"""The README's library quick start runs as written and prints what its
comment says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_chooses_what_its_comment_says(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    comment = re.search(r"print\(sweep\.chosen\)\s*#\s*(\{.*\})", block).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["sweep"].chosen == ast.literal_eval(comment)
    assert capsys.readouterr().out == f"{comment}\n"
