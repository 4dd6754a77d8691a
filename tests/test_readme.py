"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    mean, ci95 = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= mean <= 1.0
    assert ci95 >= 0.0
