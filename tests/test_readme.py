"""The README's library example runs and gives the values its comment shows."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs_and_matches_its_comment():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    comment = re.search(r"# parts == (\{.*?\})", block, re.S).group(1)
    expected = ast.literal_eval(re.sub(r"\n#\s*", " ", comment))
    assert expected["synergetic"] == 0.13081203594113702
    assert namespace["parts"] == expected
