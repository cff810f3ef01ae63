"""The README's library example runs as written, so a removed name cannot survive in the docs."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the values its comments state
    assert namespace["est"].charge == namespace["Fraction"](1, 2)
    assert int(namespace["k"]) == 1
    assert namespace["dr"].normalize_and_rank(namespace["result"]).top(0.0) == "2x2"
