"""The README's library example and CLI block run as written, so a removed name,
a renamed flag or a rejected spelling cannot survive in the docs."""
import re
import shlex
from pathlib import Path

from defect_robust.cli import main

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


def test_cli_block_runs(tmp_path, monkeypatch):
    cli_section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", cli_section, re.S)
    assert len(blocks) == 1
    commands = [shlex.split(line, comments=True) for line in blocks[0].splitlines() if line.strip()]
    assert commands and all(argv[0] == "defect-robust" for argv in commands)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text('{"n_centers": 20}')
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
